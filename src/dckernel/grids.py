"""Ordered sample grids on the unit interval and on the half line."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

UNIT01 = "unit01"
HALFLINE = "halfline"


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample instants plus a domain tag.

    ``unit01`` grids live in (0, 1] with an implicit anchor at 0;
    ``halfline`` grids live in [0, inf) with an implicit anchor at
    infinity.  Construct through `unit_grid` or `halfline_grid`.
    """

    points: np.ndarray
    domain: str

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise DomainError("grid must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(pts)):
            raise DomainError("grid points must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise DomainError("grid points must be strictly increasing")
        if self.domain == UNIT01:
            if pts[0] <= 0.0 or pts[-1] > 1.0:
                raise DomainError("unit-interval grid points must lie in (0, 1]")
        elif self.domain == HALFLINE:
            if pts[0] < 0.0:
                raise DomainError("half-line grid points must be >= 0")
        else:
            raise DomainError(f"unknown grid domain {self.domain!r}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.size

    @property
    def n(self):
        return self.points.size


def unit_grid(points) -> TimeGrid:
    """Grid on (0, 1], strictly increasing."""
    return TimeGrid(np.asarray(points, dtype=float), UNIT01)


def halfline_grid(points) -> TimeGrid:
    """Grid on [0, inf), strictly increasing."""
    return TimeGrid(np.asarray(points, dtype=float), HALFLINE)


def as_halfline_points(grid) -> np.ndarray:
    """Validated point array from a half-line TimeGrid or a raw sequence."""
    if isinstance(grid, TimeGrid):
        if grid.domain != HALFLINE:
            raise DomainError("expected a half-line grid")
        return grid.points
    return halfline_grid(grid).points

