"""Composite Gauss-Legendre quadrature on the unit interval.

Three features cover everything the package integrates:

* explicit split points, so integrands with an interior kink (min-type
  kernels, piecewise input signals) never straddle a panel;
* geometric panel grading toward 0 for endpoint power singularities;
* a tail-extension loop on [0, inf) for exponentially decaying integrands
  (`integrate_halfline`), whose panels grow geometrically to the
  integrand's own scale, however slow its decay, in a few steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "refined",
    "composite_rule",
    "unit_breakpoints",
    "integrate_unit",
    "integrate_halfline",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Panelization parameters shared by all quadrature call sites."""

    panels: int = 512
    nodes: int = 8
    grading_ratio: float = 0.7
    graded_panels: int = 64
    rel_tol: float = 1e-8
    max_extensions: int = 100

    def __post_init__(self):
        if self.panels < 1 or self.nodes < 1 or self.graded_panels < 1:
            raise DomainError("panel and node counts must be >= 1")
        if not 0.0 < self.grading_ratio < 1.0:
            raise DomainError("grading_ratio must lie in (0, 1)")
        if self.rel_tol <= 0.0 or self.max_extensions < 1:
            raise DomainError("rel_tol must be > 0 and max_extensions >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()


def refined(cfg: QuadratureConfig, factor: int = 2) -> QuadratureConfig:
    """Same rule with ``factor`` times as many uniform panels."""
    return replace(cfg, panels=cfg.panels * factor)


@lru_cache(maxsize=32)
def _gauss_legendre(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def composite_rule(breakpoints, nodes):
    """Nodes and weights of panel-wise Gauss-Legendre over ``breakpoints``."""
    b = np.asarray(breakpoints, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise DomainError("need at least two breakpoints")
    x, w = _gauss_legendre(nodes)
    half = 0.5 * (b[1:] - b[:-1])
    mid = 0.5 * (b[1:] + b[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def unit_breakpoints(cfg: QuadratureConfig, *, graded: bool = False, splits=()):
    """Panel breakpoints on [0, 1].

    ``graded`` subdivides the first uniform panel geometrically toward 0;
    ``splits`` inserts extra breakpoints at interior kink locations.
    """
    pieces = [np.linspace(0.0, 1.0, cfg.panels + 1)]
    if graded:
        h = 1.0 / cfg.panels
        pieces.append(h * cfg.grading_ratio ** np.arange(1, cfg.graded_panels + 1))
    splits = np.asarray(splits, dtype=float)
    if splits.size:
        splits = splits[(splits > 0.0) & (splits < 1.0)]
        pieces.append(splits)
    return np.unique(np.concatenate(pieces))


def integrate_unit(f, cfg: QuadratureConfig, *, graded: bool = False, splits=()):
    """Integral of a vectorized ``f`` over [0, 1] with a fixed rule."""
    pts, wts = composite_rule(unit_breakpoints(cfg, graded=graded, splits=splits), cfg.nodes)
    return float(np.sum(wts * f(pts)))


_CHUNK = 8  # panels appended per tail extension
_RESOLVED = 3.0  # |d| times a panel's length: 8 nodes then integrate exp(-d t) to 1e-15


def integrate_halfline(f, cfg: QuadratureConfig, *, scale: float, splits=(), nan_edge=False):
    """Integral of a non-negative ``f`` over [0, inf) that decays exponentially.

    ``cfg.panels`` uniform panels cover [0, scale]; then panels are appended
    `_CHUNK` at a time, each ending at most 1 / ratio times as far out as it
    starts and at most `_RESOLVED` / |d| long, d the log-slope of ``f`` at
    the last node; after a split they restart at a base panel's length.  So
    exp(-d t) takes about log(1 / (d scale)) / log(1 / ratio) panels.

    A panel's estimate is the total so far plus the integral of the
    exponential through its last two nodes.  The loop returns the first
    estimate past the last split that agrees with the one before to
    ``rel_tol / 50`` once its panel spans 1 / d (or f has reached 0).  A
    value that is not finite before then raises `DivergenceError` where f
    grew and `QuadratureError` where it decayed, as does an exhausted
    budget.  With ``nan_edge``, a NaN marks where the inputs of f left the
    floating-point range, and an agreeing estimate is returned there: a slow
    decay can reach that edge long before its panels span 1 / d.
    """
    splits = np.unique([float(x) for x in splits if x > 0.0])
    base = np.union1d(np.linspace(0.0, scale, cfg.panels + 1), splits[splits < scale])
    pts, wts = composite_rule(base, cfg.nodes)
    vals = f(pts)
    if not np.all(np.isfinite(vals)):
        raise DivergenceError("integrand not finite on the base rule", estimates=None)
    total = float(np.sum(wts * vals))
    later, last = splits[splits > scale].tolist(), (splits[-1] if splits.size else 0.0)
    threshold, grow = cfg.rel_tol / 50.0, 1.0 / cfg.grading_ratio
    first, step = scale / cfg.panels, np.inf
    edges, estimate, agreed = [scale], np.inf, False
    slope = float(_log_slopes(pts[-cfg.nodes :], vals[-cfg.nodes :]))
    for _ in range(cfg.max_extensions):
        edges, longest = edges[-1:], _RESOLVED / abs(slope) if slope else np.inf
        for _ in range(_CHUNK):
            start = edges[-1]
            end = start + min(step, start * (grow - 1.0), longest)
            if later and later[0] < end:
                end, step = later.pop(0), first
            else:
                step = (end - start) * grow
            edges.append(end)
        p, w = composite_rule(edges, cfg.nodes)
        p, w, v = (a.reshape(_CHUNK, cfg.nodes) for a in (p, w, f(p)))
        slopes = _log_slopes(p, v)
        with np.errstate(over="ignore"):
            deltas = np.sum(w * v, axis=1).tolist()
        tails = _tails(p, v, slopes, edges[1:]).tolist()
        for k, (delta, tail, rate) in enumerate(zip(deltas, tails, slopes.tolist())):
            if not math.isfinite(delta):
                if nan_edge and agreed and math.isnan(delta):
                    return estimate
                error = DivergenceError if slope <= 0.0 else QuadratureError
                raise error("integrand not finite before settling", estimates=(total, estimate))
            total += delta
            previous, estimate, slope = estimate, total + tail, rate
            agreed = edges[k] >= last and abs(estimate - previous) <= threshold * estimate < np.inf
            # the last two nodes fix the log-slope to rounding once the panel spans 1 / slope
            if agreed and (slope * (edges[k + 1] - edges[k]) >= 1.0 or tail == 0.0):
                return estimate
    raise QuadratureError("tail did not settle within the budget", estimates=(total,) * 2)


def _log_slopes(x, v):
    """-d log f / dt through each panel's last two nodes; 0 where a value is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.log(v[..., -2] / v[..., -1]) / (x[..., -1] - x[..., -2])
    return np.where((v[..., -1] > 0.0) & (v[..., -2] > 0.0), slope, 0.0)


def _tails(x, v, slope, end):
    """Integral beyond ``end`` of the exponential through each panel's last two nodes."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tail = v[..., -1] * np.exp(-slope * (end - x[..., -1])) / slope
    return np.where(slope > 0.0, tail, np.where(v[..., -1] == 0.0, 0.0, np.inf))
