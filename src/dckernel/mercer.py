"""Series expansions of the first-order spline kernel family.

The first-order spline kernel on the unit interval diagonalizes in closed
form: eigenvalues 1/((i - 1/2)^2 pi^2) with sine eigenfunctions under the
Lebesgue measure.  The power-weighted variant and the half-line ``dc``/``tc``
families share the same eigenvalues; their eigenfunctions and integration
measures follow from the power weight and the exponential change of
coordinates.  `EigenSystem` bundles a kernel with its truncation level and
the verification routines integrate the eigen-identities numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .kernels import KernelSpec, eval_kernel, genspline1, stable_coordinate
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate_unit, refined

__all__ = [
    "EigenSystem",
    "eigenvalue",
    "eigenvalues",
    "spline1_tail_bound",
    "eigenfunction",
    "expansion_grid",
    "verify_eigen_equation",
    "verify_orthonormality",
]


def eigenvalue(i):
    """i-th eigenvalue, 1-based: 1 / ((i - 1/2)^2 pi^2)."""
    idx = np.asarray(i)
    if np.any(idx != np.floor(idx)) or np.any(idx < 1):
        raise DomainError("eigen index must be an integer >= 1")
    out = 1.0 / ((np.asarray(idx, dtype=float) - 0.5) ** 2 * math.pi ** 2)
    return float(out) if out.ndim == 0 else out


def eigenvalues(count: int) -> np.ndarray:
    """First ``count`` eigenvalues as an array."""
    if count < 1:
        raise DomainError("count must be >= 1")
    return eigenvalue(np.arange(1, count + 1))


def spline1_tail_bound(truncation: int) -> float:
    """Uniform bound on the unit-square expansion error after ``truncation`` terms."""
    if truncation < 1:
        raise DomainError("truncation must be >= 1")
    return 2.0 / (math.pi ** 2 * (truncation - 0.5))


@dataclass(frozen=True)
class EigenSystem:
    """Eigen-decomposition of spline1, genspline1 or the dc/tc families."""

    kernel: KernelSpec
    truncation: int = 1000

    def __post_init__(self):
        if not (self.unit_side or self.kernel.stable):
            raise DomainError(
                f"no closed-form eigen-system for variant {self.kernel.variant!r}"
            )
        if self.truncation < 1:
            raise DomainError("truncation must be >= 1")

    @property
    def rho(self) -> float:
        v = self.kernel.variant
        if v == "spline1":
            return 0.0
        if v == "genspline1":
            return self.kernel.rho
        return self.kernel.stable_rho

    @property
    def unit_side(self) -> bool:
        return self.kernel.variant in ("spline1", "genspline1")


def _sine_part(i, tau):
    """sqrt(2) sin((i - 1/2) pi tau), vectorized over both arguments."""
    return math.sqrt(2.0) * np.sin((np.asarray(i) - 0.5) * math.pi * tau)


def _power_sine(rho, i, tau):
    """tau^rho sqrt(2) sin((i - 1/2) pi tau) with the tau = 0 edge closed."""
    tau = np.asarray(tau, dtype=float)
    base = _sine_part(i, tau)
    if rho == 0.0:
        return base
    with np.errstate(divide="ignore", invalid="ignore"):
        val = tau ** rho * base
    # limit is 0 at tau = 0 for every rho > -1/2
    return np.where(tau == 0.0, 0.0, val)


def _to_unit(system: EigenSystem, x):
    x = np.asarray(x, dtype=float)
    if system.unit_side:
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise DomainError("evaluation points must lie in [0, 1]")
        return x
    if np.any(x < 0.0):
        raise DomainError("evaluation points must be >= 0")
    return stable_coordinate(system.kernel, x)


def _check_index(i):
    if int(i) != i or i < 1:
        raise DomainError("eigen index must be an integer >= 1")
    return int(i)


def eigenfunction(system: EigenSystem, i, x):
    """i-th eigenfunction at ``x`` (native coordinates of the system)."""
    i = _check_index(i)
    tau = _to_unit(system, x)
    out = np.asarray(_power_sine(system.rho, i, tau))
    return float(out) if out.ndim == 0 else out


def expansion_grid(system: EigenSystem, x, y, truncation: int | None = None) -> np.ndarray:
    """Partial kernel series on the full ``x`` x ``y`` grid."""
    m = system.truncation if truncation is None else int(truncation)
    if m < 1:
        raise DomainError("truncation must be >= 1")
    xt = np.atleast_1d(_to_unit(system, x))
    ys = np.atleast_1d(_to_unit(system, y))
    idx = np.arange(1, m + 1)
    lam = eigenvalue(idx)
    ex = _power_sine(system.rho, idx[None, :], xt[:, None])
    ey = _power_sine(system.rho, idx[None, :], ys[:, None])
    return (ex * lam[None, :]) @ ey.T


def _unit_weight(rho, nu):
    if rho == 0.0:
        return np.ones_like(nu)
    return nu ** (-2.0 * rho)


def _operator_apply(rho, probe, i, cfg):
    """Integral of kernel(probe, .) * eigenfunction * weight over (0, 1]."""
    spec = genspline1(rho)

    def integrand(nu):
        return eval_kernel(spec, probe, nu) * _power_sine(rho, i, nu) * _unit_weight(rho, nu)

    graded = rho != 0.0
    return integrate_unit(integrand, cfg, graded=graded, splits=(probe,))


def _guarded_pair(value_fn, cfg, scale):
    coarse = value_fn(cfg)
    fine = value_fn(refined(cfg))
    gap = abs(fine - coarse)
    if gap > cfg.rel_tol * max(abs(fine), scale):
        raise QuadratureError(
            f"refinement moved the integral by {gap:.3e}; rule too coarse",
            estimates=(coarse, fine),
        )
    return fine


def verify_eigen_equation(
    system: EigenSystem, i, probes, quad: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Worst residual of the eigen-identity over the probe points.

    Each probe is mapped to the unit interval, the kernel operator is
    applied by quadrature (split at the probe, graded when the power
    weight is active), and the result is compared with eigenvalue times
    eigenfunction.  A disagreement between two panel resolutions beyond
    ``quad.rel_tol`` raises `QuadratureError` with both estimates.
    """
    i = _check_index(i)
    lam = eigenvalue(i)
    rho = system.rho
    worst = 0.0
    for probe in np.atleast_1d(np.asarray(probes, dtype=float)):
        w = float(_to_unit(system, probe))
        applied = _guarded_pair(lambda c: _operator_apply(rho, w, i, c), quad, lam)
        target = lam * float(_power_sine(rho, i, np.asarray(w)))
        worst = max(worst, abs(applied - target))
    return worst


def verify_orthonormality(
    system: EigenSystem, i, j, quad: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Inner product of eigenfunctions i and j under the system measure."""
    i = _check_index(i)
    j = _check_index(j)
    rho = system.rho

    def integrand(nu):
        return _power_sine(rho, i, nu) * _power_sine(rho, j, nu) * _unit_weight(rho, nu)

    graded = rho != 0.0

    def value(cfg):
        return integrate_unit(integrand, cfg, graded=graded)

    return _guarded_pair(value, quad, 1.0)
