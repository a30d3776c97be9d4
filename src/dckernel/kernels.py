"""Closed-form covariance kernels for exponentially decaying impulse responses.

Two groups share one validated :class:`KernelSpec` container:

* half-line families on [0, inf)^2 -- ``ss`` (second-order stable spline),
  ``tc`` (first-order stable spline, also called tuned/correlated) and
  ``dc`` (diagonally correlated, the two-parameter generalisation of ``tc``);
* unit-interval mother kernels on [0, 1]^2 -- ``spline1``, ``spline2`` and
  the power-weighted ``genspline1``.

Every half-line family equals one of the mother kernels composed with an
exponential change of coordinates.  ``tc`` and ``dc`` share one: the stable
coordinate x = exp(-2 beta t) turns ``genspline1`` with rho =
(alpha - beta) / (2 beta) into ``dc``, and ``tc`` is ``dc`` at alpha = beta
(rho = 0, where ``genspline1`` is ``spline1``).  This module is the only
place that knows that parametrization: `stable_params`,
`stable_coordinate`, `stable_gaps` (for the maxent oracles) and
`stable_log_weight` serve every other module, and `triangle_terms` writes
each half-line kernel as a sum of exponentials for closed-form integrals.
`verify_stable_spline_identity` evaluates both routes on a caller-supplied
grid and returns the worst discrepancy, which should sit at rounding level.  Note the mapped route
underflows once the exponent of the coordinate image exceeds ~745, so keep
grids within the floating-point range of exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import HALFLINE, UNIT01, TimeGrid, as_halfline_points

__all__ = [
    "KernelSpec",
    "ss",
    "tc",
    "dc",
    "spline1",
    "spline2",
    "genspline1",
    "HYPERPARAMETERS",
    "eval_kernel",
    "stable_params",
    "stable_coordinate",
    "stable_gaps",
    "stable_log_weight",
    "triangle_terms",
    "verify_stable_spline_identity",
]

_UNIT_VARIANTS = ("spline1", "spline2", "genspline1")
_STABLE_VARIANTS = ("tc", "dc")

# hyperparameters each variant takes; tc also stores alpha = beta
HYPERPARAMETERS = {
    "ss": ("alpha",),
    "tc": ("beta",),
    # beta == 0 collapses the coordinate change and is not supported
    "dc": ("alpha", "beta"),
    "spline1": (),
    "spline2": (),
    "genspline1": ("rho",),
}


def _positive(name, value):
    v = float(value)
    if not np.isfinite(v) or v <= 0.0:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return v


def _power_exponent(name, value):
    v = float(value)
    if not np.isfinite(v) or v <= -0.5:
        raise DomainError(f"{name} must be finite and > -0.5, got {value!r}")
    return v


_CHECKS = {"alpha": _positive, "beta": _positive, "rho": _power_exponent}


@dataclass(frozen=True)
class KernelSpec:
    """Validated kernel-family selector.

    Prefer the module-level constructors (`ss`, `tc`, `dc`, `spline1`,
    `spline2`, `genspline1`) over direct instantiation; hyperparameters are
    checked here so every downstream routine can assume a legal spec.
    """

    variant: str
    alpha: float | None = None
    beta: float | None = None
    rho: float | None = None

    def __post_init__(self):
        params = HYPERPARAMETERS.get(self.variant)
        if params is None:
            raise DomainError(f"unknown kernel variant {self.variant!r}")
        for name in params:
            object.__setattr__(self, name, _CHECKS[name](name, getattr(self, name)))
        for name in _CHECKS:
            value = getattr(self, name)
            if name in params or value is None:
                continue
            # tc's alpha is derived; a copy of the spec carries it back in
            if self.variant == "tc" and name == "alpha" and value == self.beta:
                continue
            raise DomainError(
                f"{self.variant} takes no {name} hyperparameter, got {value!r}"
            )
        if self.variant == "tc":
            object.__setattr__(self, "alpha", self.beta)

    @property
    def unit_domain(self) -> bool:
        return self.variant in _UNIT_VARIANTS

    @property
    def domain(self) -> str:
        """Grid-domain tag the kernel evaluates on."""
        return UNIT01 if self.unit_domain else HALFLINE

    @property
    def stable(self) -> bool:
        """True for tc and dc, the kernels behind the stable coordinate."""
        return self.variant in _STABLE_VARIANTS

    @property
    def stable_rho(self) -> float:
        """Power-weight exponent of the mother kernel behind tc/dc."""
        if not self.stable:
            raise DomainError(f"{self.variant!r} has no stable-coordinate exponent")
        return (self.alpha - self.beta) / (2.0 * self.beta)


def ss(alpha) -> KernelSpec:
    """Second-order stable-spline kernel, decay rate ``alpha`` > 0."""
    return KernelSpec("ss", alpha=alpha)


def tc(beta) -> KernelSpec:
    """First-order stable-spline kernel, decay rate ``beta`` > 0.

    The spec is the `dc` kernel at ``alpha == beta`` under the tag ``"tc"``.
    """
    return KernelSpec("tc", beta=beta)


def dc(alpha, beta) -> KernelSpec:
    """Diagonally correlated kernel.

    ``alpha`` > 0 sets the diagonal decay, ``beta`` > 0 the off-diagonal
    correlation decay.  ``alpha == beta`` reduces to `tc`.
    """
    return KernelSpec("dc", alpha=alpha, beta=beta)


def spline1() -> KernelSpec:
    """First-order spline kernel min(tau, nu) on the unit square."""
    return KernelSpec("spline1")


def spline2() -> KernelSpec:
    """Second-order spline kernel on the unit square."""
    return KernelSpec("spline2")


def genspline1(rho) -> KernelSpec:
    """Power-weighted first-order spline kernel, exponent ``rho`` > -0.5."""
    return KernelSpec("genspline1", rho=rho)


def stable_params(spec: KernelSpec):
    """(alpha, beta, rho) triple shared by the tc/dc code paths."""
    if not spec.stable:
        raise DomainError(f"expected a tc or dc kernel, got {spec.variant!r}")
    return spec.alpha, spec.beta, spec.stable_rho


def stable_coordinate(spec: KernelSpec, t):
    """Stable coordinate x = exp(-2 beta t) of half-line times ``t``."""
    _, beta, _ = stable_params(spec)
    return np.exp(-2.0 * beta * t)


def stable_gaps(spec: KernelSpec, t) -> np.ndarray:
    """Gaps x_i - x_{i+1} of the stable coordinate along increasing ``t``.

    The last gap runs to x = 0, the image of t = infinity.
    """
    x = stable_coordinate(spec, t)
    return x - np.concatenate([x[1:], [0.0]])


def stable_log_weight(spec: KernelSpec, t):
    """Log of the power weight x^rho at x = exp(-2 beta t), i.e. -2 beta rho t."""
    _, beta, rho = stable_params(spec)
    return -2.0 * beta * rho * t


def triangle_terms(spec: KernelSpec):
    """Exponential terms of a half-line kernel on its lower triangle.

    Returns ``((w, p, q), ...)`` with k(tau, nu) = sum of
    w * exp(-p tau - q nu) for tau >= nu; tau < nu follows by symmetry.
    Every term has p > 0 and p + q > 0, so each exponent is nonpositive.
    ``dc`` is rank 1 (``tc`` has q = 0 exactly), ``ss`` rank 2.
    """
    if spec.stable:
        return ((1.0, spec.alpha + spec.beta, spec.alpha - spec.beta),)
    if spec.variant == "ss":
        a = spec.alpha
        return ((0.5, 2.0 * a, a), (-1.0 / 6.0, 3.0 * a, 0.0))
    raise DomainError(f"{spec.variant!r} is not a half-line kernel")


def _check_domain(spec, x):
    if np.any(np.isnan(x)):
        raise DomainError("kernel arguments must not be NaN")
    if spec.unit_domain:
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise DomainError(f"{spec.variant} arguments must lie in [0, 1]")
    else:
        if np.any(x < 0.0):
            raise DomainError(f"{spec.variant} arguments must be >= 0")


def _eval_ss(spec, t, s):
    a = spec.alpha
    hi = np.maximum(t, s)
    return np.exp(-a * (t + s) - a * hi) / 2.0 - np.exp(-3.0 * a * hi) / 6.0


def _eval_dc(spec, t, s):
    # |t - s| via max - min keeps the result bit-exactly symmetric
    gap = np.maximum(t, s) - np.minimum(t, s)
    return np.exp(-spec.alpha * (t + s) - spec.beta * gap)


def _eval_spline1(spec, t, s):
    return np.minimum(t, s)


def _eval_spline2(spec, t, s):
    lo = np.minimum(t, s)
    return 0.5 * t * s * lo - lo ** 3 / 6.0


def _eval_genspline1(spec, t, s):
    r = spec.rho
    lo = np.minimum(t, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = t ** r * s ** r * lo
    # continuous extension at the axes: tau^rho * min -> 0 since rho > -1/2
    return np.where(lo == 0.0, 0.0, val)


_EVALUATORS = {
    "ss": _eval_ss,
    "tc": _eval_dc,
    "dc": _eval_dc,
    "spline1": _eval_spline1,
    "spline2": _eval_spline2,
    "genspline1": _eval_genspline1,
}


def eval_kernel(spec: KernelSpec, t, s):
    """Evaluate the kernel at (t, s); scalars or broadcastable arrays."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_domain(spec, t)
    _check_domain(spec, s)
    out = _EVALUATORS[spec.variant](spec, t, s)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def verify_stable_spline_identity(spec: KernelSpec, grid) -> float:
    """Largest gap between direct evaluation and the mapped mother kernel.

    ``grid`` is a half-line TimeGrid or point sequence; the check runs over
    the full grid x grid square.
    """
    pts = as_halfline_points(grid)
    t = pts[:, None]
    s = pts[None, :]
    direct = eval_kernel(spec, t, s)
    if spec.variant == "ss":
        x = np.exp(-spec.alpha * t)
        y = np.exp(-spec.alpha * s)
        mapped = eval_kernel(spline2(), x, y)
    elif spec.stable:
        x = stable_coordinate(spec, t)
        y = stable_coordinate(spec, s)
        mapped = eval_kernel(genspline1(spec.stable_rho), x, y)
    else:
        raise DomainError("identity check applies to the half-line families only")
    return float(np.max(np.abs(direct - mapped)))
