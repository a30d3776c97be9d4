"""Native-space norms of candidate impulse responses.

The ``dc`` and ``tc`` families induce reproducing-kernel Hilbert spaces of
exponentially decaying functions.  Two independent routes to the squared
norm are provided:

* `dc_norm_integral` / `tc_norm_integral` -- the first-order differential
  form, integrated in t on panels that grow geometrically, where the
  integrand of any function in the space decays exponentially;
* `dc_norm_series` -- partial sums of squared eigen-coefficients divided by
  eigenvalues.

`exp_norm_closed_form` is the exact squared norm of exp(-gamma t), the
reference the numerical routes are checked against.

`membership_necessary_check` screens exponential decay rates: a function
behaving like exp(-gamma t) can only have finite norm when gamma exceeds
the kernel's diagonal decay rate alpha.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec, stable_coordinate, stable_params
from .mercer import EigenSystem, eigenvalue
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    composite_rule,
    integrate_halfline,
    unit_breakpoints,
)

__all__ = [
    "FunctionHandle",
    "MembershipVerdict",
    "membership_necessary_check",
    "dc_norm_integral",
    "tc_norm_integral",
    "dc_norm_series",
    "exp_norm_closed_form",
]

_FD_RELATIVE_STEP = 1e-6


def _vector_call(fn, x):
    x = np.asarray(x, dtype=float)
    y = np.asarray(fn(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    return y


@dataclass(frozen=True)
class FunctionHandle:
    """A scalar function with optional analytic derivative.

    ``func`` and ``deriv`` must accept numpy arrays (ufunc style).  When no
    derivative is supplied a second-order finite difference with relative
    step 1e-6 stands in.  ``decay_hint`` is the dominant exponential decay
    rate, used for membership screening and to size the first quadrature
    panels; ``corners`` lists where the derivative jumps, so quadratures
    can split there.
    """

    func: Callable
    deriv: Callable | None = None
    decay_hint: float | None = None
    corners: tuple = ()

    def evaluate(self, t):
        return _vector_call(self.func, t)

    def derivative(self, t):
        if self.deriv is not None:
            return _vector_call(self.deriv, t)
        return self.finite_difference(t)

    def finite_difference(self, t):
        """Second-order difference quotient, one-sided near the left edge."""
        t = np.asarray(t, dtype=float)
        h = _FD_RELATIVE_STEP * np.maximum(np.abs(t), 1.0)
        interior = t - h >= 0.0
        hi = self.evaluate(t + h)
        lo = self.evaluate(np.where(interior, t - h, t))
        central = (hi - lo) / (2.0 * h)
        forward = (
            -3.0 * self.evaluate(t) + 4.0 * self.evaluate(t + h) - self.evaluate(t + 2.0 * h)
        ) / (2.0 * h)
        out = np.where(interior, central, forward)
        return out


def _check_derivative(handle: FunctionHandle, lo: float, hi: float, seed: int = 1) -> None:
    """Spot-check an analytic derivative against finite differences.

    Ten deterministic points in (lo, hi), skipping neighbourhoods of the
    declared corners.  A gross mismatch means the caller wired the wrong
    derivative; tolerance is loose so legitimate stiffness passes.
    """
    if handle.deriv is None:
        return
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=10)
    if handle.corners:
        corners = np.asarray(handle.corners, dtype=float)
        gap = np.min(np.abs(pts[:, None] - corners[None, :]), axis=1)
        pts = pts[gap > 1e-3 * (1.0 + np.abs(pts))]
    if pts.size == 0:
        return
    analytic = handle.derivative(pts)
    numeric = handle.finite_difference(pts)
    scale = np.maximum(np.abs(analytic), np.maximum(np.abs(handle.evaluate(pts)), 1e-8))
    bad = np.abs(analytic - numeric) > 1e-3 * scale
    if np.any(bad):
        worst = int(np.argmax(np.abs(analytic - numeric) / scale))
        raise DomainError(
            "analytic derivative disagrees with a finite difference "
            f"(t={pts[worst]:.6g}: {analytic[worst]:.6g} vs {numeric[worst]:.6g})"
        )


class MembershipVerdict(enum.Enum):
    """Outcome of the necessary-condition screen (it is not sufficient)."""

    PASSES_NECESSARY = "passes_necessary"
    FAILS_NECESSARY = "fails_necessary"


def membership_necessary_check(gamma, spec: KernelSpec) -> MembershipVerdict:
    """Screen exp(-gamma t) decay against the kernel's diagonal decay."""
    g = float(gamma)
    if not np.isfinite(g) or g <= 0.0:
        raise DomainError("decay rate must be finite and > 0")
    alpha, _, _ = stable_params(spec)  # the diagonal decay, (2 rho + 1) beta
    if g > alpha:
        return MembershipVerdict.PASSES_NECESSARY
    return MembershipVerdict.FAILS_NECESSARY


def _corner_splits(corners, spec):
    return tuple(float(stable_coordinate(spec, c)) for c in corners)


def dc_norm_integral(
    handle: FunctionHandle, spec: KernelSpec, quad: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Squared dc-norm via the weighted first-order differential form, in t.

    The form in tau = exp(-2 beta t), pulled back to the half line, is

        ||f||^2 = int_0^inf exp(2 alpha t) (f'(t) + (alpha - beta) f(t))^2 dt / (2 beta),

    whose integrand decays exponentially for an f of finite norm, however
    close its decay to alpha (`quadrature.integrate_halfline`).  It reads NaN
    where f and f' both lie below the normal range; near the threshold that
    edge comes before the integrand has decayed, and the quadrature carries
    its exponential past it.  Too slow a decay raises `DivergenceError`.
    """
    alpha, beta, _ = stable_params(spec)
    _check_derivative(handle, 0.05 / beta, 4.0 / beta)

    def integrand(t):
        f, df = handle.evaluate(t), handle.derivative(t)
        # both below the normal range: the digits of f' + (alpha - beta) f are gone
        lost = np.maximum(np.abs(f), np.abs(df)) < np.finfo(float).tiny
        with np.errstate(over="ignore", invalid="ignore"):
            half = np.exp(0.5 * alpha * t)  # in two factors, it overflows only with the product
            scaled = half * (df + (alpha - beta) * f) * half
            return np.where(lost, np.nan, scaled * scaled / (2.0 * beta))

    scale = 1.0 / (alpha + beta + (handle.decay_hint or 0.0))
    return integrate_halfline(integrand, quad, scale=scale, splits=handle.corners, nan_edge=True)


def tc_norm_integral(
    handle: FunctionHandle, spec: KernelSpec, quad: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Squared tc-norm: `dc_norm_integral` at alpha = beta, where the weight drops out."""
    if spec.variant != "tc":
        raise DomainError("tc_norm_integral expects a tc kernel spec")
    return dc_norm_integral(handle, spec, quad)


def exp_norm_closed_form(gamma: float, alpha: float, beta: float) -> float:
    """Squared norm of exp(-gamma t) in the dc space of ``alpha`` and ``beta``.

    Finite only when gamma exceeds the diagonal decay alpha.  Written in
    alpha, not in rho = (alpha - beta) / (2 beta): rebuilding alpha as
    (2 rho + 1) beta cancels when beta >> alpha, which cost 1e-12 relative
    at dc(0.01, 50).
    """
    return (alpha - beta - gamma) ** 2 / (4.0 * beta * (gamma - alpha))


def dc_norm_series(
    handle: FunctionHandle,
    system: EigenSystem,
    truncation: int | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
):
    """Partial series norm: coefficients and sum of coeff^2 / eigenvalue.

    Coefficients are inner products against the eigenfunctions under the
    half-line measure, computed on the unit interval after the coordinate
    change.  Returns ``(norm_sq_partial, coefficients)``; the partial sums
    are nondecreasing, so the value approaches the squared norm from below.
    Small coefficients are kept as computed, never truncated to zero.
    """
    if not system.kernel.stable:
        raise DomainError("series norm expects a dc/tc eigen-system")
    m = system.truncation if truncation is None else int(truncation)
    if m < 1:
        raise DomainError("truncation must be >= 1")
    beta = system.kernel.beta
    rho = system.rho
    if handle.decay_hint is not None:
        verdict = membership_necessary_check(handle.decay_hint, system.kernel)
        if verdict is MembershipVerdict.FAILS_NECESSARY:
            raise DomainError(
                f"decay hint {handle.decay_hint!r} fails the necessary membership condition"
            )
    _check_derivative(handle, 0.05 / beta, 4.0 / beta)

    splits = _corner_splits(handle.corners, system.kernel)
    pts, wts = composite_rule(
        unit_breakpoints(quad, graded=rho != 0.0, splits=splits), quad.nodes
    )
    g = handle.evaluate(np.log(pts) / (-2.0 * beta))
    base = np.sqrt(2.0) * wts * g * pts ** (-rho)
    # sqrt(2) sin((i - 1/2) pi tau) by angle addition from block starts i0 =
    # 1, 33, ... and offsets k < 32: m/32 + 32 angles per node, not m
    theta = np.pi * pts
    start = (np.arange(1, m + 1, 32)[:, None] - 0.5) * theta
    step = np.arange(min(m, 32))[:, None] * theta
    coeffs = np.sin(start) @ (np.cos(step) * base).T + np.cos(start) @ (np.sin(step) * base).T
    coeffs = coeffs.ravel()[:m]
    lam = eigenvalue(np.arange(1, m + 1))
    norm_sq = float(np.sum(coeffs * coeffs / lam))
    return norm_sq, coeffs
