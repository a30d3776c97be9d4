"""Regularized impulse-response estimation from sampled input/output data.

The model is a causal convolution: output(t) = integral over [0, t] of
g(tau) * input(t - tau) dtau plus noise at the sample times.  Estimation
is kernel ridge regression in the half-line kernel's function space: the
representer of the observation at time s is

    a(t, s) = integral over [0, s] of k(t, nu) * input(s - nu) dnu,

the normal-equation matrix applies the observation map once more,

    A[i, j] = integral over [0, t_i] of a(tau, s_j) * input(t_i - tau) dtau,

and the fitted response is g_hat = sum_j c_j a(., s_j) with
(A + gamma I) c = y.

Quadrature is composite Gauss-Legendre per entry with breakpoints at every
kink: the kernel's diagonal crease, the integration endpoint, and each
input discontinuity.  An impulse input short-circuits all of it because
the representers collapse to kernel sections and A to the Gram matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import ConditioningError, DomainError
from .grids import HALFLINE, TimeGrid
from .kernels import KernelSpec, eval_kernel
from .kernelmat import assemble
from .quadrature import QuadratureConfig, _gauss_legendre

__all__ = [
    "InputSignal",
    "ImpulseInput",
    "StepInput",
    "ExpSumInput",
    "ZohInput",
    "Dataset",
    "ESTIMATOR_QUADRATURE",
    "GAMMA_FLOOR",
    "output_kernel",
    "solve_coefficients",
    "EstimateResult",
    "estimate",
    "reconstruct",
    "GammaSearch",
    "grid_search_gamma",
]

# panels is per smooth segment here, not per unit interval: every segment
# between consecutive breakpoints gets this many Gauss-Legendre panels
ESTIMATOR_QUADRATURE = QuadratureConfig(panels=8, nodes=8, rel_tol=1e-9)

GAMMA_FLOOR = 1e-10


class InputSignal:
    """Known system input, evaluable on arrays, zero for negative times."""

    is_impulse = False

    def value(self, x):
        raise NotImplementedError

    def breakpoints(self):
        """Times where the input jumps; quadrature splits land here."""
        return (0.0,)


class ImpulseInput(InputSignal):
    """Unit impulse at time zero; has no pointwise values."""

    is_impulse = True

    def value(self, x):
        raise DomainError("an impulse has no pointwise values")


class StepInput(InputSignal):
    def __init__(self, amplitude: float = 1.0):
        amplitude = float(amplitude)
        if not np.isfinite(amplitude):
            raise DomainError("step amplitude must be finite")
        self.amplitude = amplitude

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, self.amplitude, 0.0)


class ExpSumInput(InputSignal):
    """Sum of decaying exponentials switched on at time zero."""

    def __init__(self, amplitudes, rates):
        a = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        r = np.atleast_1d(np.asarray(rates, dtype=float))
        if a.shape != r.shape or a.ndim != 1 or a.size == 0:
            raise DomainError("amplitudes and rates must be matching 1-D sequences")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(r))):
            raise DomainError("amplitudes and rates must be finite")
        if np.any(r < 0.0):
            raise DomainError("rates must be nonnegative")
        self.amplitudes = a
        self.rates = r

    def value(self, x):
        x = np.asarray(x, dtype=float)
        live = x >= 0.0
        xs = np.where(live, x, 0.0)
        vals = np.exp(-np.multiply.outer(xs, self.rates)) @ self.amplitudes
        return np.where(live, vals, 0.0)


class ZohInput(InputSignal):
    """Zero-order hold: piecewise constant, holding the last level forever."""

    def __init__(self, times, levels):
        t = np.asarray(times, dtype=float)
        v = np.asarray(levels, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise DomainError("times and levels must be matching 1-D sequences")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("times and levels must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("hold times must be strictly increasing")
        if t[0] < 0.0:
            raise DomainError("hold times must be nonnegative")
        self.times = t
        self.levels = v

    def value(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.times, x, side="right") - 1
        vals = self.levels[np.clip(idx, 0, self.levels.size - 1)]
        return np.where(idx >= 0, vals, 0.0)

    def breakpoints(self):
        return tuple(self.times)


@dataclass(frozen=True)
class Dataset:
    """Sampled outputs of one experiment with a known input."""

    output_times: np.ndarray
    outputs: np.ndarray
    input: InputSignal
    noise_variance: float

    def __post_init__(self):
        t = np.asarray(self.output_times, dtype=float)
        y = np.asarray(self.outputs, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise DomainError("output times must be a nonempty 1-D array")
        if not np.all(np.isfinite(t)):
            raise DomainError("output times must be finite")
        if np.any(t < 0.0):
            raise DomainError("output times must be nonnegative")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("output times must be strictly increasing")
        if y.shape != t.shape or not np.all(np.isfinite(y)):
            raise DomainError("outputs must be finite and match the times")
        if not isinstance(self.input, InputSignal):
            raise DomainError("input must be an InputSignal")
        nv = float(self.noise_variance)
        if not np.isfinite(nv) or nv < 0.0:
            raise DomainError("noise variance must be finite and nonnegative")
        t.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "output_times", t)
        object.__setattr__(self, "outputs", y)
        object.__setattr__(self, "noise_variance", nv)

    @property
    def n(self) -> int:
        return self.output_times.size


def _rowwise_rule(fixed, perrow, panels, nodes):
    """Composite Gauss-Legendre per row: shared breakpoints plus one own.

    ``fixed`` must be sorted and include both endpoints; each row also
    splits at its own (already clipped) location.  Zero-width segments
    contribute zero weight, so duplicates are harmless.
    """
    fixed = np.asarray(fixed, dtype=float)
    perrow = np.asarray(perrow, dtype=float)
    rows = perrow.size
    breaks = np.sort(
        np.concatenate(
            [np.broadcast_to(fixed, (rows, fixed.size)), perrow[:, None]], axis=1
        ),
        axis=1,
    )
    seg_lo = breaks[:, :-1]
    seg_w = np.diff(breaks, axis=1)
    x, w = _gauss_legendre(nodes)
    frac = np.arange(panels) / panels
    pan_lo = seg_lo[:, :, None] + seg_w[:, :, None] * frac
    pan_half = seg_w[:, :, None] / (2.0 * panels)
    pts = pan_lo[..., None] + pan_half[..., None] * (x + 1.0)
    wts = np.broadcast_to(pan_half[..., None] * w, pts.shape)
    return pts.reshape(rows, -1), wts.reshape(rows, -1)


def _interior(candidates, hi):
    return [c for c in candidates if 0.0 < c < hi]


class _BasisEvaluator:
    """Evaluates the representers a(., s_j) by inner quadrature."""

    def __init__(self, spec, anchor_times, signal, quad):
        self.spec = spec
        self.anchors = np.asarray(anchor_times, dtype=float)
        self.signal = signal
        self.quad = quad

    def column(self, t, j):
        """a(t, s_j) for a 1-D array of evaluation times t."""
        s = float(self.anchors[j])
        t = np.asarray(t, dtype=float)
        if s == 0.0:
            return np.zeros(t.shape)
        fixed = np.array(
            sorted({0.0, s}.union(s - b for b in _interior(self.signal.breakpoints(), s)))
        )
        pts, wts = _rowwise_rule(
            fixed, np.clip(t, 0.0, s), self.quad.panels, self.quad.nodes
        )
        integrand = eval_kernel(self.spec, t[:, None], pts) * self.signal.value(s - pts)
        return np.sum(integrand * wts, axis=1)

    def matrix(self, t):
        """(len(t), len(anchors)) array of representer values."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([self.column(t, j) for j in range(self.anchors.size)])


def output_kernel(spec: KernelSpec, dataset: Dataset, quad=ESTIMATOR_QUADRATURE):
    """Normal-equation matrix A and a basis callable t -> (len(t), n).

    For an impulse input both collapse analytically: A is the kernel Gram
    matrix and the basis rows are kernel sections, with no quadrature.
    """
    if spec.domain != HALFLINE:
        raise DomainError("system estimation needs a half-line kernel")
    times = dataset.output_times
    n = times.size
    if dataset.input.is_impulse:
        gram = assemble(spec, TimeGrid(times, HALFLINE)).values

        def basis(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return eval_kernel(spec, t[:, None], times[None, :])

        return gram, basis

    evaluator = _BasisEvaluator(spec, times, dataset.input, quad)
    signal = dataset.input
    A = np.zeros((n, n))
    for i in range(n):
        t = float(times[i])
        if t == 0.0:
            continue  # integral over an empty range
        # only j >= i is computed, so the representer's crease at s_j
        # never falls inside (0, t) and the outer rule is j-independent
        fixed = np.array(
            sorted({0.0, t}.union(t - b for b in _interior(signal.breakpoints(), t)))
        )
        pts, wts = _rowwise_rule(fixed, np.array([t]), quad.panels, quad.nodes)
        tau = pts[0]
        outer = wts[0] * signal.value(t - tau)
        for j in range(i, n):
            A[i, j] = float(np.sum(outer * evaluator.column(tau, j)))
            A[j, i] = A[i, j]
    return A, evaluator.matrix


def solve_coefficients(A: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """Solve (A + gamma I) c = y by Cholesky with a residual guard."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n = A.shape[0]
    system = A + gamma * np.eye(n)
    try:
        factor = cho_factor(system)
    except LinAlgError as exc:
        raise ConditioningError(
            f"regularized system is not positive definite at gamma={gamma:g}"
        ) from exc
    c = cho_solve(factor, y)
    residual = float(np.linalg.norm(system @ c - y))
    scale = max(float(np.linalg.norm(y)), 1e-300)
    if residual > 1e-9 * scale:
        raise ConditioningError(
            f"solve residual {residual:.3e} exceeds 1e-09 of the data norm; "
            f"increase gamma (currently {gamma:g})"
        )
    return c


@dataclass(frozen=True)
class EstimateResult:
    """Fitted coefficients plus everything needed to evaluate the fit.

    ``search`` holds the holdout scores when gamma came from a grid.
    """

    coefficients: np.ndarray
    spec: KernelSpec
    dataset: Dataset
    gamma: float
    output_gram: np.ndarray
    basis: object = field(repr=False)
    search: GammaSearch | None = None

    def fitted_outputs(self) -> np.ndarray:
        """Model outputs at the dataset's own sample times."""
        return self.output_gram @ self.coefficients


def reconstruct(result: EstimateResult, t):
    """Fitted impulse response at times t (scalar in, scalar out)."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = result.basis(arr) @ result.coefficients
    if np.ndim(t) == 0:
        return float(vals[0])
    return vals


def _effective_gamma(gamma, dataset):
    if gamma is None:
        gamma = dataset.noise_variance
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma < 0.0:
        raise DomainError("gamma must be finite and nonnegative")
    if gamma < GAMMA_FLOOR:
        warnings.warn(
            f"regularization {gamma:g} floored at {GAMMA_FLOOR:g}",
            RuntimeWarning,
            stacklevel=3,
        )
        gamma = GAMMA_FLOOR
    return gamma


def estimate(
    spec: KernelSpec,
    dataset: Dataset,
    gamma: float | None = None,
    gamma_grid=None,
) -> EstimateResult:
    """Fit the impulse response; gamma defaults to the noise variance.

    With ``gamma_grid`` instead, gamma is picked by `grid_search_gamma` on
    the same normal-equation matrix the fit uses.
    """
    if gamma_grid is None:
        gamma = _effective_gamma(gamma, dataset)
    elif gamma is not None:
        raise DomainError("set estimation.gamma or estimation.gamma_grid, not both")
    A, basis = output_kernel(spec, dataset)
    search = None
    if gamma_grid is not None:
        search = grid_search_gamma(A, dataset.outputs, gamma_grid)
        gamma = _effective_gamma(search.best_gamma, dataset)
    c = solve_coefficients(A, dataset.outputs, gamma)
    return EstimateResult(c, spec, dataset, gamma, A, basis, search)


@dataclass(frozen=True)
class GammaSearch:
    """Holdout scores over a regularization grid."""

    gammas: np.ndarray
    scores: np.ndarray
    best_index: int

    @property
    def best_gamma(self) -> float:
        return float(self.gammas[self.best_index])


def grid_search_gamma(A: np.ndarray, outputs: np.ndarray, gammas) -> GammaSearch:
    """Pick gamma by one chronological holdout on the last fifth of the data.

    ``A`` is the normal-equation matrix of all samples and ``outputs``
    their values, both in time order.  The model is fitted on the earlier
    samples and scored by mean squared prediction error on the held-out
    outputs.  Ties go to the larger gamma.  Needs at least five samples so
    the holdout is nonempty while the training block stays usable.
    """
    g = np.sort(np.asarray(gammas, dtype=float))
    if g.ndim != 1 or g.size == 0:
        raise DomainError("need a nonempty gamma grid")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise DomainError("gamma grid must be positive and finite")
    outputs = np.asarray(outputs, dtype=float)
    n = outputs.size
    if n < 5:
        raise DomainError("holdout search needs at least five samples")
    n_hold = max(1, int(round(0.2 * n)))
    m = n - n_hold
    A_train = A[:m, :m]
    cross = A[m:, :m]
    y_train = outputs[:m]
    y_hold = outputs[m:]
    scores = np.empty(g.size)
    best = 0
    for idx, gamma in enumerate(g):
        c = solve_coefficients(A_train, y_train, float(gamma))
        scores[idx] = float(np.mean((cross @ c - y_hold) ** 2))
        if scores[idx] <= scores[best]:
            best = idx
    return GammaSearch(g, scores, best)
