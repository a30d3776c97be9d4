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

Both integrals are closed form.  Each half-line kernel is a short sum of
exponentials w exp(-p tau - q nu) on tau >= nu (`kernels.triangle_terms`),
and each non-impulse input is a sum of switched exponentials
c exp(-r (x - b)) H(x - b): a step is one term, a zero-order hold one term
per level jump, an exponential sum one term per rate at b = 0.  So

    a(t, s_j)  = sum_l c_l R(t, s_j - b_l),
    A[i, j]    = sum_{l', l} c_l' c_l S(t_i - b_l', s_j - b_l),

with R and S the kernel integrated over a segment and over a rectangle
against the terms' exponentials.  Split at min and max, the rectangle is
a square (two triangles, each the exact integral of an exponential) plus
a strip on which the kernel is separable, so S depends on min(T, U) and on
|T - U| through a few exponentials.  Per anchor s_j, scaled running sums
over the shifted switch times, sorted, collect those exponentials; a row
of A then costs O(n m) for m switched terms and A costs O(n^2 m), without
ever holding n^2 m numbers.  Every exponent is nonpositive, and the
divided differences of exp(-x) behind the closed forms (`_psi`, `_d1`,
`_d2`) stay exact when decay rates coincide, as with tc's q = 0 or an
input rate equal to a kernel rate.

An impulse input needs none of it: the representers are kernel sections
and A is the kernel's Gram matrix K, which `kernelmat.QuasiseparableGram`
holds as O(r n) generators, so the fit, the holdout search and the fitted
outputs cost O(r^2 n) time and memory and K is never formed.  Convolved
inputs keep their dense A in a `DenseOperator`, which offers the same
operations (solve, matvec, cross, leading); it solves by
`np.linalg.cholesky` and two recursive `_triangular_solve` sweeps, so the
fit path needs numpy alone.
`output_kernel_quadrature` computes the convolved A and representers by
composite Gauss-Legendre quadrature with breakpoints at every kink; it
serves only as an independent oracle for checks and tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import HALFLINE, TimeGrid
from .kernels import KernelSpec, eval_kernel, triangle_terms
from .kernelmat import (
    RESIDUAL_TOL,
    QuasiseparableGram,
    _checked_residual,
    _not_positive_definite,
)
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
    "output_kernel_quadrature",
    "DenseOperator",
    "solve_coefficients",
    "EstimateResult",
    "estimate",
    "reconstruct",
    "GammaSearch",
    "grid_search_gamma",
]

# default rule of the quadrature oracle; panels is per smooth segment here,
# not per unit interval: every segment between consecutive breakpoints gets
# this many Gauss-Legendre panels
ESTIMATOR_QUADRATURE = QuadratureConfig(panels=8, nodes=8, rel_tol=1e-9)

GAMMA_FLOOR = 1e-10


class InputSignal:
    """Known system input, evaluable on arrays, zero for negative times."""

    is_impulse = False

    def value(self, x):
        raise NotImplementedError

    def switched_exponentials(self):
        """Arrays (c, r, b): the input is sum c exp(-r (x - b)) H(x - b)."""
        raise NotImplementedError


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

    def switched_exponentials(self):
        return np.array([self.amplitude]), np.zeros(1), np.zeros(1)


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

    def switched_exponentials(self):
        return self.amplitudes, self.rates, np.zeros(self.rates.size)


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

    def switched_exponentials(self):
        jumps = np.diff(self.levels, prepend=0.0)
        return jumps, np.zeros(jumps.size), self.times


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


def _psi(z):
    """(1 - exp(-z)) / z for z >= 0, equal to 1 at z = 0, without cancellation."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(-z) / z
    return np.where(z == 0.0, 1.0, out)


def _d1(x, y):
    """Integral of exp(-(x + u (y - x))) over u in [0, 1], for x, y >= 0.

    That is the divided difference (exp(-x) - exp(-y)) / (y - x), exact
    also where x and y coincide.
    """
    return np.exp(-np.minimum(x, y)) * _psi(np.abs(y - x))


_SERIES_SPREAD = 1.0
_SERIES_TERMS = 20


def _d2(x, y, z):
    """Integral of exp(-(l0 x + l1 y + l2 z)) over the simplex, for x, y, z >= 0.

    The simplex {l >= 0, l0 + l1 + l2 = 1} has area 1/2, and the value is
    the second divided difference of exp(-x) at (x, y, z).  Shifted by the
    smallest argument to (0, a, b) with a <= b, a spread b below
    `_SERIES_SPREAD` sums the series sum_k (-1)^k h_k(a, b) / (k + 2)!
    (h_k the complete homogeneous polynomial); a wider one takes the
    divided difference of `_d1`, whose denominator b is then at least 1.
    """
    args = np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z))))
    args.sort(axis=0)
    lo, mid, hi = args
    a = mid - lo
    b = hi - lo
    out = np.empty(b.shape)
    near = b < _SERIES_SPREAD
    an, bn = a[near], b[near]
    h = np.ones(an.shape)
    apow = np.ones(an.shape)
    total = np.full(an.shape, 0.5)
    factorial = 2.0
    for k in range(1, _SERIES_TERMS):
        apow = apow * an
        h = bn * h + apow
        factorial *= k + 2
        total += (-1.0) ** k * h / factorial
    out[near] = total
    af, bf = a[~near], b[~near]
    out[~near] = (_psi(af) - np.exp(-af) * _psi(bf - af)) / bf
    return np.exp(-lo) * out


def _phi(p, r, x):
    """Integral of exp(-p y - r (x - y)) over y in [0, x]."""
    return x * _d1(p * x, r * x)


def _strip(p, q, r, x):
    """Integral of exp(-p x - q nu - r (x - nu)) over nu in [0, x].

    That is the kernel term's section at x against a rate-r term ending at
    x: the strip factor of S and the near piece of R.
    """
    return x * _d1((p + q) * x, (p + r) * x)


def _square(p, q, r, rr, x):
    """Integral over [0, x]^2 of a kernel term against rate-r and rate-rr terms.

    The terms end at the square's far corner.  Each triangle of the square
    integrates an exponential of a linear form: x^2 times `_d2` of the
    exponent at its three corners.
    """
    corner = (r + rr) * x
    diagonal = (p + q) * x
    return x * x * (_d2(corner, (p + r) * x, diagonal) + _d2(corner, (p + rr) * x, diagonal))


class _Group:
    """Switched terms of one rate, seen from every anchor s_j.

    Node k of anchor j sits at max(s_j - b, 0) for the k-th largest switch
    time b, so nodes ascend along each row.  A cut k splits the nodes into
    the k below it and the rest; ``padded[:, k]`` and ``padded[:, k + 1]``
    are the nodes just under and just over it (zero where there is none).
    """

    def __init__(self, rate, amps, starts, anchors):
        self.rate = rate
        self.amps = amps
        self.starts = starts
        self.nodes = np.maximum(anchors[:, None] - starts[None, ::-1], 0.0)
        self.node_amps = amps[::-1]
        self.padded = np.pad(self.nodes, ((0, 0), (1, 1)))
        # gaps[:, k] = node k - node k-1, zero before the first and after the last
        self.gaps = np.diff(
            self.nodes, axis=1, prepend=self.nodes[:, :1], append=self.nodes[:, -1:]
        )

    def cuts(self, anchors, x):
        """Number of nodes <= x >= 0 for each anchor; broadcasts."""
        return self.starts.size - np.searchsorted(self.starts, anchors - x)

    def running_sums(self, p, q):
        """Scaled sums over the nodes U_l for the kernel term (p, q), by cut k.

        low[:, k]  = sum_{l<k} c_l strip(U_l) exp(-p (U_{k-1} - U_l)),
        mass[:, k] = sum_{l>=k} c_l exp(-r (U_l - U_k)),
        tail[:, k] = sum_{l>=k} c_l phi_{p,r}(U_l - U_k).
        """
        r = self.rate
        strip = _strip(p, q, r, self.nodes)
        low, mass, tail = (np.zeros(self.gaps.shape) for _ in range(3))
        m = self.starts.size
        for k in range(m):
            d = self.gaps[:, k]
            low[:, k + 1] = np.exp(-p * d) * low[:, k] + self.node_amps[k] * strip[:, k]
        for k in range(m - 1, -1, -1):
            d = self.gaps[:, k + 1]
            tail[:, k] = _phi(p, r, d) * mass[:, k + 1] + np.exp(-p * d) * tail[:, k + 1]
            mass[:, k] = np.exp(-r * d) * mass[:, k + 1] + self.node_amps[k]
        return low, mass, tail

    def square_sums(self, p, q, rr, low):
        """sq[:, k] = sum_{l<k} c_l S(U_{k-1}, U_l) against a rate-rr row term.

        S(T, U) for U <= T is exp(-rr (T - U)) square(U) + phi_{p,rr}(T - U)
        strip(U), both shifted along by the same recursion.
        """
        square = _square(p, q, self.rate, rr, self.nodes)
        sq = np.zeros(self.gaps.shape)
        for k in range(self.starts.size):
            d = self.gaps[:, k]
            sq[:, k + 1] = (
                np.exp(-rr * d) * sq[:, k]
                + _phi(p, rr, d) * low[:, k]
                + self.node_amps[k] * square[:, k]
            )
        return sq


class _ClosedForm:
    """Closed-form A and representers for a non-impulse input."""

    def __init__(self, spec, anchors, signal):
        amps, rates, starts = signal.switched_exponentials()
        keep = amps != 0.0
        self.groups = []
        for rate in np.unique(rates[keep]):
            sel = keep & (rates == rate)
            order = np.argsort(starts[sel], kind="stable")
            self.groups.append(
                _Group(float(rate), amps[sel][order], starts[sel][order], anchors)
            )
        self.anchors = anchors
        self.blocks = [
            (w, p, q, group, *group.running_sums(p, q))
            for w, p, q in triangle_terms(spec)
            for group in self.groups
        ]

    def matrix(self):
        """A, built by rows over columns j >= i and mirrored."""
        s = self.anchors
        n = s.size
        pairs = []
        for w, p, q, group, low, mass, tail in self.blocks:
            for row in self.groups:
                r, rr = group.rate, row.rate
                # T = t_i - b' for every row term, with its square and strip
                T = np.maximum(s[:, None] - row.starts[None, :], 0.0)
                sq = group.square_sums(p, q, rr, low)
                pairs.append((w, p, r, rr, group, row, low, mass, tail, sq, T,
                              _square(p, q, r, rr, T), _strip(p, q, rr, T)))
        A = np.zeros((n, n))
        for i in range(n):
            cols = np.arange(i, n)
            for w, p, r, rr, group, row, low, mass, tail, sq, T, sqT, stT in pairs:
                live = np.searchsorted(row.starts, s[i])  # row terms on before t_i
                if live == 0:
                    continue
                Ti = T[i, :live, None]
                k = group.cuts(s[cols], Ti)
                below = np.maximum(Ti - group.padded[cols, k], 0.0)
                above = np.maximum(group.padded[cols, k + 1] - Ti, 0.0)
                v = mass[cols, k]
                lower = np.exp(-rr * below) * sq[cols, k] + _phi(p, rr, below) * low[cols, k]
                upper = sqT[i, :live, None] * np.exp(-r * above) * v + stT[i, :live, None] * (
                    _phi(p, r, above) * v + np.exp(-p * above) * tail[cols, k]
                )
                A[i, i:] += w * (row.amps[:live] @ (lower + upper))
        return np.triu(A) + np.triu(A, 1).T

    def representers(self, t):
        """(len(t), n) array of a(t, s_j)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(t >= 0.0):
            raise DomainError("representers are evaluated at times >= 0")
        cols = np.arange(self.anchors.size)
        x = t[:, None]
        out = np.zeros((t.size, cols.size))
        for w, p, q, group, low, mass, tail in self.blocks:
            r = group.rate
            k = group.cuts(self.anchors, x)
            below = np.maximum(x - group.padded[cols, k], 0.0)
            above = np.maximum(group.padded[cols, k + 1] - x, 0.0)
            v = mass[cols, k]
            out += w * (
                np.exp(-p * below) * low[cols, k]
                + _strip(p, q, r, x) * np.exp(-r * above) * v
                + np.exp(-(p + q) * x)
                * (_phi(p, r, above) * v + np.exp(-p * above) * tail[cols, k])
            )
        return out


def _check_halfline(spec):
    if spec.domain != HALFLINE:
        raise DomainError("system estimation needs a half-line kernel")


def output_kernel(spec: KernelSpec, dataset: Dataset):
    """Normal-equation operator for A and a basis callable t -> (len(t), n).

    Both are closed form (see the module docstring).  For an impulse input
    the operator is the `kernelmat.QuasiseparableGram` of the sample times
    and the basis rows are kernel sections; otherwise it is a
    `DenseOperator` around the closed-form A.
    """
    _check_halfline(spec)
    times = dataset.output_times
    if dataset.input.is_impulse:

        def basis(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return eval_kernel(spec, t[:, None], times[None, :])

        return QuasiseparableGram(spec, TimeGrid(times, HALFLINE)), basis

    closed = _ClosedForm(spec, times, dataset.input)
    return DenseOperator(closed.matrix()), closed.representers


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
        self.jumps = np.unique(signal.switched_exponentials()[2])  # input kinks

    def column(self, t, j):
        """a(t, s_j) for a 1-D array of evaluation times t."""
        s = float(self.anchors[j])
        t = np.asarray(t, dtype=float)
        if s == 0.0:
            return np.zeros(t.shape)
        fixed = np.array(
            sorted({0.0, s}.union(s - b for b in _interior(self.jumps, s)))
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


def output_kernel_quadrature(
    spec: KernelSpec, dataset: Dataset, quad=ESTIMATOR_QUADRATURE
):
    """`output_kernel` by nested composite Gauss-Legendre quadrature.

    An independent oracle for convolved inputs: every segment between
    kinks (the kernel's diagonal crease, the integration endpoint, each
    input jump and the creases it leaves in the representers) gets
    ``quad.panels`` panels of ``quad.nodes`` nodes.  Production code calls
    `output_kernel`.
    """
    _check_halfline(spec)
    if dataset.input.is_impulse:
        raise DomainError("the quadrature oracle needs a convolved input")
    times = dataset.output_times
    n = times.size
    evaluator = _BasisEvaluator(spec, times, dataset.input, quad)
    signal = dataset.input
    A = np.zeros((n, n))
    jumps = evaluator.jumps
    for i in range(n):
        t = float(times[i])
        if t == 0.0:
            continue  # integral over an empty range
        # a(., s_j) creases at s_j - b for every jump b; only j >= i is
        # computed, so one outer rule split at all of them serves the row
        creases = {float(s) - b for s in times[i:] for b in jumps}
        kinks = {t - b for b in _interior(jumps, t)}.union(_interior(creases, t))
        fixed = np.array(sorted(kinks.union({0.0, t})))
        pts, wts = _rowwise_rule(fixed, np.array([t]), quad.panels, quad.nodes)
        tau = pts[0]
        outer = wts[0] * signal.value(t - tau)
        for j in range(i, n):
            A[i, j] = float(np.sum(outer * evaluator.column(tau, j)))
            A[j, i] = A[i, j]
    return A, evaluator.matrix


_TRIANGULAR_BASE = 48


def _triangular_solve(T: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """T x = b for a triangular T by recursive halving.

    Each level solves the leading half (the trailing one when T is upper),
    takes its share off the other half's right side with one matrix-vector
    product and solves that half.  Blocks of at most `_TRIANGULAR_BASE`
    rows go to `np.linalg.solve`, which below that size costs less than
    the call overhead of splitting further.
    """
    n = b.shape[0]
    if n <= _TRIANGULAR_BASE:
        return np.linalg.solve(T, b)
    h = n // 2
    first, second = (slice(0, h), slice(h, n)) if lower else (slice(h, n), slice(0, h))
    x = np.empty_like(b)
    x[first] = _triangular_solve(T[first, first], b[first], lower)
    x[second] = _triangular_solve(T[second, second], b[second] - T[second, first] @ x[first], lower)
    return x


def solve_coefficients(A: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """Solve (A + gamma I) c = y by dense Cholesky with a residual guard.

    `np.linalg.cholesky` factors A + gamma I = L L' and two
    `_triangular_solve` calls apply L^{-1} and then L'^{-1}.  Raises
    ConditioningError when the factorization fails or when
    |A c + gamma c - y| exceeds `kernelmat.RESIDUAL_TOL` |y|.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n = A.shape[0]
    M = A.copy()
    M.flat[:: n + 1] += gamma
    try:
        # the transpose is the same symmetric matrix in column-major order,
        # which the factorization copies contiguously
        L = np.linalg.cholesky(M.T)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(gamma) from exc
    c = _triangular_solve(L.T, _triangular_solve(L, y, lower=True), lower=False)
    _checked_residual(A @ c + gamma * c - y, y, gamma)
    return c


class DenseOperator:
    """A dense normal-equation matrix A behind `kernelmat.QuasiseparableGram`'s interface.

    Convolved inputs fit through it; `solve` runs `solve_coefficients`
    once per gamma.  Arrays of several solutions carry one per row.
    """

    kind = "dense"

    def __init__(self, A: np.ndarray):
        self.A = A

    def leading(self, m: int) -> DenseOperator:
        """The normal-equation matrix of the first ``m`` samples."""
        return DenseOperator(self.A[:m, :m])

    def dense(self) -> np.ndarray:
        """A itself."""
        return self.A

    def matvec(self, x) -> np.ndarray:
        """A x for one vector x of length n."""
        return self.A @ x

    def cross(self, m: int, c) -> np.ndarray:
        """A[m:, :m] c for one coefficient vector per row of ``c``."""
        rows = self.A[m:, :m]
        return np.array([rows @ ci for ci in c])

    def solve(self, y, gamma) -> np.ndarray:
        """(A + gamma I) c = y for a scalar gamma or, row by row, a 1-D grid."""
        if np.ndim(gamma) == 0:
            return solve_coefficients(self.A, y, float(gamma))
        return np.array([solve_coefficients(self.A, y, float(g)) for g in gamma])


@dataclass(frozen=True)
class EstimateResult:
    """Fitted coefficients plus everything needed to evaluate the fit.

    ``operator`` is the normal-equation operator the fit solved with
    (`output_kernel`); ``search`` holds the holdout scores when gamma came
    from a grid.
    """

    coefficients: np.ndarray
    spec: KernelSpec
    dataset: Dataset
    gamma: float
    operator: object = field(repr=False)
    basis: object = field(repr=False)
    search: GammaSearch | None = None

    def fitted_outputs(self) -> np.ndarray:
        """Model outputs at the dataset's own sample times."""
        return self.operator.matvec(self.coefficients)

    @property
    def solve_residual_rel(self) -> float:
        """|(A + gamma I) c - y| / |y|, the quantity the solve's guard bounds."""
        c = self.coefficients
        y = self.dataset.outputs
        residual = self.fitted_outputs() + self.gamma * c - y
        return float(_checked_residual(residual, y, self.gamma)[0])


def reconstruct(result: EstimateResult, t):
    """Fitted impulse response at times t (scalar in, scalar out)."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if result.dataset.input.is_impulse:
        vals = result.operator.evaluate(arr, result.coefficients)
    else:
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
    operator, basis = output_kernel(spec, dataset)
    search = None
    if gamma_grid is not None:
        search = grid_search_gamma(operator, dataset.outputs, gamma_grid)
        gamma = _effective_gamma(search.best_gamma, dataset)
    c = operator.solve(dataset.outputs, gamma)
    return EstimateResult(c, spec, dataset, gamma, operator, basis, search)


@dataclass(frozen=True)
class GammaSearch:
    """Holdout scores over a regularization grid."""

    gammas: np.ndarray
    scores: np.ndarray
    best_index: int

    @property
    def best_gamma(self) -> float:
        return float(self.gammas[self.best_index])


def grid_search_gamma(operator, outputs: np.ndarray, gammas) -> GammaSearch:
    """Pick gamma by one chronological holdout on the last fifth of the data.

    ``operator`` is the normal-equation operator of all samples
    (`output_kernel`) and ``outputs`` their values, both in time order.
    The model is fitted on the earlier samples, for the whole grid at
    once, and scored by mean squared prediction error on the held-out
    outputs.  Ties go to the larger gamma, and scores below
    (RESIDUAL_TOL max |held-out output|)^2, where the solves' own accuracy
    ends and only rounding tells fits apart, count as tied.  Needs at
    least five samples so the holdout is nonempty while the training block
    stays usable.
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
    predictions = operator.cross(m, operator.leading(m).solve(outputs[:m], g))
    y_hold = outputs[m:]
    floor = (RESIDUAL_TOL * float(np.max(np.abs(y_hold)))) ** 2
    scores = np.empty(g.size)
    best = 0
    for idx, prediction in enumerate(predictions):
        scores[idx] = float(np.mean((prediction - y_hold) ** 2))
        if max(scores[idx], floor) <= max(scores[best], floor):
            best = idx
    return GammaSearch(g, scores, best)
