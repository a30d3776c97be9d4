"""Maximum-entropy Gaussian constructions behind the spline kernel family.

`sample_dc_process` realises the dc kernel as the covariance of a
weighted cumulative sum of independent increments, accumulating from the
far end of the grid toward the origin (anchored at infinity).  After the
exponential change of coordinates it is the power-weighted cumulative sum
on the unit interval, anchored at 0, behind the generalized first-order
spline kernel.

`sample_dc_markov` draws the identical law through the order-1 recursion
that runs from the last grid instant backward; its covariance is exactly
the kernel Gram matrix, which `dc_markov_exact_covariance` reproduces by
propagating second moments through the recursion.  Both samplers run one
recursion (`kernelmat._scaled_recursion`), the cumulative one on reversed
noise columns; the other exact covariances and `verify_maxent_constraints`
keep the literal stable-coordinate sums, as oracles independent of it.

The constructions maximise differential entropy subject to zero means and
fixed increment variances.  `verify_maxent_constraints` checks those
constraints on exact covariances or Monte-Carlo samples, and
`dc_negative_control_covariance` builds a constraint-satisfying competitor
(correlated increments) whose log-determinant must come out smaller.

Each sampler returns a `SampleBatch`, its draws as one (count, n) matrix
that `values_matrix` hands back as is; indexing or iterating a batch makes
one `GaussianSample` per draw on demand.  Randomness is counter-based
(Philox keyed by seed and row block) and normal variates come from the
inverse CDF applied to uniforms, so row blocks are reproducible and
independent of each other.  The inverse CDF is `_ndtri`, a numpy port of
cephes ``ndtri`` (Moshier, *Methods and Programs for Mathematical
Functions*, 1989) that gives the C routine's bits with numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import HALFLINE, TimeGrid
from .kernels import KernelSpec, stable_gaps, stable_log_weight
from .kernelmat import _scaled_recursion, markov_factors

__all__ = [
    "GaussianSample",
    "SampleBatch",
    "values_matrix",
    "sample_dc_process",
    "sample_dc_markov",
    "dc_process_exact_covariance",
    "dc_markov_exact_covariance",
    "dc_negative_control_covariance",
    "gaussian_log_det",
    "verify_maxent_constraints",
    "ConstraintReport",
]

_BATCH = 4096
_MASK64 = (1 << 64) - 1

# cephes ndtri coefficients, highest power first; each Q carries the 1 that
# p1evl implies.  P0/Q0: the centre, in (y - 1/2)^2; P1/Q1 and P2/Q2: the
# tails, in z = 1/x with x = sqrt(-2 log y) below and above 8.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189
_CHUNK = 8192  # values per pass, so a pass's temporaries stay in cache
_X87_LOG = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16


@dataclass(frozen=True)
class GaussianSample:
    """One sampled trajectory: the grid it lives on, its values, its seed."""

    grid: TimeGrid
    values: np.ndarray
    seed: int


@dataclass(frozen=True, eq=False)
class SampleBatch(Sequence):
    """The draws of one sampler call: row k of ``values`` is draw k."""

    grid: TimeGrid
    values: np.ndarray
    seed: int

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SampleBatch(self.grid, self.values[k], self.seed)
        return GaussianSample(self.grid, self.values[k], self.seed)

    def __eq__(self, other):
        # equal to a batch or list of samples holding the same draws
        if not isinstance(other, (SampleBatch, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a.grid is b.grid and a.seed == b.seed and np.array_equal(a.values, b.values)
            for a, b in zip(self, other)
        )


def values_matrix(samples) -> np.ndarray:
    """The (count, n) draws of a batch, a sample list or a matrix."""
    if isinstance(samples, SampleBatch):
        return samples.values
    if isinstance(samples, np.ndarray):
        return np.atleast_2d(samples)
    return np.array([s.values for s in samples])


def _nonnegative_int(value, name):
    if int(value) != value or value < 0:
        raise DomainError(f"{name} must be a nonnegative integer")
    return int(value)


def standard_normal_matrix(seed: int, count: int, n: int) -> np.ndarray:
    """(count, n) standard normals from keyed counter-based streams.

    Row blocks of 4096 samples each use their own Philox stream keyed by
    (seed, block), so block b is reproducible without generating blocks
    0..b-1.  Uniforms are mapped through the normal inverse CDF; `_uniform`
    keeps them strictly inside (0, 1).
    """
    seed = _nonnegative_int(seed, "seed")
    out = np.empty((count, n))
    for block, start in enumerate(range(0, count, _BATCH)):
        key = np.array([seed & _MASK64, block], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        m = min(_BATCH, count - start)
        raw = gen.integers(0, 1 << 53, size=(m, n), dtype=np.uint64)
        out[start : start + m] = _ndtri(_uniform(raw)).reshape(m, n)
    return out


def _uniform(raw):
    """(raw + 1/2) 2^-53, clamped below 1: raw = 2^53 - 1 alone rounds to 1."""
    u = (raw.astype(np.float64) + 0.5) * 2.0 ** -53
    return np.minimum(u, np.nextafter(1.0, 0.0), out=u)


def _horner(x, coef):
    """cephes polevl: Horner's rule from the leading coefficient."""
    acc = x * coef[0]
    for c in coef[1:-1]:
        acc += c
        acc *= x
    return acc + coef[-1]


def _libm_log(x):
    """log of positive doubles, rounded as glibc's ``log`` (within 0.519 ulp).

    The x87 extended log rounded to double agrees except within 0.019 ulp of
    a rounding midpoint; values within 48/2048 ulp of one, by the 11 extra
    bits, or all values without an x87 long double, take `math.log`.
    """
    if not _X87_LOG:
        return np.fromiter(map(math.log, x.tolist()), float, x.size)
    ext = np.log(x.astype(np.longdouble))
    out = ext.astype(float)
    low = (ext.view(np.uint64)[::2] - np.uint64(977)) & np.uint64(0x7FF)
    near = np.flatnonzero(low < 95)  # |low 11 mantissa bits - 1024| < 48
    out[near] = list(map(math.log, x[near].tolist()))
    return out


def _ndtri(u):
    """Inverse standard normal CDF of an array in [0, 1], flattened.

    Bit for bit cephes ``ndtri``: its coefficients and Horner order, fold at
    1 - exp(-2), branch at exp(-2), switch at x = 8 and libm-rounded logs.
    """
    u = np.ravel(u)
    out = np.empty_like(u)
    for s in range(0, u.size, _CHUNK):  # the central branch, on every value
        y = u[s : s + _CHUNK] - 0.5
        y2 = y * y
        x = _horner(y2, _P0)
        x *= y2
        x /= _horner(y2, _Q0)
        x *= y
        x += y
        out[s : s + _CHUNK] = x * 2.50662827463100050242  # sqrt(2 pi)
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    for s in range(0, tail.size, _CHUNK):  # the tails overwrite it
        at = tail[s : s + _CHUNK]
        upper = u[at] > 0.5
        y = np.where(upper, 1.0 - u[at], u[at])
        edge = y == 0.0  # u = 0 or 1, the infinite quantiles
        y[edge] = _EXP_M2
        x = np.sqrt(-2.0 * _libm_log(y))
        z = 1.0 / x
        x1 = z * _horner(z, _P1) / _horner(z, _Q1)
        far = np.flatnonzero(x >= 8.0)  # y <= exp(-32)
        x1[far] = z[far] * _horner(z[far], _P2) / _horner(z[far], _Q2)
        x = x - _libm_log(x) / x - x1
        x[edge] = np.inf
        out[at] = np.where(upper, x, -x)
    return out


def sample_dc_process(grid: TimeGrid, spec: KernelSpec, seed: int, count: int):
    """Trajectories of the anticausal cumulative-increment construction.

    The scaled value at grid point k sums w(n-1-i) * sqrt of the exponential
    gap over i = k..n-1; noise index 0 belongs to the far end, so a matched
    seed reproduces the unit-interval sum on the reversed image grid.
    It runs as the recursion of `sample_dc_markov` on the reversed noise.
    Covariance is the dc kernel.
    """
    w = standard_normal_matrix(seed, _nonnegative_int(count, "count"), grid.n)
    return SampleBatch(grid, _scaled_recursion(spec, grid, w[:, ::-1]), seed)


def sample_dc_markov(grid: TimeGrid, spec: KernelSpec, seed: int, count: int):
    """Trajectories of the order-1 recursion equivalent of `sample_dc_process`.

    The recursion is generative from the far end: the last grid value is a
    scaled innovation, and each earlier value combines the next one with a
    fresh innovation, noise index i at grid point i.  The distribution
    matches `sample_dc_process` exactly (law, not path-wise).
    """
    w = standard_normal_matrix(seed, _nonnegative_int(count, "count"), grid.n)
    return SampleBatch(grid, _scaled_recursion(spec, grid, w), seed)


def dc_process_exact_covariance(grid: TimeGrid, spec: KernelSpec) -> np.ndarray:
    """Covariance of the anticausal construction by literal accumulation."""
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    t = grid.points
    gaps = stable_gaps(spec, t)
    suffix = np.cumsum(gaps[::-1])[::-1]
    scale = np.exp(stable_log_weight(spec, t))
    shared = np.minimum(suffix[:, None], suffix[None, :])  # suffix sums decrease
    return scale[:, None] * scale[None, :] * shared


def dc_markov_exact_covariance(grid: TimeGrid, spec: KernelSpec) -> np.ndarray:
    """Covariance of the recursion by propagating its second moments."""
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    transition, innovation_std = markov_factors(spec, grid)
    cov = np.diag(innovation_std ** 2)
    for i in range(grid.n - 2, -1, -1):  # row i of the upper triangle from row i + 1
        cov[i, i + 1 :] = transition[i] * cov[i + 1, i + 1 :]
        cov[i, i] += transition[i] * cov[i, i + 1]
    return np.triu(cov) + np.triu(cov, 1).T


def _equicorrelated(variances, correlation):
    v = np.asarray(variances, dtype=float)
    c = float(correlation)
    if not 0.0 <= c < 1.0:
        raise DomainError("increment correlation must lie in [0, 1)")
    std = np.sqrt(v)
    cov = c * np.outer(std, std)
    np.fill_diagonal(cov, v)
    return cov


def dc_negative_control_covariance(
    grid: TimeGrid, spec: KernelSpec, correlation: float
) -> np.ndarray:
    """Half-line competitor: correlated increments, same constraint set."""
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    t = grid.points
    n = t.size
    inc_cov = _equicorrelated(stable_gaps(spec, t), correlation)
    acc = np.triu(np.ones((n, n)))  # scaled value k sums gaps k..n-1
    scale = np.exp(stable_log_weight(spec, t))
    return scale[:, None] * scale[None, :] * (acc @ inc_cov @ acc.T)


def gaussian_log_det(covariance: np.ndarray) -> float:
    """log-determinant of a covariance (entropy up to an affine map)."""
    sign, logdet = np.linalg.slogdet(np.asarray(covariance, dtype=float))
    if sign <= 0:
        raise DomainError("covariance must be positive definite")
    return float(logdet)


@dataclass(frozen=True)
class ConstraintReport:
    """Residuals of the maximum-entropy constraint set.

    ``mean_residuals`` covers E[value] = 0 at each grid point;
    ``increment_residuals`` covers the variances of consecutive scaled
    differences; ``terminal_residual`` covers the variance of the last
    scaled value.  ``standard_errors`` mirrors the residual layout for the
    Monte-Carlo path and is None when exact covariances were supplied.
    """

    mean_residuals: np.ndarray
    increment_residuals: np.ndarray
    terminal_residual: float
    standard_errors: tuple | None
    tolerance: float
    passed: bool

    @property
    def max_abs_residual(self) -> float:
        worst = abs(self.terminal_residual)
        if self.increment_residuals.size:
            worst = max(worst, float(np.max(np.abs(self.increment_residuals))))
        if self.mean_residuals.size:
            worst = max(worst, float(np.max(np.abs(self.mean_residuals))))
        return worst


def verify_maxent_constraints(
    grid: TimeGrid,
    spec: KernelSpec,
    *,
    covariance: np.ndarray | None = None,
    samples=None,
    exact_tol: float = 1e-13,
    se_multiplier: float = 3.0,
) -> ConstraintReport:
    """Check the constraint set on an exact covariance or on samples.

    Exact path: supply ``covariance``; residuals must stay within
    ``exact_tol`` (means are identically zero by construction and reported
    as zeros).  Monte-Carlo path: supply ``samples``; each residual must
    stay within ``se_multiplier`` standard errors, where second-moment
    standard errors come from sample fourth moments.
    """
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    if (covariance is None) == (samples is None):
        raise DomainError("supply exactly one of covariance or samples")
    t = grid.points
    n = t.size
    gaps = stable_gaps(spec, t)
    inc_target = gaps[:-1]
    term_target = gaps[-1]
    unscale = np.exp(-stable_log_weight(spec, t))

    if covariance is not None:
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (n, n):
            raise DomainError("covariance shape does not match the grid")
        scaled = unscale[:, None] * cov * unscale[None, :]
        d = np.diag(scaled)
        inc_var = d[1:] + d[:-1] - 2.0 * np.diag(scaled, 1)
        # the scaled differences run from later to earlier grid points,
        # but the variance is symmetric in the orientation
        inc_res = inc_var - inc_target
        term_res = float(d[-1] - term_target)
        mean_res = np.zeros(n)
        passed = (
            abs(term_res) <= exact_tol
            and (inc_res.size == 0 or float(np.max(np.abs(inc_res))) <= exact_tol)
        )
        return ConstraintReport(mean_res, inc_res, term_res, None, exact_tol, passed)

    vals = values_matrix(samples)
    if vals.shape[1] != n:
        raise DomainError("sample width does not match the grid")
    m = vals.shape[0]
    if m < 2:
        raise DomainError("need at least two samples")
    scaled = vals * unscale[None, :]
    mean_res = vals.mean(axis=0)
    mean_se = vals.std(axis=0, ddof=1) / np.sqrt(m)
    diffs = scaled[:, 1:] - scaled[:, :-1]
    inc_var = np.mean(diffs ** 2, axis=0)  # means are zero under the null
    inc_se = np.sqrt(
        np.maximum(np.mean(diffs ** 4, axis=0) - inc_var ** 2, 0.0) / m
    )
    term_sq = scaled[:, -1] ** 2
    term_var = float(np.mean(term_sq))
    term_se = float(np.sqrt(max(np.mean(term_sq ** 2) - term_var ** 2, 0.0) / m))
    inc_res = inc_var - inc_target
    term_res = term_var - term_target
    floor = 1e-300
    ok_means = np.all(np.abs(mean_res) <= se_multiplier * np.maximum(mean_se, floor))
    ok_inc = np.all(np.abs(inc_res) <= se_multiplier * np.maximum(inc_se, floor))
    ok_term = abs(term_res) <= se_multiplier * max(term_se, floor)
    return ConstraintReport(
        mean_res,
        inc_res,
        float(term_res),
        (mean_se, inc_se, term_se),
        se_multiplier,
        bool(ok_means and ok_inc and ok_term),
    )
