"""Maximum-entropy Gaussian constructions behind the spline kernel family.

Two discrete constructions realise the kernels as covariances:

* `sample_genspline_process` -- a weighted cumulative sum of independent
  increments on a unit-interval grid (anchored at 0);
* `sample_dc_process` -- the half-line counterpart, accumulating from the
  far end of the grid toward the origin (anchored at infinity), which is
  the same object after the exponential change of coordinates; with
  matched seeds both return identical numbers up to index reversal.

`sample_dc_markov` draws the identical law through the order-1 recursion
that runs from the last grid instant backward; its covariance is exactly
the kernel Gram matrix, which `dc_markov_exact_covariance` reproduces by
propagating second moments through the recursion.

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
independent of each other.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .grids import HALFLINE, UNIT01, TimeGrid
from .kernels import KernelSpec, stable_gaps, stable_log_weight
from .kernelmat import markov_factors

__all__ = [
    "GaussianSample",
    "SampleBatch",
    "values_matrix",
    "sample_genspline_process",
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
    0..b-1.  Uniforms are mapped through the normal inverse CDF; the offset
    keeps them strictly inside (0, 1).
    """
    seed = _nonnegative_int(seed, "seed")
    out = np.empty((count, n))
    for block, start in enumerate(range(0, count, _BATCH)):
        key = np.array([seed & _MASK64, block], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        m = min(_BATCH, count - start)
        raw = gen.integers(0, 1 << 53, size=(m, n), dtype=np.uint64)
        u = (raw.astype(np.float64) + 0.5) * 2.0 ** -53
        out[start : start + m] = ndtri(u)
    return out


def sample_genspline_process(grid: TimeGrid, rho: float, seed: int, count: int):
    """Trajectories of the power-weighted cumulative-increment process.

    Value at the k-th grid point: tau_k^rho times the running sum of
    w(i-1) * sqrt(tau_i - tau_{i-1}) up to i = k, with tau_0 = 0 anchored.
    Covariance is the power-weighted first-order spline kernel.
    """
    if grid.domain != UNIT01:
        raise DomainError("expected a unit-interval grid")
    rho = float(rho)
    if rho <= -0.5:
        raise DomainError("rho must be > -0.5")
    count = _nonnegative_int(count, "count")
    tau = grid.points
    inc = np.diff(tau, prepend=0.0)
    w = standard_normal_matrix(seed, count, tau.size)
    vals = np.cumsum(w * np.sqrt(inc), axis=1) * tau ** rho
    return SampleBatch(grid, vals, seed)


def sample_dc_process(grid: TimeGrid, spec: KernelSpec, seed: int, count: int):
    """Trajectories of the anticausal cumulative-increment construction.

    The scaled value at grid point k sums w(n-1-i) * sqrt of the exponential
    gap over i = k..n-1; noise index 0 belongs to the far end, so a matched
    seed reproduces `sample_genspline_process` on the reversed image grid.
    Covariance is the dc kernel.
    """
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    t = grid.points
    n = t.size
    gaps = stable_gaps(spec, t)
    count = _nonnegative_int(count, "count")
    w = standard_normal_matrix(seed, count, n)
    # running sums over the reversed index, then read back: value k uses
    # noise 0..n-1-k against gaps n-1 down to k
    acc = np.cumsum(w * np.sqrt(gaps[::-1]), axis=1)
    scale = np.exp(stable_log_weight(spec, t))
    vals = acc[:, ::-1] * scale
    return SampleBatch(grid, vals, seed)


def sample_dc_markov(grid: TimeGrid, spec: KernelSpec, seed: int, count: int):
    """Trajectories of the order-1 recursion equivalent of `sample_dc_process`.

    The recursion is generative from the far end: the last grid value is a
    scaled innovation, and each earlier value combines the next one with a
    fresh innovation.  Running it toward the origin is what keeps the
    scaled variances decreasing along the grid; the distribution matches
    `sample_dc_process` exactly (law, not path-wise).
    """
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    count = _nonnegative_int(count, "count")
    t = grid.points
    n = t.size
    transition, innovation_std = markov_factors(spec, grid)
    w = standard_normal_matrix(seed, count, n)
    vals = np.empty((count, n))
    vals[:, n - 1] = innovation_std[n - 1] * w[:, n - 1]
    for i in range(n - 2, -1, -1):
        vals[:, i] = transition[i] * vals[:, i + 1] + innovation_std[i] * w[:, i]
    return SampleBatch(grid, vals, seed)


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
    n = grid.n
    cov = np.zeros((n, n))
    cov[n - 1, n - 1] = innovation_std[n - 1] ** 2
    for i in range(n - 2, -1, -1):
        cov[i, i] = transition[i] ** 2 * cov[i + 1, i + 1] + innovation_std[i] ** 2
    for j in range(n - 1, -1, -1):
        for i in range(j - 1, -1, -1):
            cov[i, j] = transition[i] * cov[i + 1, j]
            cov[j, i] = cov[i, j]
    return cov


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
