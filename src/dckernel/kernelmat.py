"""Kernel matrices on half-line grids: dense, tridiagonal-inverse, quasiseparable.

The dc kernel restricted to a finite grid has a tridiagonal inverse.  The
route here is constructive rather than a generic matrix inversion: the
order-1 recursion behind the kernel (see `maxent.sample_dc_markov`) gives
an upper-bidiagonal whitening map T with T K T' = I, so K^{-1} = T' T is
tridiagonal by inspection and every entry beyond the first off-diagonal
is an exact zero, not a small float.  `markov_factors` exposes the
recursion coefficients and `tridiagonal_inverse` assembles K^{-1} from
them.

`QuasiseparableGram` holds the Gram matrix of any half-line kernel as
O(r n) generators, r the number of exponential terms on each triangle
(`kernels.triangle_terms`: 1 for tc and dc, 2 for ss).  It solves with
K + gamma I in O(r^2 n) time and memory, predicts held-out samples in
O(r n) and multiplies by K in log2(n) vectorized passes, without forming
K.  Nothing here needs more than numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError
from .grids import HALFLINE, TimeGrid
from .kernels import (
    KernelSpec,
    eval_kernel,
    stable_gaps,
    stable_log_weight,
    triangle_terms,
)

__all__ = [
    "KernelMatrix",
    "assemble",
    "markov_factors",
    "tridiagonal_inverse",
    "QuasiseparableGram",
    "max_off_tridiagonal",
]

_GAP_FLOOR = 1e-14


@dataclass(frozen=True)
class KernelMatrix:
    """A kernel Gram matrix together with what produced it."""

    spec: KernelSpec
    grid: TimeGrid
    values: np.ndarray


def assemble(spec: KernelSpec, grid: TimeGrid) -> KernelMatrix:
    """Gram matrix of the kernel on the grid, exactly symmetric.

    Only the upper triangle is evaluated; the lower triangle is mirrored,
    so symmetry holds bitwise regardless of rounding inside the kernel.
    """
    if grid.domain != spec.domain:
        want = "unit-interval" if spec.unit_domain else "half-line"
        raise DomainError(f"{spec.variant} kernel expects a {want} grid")
    x = grid.points
    n = x.size
    vals = np.zeros((n, n))
    iu = np.triu_indices(n)
    vals[iu] = eval_kernel(spec, x[iu[0]], x[iu[1]])
    il = np.tril_indices(n, -1)
    vals[il] = vals.T[il]
    return KernelMatrix(spec, grid, vals)


def markov_factors(spec: KernelSpec, grid: TimeGrid):
    """Coefficients of the order-1 recursion that generates the dc kernel.

    Returns (transition, innovation_std), each of length n.  Running from
    the last grid point toward the first,

        value[n-1] = innovation_std[n-1] * w[n-1]
        value[i]   = transition[i] * value[i+1] + innovation_std[i] * w[i]

    with independent standard normals w reproduces the kernel as the
    covariance.  transition[n-1] is unused and set to 0.

    Raises ConditioningError when an exponential gap collapses below
    1e-14, which happens for grid spacings tiny relative to 1/(2 beta);
    the innovation variance is then dominated by cancellation.
    """
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    t = grid.points
    n = t.size
    gaps = stable_gaps(spec, t)
    bad = np.nonzero(gaps < _GAP_FLOOR)[0]
    if bad.size:
        i = int(bad[0])
        raise ConditioningError(
            f"exponential gap {gaps[i]:.3e} below {_GAP_FLOOR:g} between "
            f"t[{i}]={t[i]:.6g} and t[{i + 1}]={t[i + 1]:.6g}"
            if i + 1 < n
            else f"terminal exponential gap {gaps[i]:.3e} below {_GAP_FLOOR:g} "
            f"at t[{i}]={t[i]:.6g}"
        )
    scale = np.exp(stable_log_weight(spec, t))
    transition = np.zeros(n)
    if n > 1:
        transition[: n - 1] = scale[: n - 1] / scale[1:]
    innovation_std = scale * np.sqrt(gaps)
    return transition, innovation_std


def tridiagonal_inverse(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Inverse Gram matrix, assembled tridiagonally with exact zeros.

    Built as T' T from the whitening factors, but written band by band so
    no dense product can smear rounding into the zero pattern.
    """
    transition, innovation_std = markov_factors(spec, grid)
    n = grid.n
    inv_var = 1.0 / innovation_std ** 2
    diag = inv_var.copy()
    if n > 1:
        diag[1:] += transition[:-1] ** 2 * inv_var[:-1]
        off = -transition[:-1] * inv_var[:-1]
    else:
        off = np.zeros(0)
    out = np.zeros((n, n))
    idx = np.arange(n)
    out[idx, idx] = diag
    if n > 1:
        out[idx[:-1], idx[:-1] + 1] = off
        out[idx[:-1] + 1, idx[:-1]] = off
    return out


RESIDUAL_TOL = 1e-9


def _checked_residual(residual, y, gammas):
    """Relative norms |residual| / |y| of solves along the last axis.

    Raises ConditioningError naming the first gamma whose residual
    exceeds RESIDUAL_TOL of the data norm.
    """
    norms = np.linalg.norm(np.atleast_2d(residual), axis=-1)
    scale = max(float(np.linalg.norm(y)), 1e-300)
    for norm, gamma in zip(norms, np.atleast_1d(gammas)):
        if not norm <= RESIDUAL_TOL * scale:  # NaN fails too
            raise ConditioningError(
                f"solve residual {norm:.3e} exceeds {RESIDUAL_TOL:g} of the data norm; "
                f"increase gamma (currently {gamma:g})"
            )
    return norms / scale


def _not_positive_definite(gamma):
    return ConditioningError(
        f"regularized system is not positive definite at gamma={gamma:g}"
    )


def _running_sums(decay, b):
    """f_i = decay_i f_{i-1} + b_i along axis 0, with f_{-1} = 0.

    Recursive doubling: after the pass with stride s every f_i holds its
    last 2s terms, decayed to i, and ``a[i]`` the decay across them, so
    log2(n) vectorized passes of O(n) work replace n sequential steps.
    Every decay lies in [0, 1], so products only shrink.
    """
    f = np.array(b, dtype=float)
    a = np.broadcast_to(decay, f.shape).copy()
    stride = 1
    while stride < f.shape[0]:
        f[stride:] += a[stride:] * f[:-stride]
        a[stride:] *= a[:-stride]
        stride *= 2
    return f


def _columns(x):
    """Samples along axis 0: (n,) -> (n, 1), (g, n) -> (n, g)."""
    return np.atleast_2d(np.asarray(x, dtype=float)).T


class QuasiseparableGram:
    """Gram matrix K of a half-line kernel, held as O(r n) generators.

    On t_i >= t_j the kernel is sum_k w_k exp(-p_k t_i - q_k t_j)
    (`kernels.triangle_terms`), written here in scaled form

        K[i, j] = sum_k exp(-p_k (t_i - t_j)) d_k(t_j),
        d_k(t)  = w_k exp(-(p_k + q_k) t),

    and mirrored above the diagonal.  Every exponent is nonpositive, so no
    generator overflows however long the horizon or underflows to a wrong
    value however tight the spacing.  The generators are ``decay[i, k] =
    exp(-p_k (t_i - t_{i-1}))`` (1 at i = 0) and ``scaled[i, k] =
    d_k(t_i)``.

    Arrays of several solutions carry one solution per row; ``gamma`` is
    a scalar or a 1-D grid, and a grid is solved in one pass over the
    samples with gamma as a vector axis.
    """

    kind = "quasiseparable"

    def __init__(self, spec: KernelSpec, grid: TimeGrid):
        if grid.domain != HALFLINE:
            raise DomainError("expected a half-line grid")
        w, p, q = (np.array(v) for v in zip(*triangle_terms(spec)))
        self.spec = spec
        self.grid = grid
        t = grid.points
        self.rates = p
        self.decay = np.exp(-np.outer(np.diff(t, prepend=t[0]), p))
        self.scaled = w * np.exp(-np.outer(t, p + q))

    def leading(self, m: int) -> QuasiseparableGram:
        """The Gram matrix of the first ``m`` samples."""
        return QuasiseparableGram(self.spec, TimeGrid(self.grid.points[:m], HALFLINE))

    def dense(self) -> np.ndarray:
        """K as an n x n array, built from the generators (for checks)."""
        t = self.grid.points
        lag = np.maximum(t[:, None] - t[None, :], 0.0)
        sections = np.exp(-lag[:, :, None] * self.rates)
        low = np.tril(np.einsum("ijk,jk->ij", sections, self.scaled))
        return low + np.tril(low, -1).T

    def _apply(self, x):
        """K x for x of shape (n, g)."""
        out = np.zeros(x.shape)
        for k in range(self.rates.size):
            decay = self.decay[:, k, None]
            scaled = self.scaled[:, k, None]
            # on and below the diagonal: sum_{j <= i} exp(-p (t_i - t_j)) d(t_j) x_j
            out += _running_sums(decay, scaled * x)
            # above it: d(t_i) sum_{j > i} exp(-p (t_j - t_i)) x_j, run backward
            ahead = _running_sums(np.roll(decay, -1, axis=0)[::-1], x[::-1])[::-1]
            out[:-1] += scaled[:-1] * decay[1:] * ahead[1:]
        return out

    def matvec(self, x) -> np.ndarray:
        """K x; ``x`` is one vector of length n or one per row."""
        x = np.asarray(x, dtype=float)
        return self._apply(_columns(x)).T.reshape(x.shape)

    def cross(self, m: int, c) -> np.ndarray:
        """K[m:, :m] c: predictions at the samples after the first ``m``.

        For i >= m every entry is exp(-p (t_i - t_{m-1})) times the
        decayed sum the coefficients leave at t_{m-1}.
        """
        c = np.asarray(c, dtype=float)
        t = self.grid.points
        last = np.exp(-np.outer(t[m - 1] - t[:m], self.rates)) * self.scaled[:m]
        ahead = np.exp(-np.outer(t[m:] - t[m - 1], self.rates))
        return (_columns(c).T @ last @ ahead.T).reshape(c.shape[:-1] + (t.size - m,))

    def solve(self, y, gamma) -> np.ndarray:
        """(K + gamma I) c = y by a generator Cholesky factor, with a residual guard.

        The factor L has L[i, i] = pivot_i and, for i > j,
        L[i, j] = sum_k exp(-p_k (t_i - t_j)) gen[j, k].  Row i needs only
        S, the r x r sum of gen_l gen_l' over l < i decayed to t_i:

            pivot_i^2 = K[i, i] + gamma - 1' S 1,
            gen_i     = (d(t_i) - S 1) / pivot_i.

        The forward solve z = L^{-1} y rides along as one more column
        (row i of the factor of the matrix bordered by y ends in z_i), so
        one pass over the samples factors and solves forward; a second,
        backward, carries the decayed sum of the later coefficients.
        Raises ConditioningError on a pivot <= 0 or when
        |(K + gamma I) c - y| exceeds RESIDUAL_TOL |y|.
        """
        y = np.asarray(y, dtype=float)
        gammas = np.atleast_1d(np.asarray(gamma, dtype=float))
        r = self.rates.size
        decay = self.decay[:, :, None]
        # T's columns 0..r-1 hold S and column r the decayed sum of gen_l z_l;
        # moving from t_{i-1} to t_i scales T[k, l] by decay[i, k] decay[i, l]
        bordered = np.pad(self.decay, ((0, 0), (0, 1)), constant_values=1.0)
        carry = decay[:, :, None] * bordered[:, None, :, None]
        rhs = np.column_stack([self.scaled, y])[:, :, None]
        diag = self.scaled.sum(axis=1)[:, None] + gammas
        n, width = diag.shape
        T = np.zeros((r, r + 1, width))
        pivot = np.empty((n, width))
        row = np.empty((n, r + 1, width))
        add = np.add.reduce  # ndarray.sum costs a Python-level call per step
        with np.errstate(invalid="ignore", divide="ignore"):
            for i in range(n):
                T *= carry[i]
                sums = add(T)
                pivot_i = np.sqrt(diag[i] - add(sums[:r]))
                v = (rhs[i] - sums) / pivot_i
                T += v[:r, None] * v
                pivot[i] = pivot_i
                row[i] = v
        bad = ~np.all(pivot > 0.0, axis=0)
        if bad.any():
            raise _not_positive_definite(gammas[np.argmax(bad)])
        # backward: c_i = (z_i - gen_i' ahead_i) / pivot_i, with row i pre-divided
        row /= pivot[:, None]
        gen, z = row[:, :r], row[:, r]
        c = np.empty((n, width))
        ahead = np.zeros((r, width))
        for i in range(n - 1, -1, -1):
            c_i = z[i] - add(gen[i] * ahead)
            c[i] = c_i
            ahead += c_i
            ahead *= decay[i]
        _checked_residual((self._apply(c) + gammas * c - y[:, None]).T, y, gammas)
        return c[:, 0] if np.ndim(gamma) == 0 else c.T


def max_off_tridiagonal(matrix: np.ndarray) -> float:
    """Largest magnitude outside the tridiagonal band."""
    a = np.asarray(matrix)
    n = a.shape[0]
    if n < 3:
        return 0.0
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    return float(np.max(np.abs(a[mask])))
