"""Kernel matrices on half-line grids and their sparse inverse structure.

The dc kernel restricted to a finite grid has a tridiagonal inverse.  The
route here is constructive rather than a generic matrix inversion: the
order-1 recursion behind the kernel (see `maxent.sample_dc_markov`) gives
an upper-bidiagonal whitening map T with T K T' = I, so K^{-1} = T' T is
tridiagonal by inspection and every entry beyond the first off-diagonal
is an exact zero, not a small float.

`markov_factors` exposes the recursion coefficients, `tridiagonal_inverse`
assembles K^{-1} from them, and `reconstruct_from_factors` inverts the
whitening map back into K so round-trip agreement can be measured against
the directly assembled Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh, solve_triangular

from .errors import ConditioningError, DomainError
from .grids import HALFLINE, TimeGrid
from .kernels import KernelSpec, eval_kernel, stable_gaps, stable_log_weight

__all__ = [
    "KernelMatrix",
    "assemble",
    "markov_factors",
    "tridiagonal_inverse",
    "reconstruct_from_factors",
    "PsdReport",
    "psd_check",
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


def _whitening(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Upper-bidiagonal T with T K T' = I."""
    transition, innovation_std = markov_factors(spec, grid)
    n = grid.n
    T = np.zeros((n, n))
    idx = np.arange(n)
    T[idx, idx] = 1.0 / innovation_std
    if n > 1:
        T[idx[:-1], idx[:-1] + 1] = -transition[:-1] / innovation_std[:-1]
    return T


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


def reconstruct_from_factors(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Rebuild the Gram matrix from the whitening factors (K = M M')."""
    T = _whitening(spec, grid)
    M = solve_triangular(T, np.eye(grid.n), lower=False)
    return M @ M.T


def max_off_tridiagonal(matrix: np.ndarray) -> float:
    """Largest magnitude outside the tridiagonal band."""
    a = np.asarray(matrix)
    n = a.shape[0]
    if n < 3:
        return 0.0
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    return float(np.max(np.abs(a[mask])))


@dataclass(frozen=True)
class PsdReport:
    """Eigenvalue extremes of a symmetric matrix and the verdict."""

    lambda_min: float
    lambda_max: float
    passed: bool


def psd_check(matrix: np.ndarray, *, rel_tol: float = 1e-10) -> PsdReport:
    """Positive-semidefiniteness up to symmetric-eigensolver rounding.

    Passes when lambda_min >= -rel_tol * max(lambda_max, 0), which admits
    the tiny negative eigenvalues a PSD matrix acquires in floating point.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(a))))):
        raise DomainError("expected a symmetric matrix")
    w = eigvalsh(a)
    lo = float(w[0])
    hi = float(w[-1])
    return PsdReport(lo, hi, lo >= -rel_tol * max(hi, 0.0))
