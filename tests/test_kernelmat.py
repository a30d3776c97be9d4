import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from dckernel import estimator, kernelmat, kernels
from dckernel.errors import ConditioningError, DomainError
from dckernel.grids import halfline_grid, unit_grid

SPEC = kernels.dc(0.2, 0.3)
EPS = np.finfo(float).eps


def _mp_inverse(spec, points, digits=60):
    """K^{-1} by a dense mpmath inverse, independent of the factorization.

    K is equilibrated by its diagonal first (C = S^{-1} K S^{-1}, S the
    square roots of the diagonal), since mpmath calls a pivot singular below
    eps times the norm, and a long horizon spreads K over hundreds of decades.
    """
    import mpmath

    with mpmath.workdps(digits):
        alpha, beta = mpmath.mpf(spec.alpha), mpmath.mpf(spec.beta)
        t = [mpmath.mpf(float(x)) for x in points]
        K = [[mpmath.exp(-alpha * (a + b) - beta * abs(a - b)) for b in t] for a in t]
        S = [mpmath.sqrt(K[i][i]) for i in range(len(t))]
        n = len(t)
        Q = mpmath.matrix([[K[i][j] / (S[i] * S[j]) for j in range(n)] for i in range(n)]) ** -1
        return mpmath.matrix([[Q[i, j] / (S[i] * S[j]) for j in range(n)] for i in range(n)])


def _band_error(inverse, exact):
    """Largest relative error of the band entries against an mpmath inverse."""
    import mpmath

    n = inverse.shape[0]
    with mpmath.workdps(30):
        return max(
            float(abs(mpmath.mpf(float(inverse[i, j])) / exact[i, j] - 1))
            for i in range(n)
            for j in range(max(i - 1, 0), min(i + 2, n))
        )


def _whitening(spec, grid):
    """Upper-bidiagonal T with T K T' = I."""
    transition, innovation_std = kernelmat.markov_factors(spec, grid)
    n = grid.n
    T = np.zeros((n, n))
    idx = np.arange(n)
    T[idx, idx] = 1.0 / innovation_std
    if n > 1:
        T[idx[:-1], idx[:-1] + 1] = -transition[:-1] / innovation_std[:-1]
    return T


def reconstruct_from_factors(spec, grid):
    """Rebuild the Gram matrix from the whitening factors (K = M M')."""
    T = _whitening(spec, grid)
    M = solve_triangular(T, np.eye(grid.n), lower=False)
    return M @ M.T


def test_assemble_is_bitwise_symmetric():
    grid = halfline_grid([0.0, 0.13, 0.57, 1.9, 2.31, 4.0])
    km = kernelmat.assemble(SPEC, grid)
    assert np.array_equal(km.values, km.values.T)
    assert km.spec is SPEC
    assert km.grid is grid


def test_assemble_rejects_wrong_domain():
    with pytest.raises(DomainError):
        kernelmat.assemble(SPEC, unit_grid([0.2, 0.8]))
    with pytest.raises(DomainError):
        kernelmat.assemble(kernels.spline1(), halfline_grid([0.2, 0.8]))


def test_markov_factors_two_point_hand_check():
    beta, rho = 0.4, 0.25
    spec = kernels.dc((2 * rho + 1) * beta, beta)
    t0, t1 = 0.5, 1.2
    transition, innovation_std = kernelmat.markov_factors(
        spec, halfline_grid([t0, t1])
    )
    e0, e1 = np.exp(-2 * beta * t0), np.exp(-2 * beta * t1)
    s0, s1 = np.exp(-2 * beta * rho * t0), np.exp(-2 * beta * rho * t1)
    assert transition[0] == pytest.approx(s0 / s1, rel=1e-15)
    assert transition[1] == 0.0
    assert innovation_std[0] == pytest.approx(s0 * np.sqrt(e0 - e1), rel=1e-15)
    assert innovation_std[1] == pytest.approx(s1 * np.sqrt(e1), rel=1e-15)


def test_inverse_off_band_entries_are_exact_zeros():
    grid = halfline_grid(np.linspace(0.1, 2.5, 8))
    inv = kernelmat.tridiagonal_inverse(SPEC, grid)
    n = grid.n
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                assert inv[i, j] == 0.0  # exact, not merely small


def test_inverse_matches_dense_inversion():
    grid = halfline_grid(np.linspace(0.1, 2.5, 10))
    inv = kernelmat.tridiagonal_inverse(SPEC, grid)
    dense = np.linalg.inv(kernelmat.assemble(SPEC, grid).values)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(inv - dense)) <= 1e-9 * scale


def test_inverse_identity_residual():
    grid = halfline_grid(np.linspace(0.05, 3.0, 12))
    gram = kernelmat.assemble(SPEC, grid).values
    inv = kernelmat.tridiagonal_inverse(SPEC, grid)
    assert np.max(np.abs(gram @ inv - np.eye(grid.n))) <= 1e-10


def test_identity_residual_on_random_grids():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 41))
        pts = np.sort(rng.uniform(0.0, 3.0, size=n))
        beta = rng.uniform(0.2, 1.2)
        rho = rng.uniform(-0.4, 0.75)
        spec = kernels.dc((2 * rho + 1) * beta, beta)
        grid = halfline_grid(pts)
        gram = kernelmat.assemble(spec, grid).values
        inv = kernelmat.tridiagonal_inverse(spec, grid)
        worst = max(worst, float(np.max(np.abs(gram @ inv - np.eye(n)))))
    assert worst <= 1e-10


def test_uniform_grid_correlation_inverse_is_ar1():
    # normalizing a uniform-grid Gram to unit diagonal leaves the classic
    # first-order autoregressive precision matrix: Toeplitz bands except
    # for the two boundary diagonal entries
    spec = kernels.dc(0.7, 0.25)
    pts = np.linspace(0.3, 2.7, 9)
    grid = halfline_grid(pts)
    gram = kernelmat.assemble(spec, grid).values
    inv = kernelmat.tridiagonal_inverse(spec, grid)
    d = np.sqrt(np.diag(gram))
    corr_inv = d[:, None] * inv * d[None, :]
    q = np.exp(-spec.beta * (pts[1] - pts[0]))
    scale = 1.0 - q * q
    diag = np.diag(corr_inv)
    assert diag[1:-1] == pytest.approx((1.0 + q * q) / scale, rel=1e-12)
    assert diag[[0, -1]] == pytest.approx(1.0 / scale, rel=1e-12)
    assert np.diag(corr_inv, 1) == pytest.approx(-q / scale, rel=1e-12)


def test_reconstruct_round_trip():
    grid = halfline_grid(np.linspace(0.1, 2.5, 10))
    gram = kernelmat.assemble(SPEC, grid).values
    rebuilt = reconstruct_from_factors(SPEC, grid)
    assert np.max(np.abs(rebuilt - gram)) <= 1e-12


def test_other_kernels_have_dense_inverses():
    # the banded structure is specific to this family; a different smooth
    # kernel inverts to a dense matrix
    grid = halfline_grid(np.linspace(0.2, 2.0, 6))
    gram = kernelmat.assemble(kernels.ss(0.5), grid).values
    dense = np.linalg.inv(gram)
    assert kernelmat.max_off_tridiagonal(dense) > 1e-3 * np.max(np.abs(dense))


def test_collapsed_gap_keeps_its_digits():
    # a gap of one ulp at t = 1: 1 - rho^2 comes from expm1, not from a difference
    mpmath = pytest.importorskip("mpmath")
    grid = halfline_grid([1.0, 1.0 + 1e-15])
    transition, innovation_std = kernelmat.markov_factors(kernels.tc(1.0), grid)
    with mpmath.workdps(60):
        t0, t1 = (mpmath.mpf(float(t)) for t in grid.points)
        expected = (mpmath.exp(-t0) * mpmath.sqrt(-mpmath.expm1(-2 * (t1 - t0))), mpmath.exp(-t1))
        inverse = _mp_inverse(kernels.tc(1.0), grid.points)
    assert transition.tolist() == [1.0, 0.0]
    for value, exact in zip(innovation_std, expected):
        assert abs(value / exact - 1) <= 4 * EPS
    assert _band_error(kernelmat.tridiagonal_inverse(kernels.tc(1.0), grid), inverse) <= 8 * EPS


def test_gap_to_infinity_at_a_long_horizon():
    # 2 beta t = 800: exp(-2 beta t) underflows, the scaled factors do not
    mpmath = pytest.importorskip("mpmath")
    grid = halfline_grid([0.0, 400.0])
    transition, innovation_std = kernelmat.markov_factors(kernels.tc(1.0), grid)
    assert transition.tolist() == [1.0, 0.0]
    assert innovation_std[0] == 1.0
    with mpmath.workdps(60):
        assert abs(innovation_std[1] / mpmath.exp(-400) - 1) <= 4 * EPS
    # but 1 / k(400, 400) = exp(800) is no double
    with pytest.raises(ConditioningError, match="overflows at t=400"):
        kernelmat.tridiagonal_inverse(kernels.tc(1.0), grid)


@st.composite
def long_horizon_problems(draw):
    """(spec, grid): 2 beta t up to 1400, runs of spacings down to 1e-12, n from 1.

    alpha / beta = 2 rho + 1 runs from 1e-3 (rho -> -1/2) through alpha = beta
    (tc, and one part in 1e9 either side) to 3.
    """
    beta = draw(st.floats(0.05, 5.0))
    ratio = draw(
        st.one_of(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1e-3]), st.floats(1e-3, 3.0))
    )
    spec = kernels.tc(beta) if ratio == 1.0 else kernels.dc(ratio * beta, beta)
    n = draw(st.integers(1, 8))
    tiny = draw(st.integers(0, n - 1))
    reach = draw(st.sampled_from([1.0, 40.0, 400.0, 1400.0]))  # 2 beta t at the end
    start = draw(st.sampled_from([0.0, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.1, 1.0, n - 1)
    gaps[tiny:] *= reach / (2.0 * beta) / max(gaps[tiny:].sum(), 1e-300)
    gaps[:tiny] = 10.0 ** rng.uniform(-12.0, -9.0, tiny)  # the tiny run comes first, near t <= 1
    return spec, halfline_grid(start + np.concatenate([[0.0], np.cumsum(gaps)]))


def _double_max_exceeded(exact):
    import mpmath

    largest = max(abs(exact[i, j]) for i in range(exact.rows) for j in range(exact.cols))
    return largest > mpmath.mpf(np.finfo(float).max)


@settings(max_examples=60, deadline=None)
@given(problem=long_horizon_problems())
@example(problem=(kernels.tc(0.5), halfline_grid(np.linspace(0.1, 40.0, 8))))
@example(problem=(kernels.dc(0.3, 0.7), halfline_grid(np.linspace(0.1, 60.0, 8))))
@example(problem=(kernels.dc(0.6, 0.4), halfline_grid(np.linspace(0.1, 60.0, 8))))
def test_tridiagonal_inverse_matches_extended_precision(problem):
    # entrywise on the band: max|K Q - I| would read cancellation in the product
    spec, grid = problem
    t = grid.points
    if not math.exp(-spec.alpha * t[-1]) >= np.finfo(float).tiny:
        with pytest.raises(ConditioningError, match="below the normal range"):
            kernelmat.tridiagonal_inverse(spec, grid)
        return
    exact = _mp_inverse(spec, t)
    if _double_max_exceeded(exact):
        with pytest.raises(ConditioningError, match="overflows"):
            kernelmat.tridiagonal_inverse(spec, grid)
        return
    inverse = kernelmat.tridiagonal_inverse(spec, grid)
    assert kernelmat.max_off_tridiagonal(inverse) == 0.0
    # exp(-alpha t) carries the rounding of its argument, |alpha t| eps
    assert _band_error(inverse, exact) <= 8 * EPS * (2.0 + spec.alpha * t[-1] + spec.beta * t[-1])


def test_single_point_grid():
    grid = halfline_grid([0.7])
    gram = kernelmat.assemble(SPEC, grid).values
    inv = kernelmat.tridiagonal_inverse(SPEC, grid)
    assert inv.shape == (1, 1)
    assert gram[0, 0] * inv[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert kernelmat.max_off_tridiagonal(np.eye(2)) == 0.0


def test_max_off_tridiagonal_reads_the_right_entries():
    a = np.eye(4)
    a[0, 1] = 50.0  # on the band, must be ignored
    a[0, 3] = 7.0
    a[2, 0] = -9.0
    assert kernelmat.max_off_tridiagonal(a) == 9.0


@dataclass(frozen=True)
class PsdReport:
    """Eigenvalue extremes of a symmetric matrix and the verdict."""

    lambda_min: float
    lambda_max: float
    passed: bool


def psd_check(matrix, *, rel_tol=1e-10):
    """Positive-semidefiniteness up to symmetric-eigensolver rounding.

    Passes when lambda_min >= -rel_tol * max(lambda_max, 0), which admits
    the tiny negative eigenvalues a PSD matrix acquires in floating point.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(a))))):
        raise DomainError("expected a symmetric matrix")
    w = np.linalg.eigvalsh(a)
    lo = float(w[0])
    hi = float(w[-1])
    return PsdReport(lo, hi, lo >= -rel_tol * max(hi, 0.0))


def test_psd_check_verdicts():
    grid = halfline_grid(np.linspace(0.1, 2.0, 8))
    gram = kernelmat.assemble(SPEC, grid).values
    report = psd_check(gram)
    assert report.passed
    assert report.lambda_max > 0.0

    bad = psd_check(np.diag([1.0, -1.0]))
    assert not bad.passed
    assert bad.lambda_min == pytest.approx(-1.0)

    with pytest.raises(DomainError):
        psd_check(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---- quasiseparable Gram operator against the dense oracle ----

QS_SPECS = (kernels.tc(0.5), kernels.dc(0.6, 0.4), kernels.dc(0.3, 0.7), kernels.ss(0.6))


@st.composite
def qs_problems(draw):
    """(spec, grid): t = 0 first, a run of spacings 1e-9, 2 * rate * t up to 60."""
    spec = draw(st.sampled_from(QS_SPECS))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = spec.beta if spec.stable else spec.alpha
    horizon = draw(st.sampled_from([1e-6, 0.5, 5.0, 30.0, 60.0])) / (2.0 * rate)
    gaps = rng.uniform(0.1, 1.0, n - 1)
    gaps *= horizon / max(gaps.sum(), 1e-300)
    run = draw(st.integers(0, n - 1))
    start = draw(st.integers(0, n - 1 - run))
    gaps[start : start + run] = 1e-9
    return spec, halfline_grid(np.concatenate([[0.0], np.cumsum(gaps)]))


GAMMAS = st.sampled_from([1e-10, 1e-7, 1e-4, 1e-2, 1.0, 1e2])


def _bound(K, x):
    """Rounding scale of K x: |K| |x|, floored to stay positive."""
    return np.abs(K) @ np.abs(x) + 1e-300


@settings(max_examples=40, deadline=None)
@given(problem=qs_problems(), seed=st.integers(0, 2**32 - 1))
def test_quasiseparable_matvec_and_cross_match_dense(problem, seed):
    spec, grid = problem
    op = kernelmat.QuasiseparableGram(spec, grid)
    K = kernelmat.assemble(spec, grid).values
    n = grid.n
    assert np.all(np.abs(op.dense() - K) <= 1e-14 * np.max(np.abs(K)))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    assert np.all(np.abs(op.matvec(x) - K @ x) <= 1e-12 * _bound(K, x))
    X = rng.normal(size=(3, n))
    assert np.all(np.abs(op.matvec(X) - X @ K.T) <= 1e-12 * _bound(K, X.T).T)
    if n > 1:
        m = int(rng.integers(1, n))
        want = K[m:, :m] @ x[:m]
        assert np.all(np.abs(op.cross(m, x[:m]) - want) <= 1e-12 * _bound(K[m:, :m], x[:m]))
        rows = op.cross(m, X[:, :m])
        assert rows.shape == (3, n - m)
        want = X[:, :m] @ K[m:, :m].T
        assert np.all(np.abs(rows - want) <= 1e-12 * _bound(K[m:, :m], X[:, :m].T).T)


@settings(max_examples=40, deadline=None)
@given(problem=qs_problems(), gamma=GAMMAS, seed=st.integers(0, 2**32 - 1))
def test_quasiseparable_solve_matches_dense_cholesky(problem, gamma, seed):
    spec, grid = problem
    op = kernelmat.QuasiseparableGram(spec, grid)
    K = kernelmat.assemble(spec, grid).values
    system = K + gamma * np.eye(grid.n)
    y = np.random.default_rng(seed).normal(size=grid.n)
    cond = np.linalg.cond(system)
    try:
        c = op.solve(y, gamma)
    except ConditioningError:
        # only a genuinely ill-conditioned system may be refused
        assert cond > 1e6
        return
    ref = cho_solve(cho_factor(system), y)
    # the guard bounds the operator's own residual by 1e-9; K's own rounding adds some
    assert np.linalg.norm(system @ c - y) <= 1e-8 * np.linalg.norm(y)
    assert np.max(np.abs(c - ref)) <= 1e-14 * max(cond, 1.0) * np.max(np.abs(ref))
    # a grid is solved in one pass, one solution per row, each as alone
    grid_c = op.solve(y, [gamma, 10.0 * gamma])
    assert grid_c.shape == (2, grid.n)
    assert np.array_equal(grid_c[0], c)


@settings(max_examples=25, deadline=None)
@given(problem=qs_problems(), gamma=GAMMAS, seed=st.integers(0, 2**32 - 1))
def test_impulse_fitted_outputs_match_dense(problem, gamma, seed):
    spec, grid = problem
    K = kernelmat.assemble(spec, grid).values
    y = K @ np.random.default_rng(seed).normal(size=grid.n)
    ds = estimator.Dataset(grid.points, y, estimator.ImpulseInput(), 0.0)
    try:
        fit = estimator.estimate(spec, ds, gamma=gamma)
    except ConditioningError:
        assert np.linalg.cond(K + gamma * np.eye(grid.n)) > 1e6
        return
    c = fit.coefficients
    assert np.all(np.abs(fit.fitted_outputs() - K @ c) <= 1e-12 * _bound(K, c))
    assert fit.solve_residual_rel <= 1e-9


# ---- the two-level solve against the per-sample generator Cholesky ----


def sequential_solve(op, y, gamma):
    """(K + gamma I) c = y by one generator Cholesky pass over the samples.

    The factor L has L[i, i] = pivot_i and, for i > j,
    L[i, j] = sum_k exp(-p_k (t_i - t_j)) gen[j, k].  Row i needs only S,
    the r x r sum of gen_l gen_l' over l < i decayed to t_i:

        pivot_i^2 = K[i, i] + gamma - 1' S 1,
        gen_i     = (d(t_i) - S 1) / pivot_i.

    The forward solve z = L^{-1} y rides along as one more column, and a
    backward pass carries the decayed sum of the later coefficients.  This
    is the recursion `QuasiseparableGram.solve` runs on every block at
    once, here over all n samples one by one, as its oracle.
    """
    y = np.asarray(y, dtype=float)
    gammas = np.atleast_1d(np.asarray(gamma, dtype=float))
    r = op.rates.size
    decay = op.decay[:, :, None]
    # T's columns 0..r-1 hold S and column r the decayed sum of gen_l z_l
    bordered = np.pad(op.decay, ((0, 0), (0, 1)), constant_values=1.0)
    carry = decay[:, :, None] * bordered[:, None, :, None]
    rhs = np.column_stack([op.scaled, y])[:, :, None]
    diag = op.scaled.sum(axis=1)[:, None] + gammas
    n, width = diag.shape
    T = np.zeros((r, r + 1, width))
    pivot = np.empty((n, width))
    row = np.empty((n, r + 1, width))
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(n):
            T *= carry[i]
            sums = T.sum(axis=0)
            pivot_i = np.sqrt(diag[i] - sums[:r].sum(axis=0))
            v = (rhs[i] - sums) / pivot_i
            T += v[:r, None] * v
            pivot[i] = pivot_i
            row[i] = v
    bad = ~np.all(pivot > 0.0, axis=0)
    if bad.any():
        raise kernelmat._not_positive_definite(gammas[np.argmax(bad)])
    row /= pivot[:, None]
    gen, z = row[:, :r], row[:, r]
    c = np.empty((n, width))
    ahead = np.zeros((r, width))
    for i in range(n - 1, -1, -1):
        c[i] = z[i] - (gen[i] * ahead).sum(axis=0)
        ahead += c[i]
        ahead *= decay[i]
    return c[:, 0] if np.ndim(gamma) == 0 else c.T


@st.composite
def blocked_problems(draw):
    """(spec, grid): n at and around a square block count, 2 rate t up to 80."""
    spec = draw(st.sampled_from(QS_SPECS))
    b = draw(st.integers(2, 9))
    n = draw(st.sampled_from([1, 2, 3, b * b - 1, b * b, b * b + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = spec.beta if spec.stable else spec.alpha
    horizon = draw(st.sampled_from([1e-6, 0.5, 5.0, 30.0, 80.0])) / (2.0 * rate)
    gaps = rng.uniform(0.1, 1.0, n - 1)
    gaps *= horizon / max(gaps.sum(), 1e-300)
    run = draw(st.integers(0, n - 1))
    start = draw(st.integers(0, n - 1 - run))
    gaps[start : start + run] = 1e-9
    t0 = draw(st.sampled_from([0.0, 0.3]))
    return spec, halfline_grid(t0 + np.concatenate([[0.0], np.cumsum(gaps)]))


def _relative_gap(c, ref):
    return np.max(np.abs(c - ref)) / np.max(np.abs(ref))


# 50 samples 1e-9 apart, and 2 rate t = 80 at n = 9^2 + 1 and n = 9^2
EDGE_PROBLEMS = [
    (kernels.dc(0.6, 0.4), halfline_grid(1.0 + 1e-9 * np.arange(50))),
    (kernels.tc(0.5), halfline_grid(np.linspace(0.1, 80.0, 82))),
    (kernels.ss(0.6), halfline_grid(np.linspace(0.0, 200 / 3, 81))),
]


@settings(max_examples=60, deadline=None)
@given(
    problem=blocked_problems(),
    gamma=st.sampled_from([1e-3, 1e-2, 1e-1, 1.0, 1e2]),
    seed=st.integers(0, 2**32 - 1),
)
@example(problem=EDGE_PROBLEMS[0], gamma=1e-3, seed=1)
@example(problem=EDGE_PROBLEMS[1], gamma=1e-3, seed=2)
@example(problem=EDGE_PROBLEMS[2], gamma=1e-3, seed=3)
def test_two_level_solve_matches_sequential_and_dense(problem, gamma, seed):
    spec, grid = problem
    op = kernelmat.QuasiseparableGram(spec, grid)
    K = kernelmat.assemble(spec, grid).values
    y = np.random.default_rng(seed).normal(size=grid.n)
    gammas = [gamma, 10.0 * gamma, 0.1 * gamma]
    rows = op.solve(y, gammas)
    assert rows.shape == (3, grid.n)
    assert np.array_equal(rows[0], op.solve(y, gamma))
    sequential = sequential_solve(op, y, gammas)
    for g, c, oracle in zip(gammas, rows, sequential):
        dense = cho_solve(cho_factor(K + g * np.eye(grid.n)), y)
        assert _relative_gap(c, oracle) <= 1e-10
        assert _relative_gap(c, dense) <= 1e-10


def _boundary_pair_problem(spec):
    """Nine samples, blocks of three, the two closest straddling a block edge.

    Returns (operator, gamma) with gamma between minus the least eigenvalue
    of K and minus that of every diagonal block: each block of K + gamma I
    is positive definite on its own, the whole is not.
    """
    grid = halfline_grid([0.0, 0.1, 0.2, 0.2001, 0.3, 0.4, 0.5, 0.6, 0.7])
    K = kernelmat.assemble(spec, grid).values
    size = math.isqrt(grid.n - 1) + 1  # the solve's block size
    lowest = np.linalg.eigvalsh(K)[0]
    blocks = range(0, grid.n, size)
    local = min(np.linalg.eigvalsh(K[i : i + size, i : i + size])[0] for i in blocks)
    assert local > 100.0 * lowest > 0.0
    return kernelmat.QuasiseparableGram(spec, grid), -math.sqrt(lowest * local)


@pytest.mark.parametrize("spec", QS_SPECS)
def test_indefinite_system_names_the_first_failing_gamma(spec):
    op, coupled = _boundary_pair_problem(spec)
    y = np.ones(op.grid.n)
    local = -10.0  # fails inside every block
    for gammas, first in (
        (coupled, coupled),
        ([1.0, coupled, local], coupled),
        ([1.0, local, coupled], local),
        ([local, 1.0], local),
    ):
        message = f"regularized system is not positive definite at gamma={first:g}"
        for solve in (op.solve, lambda y, g: sequential_solve(op, y, g)):
            with pytest.raises(ConditioningError, match=f"^{re.escape(message)}$"):
                solve(y, gammas)
    # a negative gamma that leaves K + gamma I positive definite is solved
    lowest = np.linalg.eigvalsh(kernelmat.assemble(spec, op.grid).values)[0]
    c = op.solve(y, -0.5 * lowest)
    assert np.linalg.norm(op.matvec(c) - 0.5 * lowest * c - y) <= 1e-9 * np.linalg.norm(y)


def _dense_ss_problem():
    """900 close samples of a noisy response under ss(0.6)."""
    times = np.linspace(0.01, 8.0, 900)
    y = np.exp(-1.2 * times) - 0.5 * np.exp(-1.9 * times)
    y += 1e-3 * np.random.default_rng(7).normal(size=times.size)
    return kernelmat.QuasiseparableGram(kernels.ss(0.6), halfline_grid(times)), y


@pytest.mark.parametrize("gamma", [1e-6, 1e-7])
def test_refined_solve_keeps_the_sequential_accuracy_on_dense_ss_grids(gamma):
    # the smooth ss kernel on close samples pins the state down far below its
    # prior; the two-level coupling alone then misses RESIDUAL_TOL, and
    # refinement must bring the residual back to the sequential solve's
    op, y = _dense_ss_problem()

    def residual(c):
        return np.linalg.norm(op.matvec(c) + gamma * c - y) / np.linalg.norm(y)

    c = op.solve(y, gamma)
    oracle = sequential_solve(op, y, gamma)
    assert residual(op._two_level(np.array([gamma]))(y[:, None])[:, 0]) > kernelmat.RESIDUAL_TOL
    assert residual(c) <= 10.0 * residual(oracle)
    assert _relative_gap(c, oracle) <= 1e-8


def test_refinement_runs_whenever_the_guard_is_at_stake(monkeypatch):
    # |c| is large here, so the rounding estimate 32 eps |K + gamma I| |c| lies
    # above RESIDUAL_TOL |y|; a first solve that lands between the two must be
    # refined, not refused
    op, y = _dense_ss_problem()
    gamma = 1e-7
    exact = sequential_solve(op, y, gamma)
    direction = np.random.default_rng(1).normal(size=y.size)
    miss = op.matvec(direction) + gamma * direction
    lossy = exact + 2e-9 * np.linalg.norm(y) / np.linalg.norm(miss) * direction
    two_level = kernelmat.QuasiseparableGram._two_level
    calls = []

    def first_lossy(self, gammas):
        solve = two_level(self, gammas)

        def lossy_once(rhs):
            calls.append(rhs)
            return lossy[:, None] if len(calls) == 1 else solve(rhs)

        return lossy_once

    monkeypatch.setattr(kernelmat.QuasiseparableGram, "_two_level", first_lossy)
    c = op.solve(y, gamma)
    assert len(calls) > 1
    residual = np.linalg.norm(op.matvec(c) + gamma * c - y)
    assert residual <= 0.1 * kernelmat.RESIDUAL_TOL * np.linalg.norm(y)
