import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from dckernel import kernels, maxent
from dckernel.errors import ConditioningError, DomainError
from dckernel.grids import UNIT01, halfline_grid, unit_grid
from dckernel.kernelmat import assemble

SPEC = kernels.dc(0.2, 0.3)
GRID = halfline_grid([0.15, 0.4, 0.9, 1.3, 2.2, 3.0])


def genspline_exact_covariance(grid, rho):
    """Covariance of the unit-interval construction by literal accumulation.

    Sums the shared increments rather than collapsing them analytically, so
    agreement with the kernel is a genuine telescoping check.
    """
    if grid.domain != UNIT01:
        raise DomainError("expected a unit-interval grid")
    rho = float(rho)
    if rho <= -0.5:
        raise DomainError("rho must be > -0.5")
    tau = grid.points
    running = np.cumsum(np.diff(tau, prepend=0.0))
    weight = tau ** rho
    shared = np.minimum(running[:, None], running[None, :])
    return weight[:, None] * weight[None, :] * shared


def genspline_negative_control_covariance(grid, rho, correlation):
    """Constraint-satisfying competitor with equicorrelated increments.

    Keeps every increment variance (and the zero means) of the reference
    construction but correlates the increments pairwise, which can only
    lower the Gaussian entropy.
    """
    if grid.domain != UNIT01:
        raise DomainError("expected a unit-interval grid")
    rho = float(rho)
    if rho <= -0.5:
        raise DomainError("rho must be > -0.5")
    tau = grid.points
    n = tau.size
    inc_cov = maxent._equicorrelated(np.diff(tau, prepend=0.0), correlation)
    acc = np.tril(np.ones((n, n)))  # value k sums increments 1..k
    weight = tau ** rho
    return weight[:, None] * weight[None, :] * (acc @ inc_cov @ acc.T)


def sample_genspline_process(grid, rho, seed, count):
    """Trajectories of the power-weighted cumulative-increment process.

    Value at the k-th grid point: tau_k^rho times the running sum of
    w(i-1) * sqrt(tau_i - tau_{i-1}) up to i = k, with tau_0 = 0 anchored;
    its covariance is the generalized first-order spline kernel.
    """
    if grid.domain != UNIT01:
        raise DomainError("expected a unit-interval grid")
    rho = float(rho)
    if rho <= -0.5:
        raise DomainError("rho must be > -0.5")
    tau = grid.points
    w = maxent.standard_normal_matrix(seed, count, tau.size)
    return np.cumsum(w * np.sqrt(np.diff(tau, prepend=0.0)), axis=1) * tau ** rho


def reversed_image_grid(grid, beta):
    return unit_grid(np.exp(-2.0 * beta * grid.points)[::-1])


def test_process_covariance_is_the_gram_matrix():
    cov = maxent.dc_process_exact_covariance(GRID, SPEC)
    gram = assemble(SPEC, GRID).values
    assert np.max(np.abs(cov - gram)) <= 1e-15
    # independent spot value: exp(-alpha*(t+s) - beta*|t-s|) at (0.15, 0.4)
    assert cov[0, 1] == pytest.approx(np.exp(-0.2 * 0.55 - 0.3 * 0.25), rel=1e-15)


def test_markov_covariance_is_the_gram_matrix():
    cov = maxent.dc_markov_exact_covariance(GRID, SPEC)
    gram = assemble(SPEC, GRID).values
    assert np.max(np.abs(cov - gram)) <= 1e-13


def test_genspline_covariance_matches_unit_kernel():
    grid = unit_grid([0.1, 0.25, 0.5, 0.8, 1.0])
    rho = -0.2
    cov = genspline_exact_covariance(grid, rho)
    gram = assemble(kernels.genspline1(rho), grid).values
    assert np.max(np.abs(cov - gram)) <= 1e-14


def test_matched_seed_reversal_equivalence():
    # same noise, exponential change of coordinates: identical numbers
    _, beta, rho = kernels.stable_params(SPEC)
    image = reversed_image_grid(GRID, beta)
    dc_vals = maxent.values_matrix(maxent.sample_dc_process(GRID, SPEC, seed=11, count=64))
    gs_vals = sample_genspline_process(image, rho, seed=11, count=64)
    assert np.max(np.abs(gs_vals - dc_vals[:, ::-1])) <= 1e-14


def test_markov_draws_share_law_not_paths():
    direct = maxent.values_matrix(maxent.sample_dc_process(GRID, SPEC, seed=3, count=8))
    markov = maxent.values_matrix(maxent.sample_dc_markov(GRID, SPEC, seed=3, count=8))
    assert direct.shape == markov.shape
    assert np.max(np.abs(direct - markov)) > 1e-3


@st.composite
def long_horizon_grids(draw):
    """(spec, grid): 2 beta t up to 1400, a run of spacings down to 1e-12, n from 1."""
    beta = draw(st.floats(0.05, 5.0))
    ratio = draw(st.one_of(st.sampled_from([1.0, 1.0 + 1e-9, 1e-3]), st.floats(1e-3, 3.0)))
    spec = kernels.tc(beta) if ratio == 1.0 else kernels.dc(ratio * beta, beta)
    n = draw(st.integers(1, 10))
    tiny = draw(st.integers(0, n - 1))
    reach = draw(st.sampled_from([1.0, 40.0, 400.0, 1400.0]))  # 2 beta t at the end
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.1, 1.0, n - 1)
    gaps[tiny:] *= reach / (2.0 * beta) / max(gaps[tiny:].sum(), 1e-300)
    gaps[:tiny] = 10.0 ** rng.uniform(-12.0, -9.0, tiny)
    return spec, halfline_grid(0.1 + np.concatenate([[0.0], np.cumsum(gaps)]))


def _draws_or_refusal(sampler, spec, grid, seed, count):
    """The draws, or None after checking the refusal where exp(-alpha t) is no normal double."""
    if math.exp(-spec.alpha * grid.points[-1]) >= np.finfo(float).tiny:
        return maxent.values_matrix(sampler(grid, spec, seed, count))
    with pytest.raises(ConditioningError, match="below the normal range"):
        sampler(grid, spec, seed, count)
    return None


@settings(max_examples=40, deadline=None)
@given(problem=long_horizon_grids(), seed=st.integers(0, 2**31))
@example(problem=(kernels.dc(0.1, 1.0), halfline_grid(np.linspace(0.0, 400.0, 41))), seed=3)
def test_sampler_variance_matches_the_kernel_diagonal(problem, seed):
    spec, grid = problem
    count = 2000
    diag = kernels.eval_kernel(spec, grid.points, grid.points)
    normal = diag >= np.finfo(float).tiny
    for sampler in (maxent.sample_dc_process, maxent.sample_dc_markov):
        draws = _draws_or_refusal(sampler, spec, grid, seed, count)
        if draws is None:
            return
        assert draws.shape == (count, grid.n) and draws.flags.c_contiguous
        assert np.all(np.isfinite(draws)) and np.all(np.any(draws != 0.0, axis=0))
        ratio = np.mean(draws[:, normal] ** 2, axis=0) / diag[normal]
        # the mean of count squared normals: standard error sqrt(2 / count)
        assert np.all(np.abs(ratio - 1.0) <= 6.0 * math.sqrt(2.0 / count))


@settings(max_examples=40, deadline=None)
@given(problem=long_horizon_grids(), seed=st.integers(0, 2**31))
def test_cumulative_draws_are_the_recursion_on_reversed_noise(problem, seed):
    # noise index 0 meets the far end in the cumulative sum, the first point in the recursion
    spec, grid = problem
    process = _draws_or_refusal(maxent.sample_dc_process, spec, grid, seed, 16)
    if process is None:
        return
    noise = maxent.standard_normal_matrix(seed, 16, grid.n)
    with mock.patch.object(maxent, "standard_normal_matrix", lambda *_: noise[:, ::-1]):
        markov = maxent.values_matrix(maxent.sample_dc_markov(grid, spec, seed, 16))
    assert np.max(np.abs(process - markov)) <= 1e-14 * np.max(np.abs(process))


def test_normal_matrix_block_prefix_property():
    # block b never depends on how many rows were requested after it
    short = maxent.standard_normal_matrix(5, 5000, 2)
    long = maxent.standard_normal_matrix(5, 8192, 2)
    assert np.array_equal(short, long[:5000])
    other = maxent.standard_normal_matrix(6, 5000, 2)
    assert not np.allclose(short, other)


def test_uniform_map_stays_below_one_at_the_top_raw_values():
    # (2^53 - 1) + 1/2 rounds to 2^53: unclamped, that draw would be +inf
    raw = np.array([2**53 - 1, 2**53 - 2, 0], dtype=np.uint64)
    u = maxent._uniform(raw)
    assert u[0] == np.nextafter(1.0, 0.0)
    assert u[1] == 1.0 - 2.0**-52  # unchanged by the clamp
    assert u[2] == 2.0**-54
    assert np.all(np.isfinite(maxent._ndtri(u)))


def test_seed_and_count_validation():
    with pytest.raises(DomainError):
        maxent.standard_normal_matrix(-1, 4, 2)
    with pytest.raises(DomainError):
        maxent.standard_normal_matrix(1.5, 4, 2)
    with pytest.raises(DomainError):
        maxent.sample_dc_process(GRID, SPEC, seed=0, count=-3)
    assert maxent.sample_dc_process(GRID, SPEC, seed=0, count=0) == []


def test_domain_mismatches_are_rejected():
    unit = unit_grid([0.2, 0.7])
    with pytest.raises(DomainError):
        sample_genspline_process(GRID, 0.5, seed=0, count=1)
    with pytest.raises(DomainError):
        maxent.sample_dc_process(unit, SPEC, seed=0, count=1)
    with pytest.raises(DomainError):
        genspline_exact_covariance(GRID, 0.5)
    with pytest.raises(DomainError):
        maxent.verify_maxent_constraints(unit, SPEC, covariance=np.eye(2))
    with pytest.raises(DomainError):
        sample_genspline_process(unit, -0.5, seed=0, count=1)


def test_sample_wrapper_fields():
    draws = maxent.sample_dc_markov(GRID, SPEC, seed=9, count=3)
    assert len(draws) == 3
    for d in draws:
        assert d.grid is GRID
        assert d.seed == 9
        assert d.values.shape == (GRID.n,)


def test_exact_constraint_report():
    gram = assemble(SPEC, GRID).values
    report = maxent.verify_maxent_constraints(GRID, SPEC, covariance=gram)
    assert report.passed
    assert report.standard_errors is None
    assert report.max_abs_residual <= 1e-13
    assert np.all(report.mean_residuals == 0.0)


def test_mc_constraint_report():
    draws = maxent.sample_dc_process(GRID, SPEC, seed=77, count=20000)
    report = maxent.verify_maxent_constraints(GRID, SPEC, samples=draws)
    assert report.passed
    mean_se, inc_se, term_se = report.standard_errors
    assert mean_se.shape == (GRID.n,)
    assert inc_se.shape == (GRID.n - 1,)
    assert term_se > 0.0
    # inflating the trajectories breaks the variance constraints
    bad = maxent.values_matrix(draws) * 1.5
    assert not maxent.verify_maxent_constraints(GRID, SPEC, samples=bad).passed


def test_constraint_input_is_exclusive():
    gram = assemble(SPEC, GRID).values
    with pytest.raises(DomainError):
        maxent.verify_maxent_constraints(GRID, SPEC)
    with pytest.raises(DomainError):
        maxent.verify_maxent_constraints(
            GRID, SPEC, covariance=gram, samples=np.zeros((4, GRID.n))
        )
    with pytest.raises(DomainError):
        maxent.verify_maxent_constraints(GRID, SPEC, covariance=np.eye(3))
    with pytest.raises(DomainError):
        maxent.verify_maxent_constraints(GRID, SPEC, samples=np.zeros((1, GRID.n)))


def test_negative_control_keeps_constraints_loses_entropy():
    reference = maxent.dc_process_exact_covariance(GRID, SPEC)
    ref_log_det = maxent.gaussian_log_det(reference)
    for c in (0.2, 0.5):
        control = maxent.dc_negative_control_covariance(GRID, SPEC, c)
        report = maxent.verify_maxent_constraints(GRID, SPEC, covariance=control)
        assert report.passed, f"control c={c} must satisfy the constraint set"
        assert maxent.gaussian_log_det(control) < ref_log_det - 1e-2
    # zero correlation reproduces the reference construction
    same = maxent.dc_negative_control_covariance(GRID, SPEC, 0.0)
    assert np.max(np.abs(same - reference)) <= 1e-15


def test_genspline_negative_control_loses_entropy():
    grid = unit_grid([0.1, 0.3, 0.55, 0.8, 1.0])
    rho = 0.4
    reference = genspline_exact_covariance(grid, rho)
    control = genspline_negative_control_covariance(grid, rho, 0.3)
    assert maxent.gaussian_log_det(control) < maxent.gaussian_log_det(reference)
    with pytest.raises(DomainError):
        genspline_negative_control_covariance(grid, rho, 1.0)
    with pytest.raises(DomainError):
        maxent.dc_negative_control_covariance(GRID, SPEC, -0.1)


def test_log_det_rejects_singular():
    with pytest.raises(DomainError):
        maxent.gaussian_log_det(np.ones((3, 3)))
    assert maxent.gaussian_log_det(np.diag([1.0, np.e])) == pytest.approx(1.0)


def test_values_matrix_passthrough():
    mat = np.arange(6.0).reshape(2, 3)
    assert maxent.values_matrix(mat) is not None
    assert np.array_equal(maxent.values_matrix(mat), mat)
    row = np.arange(3.0)
    assert maxent.values_matrix(row).shape == (1, 3)


# ---- the numpy ndtri port against scipy's cephes ndtri, bit for bit ----

def _neighbours(x):
    return [float(np.nextafter(x, 0.0)), float(x), float(np.nextafter(x, 1.0))]


NDTRI_EDGES = (
    _neighbours(math.exp(-2.0))
    + _neighbours(1.0 - math.exp(-2.0))
    + _neighbours(math.exp(-32.0))  # the x = 8 switch
    + _neighbours(1.0 - math.exp(-32.0))
    + [2.0 ** -54, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.5, 5e-324, 1e-300, 0.0, 1.0]
)

UNIFORMS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.5 - 1e-6, 0.5 + 1e-6),
    st.floats(5e-324, math.exp(-2.0)),  # lower tail
    st.floats(1.0 - math.exp(-2.0), 1.0),  # upper tail
    st.floats(5e-324, 1e-13),  # both sides of exp(-32)
    st.sampled_from(NDTRI_EDGES),
)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u=st.lists(UNIFORMS, min_size=1, max_size=40))
@example(u=list(NDTRI_EDGES))
def test_ndtri_port_matches_scipy_bit_for_bit(u):
    u = np.array(u)
    assert _same_bits(maxent._ndtri(u), ndtri(u))


def test_ndtri_port_without_an_extended_log_matches_scipy(monkeypatch):
    # where long double has no 64-bit mantissa every log goes to math.log
    monkeypatch.setattr(maxent, "_X87_LOG", False)
    u = np.concatenate([NDTRI_EDGES, np.linspace(1e-9, 1.0, 5001)])
    assert _same_bits(maxent._ndtri(u), ndtri(u))


def test_ndtri_port_matches_scipy_on_every_draw_of_a_large_matrix():
    values = maxent.standard_normal_matrix(0, 750, 4000)
    key = np.array([0, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    raw = gen.integers(0, 1 << 53, size=(750, 4000), dtype=np.uint64)
    assert _same_bits(values, ndtri((raw.astype(np.float64) + 0.5) * 2.0 ** -53))
