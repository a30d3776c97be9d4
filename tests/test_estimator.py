import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from dckernel import estimator, kernelmat, kernels, quadrature
from dckernel.errors import ConditioningError, DomainError
from dckernel.grids import halfline_grid
from dckernel.kernelmat import QuasiseparableGram, assemble
from dckernel.quadrature import QuadratureConfig, refined

# step-response representer of the beta = 0.5 single-rate kernel,
# integral of exp(-max(t, nu)) over nu in [0, s], frozen from exact arithmetic
A_STEP_T08_S05 = 0.2246644820586107957150511925077813979671
A_STEP_T08_S20 = 0.673456852174386172680184798055528629274
A_STEP_T15_S15 = 0.3346952402226447433999207061460187820133


def step_dataset(times, outputs=None, noise=0.0):
    times = np.asarray(times, dtype=float)
    if outputs is None:
        outputs = np.zeros_like(times)
    return estimator.Dataset(times, outputs, estimator.StepInput(), noise)


def test_step_and_expsum_values():
    step = estimator.StepInput(2.0)
    assert np.array_equal(step.value([-1.0, 0.0, 3.0]), [0.0, 2.0, 2.0])
    assert [list(a) for a in step.switched_exponentials()] == [[2.0], [0.0], [0.0]]

    mix = estimator.ExpSumInput([1.0, 2.0], [0.5, 0.0])
    assert mix.value(0.0) == pytest.approx(3.0)
    assert mix.value(-0.5) == 0.0
    assert mix.value(2.0) == pytest.approx(np.exp(-1.0) + 2.0)


def test_zoh_values_and_breakpoints():
    zoh = estimator.ZohInput([0.0, 1.0, 2.5], [1.0, -1.0, 0.5])
    got = zoh.value([-0.1, 0.0, 0.99, 1.0, 3.0, 10.0])
    assert np.array_equal(got, [0.0, 1.0, 1.0, -1.0, 0.5, 0.5])
    jumps, rates, starts = zoh.switched_exponentials()
    assert list(jumps) == [1.0, -2.0, 1.5]
    assert list(rates) == [0.0, 0.0, 0.0]
    assert list(starts) == [0.0, 1.0, 2.5]
    # zero before the first hold instant when it starts late
    assert estimator.ZohInput([0.5], [2.0]).value(0.2) == 0.0


def test_impulse_has_no_pointwise_values():
    imp = estimator.ImpulseInput()
    assert imp.is_impulse
    assert not estimator.StepInput().is_impulse
    with pytest.raises(DomainError):
        imp.value(0.3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: estimator.StepInput(np.inf),
        lambda: estimator.ExpSumInput([1.0], [-0.1]),
        lambda: estimator.ExpSumInput([1.0, 2.0], [0.5]),
        lambda: estimator.ExpSumInput([], []),
        lambda: estimator.ZohInput([1.0, 0.5], [1.0, 2.0]),
        lambda: estimator.ZohInput([-0.5], [1.0]),
        lambda: estimator.ZohInput([0.0, 1.0], [1.0]),
    ],
)
def test_input_validation(build):
    with pytest.raises(DomainError):
        build()


def test_dataset_validation():
    with pytest.raises(DomainError):
        step_dataset([0.5, 0.5])
    with pytest.raises(DomainError):
        step_dataset([-0.1, 0.5])
    with pytest.raises(DomainError):
        step_dataset([0.1, 0.5], outputs=[np.nan, 0.0])
    with pytest.raises(DomainError):
        estimator.Dataset(np.array([0.1]), np.array([0.0]), "step", 0.0)
    with pytest.raises(DomainError):
        step_dataset([0.1, 0.5], noise=-1.0)
    ds = step_dataset([0.1, 0.5])
    with pytest.raises(ValueError):
        ds.output_times[0] = 9.0


def test_impulse_bypass_is_exact():
    spec = kernels.dc(0.2, 0.3)
    times = np.linspace(0.1, 3.0, 6)
    ds = estimator.Dataset(times, np.zeros(6), estimator.ImpulseInput(), 0.0)
    operator, basis = estimator.output_kernel(spec, ds)
    gram = assemble(spec, halfline_grid(times)).values
    # the Gram matrix is held as generators, never assembled
    assert isinstance(operator, QuasiseparableGram)
    assert np.max(np.abs(operator.dense() - gram)) <= 1e-15
    probes = np.array([0.05, 0.7, 2.2])
    expected = kernels.eval_kernel(spec, probes[:, None], times[None, :])
    assert np.array_equal(basis(probes), expected)


def test_step_representer_closed_form():
    ds = step_dataset([0.5, 1.5, 2.0], outputs=[0.0, 0.0, 0.0])
    _, basis = estimator.output_kernel(kernels.tc(0.5), ds)
    row = basis(np.array([0.8]))[0]
    assert row[0] == pytest.approx(A_STEP_T08_S05, rel=1e-12)
    assert row[2] == pytest.approx(A_STEP_T08_S20, rel=1e-12)
    assert basis(np.array([1.5]))[0, 1] == pytest.approx(A_STEP_T15_S15, rel=1e-12)


def test_output_kernel_against_generic_quadrature():
    spec = kernels.dc(0.2, 0.3)
    times = np.array([0.6, 1.1, 1.9])
    ds = step_dataset(times)
    A, _ = estimator.output_kernel_quadrature(spec, ds)
    assert np.array_equal(A, A.T)

    def kernel(tau, nu):
        return float(kernels.eval_kernel(spec, tau, nu))

    # an adaptive library integrator agrees to its own accuracy
    ref, err = dblquad(lambda nu, tau: kernel(tau, nu), 0.0, 1.9, 0.0, 1.1)
    assert err < 1e-6
    assert A[2, 1] == pytest.approx(ref, abs=5e-7)
    closed = estimator.output_kernel(spec, ds)[0].dense()
    assert np.array_equal(closed, closed.T)
    assert closed[2, 1] == pytest.approx(ref, abs=5e-7)


def test_zero_time_sample_contributes_nothing():
    spec = kernels.tc(0.5)
    ds = step_dataset([0.0, 0.8, 1.6])
    operator, basis = estimator.output_kernel(spec, ds)
    A = operator.dense()
    assert np.all(A[0, :] == 0.0)
    assert np.all(A[:, 0] == 0.0)
    assert np.all(basis(np.array([0.5]))[:, 0] == 0.0)


def test_output_kernel_needs_halfline_kernel():
    ds = step_dataset([0.5, 1.0])
    with pytest.raises(DomainError):
        estimator.output_kernel(kernels.spline1(), ds)


def test_solve_coefficients():
    c = estimator.solve_coefficients(np.diag([2.0, 3.0]), np.array([2.0, 3.0]), 1.0)
    assert c == pytest.approx([2.0 / 3.0, 3.0 / 4.0], rel=1e-14)
    with pytest.raises(ConditioningError):
        estimator.solve_coefficients(np.ones((3, 3)), np.ones(3), 0.0)
    indefinite = r"^regularized system is not positive definite at gamma=1e-12$"
    with pytest.raises(ConditioningError, match=indefinite):
        estimator.solve_coefficients(np.diag([1.0, -1.0]), np.ones(2), 1e-12)


# sizes on both sides of the triangular solve's base block and of its halvings
DENSE_SIZES = (1, 2, 31, 32, 33, 47, 48, 49, 64, 65, 97, 200, 1000)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(DENSE_SIZES),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.5, 2.0),
)
def test_dense_solve_matches_scipy_cholesky(n, seed, gamma):
    # B B' / n has its eigenvalues near [0, 4], so A + gamma I is well conditioned
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B @ B.T / n
    y = rng.standard_normal(n)
    c = estimator.solve_coefficients(A, y, gamma)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A + gamma * np.eye(n)), y)
    assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("n", [1, 48, 49, 97, 300])
def test_triangular_solve_matches_scipy(n, lower):
    rng = np.random.default_rng(n)
    T = np.tril(rng.uniform(-1.0, 1.0, (n, n)) / n, -1) + np.diag(rng.uniform(1.0, 2.0, n))
    if not lower:
        T = T.T.copy()
    b = rng.standard_normal(n)
    x = estimator._triangular_solve(T, b, lower)
    ref = scipy.linalg.solve_triangular(T, b, lower=lower)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("spec", [kernels.tc(0.5), kernels.dc(0.3, 0.7), kernels.ss(0.6)])
def test_dense_solve_of_a_zoh_fit_matches_scipy_cholesky(spec):
    times = np.linspace(0.05, 6.0, 60)
    hold = estimator.ZohInput(times, np.cos(1.7 * times) + 0.3)
    ds = estimator.Dataset(times, np.exp(-0.5 * times) * np.sin(times), hold, 1e-4)
    A = estimator.output_kernel(spec, ds)[0].dense()
    for gamma in (1e-6, 1e-4, 1e-2):
        M = A + gamma * np.eye(times.size)
        c = estimator.solve_coefficients(A, ds.outputs, gamma)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), ds.outputs)
        assert _rel(c, ref) <= 10.0 * np.linalg.cond(M) * np.finfo(float).eps


def test_noise_free_recovery_from_step_data():
    # true response exp(-t); step outputs are then 1 - exp(-t) exactly
    spec = kernels.tc(0.4)
    times = np.linspace(0.2, 4.0, 21)
    ds = step_dataset(times, outputs=1.0 - np.exp(-times))
    result = estimator.estimate(spec, ds, gamma=1e-8)
    assert np.max(np.abs(result.fitted_outputs() - ds.outputs)) <= 1e-6
    probe = np.linspace(0.3, 3.0, 28)
    err = np.max(np.abs(estimator.reconstruct(result, probe) - np.exp(-probe)))
    assert err <= 5e-3


def test_gamma_defaults_and_floor():
    spec = kernels.dc(0.2, 0.3)
    times = np.linspace(0.1, 2.0, 5)
    gram = assemble(spec, halfline_grid(times)).values
    y = gram @ np.ones(5)
    ds = estimator.Dataset(times, y, estimator.ImpulseInput(), 0.0)
    with pytest.warns(RuntimeWarning, match="floored"):
        result = estimator.estimate(spec, ds)
    assert result.gamma == estimator.GAMMA_FLOOR
    assert result.coefficients == pytest.approx(np.ones(5), abs=1e-6)

    ds2 = estimator.Dataset(times, y, estimator.ImpulseInput(), 0.01)
    assert estimator.estimate(spec, ds2).gamma == 0.01
    with pytest.raises(DomainError):
        estimator.estimate(spec, ds2, gamma=-1.0)
    with pytest.raises(DomainError):
        estimator.estimate(spec, ds2, gamma=np.nan)


def test_reconstruct_scalar_round_trip():
    spec = kernels.dc(0.2, 0.3)
    times = np.linspace(0.1, 2.0, 4)
    ds = estimator.Dataset(times, np.ones(4), estimator.ImpulseInput(), 0.1)
    result = estimator.estimate(spec, ds)
    out = estimator.reconstruct(result, 0.5)
    assert isinstance(out, float)
    arr = estimator.reconstruct(result, np.array([0.5, 1.0]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(out)


def test_grid_search_validation_and_ties():
    spec = kernels.dc(0.2, 0.3)
    times = np.linspace(0.1, 2.0, 10)
    rng = np.random.default_rng(42)
    gram = assemble(spec, halfline_grid(times)).values
    y = gram @ rng.normal(size=10) + 0.01 * rng.normal(size=10)
    # an impulse input's normal-equation operator is the Gram matrix's
    operator = QuasiseparableGram(spec, halfline_grid(times))
    search = estimator.grid_search_gamma(operator, y, [1.0, 1e-4, 1e-2])
    assert np.array_equal(search.gammas, np.sort(search.gammas))
    assert np.all(np.isfinite(search.scores))
    assert search.best_gamma == search.gammas[search.best_index]

    # estimate runs the same search on the matrix it fits with
    ds = estimator.Dataset(times, y, estimator.ImpulseInput(), 0.0)
    fit = estimator.estimate(spec, ds, gamma_grid=[1.0, 1e-4, 1e-2])
    assert np.array_equal(fit.search.scores, search.scores)
    assert fit.gamma == search.best_gamma
    with pytest.raises(DomainError):
        estimator.estimate(spec, ds, gamma=0.1, gamma_grid=[0.1])

    # all-zero data scores every gamma identically; ties go to the largest
    tie = estimator.grid_search_gamma(operator, np.zeros(10), [1e-3, 1e-1, 10.0])
    assert tie.best_gamma == 10.0

    with pytest.raises(DomainError):
        estimator.grid_search_gamma(operator.leading(4), y[:4], [0.1, 1.0])
    with pytest.raises(DomainError):
        estimator.grid_search_gamma(operator, y, [])
    with pytest.raises(DomainError):
        estimator.grid_search_gamma(operator, y, [0.1, -1.0])


def test_quadrature_self_convergence():
    spec = kernels.dc(0.2, 0.3)
    times = np.linspace(0.4, 3.2, 6)
    ds = estimator.Dataset(
        times, np.zeros(6), estimator.ExpSumInput([1.0], [0.8]), 0.0
    )
    ref, _ = estimator.output_kernel_quadrature(
        spec, ds, QuadratureConfig(panels=32, nodes=8)
    )
    errs = []
    for panels in (2, 4):
        coarse, _ = estimator.output_kernel_quadrature(
            spec, ds, QuadratureConfig(panels=panels, nodes=2)
        )
        errs.append(np.max(np.abs(coarse - ref)))
    assert errs[0] / errs[1] >= 2.0


ORACLE = QuadratureConfig(panels=4, nodes=8)
ORACLE_SPECS = {
    "tc": kernels.tc(0.5),
    "dc": kernels.dc(0.6, 0.4),
    "dc_wide": kernels.dc(0.3, 0.7),
    "dc_equal": kernels.dc(0.35, 0.35),
    "ss": kernels.ss(0.6),
}
OUTPUT_TIMES = np.array([0.0, 0.35, 0.8, 1.7, 2.6])
PROBES = np.array([0.0, 0.2, 0.8, 1.3, 2.6, 4.0])


def _rel(got, want):
    # a zero reference (a hold that starts at the only sample) needs exact zeros
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _kernel_rates(spec):
    # rate 0 plus every kernel exponent that is a legal input rate
    rates = {0.0}
    for _, p, q in kernels.triangle_terms(spec):
        rates.update(r for r in (p, q) if r >= 0.0)
    return sorted(rates)


class DelayedExpInput(estimator.InputSignal):
    """sum c exp(-r (x - b)) H(x - b) with arbitrary switch times b.

    No shipped input mixes nonzero rates with late switch times; this one
    drives every rate pairing of the closed form.
    """

    def __init__(self, amps, rates, starts):
        self.terms = tuple(np.asarray(v, dtype=float) for v in (amps, rates, starts))

    def value(self, x):
        amps, rates, starts = self.terms
        lag = np.asarray(x, dtype=float)[..., None] - starts
        on = lag >= 0.0
        return np.sum(np.where(on, amps * np.exp(-rates * np.where(on, lag, 0.0)), 0.0), axis=-1)

    def switched_exponentials(self):
        return self.terms


def _inputs(spec, times):
    rates = _kernel_rates(spec)
    p = kernels.triangle_terms(spec)[0][1]
    return {
        "step": estimator.StepInput(1.3),
        "expsum": estimator.ExpSumInput(np.linspace(1.0, -0.6, len(rates)), rates),
        # hold times at the output times, as the CLI builds them
        "zoh_at_outputs": estimator.ZohInput(times, np.cos(2.0 * times + 0.3)),
        "zoh_late": estimator.ZohInput([0.3, 0.55, 1.2, 2.0], [0.7, -1.1, 0.4, 1.5]),
        "delayed_exp": DelayedExpInput(
            [1.0, -0.8, 0.5, 0.3, 0.9], [0.0, p, 0.7, 0.7, 0.0], [0.0, 0.45, 0.45, 1.9, 0.8]
        ),
    }


def _assert_matches_oracle(spec, ds):
    operator, basis = estimator.output_kernel(spec, ds)
    A = operator.dense()
    qA, qbasis = estimator.output_kernel_quadrature(spec, ds, ORACLE)
    fA, fbasis = estimator.output_kernel_quadrature(spec, ds, refined(ORACLE))
    # agreement only means something where the oracle has converged
    assert _rel(qA, fA) <= 1e-12
    assert _rel(qbasis(PROBES), fbasis(PROBES)) <= 1e-12
    assert np.array_equal(A, A.T)
    assert _rel(A, fA) <= 1e-10
    assert _rel(basis(PROBES), fbasis(PROBES)) <= 1e-10


@pytest.mark.parametrize(
    "kind", ["step", "expsum", "zoh_at_outputs", "zoh_late", "delayed_exp"]
)
@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_closed_form_matches_quadrature_oracle(name, kind):
    spec = ORACLE_SPECS[name]
    signal = _inputs(spec, OUTPUT_TIMES)[kind]
    ds = estimator.Dataset(OUTPUT_TIMES, np.zeros(OUTPUT_TIMES.size), signal, 0.0)
    _assert_matches_oracle(spec, ds)


@pytest.mark.parametrize(
    "kind", ["step", "expsum", "zoh_at_outputs", "zoh_late", "delayed_exp"]
)
def test_closed_form_single_sample(kind):
    spec = kernels.dc(0.6, 0.4)
    times = np.array([1.4])
    ds = estimator.Dataset(times, np.zeros(1), _inputs(spec, times)[kind], 0.0)
    _assert_matches_oracle(spec, ds)


def test_closed_form_rates_next_to_kernel_rates():
    # input rates 1e-12 and 1e-9 away from alpha + beta
    spec = kernels.dc(0.6, 0.4)
    signal = estimator.ExpSumInput([1.0, -0.5, 0.25], [1.0, 1.0 + 1e-12, 1.0 + 1e-9])
    ds = estimator.Dataset(OUTPUT_TIMES, np.zeros(OUTPUT_TIMES.size), signal, 0.0)
    _assert_matches_oracle(spec, ds)


def test_closed_form_stays_finite_at_long_times():
    times = np.array([1.0, 300.0, 900.0, 2000.0])
    zoh = estimator.ZohInput([0.0, 299.0, 1500.0], [1.0, -1.0, 2.0])
    for spec in ORACLE_SPECS.values():
        ds = estimator.Dataset(times, np.zeros(4), zoh, 0.0)
        operator, basis = estimator.output_kernel(spec, ds)
        assert np.all(np.isfinite(operator.dense()))
        assert np.all(np.isfinite(basis(np.array([0.0, 1000.0, 5000.0]))))


def test_production_path_uses_no_quadrature(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("production path reached quadrature or pointwise kernels")

    monkeypatch.setattr(quadrature, "_gauss_legendre", forbidden)
    monkeypatch.setattr(estimator, "_gauss_legendre", forbidden)
    monkeypatch.setattr(estimator, "eval_kernel", forbidden)
    spec = kernels.ss(0.6)
    for signal in _inputs(spec, OUTPUT_TIMES).values():
        ds = estimator.Dataset(OUTPUT_TIMES, np.zeros(OUTPUT_TIMES.size), signal, 0.0)
        _, basis = estimator.output_kernel(spec, ds)
        assert basis(PROBES).shape == (PROBES.size, OUTPUT_TIMES.size)
        fit = estimator.estimate(spec, ds, gamma=0.1)
        assert np.isfinite(estimator.reconstruct(fit, 1.0))


def test_quadrature_oracle_refuses_impulse():
    ds = estimator.Dataset(np.array([0.5]), np.zeros(1), estimator.ImpulseInput(), 0.0)
    with pytest.raises(DomainError):
        estimator.output_kernel_quadrature(kernels.tc(0.5), ds)


def test_representers_need_nonnegative_times():
    _, basis = estimator.output_kernel(kernels.tc(0.5), step_dataset([0.5, 1.0]))
    with pytest.raises(DomainError):
        basis(np.array([-0.1]))


SPREADS = st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, 1e-6, -1e-4, 0.3, 0.999, 1.0, 2.5, 40.0])
BASES = st.floats(0.0, 60.0)


def _mp_d1(x, y):
    with mpmath.workdps(40):
        return mpmath.quad(lambda u: mpmath.exp(-(x + u * (y - x))), [0, 1])


def _mp_d2(x, y, z):
    # outer integral by quadrature; the inner one, over v in [0, 1 - u] of
    # exp(-v (z - x)), in closed form at 40 digits
    def inner(u):
        length = 1 - u
        c = z - x
        section = length if c == 0 else -mpmath.expm1(-c * length) / c
        return mpmath.exp(-(x + u * (y - x))) * section

    with mpmath.workdps(40):
        return mpmath.quad(inner, [0, 1])


def _close(got, want, rel=1e-13):
    want = float(want)
    assert abs(got - want) <= rel * abs(want), (got, want)


@settings(max_examples=60, deadline=None)
@given(x=BASES, dx=SPREADS)
def test_psi_and_d1_against_mpmath(x, dx):
    y = max(x + dx, 0.0)
    _close(float(estimator._psi(x)), _mp_d1(0, mpmath.mpf(x)))
    _close(float(estimator._d1(x, y)), _mp_d1(mpmath.mpf(x), mpmath.mpf(y)))


@settings(max_examples=40, deadline=None)
@given(x=BASES, dy=SPREADS, dz=SPREADS)
def test_d2_against_mpmath(x, dy, dz):
    y = max(x + dy, 0.0)
    z = max(y + dz, 0.0)
    want = _mp_d2(mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(z))
    for args in ((x, y, z), (z, x, y), (y, z, x)):
        _close(float(estimator._d2(*args)), want)


def test_impulse_fit_never_forms_the_gram_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("impulse fit reached dense assembly or dense Cholesky")

    monkeypatch.setattr(kernelmat, "assemble", forbidden)
    monkeypatch.setattr(estimator.np.linalg, "cholesky", forbidden)
    monkeypatch.setattr(estimator, "_triangular_solve", forbidden)
    times = np.linspace(0.0, 6.0, 40)
    ds = estimator.Dataset(times, np.exp(-times), estimator.ImpulseInput(), 1e-4)
    for spec in (kernels.tc(0.5), kernels.dc(0.3, 0.7), kernels.ss(0.6)):
        for grid in (None, [1e-4, 1e-2, 1.0]):
            fit = estimator.estimate(spec, ds, gamma_grid=grid)
            assert np.all(np.isfinite(fit.fitted_outputs()))
            assert np.isfinite(estimator.reconstruct(fit, 1.0))


@pytest.mark.parametrize(
    "spec, times",
    [
        # 2 beta t reaches 80: markov_factors' absolute gap floor refuses this grid
        (kernels.tc(0.5), np.linspace(0.1, 80.0, 60)),
        (kernels.dc(0.3, 0.7), np.linspace(0.0, 60.0, 50)),
        (kernels.ss(0.6), np.linspace(0.0, 40.0, 50)),
        # 50 samples 1e-9 apart
        (kernels.dc(0.6, 0.4), 1.0 + 1e-9 * np.arange(50)),
        (kernels.ss(0.6), np.array([0.0])),
        (kernels.tc(0.5), np.array([2.5])),
    ],
)
def test_impulse_fit_edge_cases_match_dense_cholesky(spec, times):
    y = np.exp(-0.3 * times) * np.cos(times)
    ds = estimator.Dataset(times, y, estimator.ImpulseInput(), 1e-3)
    gram = assemble(spec, halfline_grid(times)).values
    for grid in (None, [1e-3, 1e-2, 1e-1]) if times.size >= 5 else (None,):
        fit = estimator.estimate(spec, ds, gamma_grid=grid)
        ref = estimator.solve_coefficients(gram, y, fit.gamma)
        assert _rel(fit.coefficients, ref) <= 1e-10
        assert _rel(fit.fitted_outputs(), gram @ ref) <= 1e-10


@pytest.mark.parametrize("spec", [kernels.tc(0.5), kernels.dc(0.3, 0.7), kernels.ss(0.6)])
def test_impulse_reconstruct_matches_the_dense_basis(spec):
    # running sums against the len(t) x n basis of kernel sections, at t = 0,
    # at the samples, between them and past the last one
    times = np.concatenate([[0.2, 0.2 + 1e-9], np.linspace(0.5, 30.0, 120)])
    y = np.exp(-0.3 * times) * np.cos(times)
    fit = estimator.estimate(spec, estimator.Dataset(times, y, estimator.ImpulseInput(), 1e-3))
    t = np.concatenate([[0.0], times, (times[:-1] + times[1:]) / 2, times[-1] + [1e-9, 0.5, 40.0]])
    terms = fit.basis(t) * fit.coefficients
    got = estimator.reconstruct(fit, t)
    assert np.all(np.abs(got - terms.sum(axis=1)) <= 1e-12 * np.abs(terms).sum(axis=1))
    with pytest.raises(DomainError):
        estimator.reconstruct(fit, -0.1)


def test_grid_search_exact_fits_tie_to_the_larger_gamma():
    # exp(-t) lies in the tc(0.5) span, so small gammas predict the holdout
    # to rounding; such scores (1e-33 here) must not decide the choice
    times = np.linspace(0.1, 2.0, 10)
    y = np.exp(-times)
    operator = QuasiseparableGram(kernels.tc(0.5), halfline_grid(times))
    dense = estimator.DenseOperator(operator.dense())
    for op in (operator, dense):
        search = estimator.grid_search_gamma(op, y, [1e-1, 1e-6, 1e-3])
        assert np.all(search.scores[:2] <= 1e-25)
        assert search.best_gamma == 1e-3
