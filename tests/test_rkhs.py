import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckernel import kernels, mercer, rkhs
from dckernel.errors import DivergenceError, DomainError
from dckernel.quadrature import (
    DEFAULT_QUADRATURE,
    composite_rule,
    integrate_halfline,
    unit_breakpoints,
)

# closed-form squared norms of exp(-gamma t), frozen from exact arithmetic
NORM_TC_HALF = 1.0  # beta=0.5, rho=0, gamma=1
NORM_DC_A = 1.125  # beta=0.5, rho=0.5, gamma=2
NORM_DC_B = 1.032142857142857142857142857142857142857  # beta=0.3, rho=-0.2, gamma=0.39


def exp_handle(gamma, **kw):
    return rkhs.FunctionHandle(
        func=lambda t: np.exp(-gamma * t),
        deriv=lambda t: -gamma * np.exp(-gamma * t),
        decay_hint=gamma,
        **kw,
    )


def test_closed_form_norms():
    cases = [
        (kernels.dc(0.5, 0.5), 1.0, NORM_TC_HALF),
        (kernels.dc(1.0, 0.5), 2.0, NORM_DC_A),
        (kernels.dc(0.18, 0.3), 0.39, NORM_DC_B),
    ]
    for spec, gamma, expected in cases:
        value = rkhs.dc_norm_integral(exp_handle(gamma), spec)
        assert value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(0.01, 50.0, 0.011), (0.01, 5.0, 0.0101), (0.8213, 25.48, 2.0), (0.18, 0.3, 0.39), (2.0, 0.5, 7.0)],
)
def test_exp_norm_closed_form_against_40_digits(alpha, beta, gamma):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b, g = (mpmath.mpf(v) for v in (alpha, beta, gamma))
        exact = (a - b - g) ** 2 / (4 * b * (g - a))
        value = rkhs.exp_norm_closed_form(gamma, alpha, beta)
        # a few roundings of a cancellation-free form; the form in rho
        # misses by 1.1e-12 at dc(0.01, 50), gamma = 0.011
        assert abs(mpmath.mpf(value) / exact - 1) <= 1e-15


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(0.8213, 25.48, 2.0), (0.01, 50.0, 0.011), (0.01, 5.0, 0.0101), (1.0, 1000.0, 1.01)],
)
def test_norm_near_the_membership_threshold(alpha, beta, gamma):
    # in tau = exp(-2 beta t) the integrand is near tau^-1: (gamma - alpha) / beta - 1;
    # at dc(0.01, 5) 1e-6 of the norm lies where exp(-gamma t) has underflowed
    value = rkhs.dc_norm_integral(exp_handle(gamma), kernels.dc(alpha, beta))
    assert value == pytest.approx(rkhs.exp_norm_closed_form(gamma, alpha, beta), rel=1e-8)


@pytest.mark.parametrize("gamma", [0.3, 0.8, 0.999])
def test_norm_integral_of_a_slow_decay_diverges(gamma):
    # below gamma = alpha / 2 the integrand overflows first; above, f underflows first
    with pytest.raises(DivergenceError):
        rkhs.dc_norm_integral(exp_handle(gamma), kernels.dc(1.0, 1.0))


def test_tc_norm_matches_dc_at_zero_weight():
    handle = exp_handle(1.5)
    tc_val = rkhs.tc_norm_integral(handle, kernels.tc(0.7))
    dc_val = rkhs.dc_norm_integral(handle, kernels.dc(0.7, 0.7))
    assert tc_val == pytest.approx(dc_val, rel=1e-12)
    with pytest.raises(DomainError):
        rkhs.tc_norm_integral(handle, kernels.dc(0.2, 0.3))


def genspline_norm_integral(handle, rho):
    """Squared norm of a unit-interval function in the power-weighted space.

    ``handle`` lives on [0, 1] (with f(0) = 0); the integrand is the squared
    derivative of f(tau) / tau^rho, integrated over s = -log tau.  Equals
    the half-line dc norm of f(exp(-2 beta t)) for every beta.
    """

    def integrand(s):
        tau = np.exp(-s)
        num = handle.derivative(tau) * tau - rho * handle.evaluate(tau)
        scaled = tau ** (-(rho + 1.0)) * num
        return scaled * scaled * tau

    splits = tuple(-np.log(float(c)) for c in handle.corners)
    return integrate_halfline(integrand, DEFAULT_QUADRATURE, scale=1.0, splits=splits)


def test_genspline_norm_consistency():
    # e^{-gamma t} pulled to the unit interval must give the same norm
    beta, rho, gamma = 0.5, 0.5, 2.0
    spec = kernels.dc((2 * rho + 1) * beta, beta)

    def unit_func(tau):
        return np.where(tau > 0.0, tau ** (gamma / (2.0 * beta)), 0.0)

    def unit_deriv(tau):
        e = gamma / (2.0 * beta)
        return np.where(tau > 0.0, e * tau ** (e - 1.0), 0.0)

    unit_handle = rkhs.FunctionHandle(func=unit_func, deriv=unit_deriv)
    unit_val = genspline_norm_integral(unit_handle, rho)
    half_val = rkhs.dc_norm_integral(exp_handle(gamma), spec)
    assert unit_val == pytest.approx(half_val, rel=1e-9)


def test_membership_screen():
    spec = kernels.dc(1.0, 0.5)  # needs decay faster than alpha = 1
    assert (
        rkhs.membership_necessary_check(2.0, spec)
        is rkhs.MembershipVerdict.PASSES_NECESSARY
    )
    assert (
        rkhs.membership_necessary_check(0.8, spec)
        is rkhs.MembershipVerdict.FAILS_NECESSARY
    )
    with pytest.raises(DomainError):
        rkhs.membership_necessary_check(0.0, spec)
    # beta / alpha = 31, where recomputing alpha from rho used to fail
    assert (
        rkhs.membership_necessary_check(2.0, kernels.dc(0.8213, 25.48))
        is rkhs.MembershipVerdict.PASSES_NECESSARY
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    log_alpha=st.floats(-3.0, 3.0),
    log_beta=st.floats(-3.0, 3.0),
    ratio=st.floats(0.5, 2.0),
)
def test_membership_screen_compares_the_decay_with_alpha(log_alpha, log_beta, ratio):
    # any dc kernel in the box, however large beta / alpha: a verdict, never
    # an internal error
    alpha, beta = 10.0 ** log_alpha, 10.0 ** log_beta
    gamma = alpha * ratio
    verdict = rkhs.membership_necessary_check(gamma, kernels.dc(alpha, beta))
    passes = verdict is rkhs.MembershipVerdict.PASSES_NECESSARY
    assert passes == (gamma > alpha)


@pytest.mark.parametrize("m", [1, 31, 32, 33, 500, 1000])
@pytest.mark.parametrize("spec", [kernels.tc(0.5), kernels.dc(1.0, 0.5)], ids=["ungraded", "graded"])
def test_series_coefficients_match_the_direct_sine_matrix(spec, m):
    # the blocked angle-addition transform against one sine per (i, node)
    handle = exp_handle(2.0)
    system = mercer.EigenSystem(spec, truncation=m)
    _, coeffs = rkhs.dc_norm_series(handle, system)
    beta, rho = spec.beta, system.rho
    quad = DEFAULT_QUADRATURE
    pts, wts = composite_rule(unit_breakpoints(quad, graded=rho != 0.0), quad.nodes)
    base = wts * handle.evaluate(np.log(pts) / (-2.0 * beta)) * pts ** (-rho)
    idx = np.arange(1, m + 1)[:, None]
    direct = (np.sqrt(2.0) * np.sin((idx - 0.5) * np.pi * pts[None, :])) @ base
    assert coeffs.shape == (m,)
    assert np.max(np.abs(coeffs - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_series_norm_converges_from_below():
    beta, rho, gamma = 0.5, 0.5, 2.0
    spec = kernels.dc((2 * rho + 1) * beta, beta)
    handle = exp_handle(gamma)
    partial_50, coeffs = rkhs.dc_norm_series(
        handle, mercer.EigenSystem(spec, truncation=50)
    )
    partial_500, _ = rkhs.dc_norm_series(
        handle, mercer.EigenSystem(spec, truncation=500)
    )
    assert coeffs.shape == (50,)
    assert partial_50 < partial_500 <= NORM_DC_A * (1 + 1e-9)
    assert partial_500 == pytest.approx(NORM_DC_A, rel=2e-2)


def test_series_screens_nonmembers():
    spec = kernels.dc(1.0, 0.5)
    slow = exp_handle(0.8)  # decays slower than the diagonal
    with pytest.raises(DomainError):
        rkhs.dc_norm_series(slow, mercer.EigenSystem(spec, truncation=50))


def test_kernel_section_reproduces_norm():
    spec = kernels.dc(0.2, 0.3)
    alpha, beta, _ = kernels.stable_params(spec)
    t0 = 0.7
    section = rkhs.FunctionHandle(
        func=lambda t: kernels.eval_kernel(
            spec, t, np.full_like(np.asarray(t, float), t0)
        ),
        deriv=lambda t: np.where(np.asarray(t, float) < t0, beta - alpha, -alpha - beta)
        * kernels.eval_kernel(spec, t, np.full_like(np.asarray(t, float), t0)),
        decay_hint=alpha + beta,
        corners=(t0,),
    )
    norm_sq = rkhs.dc_norm_integral(section, spec)
    assert norm_sq == pytest.approx(np.exp(-2.0 * alpha * t0), rel=1e-8)


def test_finite_difference_fallback():
    # no analytic derivative: slower but still convergent
    handle = rkhs.FunctionHandle(func=lambda t: np.exp(-t), decay_hint=1.0)
    value = rkhs.dc_norm_integral(handle, kernels.dc(0.5, 0.5))
    assert value == pytest.approx(1.0, rel=1e-5)


def test_bad_derivative_is_caught():
    handle = rkhs.FunctionHandle(
        func=lambda t: np.exp(-t),
        deriv=lambda t: np.exp(-t),  # sign error
        decay_hint=1.0,
    )
    with pytest.raises(DomainError):
        rkhs.dc_norm_integral(handle, kernels.dc(0.5, 0.5))


def test_scalar_func_broadcasts():
    # constant (scalar-returning) callables are promoted to the input shape
    handle = rkhs.FunctionHandle(func=lambda t: np.float64(1.0))
    out = handle.evaluate(np.linspace(0.0, 1.0, 5))
    assert out.shape == (5,)
    assert np.all(out == 1.0)
    assert handle.derivative(np.array([0.3, 0.9])) == pytest.approx([0.0, 0.0], abs=1e-6)
