import numpy as np
import pytest

from dckernel.errors import DivergenceError, DomainError, QuadratureError
from dckernel.quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    composite_rule,
    integrate_halfline,
    integrate_unit,
    refined,
    unit_breakpoints,
)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(panels=0)
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=0)
    with pytest.raises(DomainError):
        QuadratureConfig(grading_ratio=1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)


def test_refined_doubles_panels():
    cfg = QuadratureConfig(panels=8)
    assert refined(cfg).panels == 16
    assert refined(cfg, 4).panels == 32


def test_composite_rule_invariants():
    pts, wts = composite_rule([0.0, 0.25, 1.0], 6)
    assert pts.shape == wts.shape == (12,)
    assert np.all(np.diff(pts) > 0)
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        composite_rule([0.5], 4)


def test_polynomial_exactness():
    # Gauss-Legendre with n nodes integrates degree 2n-1 exactly
    cfg = QuadratureConfig(panels=3, nodes=4)
    val = integrate_unit(lambda x: 7.0 * x ** 6, cfg)
    assert val == pytest.approx(1.0, rel=1e-14)


def test_unit_breakpoints_splits_and_grading():
    cfg = QuadratureConfig(panels=4, graded_panels=3, grading_ratio=0.5)
    plain = unit_breakpoints(cfg)
    assert plain[0] == 0.0 and plain[-1] == 1.0
    with_split = unit_breakpoints(cfg, splits=(0.37,))
    assert 0.37 in with_split
    graded = unit_breakpoints(cfg, graded=True)
    assert len(graded) > len(plain)
    assert np.all(np.diff(graded) > 0)


def test_integrate_unit_with_kink():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
    val = integrate_unit(f, QuadratureConfig(panels=16, nodes=8), splits=(0.3,))
    assert val == pytest.approx(exact, rel=1e-14)


# Integrals over (0, 1] with an endpoint singularity, taken in s = -log x:
# int_0^1 g(x) dx = int_0^inf g(exp(-s)) exp(-s) ds.


def test_halfline_handles_integrable_singularity():
    # x^(-0.9) integrates to 10 but is unbounded at 0: exp(-0.1 s)
    val = integrate_halfline(lambda s: np.exp(-0.1 * s), DEFAULT_QUADRATURE, scale=1.0)
    assert val == pytest.approx(10.0, rel=1e-12)


def test_halfline_smooth_matches_exact():
    # exp(x) on (0, 1]
    f = lambda s: np.exp(np.exp(-s) - s)
    val = integrate_halfline(f, DEFAULT_QUADRATURE, scale=1.0)
    assert val == pytest.approx(np.e - 1.0, rel=1e-12)


def test_halfline_detects_divergence():
    # x^(-1.5): exp(0.5 s) grows until it overflows
    with pytest.raises(DivergenceError) as info:
        with np.errstate(over="ignore"):
            integrate_halfline(lambda s: np.exp(0.5 * s), DEFAULT_QUADRATURE, scale=1.0)
    assert len(info.value.estimates) == 2


def test_halfline_log_divergence_exhausts_budget():
    # 1 / x: a constant in s, whose tail never reads as an exponential
    with pytest.raises(QuadratureError, match="budget"):
        integrate_halfline(lambda s: np.ones_like(s), DEFAULT_QUADRATURE, scale=1.0)


def test_halfline_budget_exhaustion():
    cfg = QuadratureConfig(max_extensions=1)
    # x^(-0.999): exp(-0.001 s) cannot settle in one extension
    with pytest.raises(QuadratureError):
        integrate_halfline(lambda s: np.exp(-1e-3 * s), cfg, scale=1.0)


def _nan_where(mask):
    return lambda s: np.where(mask(s), np.nan, np.exp(-s))


def test_halfline_rejects_nonfinite():
    # 1 on [1e-3, 1], NaN below: exp(-s) up to s = 6.9, NaN beyond, in the base rule
    bad = _nan_where(lambda s: s > -np.log(1e-3))
    with pytest.raises(DivergenceError):
        integrate_halfline(bad, DEFAULT_QUADRATURE, scale=10.0)
    # and in the extension, before the estimates settle: decaying, so no divergence
    bad = _nan_where(lambda s: (s > 2.0) & (s < 2.5))
    with pytest.raises(QuadratureError, match="not finite") as info:
        integrate_halfline(bad, DEFAULT_QUADRATURE, scale=1.0)
    assert not isinstance(info.value, DivergenceError)


@pytest.mark.parametrize("rate", [1e3, 1.0, 1e-3, 1e-6])
def test_halfline_reaches_any_exponential_scale(rate):
    val = integrate_halfline(lambda t: np.exp(-rate * t), DEFAULT_QUADRATURE, scale=1.0)
    assert val == pytest.approx(1.0 / rate, rel=1e-12)


def test_halfline_split_beyond_the_base():
    # a kink at 37.3 lies in the geometric panels; it must start one
    f = lambda t: np.exp(-np.abs(t - 37.3))
    val = integrate_halfline(f, DEFAULT_QUADRATURE, scale=1.0, splits=(37.3,))
    assert val == pytest.approx(2.0 - np.exp(-37.3), rel=1e-12)


def test_halfline_tail_that_is_no_exponential():
    # t exp(-t / 1000): the log-slope drifts, so the estimates settle only far out
    val = integrate_halfline(lambda t: t * np.exp(-1e-3 * t), DEFAULT_QUADRATURE, scale=1.0)
    assert val == pytest.approx(1e6, rel=1e-8)


def _beyond(limit, f):
    """f, reading NaN past ``limit`` as an integrand whose inputs underflowed there."""
    return lambda t: np.where(t > limit, np.nan, f(t))


def test_halfline_extrapolates_an_exponential_past_a_nan_edge():
    # 1 / e of the integral lies beyond the edge, where no panel spans 1 / d yet
    f = _beyond(1000.0, lambda t: np.exp(-1e-3 * t))
    val = integrate_halfline(f, DEFAULT_QUADRATURE, scale=1.0, nan_edge=True)
    assert val == pytest.approx(1e3, rel=1e-12)
    # the same NaN, not declared an edge, is refused
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_halfline(f, DEFAULT_QUADRATURE, scale=1.0)


def test_halfline_refuses_a_tail_the_exponential_does_not_fit():
    # t exp(-t / 1000) past t = 2000 is no exponential the last panels agree on
    f = _beyond(2000.0, lambda t: t * np.exp(-1e-3 * t))
    with pytest.raises(QuadratureError, match="not finite") as info:
        integrate_halfline(f, DEFAULT_QUADRATURE, scale=1.0, nan_edge=True)
    assert not isinstance(info.value, DivergenceError)
