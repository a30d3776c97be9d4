import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckernel import kernels
from dckernel.errors import DomainError

# high-precision reference values (40-digit arithmetic, frozen)
DC_13_27 = 0.2952301669240142091415122843202941075312
DC_DIAG = 0.4493289641172215914301023850155627959342  # t=s=0.4, a=1.0, b=0.25
SS_11_04 = 0.06446933354033277299043658299514814726185
SS_DIAG = 0.01659568945595464765978080521668725887723  # t=s=2.0, a=0.5
TC_09_16 = 0.201896517994655408485179267643349762862
GS_VALUE = 0.1428542417991149466868656072368475859795  # (0.36, 0.81), rho=0.75


def test_frozen_point_values():
    assert kernels.eval_kernel(kernels.dc(0.2, 0.3), 1.3, 2.7) == pytest.approx(
        DC_13_27, rel=1e-15
    )
    assert kernels.eval_kernel(kernels.dc(1.0, 0.25), 0.4, 0.4) == pytest.approx(
        DC_DIAG, rel=1e-15
    )
    assert kernels.eval_kernel(kernels.ss(0.7), 1.1, 0.4) == pytest.approx(
        SS_11_04, rel=1e-15
    )
    assert kernels.eval_kernel(kernels.ss(0.5), 2.0, 2.0) == pytest.approx(
        SS_DIAG, rel=1e-15
    )
    assert kernels.eval_kernel(kernels.tc(0.5), 0.9, 1.6) == pytest.approx(
        TC_09_16, rel=1e-15
    )
    assert kernels.eval_kernel(kernels.genspline1(0.75), 0.36, 0.81) == pytest.approx(
        GS_VALUE, rel=1e-15
    )
    assert kernels.eval_kernel(kernels.spline2(), 0.3, 0.7) == pytest.approx(
        0.027, rel=1e-15
    )
    assert kernels.eval_kernel(kernels.spline1(), 0.3, 0.7) == 0.3


@pytest.mark.parametrize(
    "bad",
    [
        lambda: kernels.tc(0.0),
        lambda: kernels.tc(-1.0),
        lambda: kernels.dc(0.5, 0.0),
        lambda: kernels.dc(0.0, 0.5),
        lambda: kernels.ss(0.0),
        lambda: kernels.genspline1(-0.5),
        lambda: kernels.genspline1(float("nan")),
        lambda: kernels.KernelSpec("exp"),
    ],
)
def test_invalid_parameters(bad):
    with pytest.raises(DomainError):
        bad()


def test_stray_hyperparameters_rejected():
    bad = [
        (lambda: kernels.KernelSpec("ss", alpha=1.0, beta=-2.0, rho="junk"), "beta"),
        (lambda: kernels.KernelSpec("ss", alpha=1.0, rho=0.2), "rho"),
        (lambda: kernels.KernelSpec("dc", alpha=0.6, beta=0.4, rho=0.0), "rho"),
        (lambda: kernels.KernelSpec("spline1", alpha=1.0), "alpha"),
        (lambda: kernels.KernelSpec("genspline1", rho=0.2, beta=1.0), "beta"),
        # tc derives alpha from beta and accepts no other value
        (lambda: kernels.KernelSpec("tc", alpha=0.7, beta=0.5), "alpha"),
    ]
    for build, name in bad:
        with pytest.raises(DomainError, match=name):
            build()
    assert kernels.ss(1.0) == kernels.KernelSpec("ss", alpha=1.0, beta=None)
    assert hash(kernels.ss(1.0)) == hash(kernels.KernelSpec("ss", alpha=1.0))
    # a copy of a tc spec carries the derived alpha back in
    spec = kernels.tc(0.5)
    assert kernels.KernelSpec("tc", alpha=0.5, beta=0.5) == spec
    assert dataclasses.replace(spec) == spec


def test_triangle_terms_reproduce_kernels():
    tau, nu = np.meshgrid(np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 9))
    hi, lo = np.maximum(tau, nu), np.minimum(tau, nu)
    for spec in (kernels.tc(0.5), kernels.dc(0.3, 0.7), kernels.ss(0.6)):
        terms = kernels.triangle_terms(spec)
        assert all(p > 0.0 and p + q > 0.0 for _, p, q in terms)
        value = sum(w * np.exp(-p * hi - q * lo) for w, p, q in terms)
        assert np.allclose(value, kernels.eval_kernel(spec, tau, nu), rtol=1e-14, atol=0.0)
    assert kernels.triangle_terms(kernels.tc(0.5))[0][2] == 0.0
    with pytest.raises(DomainError):
        kernels.triangle_terms(kernels.spline1())


def test_domain_rejection():
    with pytest.raises(DomainError):
        kernels.eval_kernel(kernels.tc(0.5), -0.1, 1.0)
    with pytest.raises(DomainError):
        kernels.eval_kernel(kernels.spline1(), 0.5, 1.2)
    with pytest.raises(DomainError):
        kernels.eval_kernel(kernels.dc(0.2, 0.3), float("nan"), 1.0)


def test_genspline_axis_extension():
    # negative rho diverges pointwise at 0 but the kernel limit is 0
    assert kernels.eval_kernel(kernels.genspline1(-0.3), 0.0, 0.5) == 0.0
    assert kernels.eval_kernel(kernels.genspline1(0.4), 0.0, 0.0) == 0.0


def test_broadcasting_and_scalars():
    spec = kernels.dc(0.2, 0.3)
    t = np.linspace(0.0, 3.0, 7)
    grid = kernels.eval_kernel(spec, t[:, None], t[None, :])
    assert grid.shape == (7, 7)
    assert isinstance(kernels.eval_kernel(spec, 1.0, 2.0), float)


def test_stable_params():
    assert kernels.stable_params(kernels.tc(0.4)) == (0.4, 0.4, 0.0)
    a, b, r = kernels.stable_params(kernels.dc(0.2, 0.3))
    assert (a, b) == (0.2, 0.3)
    assert r == pytest.approx((0.2 - 0.3) / 0.6)
    with pytest.raises(DomainError):
        kernels.stable_params(kernels.spline1())


def test_domain_tags():
    assert kernels.tc(1.0).domain == "halfline"
    assert kernels.genspline1(0.0).domain == "unit01"


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(0.0, 50.0),
    s=st.floats(0.0, 50.0),
    alpha=st.floats(0.05, 2.0),
    beta=st.floats(0.05, 2.0),
)
def test_dc_symmetry_bounds(t, s, alpha, beta):
    spec = kernels.dc(alpha, beta)
    v = kernels.eval_kernel(spec, t, s)
    assert v == kernels.eval_kernel(spec, s, t)  # bitwise, max-min trick
    assert 0.0 <= v <= kernels.eval_kernel(spec, min(t, s), min(t, s)) + 1e-15


@settings(max_examples=100, deadline=None)
@given(t=st.floats(0.0, 30.0), s=st.floats(0.0, 30.0), beta=st.floats(0.05, 2.0))
def test_dc_reduces_to_tc(t, s, beta):
    dc_val = kernels.eval_kernel(kernels.dc(beta, beta), t, s)
    tc_val = kernels.eval_kernel(kernels.tc(beta), t, s)
    assert dc_val == tc_val


def test_gram_matrices_are_psd():
    rng = np.random.default_rng(42)
    t = np.sort(rng.uniform(0.0, 4.0, 12))
    for spec in (kernels.dc(0.3, 0.5), kernels.tc(0.8), kernels.ss(0.6)):
        gram = kernels.eval_kernel(spec, t[:, None], t[None, :])
        w = np.linalg.eigvalsh(gram)
        assert w.min() >= -1e-12 * w.max()


def test_identity_deviation_small_everywhere():
    grid = np.linspace(0.0, 10.0, 50)
    for spec in (
        kernels.ss(0.7),
        kernels.tc(0.4),
        kernels.dc(0.2, 0.3),
        kernels.dc(1.0, 0.25),
        kernels.dc(0.9, 1.4),  # alpha < beta puts rho below 0
    ):
        assert kernels.verify_stable_spline_identity(spec, grid) <= 1e-13


def test_identity_accepts_time_grid():
    from dckernel.grids import halfline_grid

    grid = halfline_grid(np.linspace(0.1, 5.0, 20))
    assert kernels.verify_stable_spline_identity(kernels.tc(0.5), grid) <= 1e-13


def test_stable_coordinate_helpers():
    beta = 0.35
    assert kernels.stable_params(kernels.tc(beta)) == kernels.stable_params(
        kernels.dc(beta, beta)
    )
    spec = kernels.dc(0.2, beta)
    t = np.array([0.1, 0.4, 1.3, 2.0])
    x = np.exp(-2.0 * beta * t)
    assert np.array_equal(kernels.stable_coordinate(spec, t), x)
    gaps = kernels.stable_gaps(spec, t)
    assert np.array_equal(gaps[:-1], x[:-1] - x[1:])
    assert gaps[-1] == x[-1]  # the last gap runs to x = 0
    assert np.array_equal(
        kernels.stable_log_weight(spec, t), -2.0 * beta * spec.stable_rho * t
    )
    with pytest.raises(DomainError):
        kernels.stable_gaps(kernels.ss(0.5), t)
