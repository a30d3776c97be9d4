import numpy as np
import pytest

from dckernel import kernels, mercer
from dckernel.errors import DomainError

LAMBDA_1 = 0.4052847345693510857755178528389105556174
LAMBDA_3 = 0.0162113893827740434310207141135564222247
E2_AT_03 = 1.396802246667420553270999371821891827458  # sqrt2 sin(1.5 pi 0.3)
TAIL_1000 = 2.027437391542526692223701114751928742458e-4


def test_eigenvalue_values_and_series():
    assert mercer.eigenvalue(1) == pytest.approx(LAMBDA_1, rel=1e-15)
    assert mercer.eigenvalue(3) == pytest.approx(LAMBDA_3, rel=1e-15)
    vals = mercer.eigenvalues(200_000)
    assert np.all(np.diff(vals) < 0)
    # partial sums approach 1/2 with a 2/(pi^2 M) tail
    assert vals.sum() == pytest.approx(0.5, abs=1e-5)


def test_eigenvalue_validation():
    with pytest.raises(DomainError):
        mercer.eigenvalue(0)
    with pytest.raises(DomainError):
        mercer.eigenvalue(1.5)
    with pytest.raises(DomainError):
        mercer.eigenvalues(0)


def test_tail_bound_value():
    assert mercer.spline1_tail_bound(1000) == pytest.approx(TAIL_1000, rel=1e-15)
    assert mercer.spline1_tail_bound(10) > mercer.spline1_tail_bound(100)


def test_eigenfunction_values():
    system = mercer.EigenSystem(kernels.spline1())
    assert mercer.eigenfunction(system, 2, 0.3) == pytest.approx(E2_AT_03, rel=1e-14)
    # power weighting multiplies the sine by tau^rho
    weighted = mercer.EigenSystem(kernels.genspline1(0.5))
    assert mercer.eigenfunction(weighted, 2, 0.3) == pytest.approx(
        0.3 ** 0.5 * E2_AT_03, rel=1e-14
    )
    assert mercer.eigenfunction(weighted, 1, 0.0) == 0.0


def test_dc_eigenfunction_is_mapped_unit_function():
    spec = kernels.dc(0.2, 0.3)
    system = mercer.EigenSystem(spec)
    unit = mercer.EigenSystem(kernels.genspline1(spec.stable_rho))
    t = 1.7
    tau = np.exp(-2.0 * spec.beta * t)
    assert mercer.eigenfunction(system, 4, t) == pytest.approx(
        mercer.eigenfunction(unit, 4, tau), rel=1e-14
    )


def test_eigen_system_rejects_unsupported():
    with pytest.raises(DomainError):
        mercer.EigenSystem(kernels.spline2())
    with pytest.raises(DomainError):
        mercer.EigenSystem(kernels.spline1(), truncation=0)


def test_expansion_converges_within_tail_bound():
    system = mercer.EigenSystem(kernels.spline1(), truncation=1000)
    pts = np.linspace(0.01, 1.0, 60)
    partial = mercer.expansion_grid(system, pts, pts)
    exact = np.minimum(pts[:, None], pts[None, :])
    sup = np.max(np.abs(partial - exact))
    assert sup <= mercer.spline1_tail_bound(1000)
    # a 1x1 grid spot check stays within the same tail bound
    spot = mercer.expansion_grid(system, [0.37], [0.81])[0, 0]
    assert abs(spot - 0.37) <= mercer.spline1_tail_bound(1000)


def test_expansion_error_shrinks_with_truncation():
    system = mercer.EigenSystem(kernels.spline1(), truncation=400)
    pts = np.linspace(0.05, 1.0, 40)
    exact = np.minimum(pts[:, None], pts[None, :])
    err_small = np.max(np.abs(mercer.expansion_grid(system, pts, pts, 50) - exact))
    err_large = np.max(np.abs(mercer.expansion_grid(system, pts, pts, 400) - exact))
    assert err_large < err_small
    assert err_small <= mercer.spline1_tail_bound(50)


def test_dc_expansion_tracks_kernel():
    spec = kernels.dc(0.4, 0.6)
    system = mercer.EigenSystem(spec, truncation=2000)
    t = np.linspace(0.0, 3.0, 25)
    partial = mercer.expansion_grid(system, t, t)
    exact = kernels.eval_kernel(spec, t[:, None], t[None, :])
    # unit-side tail bound, inflated by the largest power weight on the grid
    rho = spec.stable_rho
    tau_min = float(np.exp(-2.0 * spec.beta * t[-1]))
    inflate = max(tau_min ** (2.0 * rho), 1.0)
    assert np.max(np.abs(partial - exact)) <= inflate * mercer.spline1_tail_bound(2000)


def test_eigen_equation_residuals():
    probes = np.array([0.11, 0.42, 0.77])
    for spec in (kernels.spline1(), kernels.genspline1(-0.25)):
        system = mercer.EigenSystem(spec)
        for i in (1, 2, 7):
            assert mercer.verify_eigen_equation(system, i, probes) <= 1e-8


def test_eigen_equation_halfline_probes():
    spec = kernels.tc(0.5)
    system = mercer.EigenSystem(spec)
    probes = np.array([0.3, 1.1, 2.4])
    assert mercer.verify_eigen_equation(system, 2, probes) <= 1e-8


def test_orthonormality_matrix():
    system = mercer.EigenSystem(kernels.genspline1(0.5))
    for i, j, want in ((1, 1, 1.0), (2, 5, 0.0), (4, 4, 1.0)):
        assert mercer.verify_orthonormality(system, i, j) == pytest.approx(
            want, abs=1e-10
        )
