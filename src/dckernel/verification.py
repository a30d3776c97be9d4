"""Self-contained invariant suite behind the ``verify`` command.

Every check compares a measured quantity against a pinned threshold and
reports the pair, so failures carry the actual number, not just a verdict.
Checks never short-circuit: a section always runs to the end and returns
every result.

Sections:

* identity: coordinate-change identities tying the half-line kernels to
  their unit-interval mother kernels;
* mercer: eigen-equation residuals, orthonormality, truncated-expansion
  sup error against the analytic tail bound;
* norm: quadrature norms against closed forms, partial series norms,
  the reproducing property, and the tc/dc consistency corner;
* maxent: exact covariances of the sampling constructions against the
  Gram matrix, Monte-Carlo covariances, constraint residuals, and
  entropy comparisons against correlated-increment competitors;
* tridiag: tridiagonal structure of the inverse Gram matrix on a pinned
  benchmark grid and on randomized draws, plus the second-order-kernel
  negative control that is not expected to be tridiagonal;
* estimator: impulse-input collapse, the quasiseparable solve against a
  dense LU solve, noise-free recovery, regularization path monotonicity,
  self-convergence of the quadrature oracle, and the closed-form
  normal-equation matrix against that oracle.

All randomness is derived from one suite seed, so two runs with the same
seed produce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimator as est
from . import kernelmat, kernels, maxent, mercer, rkhs
from .grids import HALFLINE, TimeGrid, halfline_grid, unit_grid
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig

__all__ = [
    "CheckResult",
    "DEFAULT_SEED",
    "DEFAULT_MC_COUNT",
    "SECTIONS",
    "identity_checks",
    "mercer_checks",
    "norm_checks",
    "maxent_checks",
    "tridiag_checks",
    "estimator_checks",
    "run_suite",
    "suite_passed",
]

DEFAULT_SEED = 2026
DEFAULT_MC_COUNT = 100_000

NORM_TRIPLES = (
    (0.5, 0.0, 1.0),
    (0.5, 0.5, 2.0),
    (0.3, -0.2, 0.39),
    (0.8, 0.25, 2.4),
    (1.2, 0.0, 4.8),
    (0.5, -0.4, 0.6),
    (1.0, 1.0, 4.5),
    (0.4, 0.75, 1.28),
    (0.7, 0.1, 2.59),
    (1.0, 2.0, 7.0),
)


@dataclass(frozen=True)
class CheckResult:
    """One measured quantity against its pinned threshold."""

    name: str
    measured: float
    threshold: float
    comparison: str = "<="  # "<=" or ">="
    details: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.comparison == "<=":
            ok = self.measured <= self.threshold
        elif self.comparison == ">=":
            ok = self.measured >= self.threshold
        else:
            raise ValueError(f"unknown comparison {self.comparison!r}")
        ok = bool(ok and np.isfinite(self.measured))
        object.__setattr__(self, "passed", ok)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.name}: measured {self.measured:.6e} "
            f"{self.comparison} {self.threshold:.6e}"
        )


def _exp_handle(gamma):
    return rkhs.FunctionHandle(
        func=lambda t: np.exp(-gamma * t),
        deriv=lambda t: -gamma * np.exp(-gamma * t),
        decay_hint=gamma,
    )


def _stratified_unit_gaps(rng, count, lo=0.05):
    """Descending points in (lo, 1] with gaps bounded away from zero.

    One point per bin of a uniform partition, each jittered inside its own
    bin, keeps consecutive spacings at least a fifth of the bin width; the
    whitening gaps then stay far above the conditioning floor.
    """
    offsets = (np.arange(count) + 0.1 + 0.8 * rng.uniform(size=count)) / count
    return (lo + (1.0 - lo) * offsets)[::-1]


def _random_halfline_grid(rng, count, beta):
    tau = _stratified_unit_gaps(rng, count)
    return halfline_grid(np.log(tau) / (-2.0 * beta))


def _random_stable_spec(rng):
    beta = float(rng.uniform(0.2, 1.2))
    rho = float(rng.uniform(-0.4, 0.75))
    return kernels.dc(alpha=(2.0 * rho + 1.0) * beta, beta=beta), beta


def identity_checks() -> list[CheckResult]:
    """Half-line kernels against their mother kernels, 50x50 on [0, 10]."""
    grid = np.linspace(0.0, 10.0, 50)
    cases = [
        ("identity.ss", kernels.ss(alpha=0.7)),
        ("identity.tc", kernels.tc(beta=0.4)),
        ("identity.dc_narrow", kernels.dc(alpha=0.2, beta=0.3)),
        ("identity.dc_wide", kernels.dc(alpha=1.0, beta=0.25)),
    ]
    return [
        CheckResult(name, kernels.verify_stable_spline_identity(spec, grid), 1e-13)
        for name, spec in cases
    ]


def mercer_checks(quad: QuadratureConfig = DEFAULT_QUADRATURE) -> list[CheckResult]:
    """Eigen-equation residuals, orthonormality, expansion sup error."""
    systems = [
        ("spline1", mercer.EigenSystem(kernels.spline1())),
        ("genspline1", mercer.EigenSystem(kernels.genspline1(rho=0.5))),
        ("dc", mercer.EigenSystem(kernels.dc(alpha=0.2, beta=0.3))),
    ]
    results = []
    unit_probes = np.array([0.12, 0.35, 0.5, 0.71, 0.93])
    for label, system in systems:
        if system.unit_side:
            probes = unit_probes
        else:
            beta = system.kernel.beta
            probes = np.log(unit_probes) / (-2.0 * beta)
        worst = 0.0
        for i in (1, 3, 10):
            worst = max(worst, mercer.verify_eigen_equation(system, i, probes, quad))
        results.append(CheckResult(f"mercer.eigen_equation.{label}", worst, 1e-6))
    for label, system in systems:
        count = 10
        gram = np.empty((count, count))
        for i in range(1, count + 1):
            for j in range(i, count + 1):
                gram[i - 1, j - 1] = mercer.verify_orthonormality(system, i, j, quad)
                gram[j - 1, i - 1] = gram[i - 1, j - 1]
        dev = float(np.max(np.abs(gram - np.eye(count))))
        results.append(CheckResult(f"mercer.orthonormality.{label}", dev, 1e-6))
    system = mercer.EigenSystem(kernels.spline1(), truncation=1000)
    pts = np.linspace(0.01, 1.0, 100)
    partial = mercer.expansion_grid(system, pts, pts)
    exact = kernels.eval_kernel(kernels.spline1(), pts[:, None], pts[None, :])
    sup = float(np.max(np.abs(partial - exact)))
    results.append(
        CheckResult(
            "mercer.expansion_sup_error",
            sup,
            2.1e-4,
            details=f"analytic tail bound {mercer.spline1_tail_bound(1000):.6e}",
        )
    )
    return results


def norm_checks(quad: QuadratureConfig = DEFAULT_QUADRATURE) -> list[CheckResult]:
    """Quadrature and series norms against the analytic exponential family."""
    worst_quad = 0.0
    worst_series = 0.0
    for beta, rho, gamma in NORM_TRIPLES:
        spec = kernels.dc(alpha=(2.0 * rho + 1.0) * beta, beta=beta)
        handle = _exp_handle(gamma)
        exact = rkhs.exp_norm_closed_form(gamma, spec.alpha, beta)
        value = rkhs.dc_norm_integral(handle, spec, quad)
        worst_quad = max(worst_quad, abs(value - exact) / exact)
        system = mercer.EigenSystem(spec, truncation=500)
        partial, _ = rkhs.dc_norm_series(handle, system, quad=quad)
        worst_series = max(worst_series, abs(partial - exact) / exact)
    results = [
        CheckResult("norm.quadrature_vs_closed_form", worst_quad, 1e-8),
        CheckResult("norm.series_vs_closed_form", worst_series, 2e-2),
    ]

    spec = kernels.dc(alpha=0.2, beta=0.3)
    alpha, beta, _ = kernels.stable_params(spec)
    t0 = 0.7
    section = rkhs.FunctionHandle(
        func=lambda t: kernels.eval_kernel(spec, t, np.full_like(np.asarray(t, float), t0)),
        deriv=lambda t: np.where(
            np.asarray(t, float) < t0, beta - alpha, -(alpha + beta)
        )
        * kernels.eval_kernel(spec, t, np.full_like(np.asarray(t, float), t0)),
        decay_hint=alpha + beta,
        corners=(t0,),
    )
    norm_sq = rkhs.dc_norm_integral(section, spec, quad)
    target = float(np.exp(-2.0 * alpha * t0))
    results.append(
        CheckResult("norm.reproducing_property", abs(norm_sq - target) / target, 1e-6)
    )

    handle = _exp_handle(1.5)
    tc_val = rkhs.tc_norm_integral(handle, kernels.tc(beta=0.7), quad)
    dc_val = rkhs.dc_norm_integral(handle, kernels.dc(alpha=0.7, beta=0.7), quad)
    results.append(
        CheckResult("norm.tc_dc_consistency", abs(tc_val - dc_val) / abs(tc_val), 1e-12)
    )
    return results


def _mc_covariance_result(name, grid, spec, sampler, seed, count):
    samples = sampler(grid, spec, seed, count)
    vals = maxent.values_matrix(samples)
    exact = kernelmat.assemble(spec, grid).values
    sample_cov = vals.T @ vals / count
    # Gaussian product-moment variance: var(x_i x_j) = K_ii K_jj + K_ij^2
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact ** 2) / count)
    ratio = float(np.max(np.abs(sample_cov - exact) / se))
    return CheckResult(name, ratio, 3.0, details=f"{count} samples, seed {seed}")


def maxent_checks(
    seed: int = DEFAULT_SEED, mc_count: int = DEFAULT_MC_COUNT
) -> list[CheckResult]:
    """Sampling constructions against the kernel matrices they must realize."""
    rng = np.random.default_rng(seed)
    worst_process = 0.0
    worst_markov = 0.0
    worst_constraint = 0.0
    entropy_margin = np.inf
    for _ in range(20):
        n = int(rng.integers(3, 21))
        spec, beta = _random_stable_spec(rng)
        grid = _random_halfline_grid(rng, n, beta)
        gram = kernelmat.assemble(spec, grid).values
        cov_process = maxent.dc_process_exact_covariance(grid, spec)
        cov_markov = maxent.dc_markov_exact_covariance(grid, spec)
        worst_process = max(worst_process, float(np.max(np.abs(cov_process - gram))))
        worst_markov = max(worst_markov, float(np.max(np.abs(cov_markov - gram))))
        report = maxent.verify_maxent_constraints(grid, spec, covariance=gram)
        worst_constraint = max(worst_constraint, report.max_abs_residual)
        ref = maxent.gaussian_log_det(gram)
        for c in (0.2, 0.5):
            control = maxent.dc_negative_control_covariance(grid, spec, c)
            entropy_margin = min(entropy_margin, ref - maxent.gaussian_log_det(control))
    results = [
        CheckResult("maxent.cumulative_covariance", worst_process, 1e-13),
        CheckResult("maxent.recursion_covariance", worst_markov, 1e-13),
        CheckResult("maxent.constraint_residuals", worst_constraint, 1e-13),
        CheckResult(
            "maxent.entropy_margin",
            float(entropy_margin),
            1e-2,
            comparison=">=",
            details="log-det gap over correlated-increment competitors",
        ),
    ]

    mc_grid = halfline_grid([0.2, 0.5, 0.9, 1.4, 2.0, 2.8])
    mc_spec = kernels.dc(alpha=0.2, beta=0.3)
    results.append(
        _mc_covariance_result(
            "maxent.mc_covariance_cumulative",
            mc_grid,
            mc_spec,
            maxent.sample_dc_process,
            seed + 3,
            mc_count,
        )
    )
    results.append(
        _mc_covariance_result(
            "maxent.mc_covariance_recursion",
            mc_grid,
            mc_spec,
            maxent.sample_dc_markov,
            seed + 4,
            mc_count,
        )
    )
    samples = maxent.sample_dc_process(mc_grid, mc_spec, seed + 5, mc_count)
    report = maxent.verify_maxent_constraints(mc_grid, mc_spec, samples=samples)
    mean_se, inc_se, term_se = report.standard_errors
    ratios = [abs(report.terminal_residual) / term_se]
    ratios.extend(np.abs(report.mean_residuals) / mean_se)
    ratios.extend(np.abs(report.increment_residuals) / inc_se)
    results.append(
        CheckResult(
            "maxent.mc_constraints",
            float(max(ratios)),
            3.0,
            details=f"{mc_count} samples, seed {seed + 5}",
        )
    )
    return results


def tridiag_checks(seed: int = DEFAULT_SEED, draws: int = 50) -> list[CheckResult]:
    """Inverse Gram structure on a pinned grid and randomized draws."""
    rng = np.random.default_rng(seed + 2)
    pts = np.sort(rng.uniform(0.0, 1.0, 10))
    grid = halfline_grid(pts)
    spec = kernels.dc(alpha=0.2, beta=0.3)
    gram = kernelmat.assemble(spec, grid).values
    dense_inv = np.linalg.inv(gram)
    off_rel = kernelmat.max_off_tridiagonal(dense_inv) / float(np.max(np.abs(dense_inv)))
    results = [
        CheckResult("tridiag.benchmark_dense_inverse_offband", off_rel, 1e-8)
    ]
    inv = kernelmat.tridiagonal_inverse(spec, grid)
    resid = float(np.max(np.abs(gram @ inv - np.eye(grid.n))))
    results.append(CheckResult("tridiag.benchmark_constructive_inverse", resid, 1e-10))

    worst = 0.0
    rng = np.random.default_rng(seed + 7)
    for _ in range(draws):
        n = int(rng.integers(3, 101))
        spec_k, beta = _random_stable_spec(rng)
        grid_k = _random_halfline_grid(rng, n, beta)
        gram_k = kernelmat.assemble(spec_k, grid_k).values
        inv_k = kernelmat.tridiagonal_inverse(spec_k, grid_k)
        worst = max(worst, float(np.max(np.abs(gram_k @ inv_k - np.eye(n)))))
    results.append(
        CheckResult(
            "tridiag.random_draws",
            worst,
            1e-10,
            details=f"worst residual over {draws} draws",
        )
    )

    ss_grid = halfline_grid(np.linspace(0.2, 2.0, 6))
    ss_gram = kernelmat.assemble(kernels.ss(alpha=0.5), ss_grid).values
    ss_inv = np.linalg.inv(ss_gram)
    ss_rel = kernelmat.max_off_tridiagonal(ss_inv) / float(np.max(np.abs(ss_inv)))
    results.append(
        CheckResult(
            "tridiag.second_order_negative_control",
            ss_rel,
            1e-3,
            comparison=">=",
            details="second-order kernel must not invert to a tridiagonal",
        )
    )
    return results


def _structured_vs_dense() -> float:
    """Largest relative coefficient gap, quasiseparable solve against dense LU.

    The LU of `np.linalg.solve` is independent of the generator Cholesky
    and of `estimator`'s dense Cholesky.  One non-uniform grid through
    t = 0 whose spacing grows from 2e-3 to 0.2, under tc, both sides of dc
    and ss.
    """
    times = 6.0 * np.linspace(0.0, 1.0, 60) ** 2
    grid = TimeGrid(times, HALFLINE)
    y = np.exp(-times) * np.cos(2.0 * times)
    gamma = 1e-4
    worst = 0.0
    for spec in (kernels.tc(0.5), kernels.dc(0.6, 0.4), kernels.dc(0.3, 0.7), kernels.ss(0.6)):
        c = kernelmat.QuasiseparableGram(spec, grid).solve(y, gamma)
        gram = kernelmat.assemble(spec, grid).values
        ref = np.linalg.solve(gram + gamma * np.eye(times.size), y)
        worst = max(worst, float(np.max(np.abs(c - ref)) / np.max(np.abs(ref))))
    return worst


def estimator_checks() -> list[CheckResult]:
    """Impulse collapse, structured solve, recovery, path monotonicity, oracle checks."""
    spec = kernels.tc(beta=0.5)
    times = np.linspace(0.0, 5.0, 51)
    outputs = np.exp(-times)
    dataset = est.Dataset(times, outputs, est.ImpulseInput(), 0.0)
    operator, _ = est.output_kernel(spec, dataset)
    gram = kernelmat.assemble(spec, TimeGrid(times, HALFLINE)).values
    results = [
        CheckResult(
            "estimator.impulse_collapses_to_gram",
            float(np.max(np.abs(operator.dense() - gram))),
            1e-12,
            details="Gram matrix rebuilt from the quasiseparable generators",
        ),
        CheckResult(
            "estimator.structured_vs_dense",
            _structured_vs_dense(),
            1e-10,
            details="max relative coefficient gap against dense LU, tc/dc/ss",
        ),
    ]

    fit = est.estimate(spec, dataset, gamma=est.GAMMA_FLOOR)
    dense = np.linspace(0.0, 5.0, 201)
    err = float(np.max(np.abs(est.reconstruct(fit, dense) - np.exp(-dense))))
    results.append(CheckResult("estimator.noise_free_recovery", err, 1e-3))

    path = operator.solve(outputs, np.logspace(-6.0, 2.0, 20))
    norms = np.linalg.norm(path, axis=1)
    ratio = float(np.max(norms[1:] / norms[:-1]))
    results.append(
        CheckResult(
            "estimator.coefficient_norm_monotone",
            ratio,
            1.0 + 1e-12,
            details="largest step ratio of |c(gamma)| on an ascending grid",
        )
    )

    conv_times = np.linspace(0.4, 3.2, 8)
    conv_data = est.Dataset(
        conv_times,
        np.zeros_like(conv_times),
        est.ExpSumInput([1.0], [0.8]),
        0.0,
    )
    reference, _ = est.output_kernel_quadrature(
        spec, conv_data, QuadratureConfig(panels=32, nodes=8)
    )
    errors = []
    for panels in (2, 4, 8):
        approx, _ = est.output_kernel_quadrature(
            spec, conv_data, QuadratureConfig(panels=panels, nodes=2)
        )
        errors.append(float(np.max(np.abs(approx - reference))))
    factor = min(errors[0] / errors[1], errors[1] / errors[2])
    results.append(
        CheckResult(
            "estimator.quadrature_self_convergence",
            float(factor),
            2.0,
            comparison=">=",
            details="error shrink factor per panel doubling",
        )
    )

    closed = est.output_kernel(spec, conv_data)[0].dense()
    results.append(
        CheckResult(
            "estimator.closed_form_vs_quadrature",
            float(np.max(np.abs(closed - reference)) / np.max(np.abs(reference))),
            1e-10,
            details="closed-form A against the 32-panel quadrature, relative to max |A|",
        )
    )
    return results


SECTIONS = (
    ("identity", lambda seed, mc_count: identity_checks()),
    ("mercer", lambda seed, mc_count: mercer_checks()),
    ("norm", lambda seed, mc_count: norm_checks()),
    ("maxent", lambda seed, mc_count: maxent_checks(seed, mc_count)),
    ("tridiag", lambda seed, mc_count: tridiag_checks(seed)),
    ("estimator", lambda seed, mc_count: estimator_checks()),
)


def run_suite(seed: int = DEFAULT_SEED, only=None):
    """Run sections in order; returns [(section, [CheckResult, ...]), ...].

    ``only`` restricts to a subset of section names but never reorders.
    """
    wanted = None if only is None else set(only)
    out = []
    for name, runner in SECTIONS:
        if wanted is not None and name not in wanted:
            continue
        out.append((name, runner(seed, DEFAULT_MC_COUNT)))
    return out


def suite_passed(report) -> bool:
    return all(check.passed for _, checks in report for check in checks)
