from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from langevin_gf.analysis import (
    WeakOrderPoint,
    WeakOrderReport,
    _law_means,
    conformal_defect,
    ergodic_reference,
    fit_order,
    linear_ergodic_series,
    linear_weak_order,
    local_ms_error,
    mc_weak_order,
    quad2d,
    temporal_average,
    weak_error_linear,
    weak_order_report,
)
from langevin_gf.errors import (
    ArgumentError,
    CapabilityError,
    DegenerateDensityError,
    EvaluationError,
)
from langevin_gf.integrators import (
    GaussianLaw,
    gf2_affine_map,
    gf2_jacobian,
    propagate_gaussian_chain,
    simulate,
)
from langevin_gf.mc import SeedPlan, _endpoint_values, sample_increments
from langevin_gf.models import (
    DoubleWell,
    LangevinModel,
    LinearOscillator,
    PhaseState,
    gibbs_density_fn,
    make_quadratic_model,
)
from langevin_gf.observables import cos_sum, exp_negsq, sin_sumsq


def linear_model_custom(a: float, v: float, sigma: float) -> LangevinModel:
    """The linear oscillator's dynamics, built directly so that it admits sigma = 0."""
    return make_quadratic_model([[a]], [[a]], v, [[-sigma]])


def test_quad2d_constant_unit_box():
    assert_allclose(quad2d(lambda p, q: np.ones_like(p), (0.0, 1.0), 16), 1.0, rtol=1e-14)


def test_quad2d_odd_integrand():
    assert abs(quad2d(lambda p, q: p * q, (-3.0, 3.0), 40)) <= 1e-14


def test_quad2d_gaussian_oracle():
    value = quad2d(lambda p, q: np.exp(-8.0 * (p * p + q * q)), (-10.0, 10.0), 200)
    assert_allclose(value, math.pi / 8.0, atol=1e-10)


def test_quad2d_nonfinite_reports_node():
    def bad(p, q):
        out = np.ones_like(p)
        out[p > 0.5] = np.nan
        return out

    with pytest.raises(EvaluationError, match="node"):
        quad2d(bad, (-1.0, 1.0), 8)


def test_quad2d_validation():
    with pytest.raises(ArgumentError):
        quad2d(lambda p, q: p, (1.0, -1.0), 8)
    with pytest.raises(ArgumentError):
        quad2d(lambda p, q: p, (0.0, 1.0), 1)
    with pytest.raises(ArgumentError):
        quad2d(lambda p, q: 1.0, (0.0, 1.0), 8)


def test_quad2d_stabilizes_under_refinement():
    f = lambda p, q: np.exp(-8.0 * (p * p + q * q)) * np.cos(6.0 * (p + q))
    results = {n: quad2d(f, (-10.0, 10.0), n) for n in (32, 64, 128, 256)}
    deltas = [
        abs(results[64] - results[32]),
        abs(results[128] - results[64]),
        abs(results[256] - results[128]),
    ]
    assert deltas[0] > deltas[1] > deltas[2]


def test_ergodic_reference_constant_is_exact():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    ones = lambda p, q: np.ones(p.shape[:-1])
    assert ergodic_reference(model, [ones]) == [1.0]


def test_ergodic_reference_linear_closed_forms():
    # Stationary marginals are N(0, c) per coordinate with c = sigma^2/(2v).
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    c = 0.0625
    neg, cos, sin = ergodic_reference(model, [exp_negsq, cos_sum, sin_sumsq])
    assert_allclose(neg, 1.0 / (1.0 + c), rtol=1e-10)
    assert_allclose(cos, math.exp(-c), rtol=1e-10)
    # E sin(p^2+q^2) = Im[(1-2ic)^-1] = 2c/(1+4c^2).
    assert_allclose(sin, 2 * c / (1 + 4 * c * c), rtol=1e-9)


def test_ergodic_reference_pins_the_gibbs_closed_forms_to_ulps():
    # Under the Gibbs law p and q are i.i.d. N(0, s^2) with s^2 = sigma^2/(2v)
    # = 1/16 whatever a is, so p + q ~ N(0, 2s^2) and p^2 + q^2 is
    # exponential with mean 2s^2: cos_sum, exp_negsq and sin_sumsq average to
    # exp(-s^2), 1/(1+s^2) and 2s^2/(1+4s^4).
    exact = [math.exp(-1 / 16), 16 / 17, 8 / 65]
    for a in (0.5, 1.0, 2.0):
        model = LinearOscillator(a=a, v=2.0, sigma=0.5).build()
        refs = ergodic_reference(model, [cos_sum, exp_negsq, sin_sumsq])
        ulps = [abs(int(np.float64(r).view(np.int64)) - int(np.float64(e).view(np.int64)))
                for r, e in zip(refs, exact)]
        assert max(ulps) <= 4, (a, ulps)


def test_linear_gibbs_rate_follows_a_replaced_noise():
    # sigma = 1 and v = 2 give s^2 = 1/4, so exp_negsq averages to 1/(1+s^2) = 0.8;
    # a stored sigma = 0.5 would give the 16/17 of the built model.
    model = dataclasses.replace(LinearOscillator(a=1.0, v=2.0, sigma=0.5).build(), noise=[[-1.0]])
    (ref,) = ergodic_reference(model, [exp_negsq])
    assert abs(ref - 0.8) <= 1e-15


def test_double_well_beta_follows_a_replaced_friction():
    # Sigma = sqrt(2 v / beta) = 2 with v = 2 is the stationary law of beta = 1,
    # which DoubleWell(v=2, beta=1) builds with the same Sigma.
    psis = [cos_sum, exp_negsq, sin_sumsq]
    model = dataclasses.replace(DoubleWell(v=4.0, beta=2.0).build(), friction=2.0)
    built = DoubleWell(v=2.0, beta=1.0).build()
    assert ergodic_reference(model, psis) == ergodic_reference(built, psis)
    assert ergodic_reference(model, [exp_negsq]) == [0.47789887250403307]


def test_ergodic_reference_equals_the_whole_grid_quotient():
    # One density and row-block evaluation give the bits of quad2d(psi rho) / quad2d(rho).
    model = DoubleWell(v=4.0, beta=2.0).build()
    psis = [cos_sum, exp_negsq, sin_sumsq]
    rho = gibbs_density_fn(model)
    norm = quad2d(lambda p, q: rho(p[..., None], q[..., None]))
    direct = [
        quad2d(lambda p, q: np.asarray(psi(p[..., None], q[..., None]), float)
               * rho(p[..., None], q[..., None])) / norm
        for psi in psis
    ]
    assert ergodic_reference(model, psis) == direct


def test_ergodic_reference_double_well_is_sane():
    (ref,) = ergodic_reference(DoubleWell(v=4.0, beta=2.0).build(), [cos_sum])
    assert math.isfinite(ref)
    assert abs(ref) <= 1.0


@pytest.mark.parametrize(
    "spec", [LinearOscillator(a=1.0, v=2.0, sigma=0.5), DoubleWell(v=4.0, beta=2.0)]
)
def test_a_frictionless_model_has_no_ergodic_reference(spec):
    # Both builders refuse v = 0; a diagnostic copy without friction has no
    # stationary law, where the density read as flat (linear) or as the
    # frictional model's (double well).
    model = dataclasses.replace(spec.build(), friction=0.0)
    reason = "^a model without friction has no stationary law$"
    with pytest.raises(CapabilityError, match=reason):
        gibbs_density_fn(model)
    with pytest.raises(CapabilityError, match=reason):
        ergodic_reference(model, [exp_negsq])


def test_ergodic_reference_refuses_a_model_beyond_the_phase_plane():
    # The d = 2 model has a Gibbs density, but the quadrature covers (p, q) in R^2.
    model = make_quadratic_model([[2.0, 0.5], [0.5, 1.0]], np.eye(2), 1.0, 0.7 * np.eye(2))
    assert gibbs_density_fn(model)(np.zeros(2), np.zeros(2)) == 1.0
    with pytest.raises(ArgumentError, match="^the Gibbs quadrature is two-dimensional, got d = 2$"):
        ergodic_reference(model, [cos_sum])


def test_the_deterministic_pipelines_refuse_a_model_beyond_the_phase_plane():
    # A d = 2 model fails the gate with a d = 1 point as with a d = 2 one.
    model = make_quadratic_model([[2.0, 0.5], [0.5, 1.0]], np.eye(2), 1.0, 0.7 * np.eye(2))
    for z0 in (PhaseState([1.0], [0.0]), PhaseState([1.0, 0.0], [0.0, 1.0])):
        with pytest.raises(ArgumentError, match="^the deterministic weak-error pipeline is one-dimensional$"):
            weak_error_linear(model, [cos_sum], z0, 0.125, 1.0)
        with pytest.raises(ArgumentError, match="^the deterministic ergodic pipeline is one-dimensional$"):
            linear_ergodic_series(model, [cos_sum], [z0], 0.125, 4)


@pytest.mark.parametrize(
    "model",
    [
        # Written to the single-point contract: one float for the whole block.
        dataclasses.replace(
            LinearOscillator(a=1.0, v=2.0, sigma=0.5).build(),
            potential=lambda q: 0.5 * float(np.sum(q * q)),
        ),
        # Elementwise, so the values keep the trailing coordinate axis.
        dataclasses.replace(
            DoubleWell(v=4.0, beta=2.0).build(), potential=lambda q: (1.0 - q**2) ** 2 - 0.5 * q
        ),
    ],
    ids=["scalar", "point_shaped"],
)
def test_ergodic_reference_refuses_a_potential_off_the_row_contract(model):
    reason = r"^potential returned shape \(.*\) on points of shape \(25, 200, 1\); it must map"
    with pytest.raises(EvaluationError, match=reason):
        ergodic_reference(model, [exp_negsq])


def test_ergodic_reference_degenerate_density():
    model = LinearOscillator(a=1.0, v=2.0, sigma=1e-100).build()
    with pytest.raises(DegenerateDensityError):
        ergodic_reference(model, [cos_sum])


def gauss_expectation(psi, law: GaussianLaw, n_nodes: int) -> float:
    """E psi(Z) for Z ~ law on the package's Gauss-Hermite grid of n_nodes per axis.

    psi receives an (N, k) block of points and returns (N,) values; the
    result is exact, to rounding, for polynomials of total degree up to
    2 n_nodes - 1.
    """
    return float(_law_means([psi], law, n_nodes)[0])


def test_gauss_expectation_trivial_and_linear():
    law = GaussianLaw(np.array([0.5, -1.0]), np.array([[2.0, 0.7], [0.7, 1.5]]))
    assert_allclose(gauss_expectation(lambda z: np.ones(len(z)), law, 8), 1.0, rtol=1e-13)
    assert_allclose(gauss_expectation(lambda z: z[:, 0], law, 8), 0.5, rtol=1e-12)
    assert_allclose(gauss_expectation(lambda z: z[:, 1] ** 2, law, 8), 1.5 + 1.0, rtol=1e-12)


def test_gauss_expectation_polynomial_exactness():
    cov = np.array([[2.0, 0.7], [0.7, 1.5]])
    law = GaussianLaw(np.zeros(2), cov)
    cases = [
        (lambda z: z[:, 0] ** 2, cov[0, 0]),
        (lambda z: z[:, 0] * z[:, 1], cov[0, 1]),
        (lambda z: z[:, 0] ** 4, 3.0 * cov[0, 0] ** 2),
        (lambda z: z[:, 0] ** 2 * z[:, 1] ** 2, cov[0, 0] * cov[1, 1] + 2 * cov[0, 1] ** 2),
        (lambda z: z[:, 0] ** 6, 15.0 * cov[0, 0] ** 3),
    ]
    for fn, expected in cases:
        assert_allclose(gauss_expectation(fn, law, 8), expected, rtol=1e-12)


def test_gauss_expectation_characteristic_oracle():
    c = 0.015625
    law = GaussianLaw(np.zeros(2), c * np.eye(2))
    value = gauss_expectation(lambda z: np.cos(z[:, 0] + z[:, 1]), law, 64)
    assert_allclose(value, math.exp(-c), rtol=1e-12)


def test_gauss_expectation_degenerate_directions():
    law = GaussianLaw(np.array([0.0, 2.0]), np.diag([0.25, 0.0]))
    assert_allclose(gauss_expectation(lambda z: z[:, 1], law, 16), 2.0, rtol=1e-14)
    assert_allclose(gauss_expectation(lambda z: z[:, 0] ** 2, law, 16), 0.25, rtol=1e-12)
    point = GaussianLaw(np.array([1.5, -0.5]), np.zeros((2, 2)))
    assert_allclose(
        gauss_expectation(lambda z: np.cos(z[:, 0] + z[:, 1]), point, 4),
        math.cos(1.0),
        rtol=1e-14,
    )


def test_gauss_expectation_nonfinite_psi():
    law = GaussianLaw(np.zeros(2), np.eye(2))

    def bad(z):
        with np.errstate(invalid="ignore"):
            return np.log(z[:, 0])

    with pytest.raises(EvaluationError):
        gauss_expectation(bad, law, 8)


def test_linear_ergodic_series_nonfinite_psi():
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    blows_up = lambda p, q: np.where(q[..., 0] > 0.5, np.inf, 0.0)
    with pytest.raises(EvaluationError, match=r"non-finite at quadrature point \[-?\d"):
        linear_ergodic_series(osc, [cos_sum, blows_up], [PhaseState([3.0], [1.0])], 0.125, 4)


def test_weak_error_linear_zero_horizon():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    assert weak_error_linear(model, [cos_sum, sin_sumsq], z0, 0.125, 0.0).tolist() == [0.0, 0.0]


def test_weak_error_linear_second_order_ratio():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    (coarse,) = weak_error_linear(model, [cos_sum], z0, 2.0**-3, 1.0)
    (fine,) = weak_error_linear(model, [cos_sum], z0, 2.0**-5, 1.0)
    ratio = coarse / fine
    assert 16.0 / 1.5 <= ratio <= 16.0 * 1.5


def test_weak_error_linear_deterministic_limit():
    model = linear_model_custom(a=1.0, v=2.0, sigma=0.0)
    z0 = PhaseState([3.0], [1.0])
    coordinate = lambda p, q: q[..., 0]
    (report,) = linear_weak_order(model, [coordinate], z0, 1.0, [2.0**-3, 2.0**-4, 2.0**-5])
    assert 1.7 <= report.slope <= 2.3


def test_fit_order_recovers_synthetic_powers():
    hs = [2.0**-3, 2.0**-4, 2.0**-5]
    for k in (1, 2, 3):
        slope, intercept = fit_order([(h, 3.7 * h**k) for h in hs])
        assert_allclose(slope, float(k), atol=1e-12)
        assert_allclose(intercept, math.log(3.7), atol=1e-11)


def test_fit_order_validation():
    with pytest.raises(ArgumentError):
        fit_order([(0.1, 1.0)])
    with pytest.raises(ArgumentError):
        fit_order([(0.1, 1.0), (0.1, 2.0)])
    with pytest.raises(ArgumentError):
        fit_order([(0.1, 1.0), (0.2, 0.0)])
    with pytest.raises(ArgumentError):
        fit_order([(0.1, 1.0), (0.2, -2.0)])


def test_conformal_defect_closed_forms():
    v, h = 2.0, 0.125
    exact = np.diag([math.exp(-v * h), 1.0])
    assert conformal_defect(exact, v, h) == 0.0
    assert_allclose(conformal_defect(np.eye(2), v, h), 1.0 - math.exp(-v * h), rtol=1e-15)
    with pytest.raises(ArgumentError):
        conformal_defect(np.eye(3), v, h)


def test_conformal_defect_of_scheme_jacobian():
    rng = np.random.default_rng(23)
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    for _ in range(20):
        z = PhaseState(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        h = rng.uniform(1e-3, 0.25)
        dw = rng.normal(0, math.sqrt(h), 1)
        jac = gf2_jacobian(model, z, h, dw)
        assert conformal_defect(jac, model.friction, h) <= 1e-8


def test_n_step_defect_regularity_guard():
    built = DoubleWell(v=4.0, beta=2.0).build()
    model = dataclasses.replace(built, force_third=None)
    h, n = 0.01, 32
    block = sample_increments(51, n, 1, h)
    _, p, q = simulate(model, PhaseState([0.5], [-1.0]), h, block)
    total = np.eye(2)
    worst_step = 0.0
    for k in range(n):
        jac = gf2_jacobian(model, PhaseState(p[k], q[k]), h, block[k])
        total = jac @ total
        worst_step = max(worst_step, conformal_defect(jac, model.friction, h))
    bound = n * worst_step * max(1.0, float(np.linalg.norm(total, 2))) ** 2
    assert conformal_defect(total, model.friction, n * h) <= bound


def test_temporal_average_values():
    assert_allclose(temporal_average([0.0, 2.0]), [0.0, 1.0])
    assert_allclose(temporal_average(np.full(5, 3.3)), np.full(5, 3.3))
    with pytest.raises(ArgumentError):
        temporal_average([])


def test_weak_order_report_censors_noise_points():
    points = [
        WeakOrderPoint(h=0.25, error=1e-6, std_error=1e-3, pipeline="mc"),
        WeakOrderPoint(h=0.125, error=0.01, std_error=1e-4, pipeline="mc"),
        WeakOrderPoint(h=0.0625, error=0.0025, std_error=1e-4, pipeline="mc"),
    ]
    report = weak_order_report(points)
    assert report.points[0].pipeline == "mc-censored"
    assert report.points[1].pipeline == "mc"
    assert_allclose(report.slope, 2.0, atol=1e-12)


def test_weak_order_report_needs_survivors():
    points = [
        WeakOrderPoint(h=0.25, error=1e-6, std_error=1e-3, pipeline="mc"),
        WeakOrderPoint(h=0.125, error=1e-6, std_error=1e-3, pipeline="mc"),
    ]
    with pytest.raises(ArgumentError, match="censoring"):
        weak_order_report(points)


def test_weak_order_types_validate():
    with pytest.raises(ArgumentError):
        WeakOrderPoint(h=-0.1, error=1.0, std_error=0.0, pipeline="mc")
    with pytest.raises(ArgumentError):
        WeakOrderPoint(h=0.1, error=1.0, std_error=0.0, pipeline="exact")
    good = WeakOrderPoint(h=0.1, error=1.0, std_error=0.0, pipeline="deterministic")
    with pytest.raises(ArgumentError):
        WeakOrderReport(points=(good,), slope=2.0, intercept=0.0)
    with pytest.raises(ArgumentError):
        WeakOrderReport(points=(good, good), slope=2.0, intercept=0.0)


def test_linear_weak_order_slope():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    steps = [2.0**-3, 2.0**-4, 2.0**-5]
    reports = linear_weak_order(model, [cos_sum, exp_negsq], z0, 1.0, steps)
    for psi, report in zip((cos_sum, exp_negsq), reports):
        assert 1.8 <= report.slope <= 2.2
        assert all(pt.pipeline == "deterministic" for pt in report.points)
        # One psi at a time gives the same bits as the shared laws.
        assert [pt.error for pt in report.points] == [
            float(weak_error_linear(model, [psi], z0, h, 1.0)[0]) for h in steps
        ]


def test_mc_weak_order_smoke():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([-2.0], [-2.0])
    [report] = mc_weak_order(
        model, [cos_sum], z0, 0.5, [2.0**-3, 2.0**-4], 4000, 4, SeedPlan(606)
    )
    assert math.isfinite(report.slope)
    assert all(pt.pipeline == "mc" for pt in report.points)
    assert 1.0 <= report.slope <= 3.2


def test_local_ms_error_third_order():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([-2.0], [-2.0])
    report = local_ms_error(
        model, z0, [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9], 16, 4000, SeedPlan(97)
    )
    assert 2.8 <= report.slope <= 3.6


def test_local_ms_gap_deterministic_slope():
    model = linear_model_custom(a=1.0, v=2.0, sigma=0.0)
    z0 = PhaseState([3.0], [1.0])
    report = local_ms_error(
        model, z0, [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5], 16, 4, SeedPlan(1)
    )
    # Drift-only one-step gap is O(h^3), so its square fits with slope near 6.
    assert report.slope >= 5.0


def test_local_ms_gap_identical_chains():
    # One coarse step against one fine step of the same size on one path.
    model = DoubleWell(v=4.0, beta=2.0).build()

    def gap(coarse, fine):
        return np.sum((coarse.p - fine.p) ** 2 + (coarse.q - fine.q) ** 2, axis=1)

    [[res]] = _endpoint_values(
        model, "gf2", PhaseState([0.0], [1.0]), [(0.125, 1)], 64, SeedPlan(2), 1, [gap]
    )
    assert res.mean == 0.0
    assert res.std_error == 0.0


def test_linear_ergodic_series_matches_direct_composition():
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    h, n = 0.125, 16
    times, means = linear_ergodic_series(osc, [cos_sum, exp_negsq], [z0], h, n, n_nodes=32)
    means = means[0]
    assert_allclose(means[0, 0], math.cos(4.0), rtol=1e-13)
    amap = gf2_affine_map(osc, h)
    law = GaussianLaw(np.array([3.0, 1.0]), np.zeros((2, 2)))
    for step in range(n + 1):
        if step > 0:
            law = propagate_gaussian_chain(amap, law, 1, h)
        expected = gauss_expectation(
            lambda z: cos_sum(z[..., :1], z[..., 1:]), law, 32
        )
        assert_allclose(means[0, step], expected, rtol=1e-12)
    assert times[-1] == pytest.approx(2.0)


def _gaussian_oracles(mean: np.ndarray, cov: np.ndarray) -> list[float]:
    """Closed-form E cos_sum, E exp_negsq and E sin_sumsq for Z ~ N(mean, cov) in R^2."""
    one = np.ones(2)
    cos = math.cos(one @ mean) * math.exp(-0.5 * one @ cov @ one)
    damped = np.eye(2) + cov
    neg = math.exp(-0.5 * mean @ np.linalg.solve(damped, mean)) / math.sqrt(
        np.linalg.det(damped)
    )
    # E exp(i |Z|^2) = det(I - 2iC)^(-1/2) exp(i m'(I - 2iC)^(-1) m); the
    # determinant's argument lies in (-pi, 0], so the principal root applies.
    rotated = np.eye(2) - 2j * cov
    sin = np.exp(1j * mean @ np.linalg.solve(rotated, mean)) / np.sqrt(np.linalg.det(rotated))
    return [cos, neg, float(sin.imag)]


def test_linear_ergodic_series_matches_gaussian_closed_forms():
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    h, n = 2.0**-6, 1600
    initials = [PhaseState([-10.0], [1.0]), PhaseState([3.0], [1.0])]
    _, means = linear_ergodic_series(osc, [cos_sum, exp_negsq, sin_sumsq], initials, h, n)
    amap = gf2_affine_map(osc, h)
    for i, z0 in enumerate(initials):
        law = GaussianLaw(np.array([z0.p[0], z0.q[0]]), np.zeros((2, 2)))
        done = 0
        for step in (0, 1, 10, 100, 800, 1600):
            law = propagate_gaussian_chain(amap, law, step - done, h)
            done = step
            assert_allclose(means[i, :, step], _gaussian_oracles(law.mean, law.cov), atol=1e-12)


# At h = 0.25 the covariance stops moving after about 110 steps and, with 16
# nodes per axis, the quadrature points of both initials after about 260.
FREEZE_H, FREEZE_STEPS, FREEZE_NODES = 0.25, 320, 16
FREEZE_INITIALS = (PhaseState([3.0], [1.0]), PhaseState([-10.0], [1.0]))


def _composed_series(model, psis, z0, h, n_steps, n_nodes):
    """E psi(Z_n) by propagate_gaussian_chain and gauss_expectation, one step at a time."""
    amap = gf2_affine_map(model, h)
    law = GaussianLaw(np.array([z0.p[0], z0.q[0]]), np.zeros((2, 2)))
    out = np.empty((len(psis), n_steps + 1))
    for step in range(n_steps + 1):
        if step > 0:
            law = propagate_gaussian_chain(amap, law, 1, h)
        for j, psi in enumerate(psis):
            out[j, step] = gauss_expectation(
                lambda z: psi(z[..., :1], z[..., 1:]), law, n_nodes
            )
    return out


def test_linear_ergodic_series_reuse_is_bit_exact_past_the_freeze():
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    calls = []

    def counted(p, q):
        calls.append(p.shape[0])
        return cos_sum(p, q)

    psis = [counted, sin_sumsq]
    _, means = linear_ergodic_series(
        osc, psis, FREEZE_INITIALS, FREEZE_H, FREEZE_STEPS, FREEZE_NODES
    )
    # Both initials froze well before the last step, so psi ran on fewer steps.
    assert len(calls) < 2 * (FREEZE_STEPS - 40)
    for i, z0 in enumerate(FREEZE_INITIALS):
        direct = _composed_series(osc, psis, z0, FREEZE_H, FREEZE_STEPS, FREEZE_NODES)
        assert means[i].tobytes() == direct.tobytes()
        assert means[i, 0, -1] == means[i, 0, -41]


def test_linear_ergodic_series_initials_are_independent():
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    psis = [cos_sum, exp_negsq, sin_sumsq]
    times, together = linear_ergodic_series(
        osc, psis, FREEZE_INITIALS, FREEZE_H, FREEZE_STEPS, FREEZE_NODES
    )
    assert together.shape == (2, 3, FREEZE_STEPS + 1)
    for i, z0 in enumerate(FREEZE_INITIALS):
        alone_times, alone = linear_ergodic_series(
            osc, psis, [z0], FREEZE_H, FREEZE_STEPS, FREEZE_NODES
        )
        assert alone_times.tobytes() == times.tobytes()
        assert alone[0].tobytes() == together[i].tobytes()


def test_linear_ergodic_series_without_noise_is_a_point_mass():
    model = linear_model_custom(a=1.0, v=2.0, sigma=0.0)
    z0 = PhaseState([3.0], [1.0])
    h, n = 0.125, 40
    _, means = linear_ergodic_series(model, [cos_sum, sin_sumsq], [z0], h, n, n_nodes=8)
    direct = _composed_series(model, [cos_sum, sin_sumsq], z0, h, n, 8)
    assert means[0].tobytes() == direct.tobytes()
    amap = gf2_affine_map(model, h)
    z = np.array([3.0, 1.0])
    for step in range(n + 1):
        assert_allclose(means[0, 0, step], math.cos(z.sum()), rtol=1e-13, atol=1e-15)
        z = amap.B @ z


def test_linear_ergodic_series_refuses_a_negative_covariance(monkeypatch):
    import langevin_gf.analysis as analysis

    step = analysis._chain_step

    def skewed(amap, means, cov, noise_cov):
        means, cov = step(amap, means, cov, noise_cov)
        return means, cov - np.eye(2)

    monkeypatch.setattr(analysis, "_chain_step", skewed)
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    with pytest.raises(ArgumentError, match="cov has a significantly negative eigenvalue"):
        linear_ergodic_series(osc, [cos_sum], [PhaseState([3.0], [1.0])], 0.125, 4)
