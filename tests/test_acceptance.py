"""End-to-end guarantees of the shipped package, one test per guarantee.

Each test here pins a headline behavior: convergence orders of the scheme,
exactness of the structural identities, agreement of long-run averages with
quadrature references, moment stability, and byte-level reproducibility of
the CLI.  Tolerances are part of the contract and must not be loosened.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from langevin_gf.analysis import (
    conformal_defect,
    ergodic_reference,
    linear_ergodic_series,
    linear_weak_order,
    local_ms_error,
    mc_weak_order,
    temporal_average,
)
from langevin_gf.cli import parse_config, run
from langevin_gf.genfun import (
    AugmentedState,
    from_augmented,
    g_alpha,
    gf2_step_augmented,
    to_augmented,
)
from langevin_gf.integrators import gf2_jacobian, gf2_step
from langevin_gf.mc import SeedPlan, mc_step_means
from langevin_gf.models import (
    DoubleWell,
    LinearOscillator,
    PhaseState,
    make_quadratic_model,
)
from langevin_gf.observables import get_test_function

PSI_NAMES = ("cos_sum", "exp_negsq", "sin_sumsq")
PSIS = tuple(get_test_function(name) for name in PSI_NAMES)
STEPS_COARSE = tuple(2.0**-k for k in range(3, 8))
PAPER_INITIALS = (
    ("initial1", PhaseState([-10.0], [1.0])),
    ("initial2", PhaseState([2.0], [0.0])),
    ("initial3", PhaseState([0.0], [3.0])),
    ("initial4", PhaseState([4.0], [2.0])),
)


def linear_spec() -> LinearOscillator:
    return LinearOscillator(a=1.0, v=2.0, sigma=0.5)


def double_well_spec() -> DoubleWell:
    return DoubleWell(v=4.0, beta=2.0)


def quadratic_d2_model():
    kmat = np.array([[2.0, 0.4], [0.4, 1.0]])
    mass = np.array([[1.0, 0.1], [0.1, 0.8]])
    noise = np.array([[0.5, 0.1], [0.0, 0.4]])
    return make_quadratic_model(kmat, mass, friction=2.0, noise=noise)


def test_c01_linear_weak_order_deterministic_slope():
    start = time.perf_counter()
    z0 = PhaseState([3.0], [1.0])
    reports = linear_weak_order(linear_spec().build(), PSIS, z0, 1.0, STEPS_COARSE)
    for name, report in zip(PSI_NAMES, reports):
        assert 1.8 <= report.slope <= 2.2, f"{name}: slope {report.slope}"
    assert time.perf_counter() - start < 60.0


def test_c02_conformal_symplecticity_random_states():
    rng = np.random.default_rng(211)
    linear = linear_spec().build()
    quad = quadratic_d2_model()
    double_well = double_well_spec().build()
    for _ in range(100):
        h = float(rng.uniform(1e-3, 0.25))
        for model, tol in ((linear, 1e-8), (quad, 1e-8), (double_well, 1e-8)):
            d, m = model.dim, model.noise_dim
            z = PhaseState(rng.uniform(-2.0, 2.0, d), rng.uniform(-2.0, 2.0, d))
            dw = rng.normal(0.0, math.sqrt(h), m)
            jac = gf2_jacobian(model, z, h, dw)
            assert conformal_defect(jac, model.friction, h) <= tol


def test_c03_phase_volume_contraction_rate_up_to_1024_steps():
    h = 0.01
    rng = np.random.default_rng(31)
    models = {
        "linear": linear_spec().build(),
        "double_well": double_well_spec().build(),
        "quadratic_d2": quadratic_d2_model(),
    }
    for name, model in models.items():
        d, m = model.dim, model.noise_dim
        z = PhaseState(rng.uniform(-1.0, 1.0, d), rng.uniform(-1.0, 1.0, d))
        product = np.eye(2 * d)
        checkpoints = {2**k for k in range(11)}
        for n in range(1, 1025):
            dw = rng.normal(0.0, math.sqrt(h), m)
            product = gf2_jacobian(model, z, h, dw) @ product
            z = gf2_step(model, z, h, dw)
            if n in checkpoints:
                target = math.exp(-model.friction * n * h * d)
                rel = abs(float(np.linalg.det(product)) - target) / target
                assert rel <= 1e-6, f"{name} n={n}: rel det error {rel}"


def test_c04_augmented_route_matches_direct_map():
    rng = np.random.default_rng(41)
    models = (linear_spec().build(), double_well_spec().build(), quadratic_d2_model())
    worst = 0.0
    for trial in range(1000):
        model = models[trial % 3]
        d, m = model.dim, model.noise_dim
        z = PhaseState(rng.uniform(-2.0, 2.0, d), rng.uniform(-2.0, 2.0, d))
        t = float(rng.uniform(0.0, 1.0))
        h = float(rng.uniform(1e-3, 0.25))
        dw = rng.normal(0.0, math.sqrt(h), m)
        aug = to_augmented(z, t, model)
        xg, yg = gf2_step_augmented(model, aug.X, aug.Y, h, dw)
        back, t_next = from_augmented(AugmentedState(X=xg, Y=yg), model)
        direct = gf2_step(model, z, h, dw)
        gap = max(
            float(np.max(np.abs(back.p - direct.p))),
            float(np.max(np.abs(back.q - direct.q))),
        )
        worst = max(worst, gap)
        assert t_next == t + h
    assert worst <= 1e-12

    # Catalog coefficients with identically-zero closed forms return exact 0.0.
    for model in models:
        m = model.noise_dim
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, model.dim + 1)
            y = np.append(rng.uniform(-2.0, 2.0, model.dim), rng.uniform(0.0, 1.0))
            r1 = int(rng.integers(1, m + 1))
            r2 = int(rng.integers(1, m + 1))
            for alpha in ((r1, 0), (r1, r2), (r1, r2, r2), (r1, r2, 0), (r1, 0, r2)):
                assert g_alpha(model, alpha, x, y) == 0.0


def test_c05_linear_ergodic_averages_match_quadrature():
    model = linear_spec().build()
    h = 2.0**-6
    n_steps = round(300.0 / h)
    references = ergodic_reference(model, PSIS)
    initials = [z0 for _, z0 in PAPER_INITIALS]
    _, all_means = linear_ergodic_series(model, PSIS, initials, h, n_steps)
    for (label, _), means in zip(PAPER_INITIALS, all_means):
        for name, series, ref in zip(PSI_NAMES, means, references):
            final = temporal_average(series)[-1]
            assert abs(final - ref) <= 0.02, f"{label}/{name}: {final} vs {ref}"


@pytest.mark.slow
def test_c06_double_well_weak_order_mc_slope():
    start = time.perf_counter()
    model = double_well_spec().build()
    z0 = PhaseState([-2.0], [-2.0])
    plan = SeedPlan(600001)
    reports = mc_weak_order(model, PSIS, z0, 1.0, STEPS_COARSE, 100_000, 16, plan)
    for name, report in zip(PSI_NAMES, reports):
        fitted = [pt for pt in report.points if pt.pipeline == "mc"]
        assert len(fitted) >= 2
        assert 1.6 <= report.slope <= 2.4, f"{name}: slope {report.slope}"
    assert time.perf_counter() - start < 600.0


def test_c07_local_mean_square_error_order():
    model = double_well_spec().build()
    z0 = PhaseState([-2.0], [-2.0])
    steps = [2.0**-k for k in range(6, 11)]
    report = local_ms_error(model, z0, steps, 16, 10_000, SeedPlan(700001))
    assert report.slope >= 2.8, f"slope {report.slope}"


def test_c08_moment_stability_over_long_horizon():
    model = double_well_spec().build()
    v = model.friction

    def lyapunov_psi(p, q):
        pp, qq = p[..., 0], q[..., 0]
        potential = (1.0 - qq**2) ** 2 - 0.5 * qq
        return 0.5 * pp**2 + potential + 0.5 * v * pp * qq + 0.25 * v * v * qq**2 + 1.0

    def norm4_psi(p, q):
        return (p[..., 0] ** 2 + q[..., 0] ** 2) ** 2

    _, means = mc_step_means(
        model,
        [lyapunov_psi, norm4_psi],
        PhaseState([0.0], [1.0]),
        2.0**-6,
        round(500.0 / 2.0**-6),
        1000,
        SeedPlan(800001),
    )
    assert np.all(np.isfinite(means))
    for name, series in zip(("E V", "E |Z|^4"), means):
        ratio = float(np.max(series)) / float(np.median(series))
        assert ratio <= 5.0, f"{name}: max/median {ratio}"


@pytest.mark.slow
def test_c09_double_well_ergodic_averages_agree():
    model = double_well_spec().build()
    h = 2.0**-6
    n_steps = round(500.0 / h)
    references = ergodic_reference(model, PSIS)
    finals = np.empty((len(PAPER_INITIALS), len(PSIS)))
    for i, (label, z0) in enumerate(PAPER_INITIALS):
        _, means = mc_step_means(
            model, PSIS, z0, h, n_steps, 5000, SeedPlan(900000 + 7 * i)
        )
        for j, series in enumerate(means):
            finals[i, j] = temporal_average(series)[-1]
    for j, (name, ref) in enumerate(zip(PSI_NAMES, references)):
        column = finals[:, j]
        assert np.max(np.abs(column - ref)) <= 0.05, f"{name}: {column} vs {ref}"
        spread = float(np.max(column) - np.min(column))
        assert spread <= 0.05, f"{name}: spread {spread}"


def test_c10_cli_outputs_byte_identical_across_reruns_and_workers(tmp_path):
    raw_configs = {
        "weak-order": {
            "model": {"kind": "double_well", "v": 4.0, "beta": 2.0},
            "experiment": {
                "T": 0.25,
                "step_sizes": [0.25, 0.125],
                "test_functions": ["cos_sum"],
                "initials": [[-2.0, -2.0]],
            },
            "mc": {"master_seed": 31, "realizations": 1030, "refine": 4},
        },
        "ergodic": {
            "model": {"kind": "double_well", "v": 4.0, "beta": 2.0},
            "experiment": {
                "T": 0.5,
                "step_size": 0.125,
                "test_functions": ["cos_sum", "sin_sumsq"],
                "initials": [[-2.0, -2.0], [0.0, 3.0]],
                "checkpoints": 4,
            },
            "mc": {"master_seed": 32, "realizations": 1030},
        },
        "structure": {
            "model": {"kind": "double_well", "v": 4.0, "beta": 2.0},
            "experiment": {"trials": 6, "volume_steps": 8},
            "mc": {"master_seed": 33},
        },
        "simulate": {
            "model": {"kind": "linear", "a": 1.0, "v": 2.0, "sigma": 0.5},
            "experiment": {
                "step_size": 0.125,
                "n_steps": 64,
                "initials": [[3.0, 1.0]],
            },
            "mc": {"master_seed": 34},
        },
    }
    for command, raw in raw_configs.items():
        outputs = []
        for tag in ("a", "b", "c"):
            out_dir = tmp_path / f"{command}-{tag}"
            config = parse_config(
                {**raw, "output": {"directory": str(out_dir)}}, command
            )
            (path,) = run(config, command)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], command
