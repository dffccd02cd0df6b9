"""The three benchmark workloads: their inputs, operations and output checks.

Every workload is a list of operations.  An operation is one CLI command run
in-process through ``langevin_gf.cli.main`` or one library estimator call.
Its inputs are generated from the workload seed, which becomes the
``master_seed`` of every generated config (and the SeedPlan of the library
call), so the same seed gives the same inputs.

The sizes are the shipped configs scaled down so that one repetition of a
workload takes about 2 to 11 s on 2 CPUs; a benchmark run repeats it for the
requested number of seconds and reports medians.  Why each workload exists,
and which per-layer metric it should move, is in ``bench/README.md``.

Each check holds for any seed: the statistical ones use bands derived from
the seed-to-seed spread (see the tolerances below), and the deterministic
ones use tolerances far above last-ulp drift.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

# c06's acceptance band for the fitted weak order.
SLOPE_BAND = (1.6, 2.4)
# |final running average - Gibbs reference| for ergodic_dw at T = 12.5 from
# (p, q) = (2, 0).  The deviation is mostly the deterministic transient of a
# short horizon.  Over seeds 100..139 it was (mean, sd, worst): cos_sum
# -0.0295, 0.0011, 0.0321; exp_negsq 0.0001, 0.0008, 0.0018; sin_sumsq
# -0.0220, 0.0011, 0.0237.  Each band is the worst case plus six standard
# deviations, rounded up.
ERGODIC_DW_TOL = {"cos_sum": 0.04, "exp_negsq": 0.007, "sin_sumsq": 0.031}
# The linear ergodic pipeline against the closed-form Gaussian characteristic
# function; the quadrature is exact to ~1e-15, so 1e-9 admits any rounding change.
LINEAR_CF_TOL = 1e-9
# Structure guarantees of c02, c03 and c04.
DEFECT_TOL, VOLUME_TOL, EQUIV_TOL = 1e-8, 1e-6, 1e-12
# The d=2 Monte Carlo mean must lie this many standard errors from the
# exact mean of the scheme's Gaussian law.
D2_SE_BAND = 5.0

# The d=2 quadratic model of the per_state library call.
D2_STIFFNESS = ((2.0, 0.5), (0.5, 1.0))
D2_FRICTION = 1.0
D2_NOISE = 0.7
D2_Z0 = ((1.0, 0.0), (0.0, 1.0))
D2_H = 1.0 / 16.0
D2_STEPS = 16
D2_REALIZATIONS = 1024


class CheckFailed(Exception):
    """An operation's output violates its workload check."""


@dataclasses.dataclass
class Operation:
    """One CLI command or library call, with the check on its output.

    ``run`` is the timed call; it takes the tracer (or None) so a library
    call can trace the model it was built with.  ``output`` returns the bytes
    that must not depend on the thread count, and ``check`` raises
    CheckFailed when they are wrong.
    """

    name: str
    mc: bool
    run: Callable[[object], object]
    output: Callable[[object], bytes]
    check: Callable[[bytes], None]


@dataclasses.dataclass
class Workload:
    name: str
    # Trajectory steps one repetition completes (the steps_per_s numerator).
    steps: int
    operations: list[Operation]


def _read_rows(data: bytes) -> list[list[str]]:
    lines = data.decode("utf-8").splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise CheckFailed("output lacks the provenance header")
    return [line.split(",") for line in lines[2:]]


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise CheckFailed(f"non-finite value {value!r}")
    return number


def _write_config(work: Path, name: str, raw: dict) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{name}.json"
    path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return path


def _scaled_config(root: Path, source: str, seed: int, out: Path, **changes: dict) -> dict:
    raw = json.loads((root / "configs" / f"{source}.json").read_text(encoding="utf-8"))
    for section, values in changes.items():
        raw.setdefault(section, {}).update(values)
    raw.setdefault("mc", {})["master_seed"] = seed
    raw["output"] = {"directory": str(out)}
    return raw


def _cli_operation(
    work: Path,
    name: str,
    command: str,
    raw: dict,
    csv_name: str,
    mc: bool,
    check: Callable[[bytes], None],
) -> Operation:
    from langevin_gf import cli

    path = _write_config(work, name, raw)
    # Set-up parses and validates every config and builds its model.
    config = cli.load_config(path, command)
    _build_spec(config.model)
    csv_path = Path(raw["output"]["directory"]) / csv_name

    def run(tracer: object) -> Path:
        csv_path.unlink(missing_ok=True)  # a stale table must not pass the check
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(path)])
        if code != 0:
            raise CheckFailed(f"{command} exited with status {code}")
        return csv_path

    return Operation(name, mc, run, lambda out: Path(out).read_bytes(), check)


def _build_spec(model: dict):
    from langevin_gf.models import DoubleWell, LinearOscillator

    params = {k: float(v) for k, v in model.items() if k != "kind"}
    spec = {"linear": LinearOscillator, "double_well": DoubleWell}[model["kind"]](**params)
    return spec.build()


# -- weak_order_dw ----------------------------------------------------------

WEAK_ORDER_STEPS = [2.0**-k for k in range(3, 7)]
WEAK_ORDER_REFINE = 16
WEAK_ORDER_REALIZATIONS = 16384


def check_weak_order(data: bytes) -> None:
    rows = _read_rows(data)
    points = [row for row in rows if len(row) == 5]
    footers = [row for row in rows if len(row) == 3]
    if len(points) != len(WEAK_ORDER_STEPS) or len(footers) != 1:
        raise CheckFailed(f"expected {len(WEAK_ORDER_STEPS)} points and one fit row")
    for row in points:
        _finite(row[2])
        _finite(row[3])
    fitted = sum(row[4] == "mc" for row in points)
    if fitted < 2:
        raise CheckFailed(f"only {fitted} points survive censoring")
    slope = _finite(footers[0][1])
    if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
        raise CheckFailed(f"weak-order slope {slope} outside {SLOPE_BAND}")


def weak_order_dw(root: Path, work: Path, seed: int) -> Workload:
    raw = _scaled_config(
        root,
        "double_well_weak_order",
        seed,
        work / "weak_order",
        experiment={"step_sizes": WEAK_ORDER_STEPS, "test_functions": ["cos_sum"]},
        mc={"realizations": WEAK_ORDER_REALIZATIONS, "refine": WEAK_ORDER_REFINE},
    )
    per_realization = sum(round(raw["experiment"]["T"] / h) for h in WEAK_ORDER_STEPS)
    steps = WEAK_ORDER_REALIZATIONS * per_realization * (WEAK_ORDER_REFINE + 1)
    op = _cli_operation(
        work, "weak_order", "weak-order", raw, "weak_order.csv", True, check_weak_order
    )
    return Workload("weak_order_dw", steps, [op])


# -- ergodic_dw -------------------------------------------------------------

ERGODIC_DW_T = 12.5
ERGODIC_DW_REALIZATIONS = 5000


def _final_rows(rows: list[list[str]]) -> dict[tuple[str, str], list[str]]:
    """Last row per (initial, psi), which holds the final running average."""
    final: dict[tuple[str, str], list[str]] = {}
    for row in rows:
        if len(row) != 5:
            raise CheckFailed(f"malformed ergodic row {row}")
        _finite(row[0])
        _finite(row[3])
        _finite(row[4])
        key = (row[1], row[2])
        if key not in final or float(row[0]) >= float(final[key][0]):
            final[key] = row
    return final


def check_ergodic_dw(data: bytes) -> None:
    final = _final_rows(_read_rows(data))
    if sorted(psi for _, psi in final) != sorted(ERGODIC_DW_TOL):
        raise CheckFailed(f"unexpected test functions {sorted(final)}")
    for (label, psi), row in final.items():
        deviation = abs(float(row[3]) - float(row[4]))
        if deviation > ERGODIC_DW_TOL[psi]:
            raise CheckFailed(
                f"{label}/{psi}: running average {row[3]} is {deviation:.3g} from "
                f"the Gibbs reference {row[4]} (tolerance {ERGODIC_DW_TOL[psi]})"
            )


def ergodic_dw(root: Path, work: Path, seed: int) -> Workload:
    raw = _scaled_config(
        root,
        "double_well_ergodic",
        seed,
        work / "ergodic",
        experiment={"T": ERGODIC_DW_T, "initials": [[2.0, 0.0]], "initial_labels": ["initial2"]},
        mc={"realizations": ERGODIC_DW_REALIZATIONS},
    )
    n_steps = round(ERGODIC_DW_T / raw["experiment"]["step_size"])
    op = _cli_operation(
        work, "ergodic", "ergodic", raw, "ergodic.csv", True, check_ergodic_dw
    )
    return Workload("ergodic_dw", ERGODIC_DW_REALIZATIONS * n_steps, [op])


# -- linear ergodic pipeline (an operation of per_state) --------------------

# Short, so that its time is a small share of per_state: the Gauss-Hermite
# grid work is vectorised transcendental arithmetic, whose speed on a shared
# host drifts by about +-20% over minutes, more than the benchmark's bounds.
LINEAR_ERGODIC_T = 2.5
LINEAR_ERGODIC_INITIALS = [[-10.0, 1.0], [4.0, 2.0]]


def cos_sum_running_averages(model: dict, z0: list[float], h: float, n_steps: int) -> np.ndarray:
    """Closed-form running averages of E cos(p + q) along the scheme's Gaussian chain.

    For Z ~ N(mu, C), E cos(1.Z) = cos(1.mu) exp(-1'C1/2); the law sequence
    comes from ``propagate_gaussian_chain`` one step at a time.
    """
    from langevin_gf.integrators import GaussianLaw, gf2_affine_map, propagate_gaussian_chain

    amap = gf2_affine_map(_build_spec(model), h)
    law = GaussianLaw(np.array(z0, dtype=float), np.zeros((2, 2)))
    values = np.empty(n_steps + 1)
    for step in range(n_steps + 1):
        if step:
            law = propagate_gaussian_chain(amap, law, 1, h)
        values[step] = math.cos(law.mean.sum()) * math.exp(-0.5 * law.cov.sum())
    return np.cumsum(values) / np.arange(1, n_steps + 2)


def make_check_ergodic_linear(raw: dict) -> Callable[[bytes], None]:
    exp = raw["experiment"]
    h = float(exp["step_size"])
    n_steps = round(float(exp["T"]) / h)
    expected: dict[str, np.ndarray] = {}

    def check(data: bytes) -> None:
        if not expected:
            for label, z0 in zip(exp["initial_labels"], exp["initials"]):
                expected[label] = cos_sum_running_averages(raw["model"], z0, h, n_steps)
        rows = _read_rows(data)
        cos_rows = [row for row in rows if len(row) == 5 and row[2] == "cos_sum"]
        if len(cos_rows) != len(expected) * (exp["checkpoints"] + 1):
            raise CheckFailed(f"expected {exp['checkpoints'] + 1} cos_sum rows per initial")
        _final_rows(rows)
        for row in cos_rows:
            step = round(_finite(row[0]) / h)
            want = expected[row[1]][step]
            if abs(float(row[3]) - want) > LINEAR_CF_TOL:
                raise CheckFailed(
                    f"{row[1]} t={row[0]}: cos_sum running average {row[3]} differs "
                    f"from the closed form {want!r}"
                )

    return check


def linear_ergodic_operation(root: Path, work: Path, seed: int) -> tuple[Operation, int]:
    """The deterministic ergodic pipeline on the linear model, and its law-step count."""
    raw = _scaled_config(
        root,
        "linear_ergodic",
        seed,
        work / "linear_ergodic",
        experiment={
            "T": LINEAR_ERGODIC_T,
            "initials": LINEAR_ERGODIC_INITIALS,
            "initial_labels": ["initial1", "initial4"],
        },
    )
    n_steps = round(LINEAR_ERGODIC_T / raw["experiment"]["step_size"])
    op = _cli_operation(
        work, "linear_ergodic", "ergodic", raw, "ergodic.csv", False,
        make_check_ergodic_linear(raw),
    )
    return op, len(LINEAR_ERGODIC_INITIALS) * n_steps


# -- per_state --------------------------------------------------------------


def d2_exact_cos_sum() -> float:
    """E cos(sum p + sum q) after D2_STEPS steps of the scheme on the d=2 model.

    On a quadratic model the scheme is the affine map Z' = B Z + G dW; B and
    G are written out here from the update formula, independently of the
    package, and the Gaussian law is propagated exactly.
    """
    d = 2
    kmat = np.array(D2_STIFFNESS)
    mass = np.eye(d)
    sigma = D2_NOISE * np.eye(d)
    v, h = D2_FRICTION, D2_H
    evm, evp, half = math.exp(-v * h), math.exp(v * h), 0.5 * v * h
    solve = np.linalg.inv(np.eye(d) + 0.5 * h * h * kmat @ mass)
    # p1 = S^-1 (evm p - h(1+half) evm K q + (1+half) evm Sigma dW)
    bpp = evm * solve
    bpq = -h * (1.0 + half) * evm * solve @ kmat
    gp = (1.0 + half) * evm * solve @ sigma
    # q1 = q + h(1-half) evp M p1 + (h^2/2) M K q - (h/2) M Sigma dW
    gain = h * (1.0 - half) * evp * mass
    bqp = gain @ bpp
    bqq = np.eye(d) + gain @ bpq + 0.5 * h * h * mass @ kmat
    gq = gain @ gp - 0.5 * h * mass @ sigma
    bmat = np.block([[bpp, bpq], [bqp, bqq]])
    gmat = np.vstack([gp, gq])
    mean = np.concatenate([np.array(D2_Z0[0]), np.array(D2_Z0[1])])
    cov = np.zeros((2 * d, 2 * d))
    for _ in range(D2_STEPS):
        mean = bmat @ mean
        cov = bmat @ cov @ bmat.T + h * gmat @ gmat.T
    return math.cos(mean.sum()) * math.exp(-0.5 * cov.sum())


def _d2_operation(seed: int) -> Operation:
    from langevin_gf.mc import EstimatorResult, SeedPlan, mc_expectation
    from langevin_gf.models import PhaseState, make_quadratic_model
    from langevin_gf.observables import get_test_function

    model = make_quadratic_model(
        np.array(D2_STIFFNESS), np.eye(2), D2_FRICTION, D2_NOISE * np.eye(2)
    )
    z0 = PhaseState(np.array(D2_Z0[0]), np.array(D2_Z0[1]))
    plan = SeedPlan(seed)
    exact = d2_exact_cos_sum()

    def run(tracer) -> EstimatorResult:
        traced = tracer.wrap_model(model) if tracer is not None else model
        psi = get_test_function("cos_sum")
        return mc_expectation(
            traced, "gf2", psi, z0, D2_H, D2_H * D2_STEPS, D2_REALIZATIONS, plan
        )

    def output(result: EstimatorResult) -> bytes:
        return f"{result.mean.hex()} {result.std_error.hex()} {result.n_samples}".encode()

    def check(data: bytes) -> None:
        mean_hex, se_hex, count = data.decode().split()
        mean, se = float.fromhex(mean_hex), float.fromhex(se_hex)
        if int(count) != D2_REALIZATIONS or not (math.isfinite(mean) and se > 0):
            raise CheckFailed(f"malformed d=2 estimate {data!r}")
        if abs(mean - exact) > D2_SE_BAND * se:
            raise CheckFailed(
                f"d=2 estimate {mean} is {abs(mean - exact) / se:.1f} standard errors "
                f"from the exact value {exact}"
            )

    return Operation("d2_mc_expectation", True, run, output, check)


def check_structure(data: bytes) -> None:
    rows = _read_rows(data)
    if not rows:
        raise CheckFailed("structure table is empty")
    for row in rows:
        trial, defect, volume, equiv = row[0], _finite(row[2]), _finite(row[3]), _finite(row[4])
        if defect > DEFECT_TOL or volume > VOLUME_TOL or equiv > EQUIV_TOL:
            raise CheckFailed(
                f"trial {trial}: defect {defect}, volume error {volume}, "
                f"equivalence gap {equiv}"
            )


def make_check_simulate(raw: dict) -> Callable[[bytes], None]:
    h = float(raw["experiment"]["step_size"])
    n_steps = raw["experiment"]["n_steps"]

    def check(data: bytes) -> None:
        rows = _read_rows(data)
        if len(rows) != n_steps + 1:
            raise CheckFailed(f"expected {n_steps + 1} trajectory rows, got {len(rows)}")
        for k, row in enumerate(rows):
            if _finite(row[0]) != k * h:
                raise CheckFailed(f"row {k} has time {row[0]}, expected {k * h}")
            # The double well is confining: a bounded trajectory stays near the wells.
            if max(abs(_finite(value)) for value in row[1:]) > 50.0:
                raise CheckFailed(f"row {k} left the confining region: {row}")

    return check


def per_state(root: Path, work: Path, seed: int) -> Workload:
    # structure_double_well.json is not used: its trials draw h up to 0.25, and
    # for h above about 0.2 the double well leaves the numeric domain within
    # 64 steps, so the command fails for most seeds (see README.md).
    structure = _scaled_config(root, "structure_linear", seed, work / "structure")
    simulate = _scaled_config(root, "simulate_double_well", seed, work / "simulate")
    exp = structure["experiment"]
    n_simulate = simulate["experiment"]["n_steps"]
    linear_op, law_steps = linear_ergodic_operation(root, work, seed)
    # gf2_step calls (every realization-step of the library call, the volume
    # steps plus one direct step per structure trial, and the trajectory),
    # plus the Gaussian-law steps of the linear ergodic pipeline.
    steps = (
        D2_REALIZATIONS * D2_STEPS
        + exp["trials"] * (exp["volume_steps"] + 1)
        + n_simulate
        + law_steps
    )
    ops = [
        _d2_operation(seed),
        _cli_operation(
            work, "structure", "structure", structure, "structure.csv", False,
            check_structure,
        ),
        _cli_operation(
            work, "simulate", "simulate", simulate, "trajectory.csv", False,
            make_check_simulate(simulate),
        ),
        linear_op,
    ]
    return Workload("per_state", steps, ops)


WORKLOADS: dict[str, Callable[[Path, Path, int], Workload]] = {
    "weak_order_dw": weak_order_dw,
    "ergodic_dw": ergodic_dw,
    "per_state": per_state,
}
