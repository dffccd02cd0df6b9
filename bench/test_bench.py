"""Tests of the benchmark's own checks and tracer.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import langevin_gf  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from langevin_gf import cli, mc, observables  # noqa: E402
from langevin_gf.models import DoubleWell, PhaseState  # noqa: E402


def _small_linear_op(tmp_path: Path) -> W.Operation:
    raw = W._scaled_config(
        ROOT,
        "linear_ergodic",
        5,
        tmp_path / "out",
        experiment={
            "T": 1.0,
            "initials": [[-10.0, 1.0]],
            "initial_labels": ["initial1"],
            "checkpoints": 8,
        },
    )
    return W._cli_operation(
        tmp_path, "linear", "ergodic", raw, "ergodic.csv", False,
        W.make_check_ergodic_linear(raw),
    )


def test_closed_form_check_accepts_the_program_output(tmp_path):
    op = _small_linear_op(tmp_path)
    op.check(op.output(op.run(None)))


def test_shifted_psi_is_caught(tmp_path, monkeypatch):
    op = _small_linear_op(tmp_path)
    cos_sum = observables.TEST_FUNCTIONS["cos_sum"]
    monkeypatch.setitem(
        observables.TEST_FUNCTIONS, "cos_sum", lambda p, q: cos_sum(p, q) + 1e-3
    )
    data = op.output(op.run(None))
    with pytest.raises(W.CheckFailed, match="closed form"):
        op.check(data)


def _replace_field(data: bytes, row_filter, column: int, value: str) -> bytes:
    lines = data.decode().splitlines()
    for i, line in enumerate(lines[2:], start=2):
        fields = line.split(",")
        if row_filter(fields):
            fields[column] = value
            lines[i] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


WEAK_ORDER_CSV = (
    b"# config_hash=x master_seed=1 version=0\n"
    b"h,psi,error,std_error_or_0,pipeline\n"
    b"0.125,cos_sum,0.01,0.0001,mc\n"
    b"0.0625,cos_sum,0.0025,0.0001,mc\n"
    b"0.03125,cos_sum,0.000625,0.0001,mc\n"
    b"0.015625,cos_sum,0.00016,0.0001,mc-censored\n"
    b"cos_sum,2.0,1.0\n"
)


def test_weak_order_check_enforces_the_slope_band():
    W.check_weak_order(WEAK_ORDER_CSV)
    flat = _replace_field(WEAK_ORDER_CSV, lambda f: len(f) == 3, 1, "1.2")
    with pytest.raises(W.CheckFailed, match="slope"):
        W.check_weak_order(flat)
    censored = WEAK_ORDER_CSV.replace(b"mc\n", b"mc-censored\n")
    with pytest.raises(W.CheckFailed, match="censoring"):
        W.check_weak_order(censored)


def test_ergodic_check_rejects_a_biased_average():
    good = (
        b"# config_hash=x master_seed=1 version=0\n"
        b"t,initial_label,psi,running_average,reference\n"
        + b"".join(
            f"12.5,initial2,{psi},0.305,0.3\n".encode() for psi in W.ERGODIC_DW_TOL
        )
    )
    W.check_ergodic_dw(good)
    biased = _replace_field(good, lambda f: f[2] == "exp_negsq", 3, "0.36")
    with pytest.raises(W.CheckFailed, match="exp_negsq"):
        W.check_ergodic_dw(biased)


def test_structure_check_rejects_a_conformal_defect():
    good = (
        b"# config_hash=x master_seed=1 version=0\n"
        b"trial,h,conformal_defect,volume_rel_error,genfun_equiv_maxdiff\n"
        b"0,0.1,1e-16,1e-12,0\n"
    )
    W.check_structure(good)
    with pytest.raises(W.CheckFailed, match="defect"):
        W.check_structure(good.replace(b"1e-16", b"1e-7"))


def test_d2_check_uses_the_exact_scheme_law():
    exact = W.d2_exact_cos_sum()
    assert 0.0 < exact < 1.0
    se = 0.01
    ok = f"{(exact + 3 * se).hex()} {se.hex()} {W.D2_REALIZATIONS}".encode()
    off = f"{(exact + 6 * se).hex()} {se.hex()} {W.D2_REALIZATIONS}".encode()
    op = W._d2_operation(1)
    op.check(ok)
    with pytest.raises(W.CheckFailed, match="standard errors"):
        op.check(off)


def test_tracer_counts_work_exactly_and_keeps_the_bits():
    model = DoubleWell(4.0, 2.0).build()
    psis = [observables.cos_sum]
    z0 = PhaseState([2.0], [0.0])
    plan = mc.SeedPlan(7)
    args = (psis, z0, 0.125, 10, 600, plan)
    _, plain = mc.mc_step_means(model, *args)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, traced = mc.mc_step_means(DoubleWell(4.0, 2.0).build(), *args)
    assert traced.tobytes() == plain.tobytes()
    metrics = tracer.layer_metrics()
    assert metrics["mc.realization_steps"] == 6000
    assert metrics["mc.normals_drawn"] == 6000
    assert metrics["mc.generators_created"] == 600
    assert metrics["mc.pool.tasks"] == 2
    assert metrics["models.force.elements"] == 6000
    assert metrics["mc.pairwise_sum.calls"] == 1


def test_tracer_restores_every_reference():
    def snapshot():
        return {
            name: dict(vars(module)) for name, module in sys.modules.items()
            if name.startswith("langevin_gf")
        }, dict(observables.TEST_FUNCTIONS), dict(mc._STEP_FUNCTIONS)

    before = snapshot()
    draw, build = mc._BatchState.draw, DoubleWell.build
    with tracing.Tracer().installed():
        assert cli.main is not before[0]["langevin_gf.cli"]["main"]
        assert mc._STEP_FUNCTIONS["gf2"] is not before[2]["gf2"]
    assert snapshot() == before
    assert mc._BatchState.draw is draw and DoubleWell.build is build


def test_self_time_excludes_enclosed_spans():
    import time

    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.span("outer", outer_body)()
    self_s, total_s, counts = tracer.merged()
    assert total_s["outer"] >= total_s["inner"] >= 0.02
    assert math.isclose(self_s["outer"], total_s["outer"] - total_s["inner"])
    assert counts["outer.calls"] == counts["inner.calls"] == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "per_state", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_names_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert langevin_gf.__file__.startswith(str(ROOT / "src"))
