"""The fast demos run to completion against the package in src/, and every
package name that the demos, docs and README import resolves."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType
from unittest.mock import MagicMock

import numpy as np
import pytest

import langevin_gf
from langevin_gf import cli, mc
from langevin_gf.mc import SeedPlan
from langevin_gf.models import DoubleWell, PhaseState
from langevin_gf.observables import get_test_function

ROOT = Path(__file__).resolve().parents[1]

# Every demo; ergodic_averages is the slowest, at about 4 s on 2 CPUs: 2.5 s
# of linear Gaussian-law steps and 1 s of double-well Monte Carlo.
_FAST_DEMOS = [
    "augmented_generating_function",
    "double_well_weak_order",
    "ergodic_averages",
    "linear_weak_order",
    "one_step_map",
    "reproducible_parallel",
]


@pytest.mark.parametrize("name", _FAST_DEMOS)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _package_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) for each langevin_gf import; name None for a plain import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("langevin_gf"):
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names
                if alias.name.startswith("langevin_gf")
            )
    return found


def _import_sources() -> dict[str, str]:
    """Every script no test runs in full, plus README's Python blocks."""
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for pattern in ("demos/*.py", "docs/*.py")
        for path in sorted(ROOT.glob(pattern))
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks, "README has no python block"
    sources.update({f"README.md block {i}": block for i, block in enumerate(blocks)})
    return sources


def test_plot_script_runs_on_the_committed_tables_with_matplotlib_stubbed(
    monkeypatch, tmp_path, capsys
):
    # matplotlib is optional and not installed for the tests: stubs stand in
    # for it, so the script's reading and plotting logic runs in full.
    figures = []

    def subplots(*args, squeeze=True, **kwargs):
        figures.append(MagicMock())
        axes = MagicMock() if squeeze else [[MagicMock() for _ in range(args[1])]]
        return figures[-1], axes

    pyplot = MagicMock(subplots=MagicMock(side_effect=subplots))
    monkeypatch.setitem(sys.modules, "matplotlib", MagicMock(pyplot=pyplot))
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    spec = importlib.util.spec_from_file_location("_plot_results", ROOT / "docs" / "plot_results.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    results = sorted((path, path.stat().st_mtime_ns) for path in (ROOT / "results").rglob("*"))
    for table in ("linear_weak_order/weak_order.csv", "linear_ergodic/ergodic.csv"):
        path = tmp_path / Path(table).name
        shutil.copyfile(ROOT / "results" / table, path)
        figures.clear()
        assert script.main(["plot_results.py", str(path)]) == 0
        assert capsys.readouterr().out == f"{path.with_suffix('.png')}\n"
        (figure,) = figures
        figure.savefig.assert_called_once_with(path.with_suffix(".png"), dpi=150)
    assert sorted((p, p.stat().st_mtime_ns) for p in (ROOT / "results").rglob("*")) == results


def test_demo_docs_and_readme_imports_resolve():
    missing = []
    for where, source in _import_sources().items():
        for module_name, name in _package_imports(source):
            module = importlib.import_module(module_name)
            if name is None or hasattr(module, name):
                continue
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{where}: from {module_name} import {name}")
    assert not missing, missing


def test_package_root_exports_exactly_all():
    public = {
        name for name, value in vars(langevin_gf).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(set(langevin_gf.__all__)) == len(langevin_gf.__all__)
    assert public | {"__version__"} == set(langevin_gf.__all__)


def _bench_module(name: str) -> ModuleType:
    """bench/<name>.py, loaded from its file without touching bench/."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks a class's module up here
    spec.loader.exec_module(module)
    return module


def _package_references() -> list[tuple[object, str, object]]:
    """(owner, name, value) for every name of every langevin_gf module, of
    every dict those modules hold, and of every class they define."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "langevin_gf" and not module_name.startswith("langevin_gf."):
            continue
        for name, value in vars(module).items():
            found.append((module_name, name, value))
            if isinstance(value, dict) and not name.startswith("__"):
                found += [((module_name, name), key, item) for key, item in value.items()]
            if isinstance(value, type) and value.__module__ == module_name:
                found += [(value, key, item) for key, item in vars(value).items()]
    return found


def test_benchmark_tracer_installs_on_the_package():
    # bench/tracing.py wraps package functions by name and raises if one is
    # gone; a reference it failed to put back would leak a wrapper into the
    # package.  Either breaks `bench/run.py --trace 1`.
    tracing = _bench_module("tracing")
    parse_config, before = cli.parse_config, _package_references()
    with tracing.Tracer().installed():
        assert cli.parse_config is not parse_config
    after = _package_references()
    assert [entry[:2] for entry in after] == [entry[:2] for entry in before]
    assert all(a[2] is b[2] for a, b in zip(after, before))


def _result_bits(results) -> bytes:
    flat = np.ravel(results)
    return np.array([(r.mean, r.std_error) for r in flat], dtype="<f8").tobytes()


def test_benchmark_tracer_counts_monte_carlo_work_exactly(monkeypatch):
    # The tracer counts realization-steps from the increments each
    # _advance_chunk call receives and normals from each draw.  On one worker
    # every task runs in this process, so the counts are the exact work and
    # the traced results keep every bit.
    tracing = _bench_module("tracing")
    monkeypatch.setattr(mc, "resolve_threads", lambda: 1)
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0, plan, n_real, refine = PhaseState([0.0], [1.0]), SeedPlan(3), 64, 4
    cos_sum = get_test_function("cos_sum")
    calls = [
        # One chain of 8 steps: R n steps and normals.
        (lambda: mc.mc_expectation(model, "gf2", cos_sum, z0, 0.125, 1.0, n_real, plan),
         n_real * 8, n_real * 8),
        # Coupled chains of 4 and 8 coarse steps: R sum(n) (refine + 1) steps
        # on R max(n) refine normals.
        (lambda: mc.weak_error_mc(model, [cos_sum], z0, [0.25, 0.125], 1.0, n_real, refine, plan),
         n_real * 12 * (refine + 1), n_real * 8 * refine),
    ]
    for call, realization_steps, normals in calls:
        plain = call()
        with tracing.Tracer().installed() as tracer:
            traced = call()
        assert _result_bits(traced) == _result_bits(plain)
        metrics = tracer.layer_metrics()
        assert metrics["mc.realization_steps"] == realization_steps
        assert metrics["mc.normals_drawn"] == normals


def test_failing_structure_run_never_steps_a_single_state(tmp_path):
    # The structure command names a failure from its one batch; the
    # single-state maps are not a second path.
    tracing = _bench_module("tracing")
    config = str(ROOT / "configs" / "structure_double_well.json")
    argv = ["structure", "--config", config, "--seed", "1", "--out", str(tmp_path)]
    with tracing.Tracer().installed() as tracer:
        assert cli.main(argv) == 1
    metrics = tracer.layer_metrics()
    assert metrics["integrators.gf2_step.calls"] == 0
    assert metrics["integrators.gf2_jacobian.calls"] == 0
    # The volume chain fails at step 9, before any trial's genfun check.
    assert metrics["genfun.gf2_step_augmented.calls"] == 0


@pytest.mark.parametrize("name", ["weak_order_dw", "ergodic_dw", "per_state"])
def test_benchmark_workload_operations_pass_their_checks(tmp_path, name):
    # The benchmark is not in this suite; a call shape it relies on that
    # changes would otherwise show only as a refused benchmark run.
    workload = _bench_module("workloads").WORKLOADS[name](ROOT, tmp_path, 1)
    for op in workload.operations:
        op.check(op.output(op.run(None)))
