"""The fast demos run to completion against the package in src/, and every
package name that the demos, docs and README import resolves."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import langevin_gf

ROOT = Path(__file__).resolve().parents[1]

# ergodic_averages takes about 6 s on 2 CPUs and stays out: its Monte Carlo
# part runs 2000 realizations, one kernel task, so it never forks workers.
_FAST_DEMOS = [
    "augmented_generating_function",
    "double_well_weak_order",
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
