"""The fast demos run to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# double_well_weak_order and ergodic_averages take 15-18 s each and stay out.
_FAST_DEMOS = [
    "augmented_generating_function",
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
