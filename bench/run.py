"""Benchmark of the langevin_gf pipelines.

Run from the repository root:

    python3 bench/run.py --workload weak_order_dw --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's operations are repeated for ``--seconds``
seconds with tracing off and the end-to-end metrics are reported (medians
over the repetitions).  With ``--trace 1`` the untraced repetitions run as
above and give the baseline; then one repetition runs with every layer
traced, and the Monte Carlo operations run once more at the process's
thread count and once on one thread; the per-layer metrics are reported.
Every output of every repetition is checked; an operation that raises or
fails its check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (quartiles, sample counts, environment, per-operation
results).  The error rate is ``failed / attempted``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
# Minimum repetitions per run, so that every reported median has quartiles.
MIN_REPS = 3
# Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5


def _usage_error(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "LANGEVIN_GF_THREADS": os.environ["LANGEVIN_GF_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "git_sha": _git_sha(ROOT),
        "seed": seed,
    }


class Outcomes:
    """Attempted and failed operation counts, with the first failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, op_name: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"{op_name}: {type(exc).__name__}: {exc}")


def run_rep(operations, outcomes: Outcomes, tracer=None) -> dict:
    """Run each operation once, timing only the calls; then check the outputs.

    Returns the wall and CPU seconds of the timed calls and each operation's
    output bytes (None when it failed).
    """
    wall = cpu = 0.0
    handles = {}
    for op in operations:
        outcomes.attempted += 1
        t0, c0 = time.perf_counter(), _cpu_seconds()
        try:
            handles[op.name] = op.run(tracer)
        except Exception as exc:  # every failure of the program counts, none stops the run
            outcomes.fail(op.name, exc)
            handles[op.name] = None
        wall += time.perf_counter() - t0
        cpu += _cpu_seconds() - c0
    outputs = {}
    for op in operations:
        outputs[op.name] = None
        if handles[op.name] is None:
            continue
        try:
            data = op.output(handles[op.name])
            op.check(data)
            outputs[op.name] = data
        except Exception as exc:
            outcomes.fail(op.name, exc)
    return {"wall": wall, "cpu": cpu, "outputs": outputs}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of SETUP_SAMPLES fresh processes that only set the workload up."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def repeat(workload, outcomes: Outcomes, seconds: float) -> list[dict]:
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(run_rep(workload.operations, outcomes))
    return reps


def end_to_end(workload, outcomes: Outcomes, seconds: float, seed: int, setup_in_process: float):
    reps = repeat(workload, outcomes, seconds)
    setups = measure_setup(workload.name, seed)
    walls = [rep["wall"] for rep in reps]
    cpus = [rep["cpu"] for rep in reps]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = summary(walls)
    metrics = {
        "wall_s": (wall["median"], "s"),
        "steps_per_s": (workload.steps / wall["median"], "1/s"),
        "cpu_s": (summary(cpus)["median"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    details = {
        "wall_s": wall,
        "cpu_s": summary(cpus),
        "setup_s": summary(setups),
        "setup_in_process_s": setup_in_process,
        "steps_per_rep": workload.steps,
    }
    return metrics, details


def _mismatches(reference: dict, other: dict) -> int:
    return sum(other[name] != reference[name] for name in other)


def traced(workload, outcomes: Outcomes, seconds: float):
    from tracing import LAYER_METRICS, Tracer

    reps = repeat(workload, outcomes, seconds)
    reference = reps[0]["outputs"]
    base_wall = statistics.median(rep["wall"] for rep in reps)
    tracer = Tracer()
    with tracer.installed():
        traced_rep = run_rep(workload.operations, outcomes, tracer)
    layer = tracer.layer_metrics()

    mc_ops = [op for op in workload.operations if op.mc]
    threads = os.environ["LANGEVIN_GF_THREADS"]
    scaling = 0.0
    mismatches = _mismatches(reference, traced_rep["outputs"])
    if mc_ops:
        multi = run_rep(mc_ops, outcomes)
        os.environ["LANGEVIN_GF_THREADS"] = "1"
        try:
            single = run_rep(mc_ops, outcomes)
        finally:
            os.environ["LANGEVIN_GF_THREADS"] = threads
        scaling = single["wall"] / multi["wall"]
        mismatches += _mismatches(reference, single["outputs"])
    layer["mc.pool.scaling"] = scaling
    layer["trace.overhead_frac"] = traced_rep["wall"] / base_wall - 1.0
    layer["trace.bit_mismatches"] = float(mismatches)
    units = dict(LAYER_METRICS)
    metrics = {name: (layer[name], units[name]) for name, _ in LAYER_METRICS}
    details = {"untraced_wall_s": summary([rep["wall"] for rep in reps]),
               "traced_wall_s": traced_rep["wall"]}
    return metrics, details


def run_one(args) -> int:
    from workloads import WORKLOADS

    outcomes = Outcomes()
    workload = WORKLOADS[args.workload](ROOT, WORK / args.workload, args.seed)
    if args.setup_only:
        return 0
    setup_in_process = time.perf_counter() - _PROCESS_START
    if args.trace:
        metrics, details = traced(workload, outcomes, args.seconds)
    else:
        metrics, details = end_to_end(workload, outcomes, args.seconds, args.seed, setup_in_process)
    error_rate = outcomes.failed / outcomes.attempted
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} error_rate = {error_rate:.6g} ({outcomes.failed}/{outcomes.attempted})")
    details.update(
        workload=workload.name,
        error_rate=error_rate,
        failures=outcomes.messages,
        environment=environment(args.seed),
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, so set-up and peak memory stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return _usage_error(f"workload {name} exited with status {proc.returncode}")
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "langevin_gf" / "__init__.py"
    if not package.is_file() or not (ROOT / "configs").is_dir():
        return _usage_error(f"run from the repository root: {package} or configs/ is missing")
    if not 0 <= args.seed < 2**64:
        return _usage_error("--seed must be an unsigned 64-bit integer")
    os.environ["LANGEVIN_GF_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(ROOT / "src"))

    import langevin_gf
    from workloads import WORKLOADS

    if Path(langevin_gf.__file__).resolve() != package.resolve():
        return _usage_error(f"langevin_gf was imported from {langevin_gf.__file__}, not {package}")
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        return _usage_error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
