"""Configuration-driven experiment runner emitting CSV tables.

Commands
--------
weak-order   weak-error curve over a list of step sizes, slope-fitted
ergodic      running temporal averages from several initial values
structure    per-trial structure metrics (conformal defect, phase volume,
             augmented/direct equivalence)
simulate     one trajectory table

Configs are JSON with exactly five sections: model, experiment, mc,
quadrature, output.  Unknown keys are hard errors and every violation is
reported at once, so a typo cannot silently change an experiment.  All
floating-point output uses 17 significant digits, '.' decimal separator,
comma field separator and LF line endings; re-running a command with the
same config and seed reproduces each file byte for byte regardless of the
kernel width.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    conformal_defect,
    ergodic_reference,
    linear_ergodic_series,
    linear_weak_order,
    mc_weak_order,
    temporal_average,
)
from .errors import ArgumentError, ConfigError, Error
from .genfun import AugmentedState, from_augmented, gf2_step_augmented, to_augmented
from .integrators import _finite, _Gf2Kernel, _noise_kick, gf2_jacobian, gf2_step, simulate
from .mc import SeedPlan, _steps_for, derive_seed, generator_for, mc_step_means
from .mc import sample_increments
from .models import DoubleWell, LangevinModel, LinearOscillator, PhaseState
from .observables import TEST_FUNCTIONS, get_test_function

COMMANDS = ("weak-order", "ergodic", "structure", "simulate")

_SECTION_KEYS = {
    "model": {"kind", "a", "v", "sigma", "beta"},
    "experiment": {
        "T",
        "step_sizes",
        "step_size",
        "test_functions",
        "initials",
        "initial_labels",
        "n_steps",
        "checkpoints",
        "trials",
        "volume_steps",
        "pipeline",
    },
    "mc": {"realizations", "master_seed", "refine"},
    "quadrature": {"box", "nodes"},
    "output": {"directory", "prefix"},
}

_MODEL_PARAM_KEYS = {"linear": {"a", "v", "sigma"}, "double_well": {"v", "beta"}}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration: five section dicts with defaults filled in."""

    command: str
    model: dict
    experiment: dict
    mc: dict
    quadrature: dict
    output: dict

    def config_hash(self) -> str:
        payload = {
            "command": self.command,
            "model": self.model,
            "experiment": self.experiment,
            "mc": self.mc,
            "quadrature": self.quadrature,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _is_number(value: object) -> bool:
    """A finite int or float (json.loads also yields bools, NaN, inf, huge ints)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) if isinstance(value, float) else abs(value) <= sys.float_info.max


def _check_model(section: dict, problems: list[str]) -> None:
    kind = section.get("kind")
    if kind not in _MODEL_PARAM_KEYS:
        problems.append(
            f"model.kind: expected one of {sorted(_MODEL_PARAM_KEYS)}, got {kind!r}"
        )
        return
    wanted = _MODEL_PARAM_KEYS[kind]
    for key in sorted(wanted - set(section)):
        problems.append(f"model.{key}: required for kind {kind!r}")
    for key in sorted(set(section) - wanted - {"kind"}):
        problems.append(f"model.{key}: not a parameter of kind {kind!r}")
    for key in wanted & set(section):
        if not _is_number(section[key]):
            problems.append(f"model.{key}: must be a finite number")


def _check_experiment(section: dict, command: str, problems: list[str]) -> None:
    def need(key: str) -> bool:
        if key not in section:
            problems.append(f"experiment.{key}: required for command {command!r}")
            return False
        return True

    if command in ("weak-order", "ergodic"):
        if need("T") and not (_is_number(section["T"]) and section["T"] > 0):
            problems.append("experiment.T: must be a positive finite number")
        if need("test_functions"):
            names = section["test_functions"]
            if (
                not isinstance(names, list)
                or not names
                or any(n not in TEST_FUNCTIONS for n in names)
            ):
                problems.append(
                    f"experiment.test_functions: non-empty subset of {sorted(TEST_FUNCTIONS)}"
                )
    if command == "weak-order" and need("step_sizes"):
        steps = section["step_sizes"]
        ok = (
            isinstance(steps, list)
            and len(steps) >= 2
            and all(_is_number(h) and h > 0 for h in steps)
            and len(set(steps)) == len(steps)
        )
        if not ok:
            problems.append(
                "experiment.step_sizes: need at least 2 distinct positive finite numbers"
            )
    if command in ("ergodic", "simulate") and need("step_size"):
        if not (_is_number(section["step_size"]) and section["step_size"] > 0):
            problems.append("experiment.step_size: must be a positive finite number")
    if command == "simulate" and need("n_steps"):
        n = section["n_steps"]
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
            problems.append("experiment.n_steps: must be a nonnegative integer")
    if command in ("weak-order", "ergodic", "simulate") and need("initials"):
        initials = section["initials"]
        ok = (
            isinstance(initials, list)
            and initials
            and all(
                isinstance(z, list) and len(z) == 2 and all(_is_number(c) for c in z)
                for z in initials
            )
        )
        if not ok:
            problems.append(
                "experiment.initials: need a non-empty list of [p, q] pairs of finite numbers"
            )
        labels = section.get("initial_labels")
        if labels is not None:
            ok_labels = (
                isinstance(labels, list)
                and isinstance(initials, list)
                and len(labels) == len(initials)
                and all(isinstance(s, str) and s and "," not in s for s in labels)
                and len(set(labels)) == len(labels)
            )
            if not ok_labels:
                problems.append(
                    "experiment.initial_labels: one distinct comma-free string per initial"
                )
    pipeline = section.get("pipeline")
    if pipeline is not None and pipeline not in ("deterministic", "mc"):
        problems.append("experiment.pipeline: must be 'deterministic' or 'mc'")
    for key, minimum in (("checkpoints", 1), ("trials", 1), ("volume_steps", 1)):
        value = section.get(key)
        if value is not None and not (
            isinstance(value, int) and not isinstance(value, bool) and value >= minimum
        ):
            problems.append(f"experiment.{key}: must be an integer >= {minimum}")


def _check_mc(section: dict, problems: list[str]) -> None:
    real = section.get("realizations")
    if real is not None and not (
        isinstance(real, int) and not isinstance(real, bool) and real >= 2
    ):
        problems.append("mc.realizations: must be an integer >= 2")
    seed = section.get("master_seed")
    if seed is not None and not (
        isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64
    ):
        problems.append("mc.master_seed: must be an unsigned 64-bit integer")
    refine = section.get("refine")
    if refine is not None and not (
        isinstance(refine, int) and not isinstance(refine, bool) and refine >= 2
    ):
        problems.append("mc.refine: must be an integer >= 2")


def _check_quadrature(section: dict, problems: list[str]) -> None:
    box = section.get("box")
    if box is not None:
        ok = (
            isinstance(box, list)
            and len(box) == 2
            and all(_is_number(c) for c in box)
            and box[0] < box[1]
        )
        if not ok:
            problems.append(
                "quadrature.box: must be [lo, hi] of finite numbers with lo < hi"
            )
    nodes = section.get("nodes")
    if nodes is not None and not (
        isinstance(nodes, int) and not isinstance(nodes, bool) and nodes >= 2
    ):
        problems.append("quadrature.nodes: must be an integer >= 2")


def _check_output(section: dict, problems: list[str]) -> None:
    for key in ("directory", "prefix"):
        value = section.get(key)
        if value is not None and not isinstance(value, str):
            problems.append(f"output.{key}: must be a string")


def parse_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate a raw config dict for one command, reporting every problem."""
    if command not in COMMANDS:
        raise ArgumentError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    problems: list[str] = []
    for key in sorted(set(raw) - set(_SECTION_KEYS)):
        problems.append(f"{key}: unknown section")
    sections: dict[str, dict] = {}
    for name in _SECTION_KEYS:
        section = raw.get(name, {})
        if not isinstance(section, dict):
            problems.append(f"{name}: must be a JSON object")
            section = {}
        for key in sorted(set(section) - _SECTION_KEYS[name]):
            problems.append(f"{name}.{key}: unknown key")
        sections[name] = {k: v for k, v in section.items() if k in _SECTION_KEYS[name]}

    if "model" not in raw:
        problems.append("model: section is required")
    _check_model(sections["model"], problems)
    _check_experiment(sections["experiment"], command, problems)
    _check_mc(sections["mc"], problems)
    _check_quadrature(sections["quadrature"], problems)
    _check_output(sections["output"], problems)
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))

    experiment = dict(sections["experiment"])
    experiment.setdefault("checkpoints", 100)
    experiment.setdefault("trials", 100)
    experiment.setdefault("volume_steps", 64)
    if command in ("weak-order", "ergodic"):
        default_pipeline = (
            "deterministic" if sections["model"].get("kind") == "linear" else "mc"
        )
        experiment.setdefault("pipeline", default_pipeline)
        if (
            experiment["pipeline"] == "deterministic"
            and sections["model"].get("kind") != "linear"
        ):
            raise ConfigError(
                "invalid configuration: experiment.pipeline: the deterministic "
                "pipeline exists only for the linear model"
            )
    mc = dict(sections["mc"])
    mc.setdefault("master_seed", 0)
    mc.setdefault("refine", 16)
    # Order fitting needs statistical headroom; long ergodic sweeps do not.
    mc.setdefault("realizations", 100_000 if command == "weak-order" else 5000)
    quadrature = dict(sections["quadrature"])
    quadrature.setdefault("box", [-10.0, 10.0])
    quadrature.setdefault("nodes", 200)
    output = dict(sections["output"])
    output.setdefault("directory", ".")
    output.setdefault("prefix", "")
    return ExperimentConfig(
        command=command,
        model=dict(sections["model"]),
        experiment=experiment,
        mc=mc,
        quadrature=quadrature,
        output=output,
    )


def load_config(path: str | Path, command: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, command)


def _model_spec(config: ExperimentConfig) -> LinearOscillator | DoubleWell:
    section = config.model
    try:
        if section["kind"] == "linear":
            return LinearOscillator(
                a=float(section["a"]), v=float(section["v"]), sigma=float(section["sigma"])
            )
        return DoubleWell(v=float(section["v"]), beta=float(section["beta"]))
    except ArgumentError as exc:
        raise ConfigError(f"invalid configuration: model: {exc}") from exc


def _initials(config: ExperimentConfig) -> list[tuple[str, PhaseState]]:
    pairs = config.experiment["initials"]
    labels = config.experiment.get("initial_labels")
    out = []
    for i, (p, q) in enumerate(pairs):
        label = labels[i] if labels else f"p{p:g}_q{q:g}"
        out.append((label, PhaseState([float(p)], [float(q)])))
    return out


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(
    path: Path,
    config: ExperimentConfig,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# config_hash={config.config_hash()} "
            f"master_seed={config.mc['master_seed']} version={__version__}\n"
        )
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _out_path(config: ExperimentConfig, name: str) -> Path:
    prefix = config.output["prefix"]
    return Path(config.output["directory"]) / f"{prefix}{name}"


def _run_weak_order(config: ExperimentConfig) -> list[Path]:
    spec = _model_spec(config)
    exp = config.experiment
    label, z0 = _initials(config)[0]
    steps = [float(h) for h in exp["step_sizes"]]
    plan = SeedPlan(config.mc["master_seed"])
    names = list(exp["test_functions"])
    psis = [get_test_function(name) for name in names]
    if exp["pipeline"] == "deterministic":
        reports = linear_weak_order(spec, psis, z0, float(exp["T"]), steps)
    else:
        reports = [
            mc_weak_order(
                spec.build(),
                psi,
                z0,
                float(exp["T"]),
                steps,
                config.mc["realizations"],
                config.mc["refine"],
                plan,
            )
            for psi in psis
        ]
    rows: list[tuple] = []
    footers: list[tuple] = []
    for name, report in zip(names, reports):
        for pt in report.points:
            rows.append((pt.h, name, pt.error, pt.std_error, pt.pipeline))
        footers.append((name, report.slope, report.intercept))
    path = _write_csv(
        _out_path(config, "weak_order.csv"),
        config,
        ("h", "psi", "error", "std_error_or_0", "pipeline"),
        rows + footers,
    )
    return [path]


def _checkpoint_indices(n_steps: int, checkpoints: int) -> list[int]:
    marks = {round(i * n_steps / checkpoints) for i in range(checkpoints + 1)}
    return sorted(marks)


def _run_ergodic(config: ExperimentConfig) -> list[Path]:
    spec = _model_spec(config)
    exp = config.experiment
    h = float(exp["step_size"])
    T = float(exp["T"])
    try:
        n_steps = _steps_for(h, T)
    except ArgumentError:
        raise ConfigError(
            "invalid configuration: experiment.T: must be an integer multiple of step_size"
        ) from None
    names = list(exp["test_functions"])
    psis = [get_test_function(name) for name in names]
    references = ergodic_reference(
        spec, psis, tuple(config.quadrature["box"]), config.quadrature["nodes"]
    )
    plan = SeedPlan(config.mc["master_seed"])
    marks = _checkpoint_indices(n_steps, exp["checkpoints"])
    initials = _initials(config)
    if exp["pipeline"] == "deterministic":
        times, series = linear_ergodic_series(spec, psis, [z0 for _, z0 in initials], h, n_steps)
    else:
        runs = [
            mc_step_means(spec.build(), psis, z0, h, n_steps, config.mc["realizations"], plan)
            for _, z0 in initials
        ]
        times, series = runs[0][0], [means for _, means in runs]
    rows: list[tuple] = []
    for (label, _), means in zip(initials, series):
        for j, name in enumerate(names):
            running = temporal_average(means[j])
            for k in marks:
                rows.append((times[k], label, name, running[k], references[j]))
    path = _write_csv(
        _out_path(config, "ergodic.csv"),
        config,
        ("t", "initial_label", "psi", "running_average", "reference"),
        rows,
    )
    return [path]


@dataclasses.dataclass(frozen=True)
class _StructureTrial:
    """One structure trial's draws: state, step size, clock, one-step and volume increments."""

    z: PhaseState
    h: float
    t_n: float
    dw: np.ndarray
    block: np.ndarray


def _draw_structure_trial(
    model: LangevinModel, gen: np.random.Generator, volume_steps: int
) -> _StructureTrial:
    d, m = model.dim, model.noise_dim
    z = PhaseState(gen.uniform(-2.0, 2.0, d), gen.uniform(-2.0, 2.0, d))
    h = float(gen.uniform(1e-3, 0.25))
    t_n = float(gen.uniform(0.0, 1.0))
    dw = gen.normal(0.0, math.sqrt(h), m)
    block = gen.normal(0.0, math.sqrt(h), (volume_steps, m))
    return _StructureTrial(z, h, t_n, dw, block)


def _genfun_gap(
    model: LangevinModel, trial: _StructureTrial, direct_p: np.ndarray, direct_q: np.ndarray
) -> float:
    """Max difference between the augmented generating-function step and the direct map."""
    aug = to_augmented(trial.z, trial.t_n, model)
    xg, yg = gf2_step_augmented(model, aug.X, aug.Y, trial.h, trial.dw)
    back, _ = from_augmented(AugmentedState(X=xg, Y=yg), model)
    return max(
        float(np.max(np.abs(back.p - direct_p))),
        float(np.max(np.abs(back.q - direct_q))),
    )


def _replay_structure(model: LangevinModel, trials: Sequence[_StructureTrial]) -> None:
    """Run the trials one state at a time, in order, through gf2_jacobian and gf2_step.

    The batch has flagged a trial; this raises the first failure, as a
    trial-by-trial run would, naming the trial and the step of its volume
    chain (the one-step checks leave the initial state and count as step 0).
    """
    for i, trial in enumerate(trials):
        k = 0
        try:
            gf2_jacobian(model, trial.z, trial.h, trial.dw)
            state = trial.z
            for k, dw in enumerate(trial.block):
                gf2_jacobian(model, state, trial.h, dw)
                state = gf2_step(model, state, trial.h, dw)
            k = 0
            direct = gf2_step(model, trial.z, trial.h, trial.dw)
            _genfun_gap(model, trial, direct.p, direct.q)
        except Error as exc:
            raise type(exc)(f"trial {i}, step {k}: {exc}") from exc


def _structure_rows(
    model: LangevinModel, trials: Sequence[_StructureTrial], volume_steps: int
) -> list[tuple] | None:
    """The table rows, from one (trials, d) batch; None if a state left the finite numbers."""
    h = np.array([trial.h for trial in trials])
    kernel = _Gf2Kernel(model, h)
    p = np.stack([trial.z.p for trial in trials])
    q = np.stack([trial.z.q for trial in trials])
    one_step_kicks = _noise_kick(model.noise, np.stack([trial.dw for trial in trials]))
    volume_kicks = _noise_kick(model.noise, np.stack([trial.block for trial in trials]))
    logdet = np.zeros(len(trials))
    with np.errstate(all="ignore"):
        hess, step_matrix, p1, q1 = kernel.update(p, q, one_step_kicks)
        if not _finite(hess, p1, q1):
            return None
        jac = kernel.jacobian(q, hess, step_matrix, p1)
        for k in range(volume_steps):
            hess, step_matrix, p_next, q_next = kernel.update(p, q, volume_kicks[:, k])
            if not _finite(hess, p_next, q_next):
                return None
            logdet += np.linalg.slogdet(kernel.jacobian(q, hess, step_matrix, p_next))[1]
            p, q = p_next, q_next
    rows = []
    for i, trial in enumerate(trials):
        defect = conformal_defect(jac[i], model.friction, trial.h)
        rate = model.friction * volume_steps * trial.h * model.dim
        volume_rel = abs(math.expm1(logdet[i] + rate))
        equiv = _genfun_gap(model, trial, p1[i], q1[i])
        rows.append((i, trial.h, defect, volume_rel, equiv))
    return rows


def _run_structure(config: ExperimentConfig) -> list[Path]:
    """Conformal defect, phase-volume error and genfun gap per trial.

    Each trial draws its inputs from its own generator.  The one-step map,
    its Jacobian and the volume chain then run once over all trials as a
    (trials, d) batch with one step size per row; a row's bits do not depend
    on the batch, so each equals its trial stepped alone.  A failure is
    raised by replaying the trials one at a time.
    """
    spec = _model_spec(config)
    model = spec.build()
    exp = config.experiment
    plan = SeedPlan(config.mc["master_seed"])
    trials = [
        _draw_structure_trial(model, generator_for(derive_seed(plan, i)), exp["volume_steps"])
        for i in range(exp["trials"])
    ]
    try:
        rows = _structure_rows(model, trials, exp["volume_steps"])
    except Error:
        rows = None
    if rows is None:
        _replay_structure(model, trials)
    path = _write_csv(
        _out_path(config, "structure.csv"),
        config,
        ("trial", "h", "conformal_defect", "volume_rel_error", "genfun_equiv_maxdiff"),
        rows,
    )
    return [path]


def _run_simulate(config: ExperimentConfig) -> list[Path]:
    spec = _model_spec(config)
    model = spec.build()
    exp = config.experiment
    h = float(exp["step_size"])
    n_steps = exp["n_steps"]
    _, z0 = _initials(config)[0]
    plan = SeedPlan(config.mc["master_seed"])
    if n_steps > 0:
        noise = sample_increments(derive_seed(plan, 0), n_steps, model.noise_dim, h)
    else:
        noise = np.zeros((0, model.noise_dim))
    path_obj = simulate(model, "gf2", z0, h, n_steps, noise)
    d = model.dim
    columns = ["t"] + [f"p_{i+1}" for i in range(d)] + [f"q_{i+1}" for i in range(d)]
    rows = [
        (t, *state.p, *state.q)
        for t, state in zip(path_obj.times, path_obj.states)
    ]
    path = _write_csv(_out_path(config, "trajectory.csv"), config, columns, rows)
    return [path]


_RUNNERS: dict[str, Callable[[ExperimentConfig], list[Path]]] = {
    "weak-order": _run_weak_order,
    "ergodic": _run_ergodic,
    "structure": _run_structure,
    "simulate": _run_simulate,
}


def run(config: ExperimentConfig, command: str) -> list[Path]:
    """Execute one command, returning the paths of the written CSV files."""
    if command not in _RUNNERS:
        raise ArgumentError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if command != config.command:
        raise ArgumentError(
            f"config was validated for {config.command!r}, not {command!r}"
        )
    return _RUNNERS[command](config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langevin-gf",
        description="Run structure-preserving Langevin integrator experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument(
            "--realizations", type=int, default=None, help="realization count override"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.command)
        overrides: dict[str, dict] = {"mc": dict(config.mc), "output": dict(config.output)}
        if args.seed is not None:
            overrides["mc"]["master_seed"] = args.seed
        if args.realizations is not None:
            overrides["mc"]["realizations"] = args.realizations
        if args.out is not None:
            overrides["output"]["directory"] = args.out
        config = dataclasses.replace(
            config, mc=overrides["mc"], output=overrides["output"]
        )
        if args.seed is not None or args.realizations is not None:
            problems: list[str] = []
            _check_mc(config.mc, problems)
            if problems:
                raise ConfigError("invalid configuration: " + "; ".join(problems))
        paths = run(config, args.command)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
