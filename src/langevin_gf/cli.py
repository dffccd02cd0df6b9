"""Configuration-driven experiment runner emitting CSV tables.

Commands
--------
weak-order   weak-error curve over a list of step sizes, slope-fitted
ergodic      running temporal averages from several initial values
structure    per-trial structure metrics (conformal defect, phase volume,
             augmented/direct equivalence)
simulate     one trajectory table

Configs are UTF-8 JSON with exactly five sections: model, experiment, mc,
quadrature, output.  Unknown and repeated keys are hard errors and every
violation is reported at once, so a typo cannot silently change an
experiment.  All floating-point output uses 17 significant digits, '.'
decimal separator, comma field separator and LF line endings; re-running a
command with the same config and seed reproduces each file byte for byte
regardless of the kernel width.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_BOX,
    DEFAULT_LEGENDRE_NODES,
    conformal_defect,
    ergodic_reference,
    linear_ergodic_series,
    linear_weak_order,
    mc_weak_order,
    temporal_average,
)
from .errors import ArgumentError, ConfigError, Error
from .genfun import _augmented_step, _lift, _lower
from .integrators import _Gf2Kernel, _iterate, simulate
from .mc import SeedPlan, _steps_for, derive_seed, generator_for, mc_step_means
from .mc import sample_increments
from .models import DoubleWell, LangevinModel, LinearOscillator, PhaseState, _matvec
from .models import _finite_real, _is_integer
from .observables import TEST_FUNCTIONS, get_test_function

COMMANDS = ("weak-order", "ergodic", "structure", "simulate")


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
        payload = dataclasses.asdict(self)
        del payload["output"]
        # default=int: a numpy integer hashes as the Python integer it equals.
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=int)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _positive(value: object) -> bool:
    return _finite_real(value) and value > 0


def _integer(minimum: int, bound: float = math.inf) -> Callable[[object], bool]:
    return lambda n: _is_integer(n) and minimum <= n < bound


def _pairs(value: object) -> bool:
    return isinstance(value, list) and bool(value) and all(
        isinstance(z, list) and len(z) == 2 and all(map(_finite_real, z)) for z in value
    )


def _labels_ok(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) and s and "," not in s for s in value)


class _Key(NamedTuple):
    """A config key: its check and the problem a failed check reports, the
    commands that require it, its default (None: none), and the commands
    that read only its first entry."""

    check: Callable[[object], bool]
    problem: str
    required_by: tuple[str, ...] = ()
    default: object = None
    one_for: tuple[str, ...] = ()


# The builder of each model kind; its fields are the kind's parameters.
_MODELS = {"linear": LinearOscillator, "double_well": DoubleWell}
_ESTIMATES = ("weak-order", "ergodic")
_POSITIVE = "must be a positive finite number"

# Every key of every section.  A given key is checked whether or not the
# command reads it; the checks that read two keys are in _linked_problems.
_RULES: dict[str, dict[str, _Key]] = {
    "model": {
        "kind": _Key(
            lambda kind: kind in list(_MODELS),
            f"expected one of {sorted(_MODELS)}",
            COMMANDS,
        ),
        **{field.name: _Key(_finite_real, "must be a finite number")
           for builder in _MODELS.values() for field in dataclasses.fields(builder)},
    },
    "experiment": {
        "T": _Key(_positive, _POSITIVE, _ESTIMATES),
        "step_sizes": _Key(
            lambda hs: isinstance(hs, list) and len(hs) >= 2 and all(map(_positive, hs))
            and len(set(hs)) == len(hs),
            "need at least 2 distinct positive finite numbers",
            ("weak-order",),
        ),
        "step_size": _Key(_positive, _POSITIVE, ("ergodic", "simulate")),
        "test_functions": _Key(
            lambda names: isinstance(names, list) and bool(names)
            and all(name in list(TEST_FUNCTIONS) for name in names),
            f"non-empty subset of {sorted(TEST_FUNCTIONS)}",
            _ESTIMATES,
        ),
        "initials": _Key(
            _pairs,
            "need a non-empty list of [p, q] pairs of finite numbers",
            ("weak-order", "ergodic", "simulate"),
            one_for=("weak-order", "simulate"),
        ),
        "initial_labels": _Key(_labels_ok, "one distinct comma-free string per initial"),
        "n_steps": _Key(_integer(0), "must be a nonnegative integer", ("simulate",)),
        "checkpoints": _Key(_integer(1), "must be an integer >= 1", default=100),
        "trials": _Key(_integer(1), "must be an integer >= 1", default=100),
        "volume_steps": _Key(_integer(1), "must be an integer >= 1", default=64),
        "pipeline": _Key(
            lambda name: name in ("deterministic", "mc"), "must be 'deterministic' or 'mc'"
        ),
    },
    "mc": {
        "realizations": _Key(_integer(2), "must be an integer >= 2"),
        "master_seed": _Key(_integer(0, 2**64), "must be an unsigned 64-bit integer", default=0),
        "refine": _Key(_integer(2), "must be an integer >= 2", default=16),
    },
    "quadrature": {
        "box": _Key(
            lambda box: isinstance(box, list) and len(box) == 2 and all(map(_finite_real, box))
            and box[0] < box[1],
            "must be [lo, hi] of finite numbers with lo < hi",
            default=list(DEFAULT_BOX),
        ),
        "nodes": _Key(_integer(2), "must be an integer >= 2", default=DEFAULT_LEGENDRE_NODES),
    },
    "output": {
        "directory": _Key(lambda s: isinstance(s, str), "must be a string", default="."),
        "prefix": _Key(lambda s: isinstance(s, str), "must be a string", default=""),
    },
}


def _section_problems(name: str, section: dict, command: str) -> list[str]:
    """Unknown, missing and failed keys of one section, by its rules."""
    rules = _RULES[name]
    problems = [f"{name}.{key}: unknown key" for key in sorted(set(section) - set(rules))]
    for key, rule in rules.items():
        if key not in section:
            if command in rule.required_by:
                problems.append(f"{name}.{key}: required for command {command!r}")
        elif not rule.check(section[key]):
            problems.append(f"{name}.{key}: {rule.problem}")
        elif command in rule.one_for and len(section[key]) != 1:
            problems.append(
                f"{name}.{key}: one entry for command {command!r}, got {len(section[key])}"
            )
    return problems


def _labels(experiment: dict) -> list[str]:
    """The initial labels a run writes: the given ones, else one derived from each pair."""
    given = experiment.get("initial_labels")
    return given if given is not None else [f"p{p:g}_q{q:g}" for p, q in experiment["initials"]]


def _linked_problems(model: dict, experiment: dict, command: str) -> list[str]:
    """The checks that read two keys: model parameters per kind, labels per
    initial, the pipeline per kind, and the horizon per step size that the
    command reads."""
    out = []
    kind = model.get("kind")
    if kind in list(_MODELS):
        wanted, keys = {f.name for f in dataclasses.fields(_MODELS[kind])}, set(model) - {"kind"}
        out += [f"model.{key}: required for kind {kind!r}" for key in sorted(wanted - keys)]
        out += [f"model.{key}: not a parameter of kind {kind!r}" for key in sorted(keys - wanted)]
        if kind != "linear" and experiment.get("pipeline") == "deterministic":
            out.append(
                "experiment.pipeline: the deterministic pipeline exists only for the linear model"
            )
    if _pairs(experiment.get("initials")) and _labels_ok(experiment.get("initial_labels", [])):
        labels = _labels(experiment)
        if len(labels) != len(experiment["initials"]) or len(set(labels)) != len(labels):
            out.append(
                f"experiment.initial_labels: one distinct comma-free string per initial, "
                f"got {labels}"
            )
    key = {"weak-order": "step_sizes", "ergodic": "step_size"}.get(command)
    T, hs = experiment.get("T"), experiment.get(key)
    if key and _positive(T) and _RULES["experiment"][key].check(hs):
        for h in hs if isinstance(hs, list) else [hs]:
            try:
                _steps_for(float(h), float(T))
            except ArgumentError:
                out.append(f"experiment.T: must be an integer multiple of {key}, got h={h}")
    return out


def _refuse(problems: list[str]) -> None:
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))


def parse_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate a raw config dict for one command, reporting every problem."""
    if command not in COMMANDS:
        raise ArgumentError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    problems = [f"{key}: unknown section" for key in sorted(set(raw) - set(_RULES))]
    sections: dict[str, dict] = {}
    for name, rules in _RULES.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            problems.append(f"{name}: must be a JSON object")
            section = {}
        problems += _section_problems(name, section, command)
        sections[name] = {key: value for key, value in section.items() if key in rules}
    problems += _linked_problems(sections["model"], sections["experiment"], command)
    _refuse(problems)

    for name, rules in _RULES.items():
        for key, rule in rules.items():
            if rule.default is not None:
                sections[name].setdefault(key, copy.deepcopy(rule.default))
    if command in _ESTIMATES:
        default_pipeline = "deterministic" if sections["model"]["kind"] == "linear" else "mc"
        sections["experiment"].setdefault("pipeline", default_pipeline)
    # Order fitting needs statistical headroom; long ergodic sweeps do not.
    sections["mc"].setdefault("realizations", 100_000 if command == "weak-order" else 5000)
    return ExperimentConfig(command=command, **sections)


def load_config(path: str | Path, command: str) -> ExperimentConfig:
    """Read and validate a JSON config file; a key repeated in one object is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    def unique(pairs: list[tuple[str, object]]) -> dict:
        repeated = [key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i])]
        if repeated:
            raise ConfigError(f"config file {path} repeats the key {repeated[0]!r} in one object")
        return dict(pairs)

    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, command)


def _model(config: ExperimentConfig) -> LangevinModel:
    """The one model that every pipeline of a run reads."""
    params = {key: float(value) for key, value in config.model.items() if key != "kind"}
    try:
        return _MODELS[config.model["kind"]](**params).build()
    except ArgumentError as exc:
        raise ConfigError(f"invalid configuration: model: {exc}") from exc


def _initials(config: ExperimentConfig) -> list[tuple[str, PhaseState]]:
    pairs = config.experiment["initials"]
    return [
        (label, PhaseState([float(p)], [float(q)]))
        for label, (p, q) in zip(_labels(config.experiment), pairs)
    ]


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
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# config_hash={config.config_hash()} "
            f"master_seed={config.mc['master_seed']} version={__version__}\n"
        )
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# What a command writes: its file name, the column names and the rows.
_Table = tuple[str, Sequence[str], Sequence[Sequence[object]]]


def _run_weak_order(config: ExperimentConfig) -> _Table:
    model = _model(config)
    exp = config.experiment
    label, z0 = _initials(config)[0]
    steps = [float(h) for h in exp["step_sizes"]]
    plan = SeedPlan(config.mc["master_seed"])
    names = list(exp["test_functions"])
    psis = [get_test_function(name) for name in names]
    if exp["pipeline"] == "deterministic":
        reports = linear_weak_order(model, psis, z0, float(exp["T"]), steps)
    else:
        reports = mc_weak_order(
            model,
            psis,
            z0,
            float(exp["T"]),
            steps,
            config.mc["realizations"],
            config.mc["refine"],
            plan,
        )
    rows: list[tuple] = []
    footers: list[tuple] = []
    for name, report in zip(names, reports):
        for pt in report.points:
            rows.append((pt.h, name, pt.error, pt.std_error, pt.pipeline))
        footers.append((name, report.slope, report.intercept))
    return "weak_order.csv", ("h", "psi", "error", "std_error_or_0", "pipeline"), rows + footers


def _checkpoint_indices(n_steps: int, checkpoints: int) -> list[int]:
    marks = {round(i * n_steps / checkpoints) for i in range(checkpoints + 1)}
    return sorted(marks)


def _run_ergodic(config: ExperimentConfig) -> _Table:
    model = _model(config)
    exp = config.experiment
    h = float(exp["step_size"])
    n_steps = _steps_for(h, float(exp["T"]))
    names = list(exp["test_functions"])
    psis = [get_test_function(name) for name in names]
    references = ergodic_reference(
        model, psis, tuple(config.quadrature["box"]), config.quadrature["nodes"]
    )
    plan = SeedPlan(config.mc["master_seed"])
    marks = _checkpoint_indices(n_steps, exp["checkpoints"])
    initials = _initials(config)
    if exp["pipeline"] == "deterministic":
        times, series = linear_ergodic_series(model, psis, [z0 for _, z0 in initials], h, n_steps)
    else:
        runs = [
            mc_step_means(model, psis, z0, h, n_steps, config.mc["realizations"], plan)
            for _, z0 in initials
        ]
        times, series = runs[0][0], [means for _, means in runs]
    rows: list[tuple] = []
    for (label, _), means in zip(initials, series):
        for j, name in enumerate(names):
            running = temporal_average(means[j])
            for k in marks:
                rows.append((times[k], label, name, running[k], references[j]))
    return "ergodic.csv", ("t", "initial_label", "psi", "running_average", "reference"), rows


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


def _structure_rows(
    model: LangevinModel, trials: Sequence[_StructureTrial], volume_steps: int
) -> list[tuple]:
    """The table rows, each stage run once on one (trials, d) batch.

    A failure is raised in place as ``trial i, step k: <reason>``, keeping its
    type and attributes, with i its ``row``.  The one failure rule: by stage
    (the one-step check as step 0, the volume chain from step 0, then the
    defect rows and the genfun rows as step 0), then the earliest step, then
    the lowest trial, each stage's checks going in their own order (a refused
    step matrix before a non-finite state).  A failure with no row, which
    only a custom model raises, reads ``step k: <reason>``.
    """
    h = np.array([trial.h for trial in trials])
    kernel = _Gf2Kernel(model, h)
    p = np.stack([trial.z.p for trial in trials])
    q = np.stack([trial.z.q for trial in trials])
    dws = np.stack([trial.dw for trial in trials])
    volume_kicks = _matvec(model.noise, np.stack([trial.block for trial in trials], axis=1))
    logdet = np.zeros(len(trials))

    def step(p: np.ndarray, q: np.ndarray, kick: np.ndarray) -> tuple:
        hess, step_matrix, p1, q1 = kernel.update(p, q, kick)
        return kernel.jacobian(q, hess, step_matrix, p1), p1, q1

    def row_checks(p: np.ndarray, q: np.ndarray, dw: np.ndarray) -> tuple:
        defect = conformal_defect(jac, model.friction, h)
        x, y = _lift(model, p, q, np.array([trial.t_n for trial in trials]))
        back_p, back_q = _lower(model, *_augmented_step(model, x, y, h, dw))
        gap = np.maximum(np.abs(back_p - p1).max(axis=1), np.abs(back_q - q1).max(axis=1))
        return defect, gap

    try:
        [(jac, p1, q1)] = _iterate(step, p, q, _matvec(model.noise, dws)[None])  # as step 0
        for volume_jac, _, _ in _iterate(step, p, q, volume_kicks):
            logdet += np.linalg.slogdet(volume_jac)[1]
        [(defect, gap)] = _iterate(row_checks, p, q, dws[None])  # the row checks, as step 0
    except Error as exc:
        if exc.row is not None:
            exc.args = (f"trial {exc.row}, {exc}",)  # in place, so the type survives
        raise
    rate = model.friction * volume_steps * h * model.dim
    volume_rel = [abs(math.expm1(x)) for x in (logdet + rate).tolist()]
    return list(zip(range(len(trials)), h.tolist(), defect, volume_rel, gap))


def _run_structure(config: ExperimentConfig) -> _Table:
    """Conformal defect, phase-volume error and genfun gap per trial, each trial
    drawn from its own generator and all checked on one batch."""
    model = _model(config)
    exp = config.experiment
    plan = SeedPlan(config.mc["master_seed"])
    trials = [
        _draw_structure_trial(model, generator_for(derive_seed(plan, i)), exp["volume_steps"])
        for i in range(exp["trials"])
    ]
    return (
        "structure.csv",
        ("trial", "h", "conformal_defect", "volume_rel_error", "genfun_equiv_maxdiff"),
        _structure_rows(model, trials, exp["volume_steps"]),
    )


def _run_simulate(config: ExperimentConfig) -> _Table:
    model = _model(config)
    exp = config.experiment
    h = float(exp["step_size"])
    n_steps = exp["n_steps"]
    _, z0 = _initials(config)[0]
    plan = SeedPlan(config.mc["master_seed"])
    if n_steps > 0:
        noise = sample_increments(derive_seed(plan, 0), n_steps, model.noise_dim, h)
    else:
        noise = np.zeros((0, model.noise_dim))
    times, p, q = simulate(model, z0, h, noise)
    d = model.dim
    columns = ["t"] + [f"p_{i+1}" for i in range(d)] + [f"q_{i+1}" for i in range(d)]
    return "trajectory.csv", columns, np.column_stack((times, p, q))


_RUNNERS: dict[str, Callable[[ExperimentConfig], _Table]] = {
    "weak-order": _run_weak_order,
    "ergodic": _run_ergodic,
    "structure": _run_structure,
    "simulate": _run_simulate,
}


def run(config: ExperimentConfig, command: str) -> list[Path]:
    """Execute one command, returning the paths of the written CSV files.

    The table is written once the command has finished, to
    ``<output.directory>/<output.prefix><file name>``; a path that cannot be
    written is a ConfigError.
    """
    if command not in _RUNNERS:
        raise ArgumentError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if command != config.command:
        raise ArgumentError(
            f"config was validated for {config.command!r}, not {command!r}"
        )
    name, columns, rows = _RUNNERS[command](config)
    path = Path(config.output["directory"]) / f"{config.output['prefix']}{name}"
    try:
        _write_csv(path, config, columns, rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc
    return [path]


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
        overrides = {"master_seed": args.seed, "realizations": args.realizations}
        mc = {**config.mc, **{k: v for k, v in overrides.items() if v is not None}}
        _refuse(_section_problems("mc", mc, args.command))
        output = config.output if args.out is None else {**config.output, "directory": args.out}
        paths = run(dataclasses.replace(config, mc=mc, output=output), args.command)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
