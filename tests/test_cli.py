"""Config validation, CSV output contracts, and reproducibility of the CLI."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from langevin_gf import __version__
from langevin_gf.cli import (
    ExperimentConfig,
    _checkpoint_indices,
    _draw_structure_trial,
    _genfun_gap,
    _structure_rows,
    _structure_table,
    _StructureTrial,
    load_config,
    main,
    parse_config,
    run,
)
from langevin_gf.errors import ConfigError, Error, EvaluationError, StepSizeError
from langevin_gf.integrators import gf2_jacobian, gf2_step
from langevin_gf.mc import SeedPlan, derive_seed, generator_for
from langevin_gf.models import DoubleWell, LangevinModel, PhaseState


def linear_section() -> dict:
    return {"kind": "linear", "a": 1.0, "v": 2.0, "sigma": 0.5}


def double_well_section() -> dict:
    return {"kind": "double_well", "v": 4.0, "beta": 2.0}


def write_config(tmp_path, name: str, data: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header, columns, rows = lines[0], lines[1].split(","), [l.split(",") for l in lines[2:]]
    return header, columns, rows


# ---------------------------------------------------------------------------
# config parsing


def test_parse_fills_defaults():
    config = parse_config(
        {
            "model": linear_section(),
            "experiment": {
                "T": 1.0,
                "step_sizes": [0.25, 0.125],
                "test_functions": ["cos_sum"],
                "initials": [[3.0, 1.0]],
            },
        },
        "weak-order",
    )
    assert config.experiment["pipeline"] == "deterministic"
    assert config.mc["master_seed"] == 0
    assert config.mc["refine"] == 16
    assert config.mc["realizations"] == 100_000
    assert config.quadrature["box"] == [-10.0, 10.0]
    assert config.quadrature["nodes"] == 200
    assert config.output["directory"] == "."


def test_parse_default_pipeline_by_kind():
    config = parse_config(
        {
            "model": double_well_section(),
            "experiment": {
                "T": 1.0,
                "step_size": 0.25,
                "test_functions": ["cos_sum"],
                "initials": [[0.0, 0.0]],
            },
        },
        "ergodic",
    )
    assert config.experiment["pipeline"] == "mc"
    assert config.mc["realizations"] == 5000


def test_parse_reports_every_unknown_key():
    with pytest.raises(ConfigError) as info:
        parse_config(
            {
                "model": {**linear_section(), "mass": 2.0},
                "experiment": {
                    "T": 1.0,
                    "step_sizes": [0.25, 0.125],
                    "test_functions": ["cos_sum"],
                    "initials": [[3.0, 1.0]],
                    "stepsize": 0.1,
                },
                "mc": {"seeds": 3},
                "extras": {},
            },
            "weak-order",
        )
    message = str(info.value)
    for path in ("model.mass", "experiment.stepsize", "mc.seeds", "extras"):
        assert path in message


def test_parse_reports_missing_and_invalid_together():
    with pytest.raises(ConfigError) as info:
        parse_config(
            {
                "model": linear_section(),
                "experiment": {
                    "T": -1.0,
                    "test_functions": ["cos_sum", "nope"],
                },
            },
            "weak-order",
        )
    message = str(info.value)
    assert "experiment.T" in message
    assert "experiment.step_sizes" in message
    assert "experiment.test_functions" in message
    assert "experiment.initials" in message


def test_parse_rejects_non_finite_numbers(tmp_path):
    # json.loads reads NaN and Infinity; both must fail as config errors, not
    # deep inside a run with a misleading message.
    with pytest.raises(ConfigError) as info:
        parse_config(
            {
                "model": {**linear_section(), "v": math.nan},
                "experiment": {
                    "T": math.inf,
                    "step_sizes": [0.25, 0.125],
                    "test_functions": ["cos_sum"],
                    "initials": [[3.0, -math.inf]],
                },
                "quadrature": {"box": [-10.0, math.nan]},
            },
            "weak-order",
        )
    message = str(info.value)
    for path in ("model.v", "experiment.T", "experiment.initials", "quadrature.box"):
        assert path in message
    assert message.count("finite number") == 4
    # An int past the float range is refused too, not left to overflow later.
    path = tmp_path / "infinite.json"
    huge = "1" + "0" * 400
    path.write_text(
        '{"model": {"kind": "linear", "a": Infinity, "v": 2.0, "sigma": %s}}' % huge
    )
    with pytest.raises(ConfigError) as info:
        load_config(path, "structure")
    for key in ("a", "sigma"):
        assert f"model.{key}: must be a finite number" in str(info.value)


def test_parse_rejects_duplicate_step_sizes():
    with pytest.raises(ConfigError, match="step_sizes"):
        parse_config(
            {
                "model": linear_section(),
                "experiment": {
                    "T": 1.0,
                    "step_sizes": [0.25, 0.25],
                    "test_functions": ["cos_sum"],
                    "initials": [[3.0, 1.0]],
                },
            },
            "weak-order",
        )


def test_parse_rejects_deterministic_pipeline_on_double_well():
    with pytest.raises(ConfigError, match="deterministic"):
        parse_config(
            {
                "model": double_well_section(),
                "experiment": {
                    "T": 1.0,
                    "step_sizes": [0.25, 0.125],
                    "test_functions": ["cos_sum"],
                    "initials": [[0.0, 0.0]],
                    "pipeline": "deterministic",
                },
            },
            "weak-order",
        )


def test_parse_rejects_comma_in_labels():
    # A comma would split a CSV field; a repeated label gives rows that cannot be told apart.
    for labels in (["a,b", "c"], ["x", "x"]):
        with pytest.raises(ConfigError, match="initial_labels"):
            parse_config(
                {
                    "model": linear_section(),
                    "experiment": {
                        "T": 1.0,
                        "step_size": 0.25,
                        "test_functions": ["cos_sum"],
                        "initials": [[3.0, 1.0], [0.0, 2.0]],
                        "initial_labels": labels,
                    },
                },
                "ergodic",
            )


def test_parse_rejects_wrong_model_params():
    with pytest.raises(ConfigError) as info:
        parse_config(
            {"model": {"kind": "linear", "a": 1.0, "v": 2.0, "beta": 1.0}},
            "structure",
        )
    message = str(info.value)
    assert "model.sigma" in message
    assert "model.beta" in message


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json", "simulate")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad, "simulate")


def test_config_hash_ignores_output_location():
    base = {
        "model": linear_section(),
        "experiment": {
            "T": 1.0,
            "step_sizes": [0.25, 0.125],
            "test_functions": ["cos_sum"],
            "initials": [[3.0, 1.0]],
        },
    }
    one = parse_config(base, "weak-order")
    two = parse_config({**base, "output": {"directory": "elsewhere"}}, "weak-order")
    assert one.config_hash() == two.config_hash()
    shifted = parse_config(
        {**base, "mc": {"master_seed": 7}},
        "weak-order",
    )
    assert shifted.config_hash() != one.config_hash()


def test_numpy_integer_keys_are_the_python_integers_they_equal():
    base = {
        "model": linear_section(),
        "experiment": {"T": 1.0, "step_size": 0.25, "test_functions": ["cos_sum"],
                       "initials": [[3.0, 1.0]]},
    }
    ints = {"master_seed": 7, "realizations": 64, "refine": 4}
    numpy_ints = {"master_seed": np.uint64(7), "realizations": np.int64(64), "refine": np.int32(4)}
    one = parse_config({**base, "mc": ints}, "ergodic")
    two = parse_config({**base, "mc": numpy_ints}, "ergodic")
    assert one.config_hash() == two.config_hash()
    for bad in (True, 64.0):
        with pytest.raises(ConfigError, match="mc.realizations: must be an integer >= 2"):
            parse_config({**base, "mc": {"realizations": bad}}, "ergodic")


def test_checkpoint_indices_cover_endpoints():
    marks = _checkpoint_indices(8, 4)
    assert marks == [0, 2, 4, 6, 8]
    dense = _checkpoint_indices(3, 100)
    assert dense == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# weak-order command


def weak_order_config(tmp_path, out: str) -> ExperimentConfig:
    return parse_config(
        {
            "model": linear_section(),
            "experiment": {
                "T": 0.25,
                "step_sizes": [0.125, 0.0625, 0.03125],
                "test_functions": ["cos_sum", "exp_negsq"],
                "initials": [[3.0, 1.0]],
            },
            "output": {"directory": str(tmp_path / out)},
        },
        "weak-order",
    )


def test_weak_order_deterministic_csv(tmp_path):
    config = weak_order_config(tmp_path, "run")
    (path,) = run(config, "weak-order")
    header, columns, rows = read_csv(path)
    assert header.startswith(f"# config_hash={config.config_hash()} master_seed=0")
    assert header.endswith(f"version={__version__}")
    assert columns == ["h", "psi", "error", "std_error_or_0", "pipeline"]
    data, footer = rows[:-2], rows[-2:]
    assert len(data) == 6
    assert {row[4] for row in data} == {"deterministic"}
    assert {row[3] for row in data} == {"0"}
    assert [row[0] for row in footer] == ["cos_sum", "exp_negsq"]
    for row in footer:
        assert len(row) == 3
        assert 1.5 <= float(row[1]) <= 2.5


def test_weak_order_mc_csv(tmp_path):
    config = parse_config(
        {
            "model": double_well_section(),
            "experiment": {
                "T": 0.25,
                "step_sizes": [0.25, 0.125],
                "test_functions": ["cos_sum"],
                "initials": [[-2.0, -2.0]],
            },
            "mc": {"master_seed": 11, "realizations": 512, "refine": 4},
            "output": {"directory": str(tmp_path / "mc")},
        },
        "weak-order",
    )
    (path,) = run(config, "weak-order")
    _, _, rows = read_csv(path)
    data, footer = rows[:-1], rows[-1]
    assert len(data) == 2
    assert all(row[4] in ("mc", "mc-censored") for row in data)
    assert all(float(row[3]) > 0.0 for row in data)
    assert footer[0] == "cos_sum"


# ---------------------------------------------------------------------------
# ergodic command


def test_ergodic_deterministic_csv(tmp_path):
    config = parse_config(
        {
            "model": linear_section(),
            "experiment": {
                "T": 1.0,
                "step_size": 0.125,
                "test_functions": ["cos_sum"],
                "initials": [[3.0, 1.0], [0.0, 0.0]],
                "initial_labels": ["hot", "cold"],
                "checkpoints": 4,
            },
            "output": {"directory": str(tmp_path / "erg")},
        },
        "ergodic",
    )
    (path,) = run(config, "ergodic")
    _, columns, rows = read_csv(path)
    assert columns == ["t", "initial_label", "psi", "running_average", "reference"]
    assert len(rows) == 2 * 5
    hot = [row for row in rows if row[1] == "hot"]
    assert [float(row[0]) for row in hot] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert float(hot[0][3]) == pytest.approx(math.cos(4.0), abs=1e-12)
    references = {row[4] for row in rows}
    assert len(references) == 1
    c = 0.5**2 / (2.0 * 2.0)
    assert float(references.pop()) == pytest.approx(math.exp(-c), rel=1e-10)


def test_ergodic_requires_commensurate_horizon(tmp_path):
    raw = {
        "model": linear_section(),
        "experiment": {
            "T": 1.0,
            "step_size": 0.3,
            "test_functions": ["cos_sum"],
            "initials": [[1.0, 1.0]],
        },
        "output": {"directory": str(tmp_path)},
    }
    with pytest.raises(ConfigError) as info:
        parse_config(raw, "ergodic")
    assert str(info.value) == (
        "invalid configuration: experiment.T: must be an integer multiple of step_size, got h=0.3"
    )


@pytest.mark.parametrize("pipeline", ["deterministic", "mc"])
def test_weak_order_refuses_a_horizon_off_a_step_grid_when_parsed(pipeline):
    # Each pipeline would refuse T = 1 at h = 0.3 only once it ran.
    raw = {
        "model": linear_section(),
        "experiment": {
            "T": 1.0,
            "step_sizes": [0.3, 0.25],
            "test_functions": ["cos_sum"],
            "initials": [[1.0, 1.0]],
            "pipeline": pipeline,
        },
    }
    with pytest.raises(ConfigError) as info:
        parse_config(raw, "weak-order")
    assert str(info.value) == (
        "invalid configuration: experiment.T: must be an integer multiple of step_sizes, "
        "got h=0.3"
    )


def test_ergodic_reports_the_horizon_with_the_other_problems():
    raw = {
        "model": linear_section(),
        "experiment": {
            "T": 1.0,
            "step_size": 0.3,
            "checkpoints": 0,
            "test_functions": ["cos_sum"],
            "initials": [[1.0, 1.0]],
        },
    }
    with pytest.raises(ConfigError) as info:
        parse_config(raw, "ergodic")
    assert str(info.value) == (
        "invalid configuration: experiment.checkpoints: must be an integer >= 1; "
        "experiment.T: must be an integer multiple of step_size, got h=0.3"
    )


def test_ergodic_refuses_a_horizon_below_one_off_the_step_grid(tmp_path, capsys):
    # T / h = 0.5 rounds to 0 steps, which an absolute tolerance accepted.
    path = write_config(
        tmp_path,
        "ergodic.json",
        {
            "model": linear_section(),
            "experiment": {
                "T": 5e-10,
                "step_size": 1e-9,
                "test_functions": ["cos_sum"],
                "initials": [[1.0, 1.0]],
            },
            "output": {"directory": str(tmp_path / "out")},
        },
    )
    assert main(["ergodic", "--config", path]) == 1
    assert "experiment.T: must be an integer multiple of step_size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ergodic_mc_reruns_byte_identical_across_workers(tmp_path):
    def build(out: str) -> ExperimentConfig:
        return parse_config(
            {
                "model": double_well_section(),
                "experiment": {
                    "T": 0.5,
                    "step_size": 0.125,
                    "test_functions": ["cos_sum", "sin_sumsq"],
                    "initials": [[-2.0, -2.0]],
                    "checkpoints": 4,
                },
                "mc": {"master_seed": 3, "realizations": 1030},
                "output": {"directory": str(tmp_path / out)},
            },
            "ergodic",
        )

    (first,) = run(build("first"), "ergodic")
    (second,) = run(build("second"), "ergodic")
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# structure command


def test_structure_csv(tmp_path):
    config = parse_config(
        {
            "model": linear_section(),
            "experiment": {"trials": 5, "volume_steps": 8},
            "mc": {"master_seed": 9},
            "output": {"directory": str(tmp_path / "structure")},
        },
        "structure",
    )
    (path,) = run(config, "structure")
    _, columns, rows = read_csv(path)
    assert columns == [
        "trial",
        "h",
        "conformal_defect",
        "volume_rel_error",
        "genfun_equiv_maxdiff",
    ]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    for row in rows:
        h = float(row[1])
        assert 1e-3 <= h <= 0.25
        assert float(row[2]) <= 1e-8
        assert float(row[3]) <= 1e-10
        assert float(row[4]) <= 1e-12


def test_structure_double_well_volume_error_within_c03(tmp_path):
    # The shipped config includes trials whose 64-step volume factor is e^-20
    # or smaller.
    shipped = Path(__file__).resolve().parents[1] / "configs" / "structure_double_well.json"
    raw = json.loads(shipped.read_text(encoding="utf-8"))
    raw["output"] = {"directory": str(tmp_path)}
    (path,) = run(parse_config(raw, "structure"), "structure")
    _, _, rows = read_csv(path)
    assert len(rows) == 100
    assert max(float(row[3]) for row in rows) <= 1e-6


def test_structure_failure_names_the_first_failing_trial_and_step(tmp_path, capsys):
    # At master_seed 1, trial 19 draws h = 0.2396 and leaves the numeric
    # domain at step 11 of its volume chain; trial-by-trial runs raised the
    # same error, without the location.
    shipped = Path(__file__).resolve().parents[1] / "configs" / "structure_double_well.json"
    raw = json.loads(shipped.read_text(encoding="utf-8"))
    raw["mc"]["master_seed"] = 1
    raw["output"] = {"directory": str(tmp_path)}
    message = (
        "trial 19, step 11: step produced a non-finite state at h=0.23959312239747693"
    )
    with pytest.raises(EvaluationError) as info:
        run(parse_config(raw, "structure"), "structure")
    assert str(info.value) == message
    path = write_config(tmp_path, "structure.json", raw)
    assert main(["structure", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "structure.csv").exists()


def test_structure_refused_step_is_replayed_to_the_failing_trial():
    # f = c q with c = -2 / 0.125^2 makes the step matrix of the trial with
    # h = 0.125 singular; the batch refuses it, and the replay names it.
    c = -2.0 / 0.125**2
    model = LangevinModel(
        force=lambda q: c * q,
        potential=lambda q: 0.5 * c * q[..., 0] ** 2,
        force_jacobian=lambda q: np.full(np.shape(q) + (1,), c),
        mass=np.eye(1),
        friction=1.0,
        noise=np.eye(1),
        force_third=lambda q: np.zeros(np.shape(q) + (1, 1)),
    )
    trials = [
        _StructureTrial(PhaseState([0.1 * i], [0.2]), h, 0.5, np.zeros(1), np.zeros((4, 1)))
        for i, h in enumerate([0.1, 0.2, 0.125, 0.15])
    ]
    with pytest.raises(StepSizeError, match=r"at h=0\.125; ") as info:
        _structure_rows(model, trials, 4)
    assert info.value.row == 2
    reason = r"^trial 2, step 0: implicit step matrix .* at h=0\.125; "
    with pytest.raises(StepSizeError, match=reason):
        _structure_table(model, trials, 4)


def _trial_by_trial_failure(model, trials) -> tuple[type, str] | None:
    """The per-state reference for a structure failure: each trial, in order,
    through gf2_jacobian and gf2_step one state at a time, then the
    generating-function check; the one-step checks count as step 0.  The
    volume chain needs no gf2_jacobian: gf2_step refuses a non-finite
    Hessian as it does."""
    for i, trial in enumerate(trials):
        k = 0
        try:
            gf2_jacobian(model, trial.z, trial.h, trial.dw)
            state = trial.z
            for k, dw in enumerate(trial.block):
                state = gf2_step(model, state, trial.h, dw)
            k = 0
            direct = gf2_step(model, trial.z, trial.h, trial.dw)
            _genfun_gap(model, trial, direct.p, direct.q)
        except Error as exc:
            return type(exc), f"trial {i}, step {k}: {exc}"
    return None


def test_structure_failures_match_the_trial_by_trial_reference(tmp_path):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "structure_double_well.json"
    raw = json.loads(shipped.read_text(encoding="utf-8"))
    model = DoubleWell(v=raw["model"]["v"], beta=raw["model"]["beta"]).build()
    exp = raw["experiment"]
    failing = []
    for seed in range(10):
        raw["mc"]["master_seed"] = seed
        raw["output"] = {"directory": str(tmp_path / str(seed))}
        plan = SeedPlan(seed)
        trials = [
            _draw_structure_trial(model, generator_for(derive_seed(plan, i)), exp["volume_steps"])
            for i in range(exp["trials"])
        ]
        expected = _trial_by_trial_failure(model, trials)
        if expected is None:
            run(parse_config(raw, "structure"), "structure")
            continue
        failing.append(seed)
        with pytest.raises(Error) as info:
            run(parse_config(raw, "structure"), "structure")
        assert (type(info.value), str(info.value)) == expected
    assert failing == [0, 1, 2, 3, 4, 5, 8, 9]


def test_structure_rerun_byte_identical(tmp_path):
    def build(out: str) -> ExperimentConfig:
        return parse_config(
            {
                "model": double_well_section(),
                "experiment": {"trials": 4, "volume_steps": 4},
                "mc": {"master_seed": 21},
                "output": {"directory": str(tmp_path / out)},
            },
            "structure",
        )

    (one,) = run(build("one"), "structure")
    (two,) = run(build("two"), "structure")
    assert one.read_bytes() == two.read_bytes()


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_zero_steps_single_row(tmp_path):
    config = parse_config(
        {
            "model": double_well_section(),
            "experiment": {"step_size": 0.125, "n_steps": 0, "initials": [[-2.0, 1.5]]},
            "output": {"directory": str(tmp_path)},
        },
        "simulate",
    )
    (path,) = run(config, "simulate")
    _, columns, rows = read_csv(path)
    assert columns == ["t", "p_1", "q_1"]
    assert rows == [["0", "-2", "1.5"]]


def test_simulate_rows_follow_grid(tmp_path):
    config = parse_config(
        {
            "model": linear_section(),
            "experiment": {"step_size": 0.25, "n_steps": 4, "initials": [[3.0, 1.0]]},
            "mc": {"master_seed": 14},
            "output": {"directory": str(tmp_path)},
        },
        "simulate",
    )
    (path,) = run(config, "simulate")
    _, _, rows = read_csv(path)
    assert len(rows) == 5
    times = [float(row[0]) for row in rows]
    assert times == [0.0, 0.25, 0.5, 0.75, 1.0]
    states = np.array([[float(row[1]), float(row[2])] for row in rows])
    assert np.all(np.isfinite(states))
    assert not np.allclose(states[1:], states[:1])


# ---------------------------------------------------------------------------
# entry point


def test_main_runs_and_prints_path(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        "sim.json",
        {
            "model": linear_section(),
            "experiment": {"step_size": 0.25, "n_steps": 2, "initials": [[1.0, 0.0]]},
            "output": {"directory": str(tmp_path / "out")},
        },
    )
    assert main(["simulate", "--config", config_path]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("trajectory.csv")


def test_main_overrides_seed_and_out(tmp_path):
    config_path = write_config(
        tmp_path,
        "sim.json",
        {
            "model": linear_section(),
            "experiment": {"step_size": 0.25, "n_steps": 2, "initials": [[1.0, 0.0]]},
            "output": {"directory": str(tmp_path / "ignored")},
        },
    )
    out_dir = tmp_path / "chosen"
    assert (
        main(
            ["simulate", "--config", config_path, "--out", str(out_dir), "--seed", "77"]
        )
        == 0
    )
    header, _, _ = read_csv(out_dir / "trajectory.csv")
    assert "master_seed=77" in header
    assert not (tmp_path / "ignored").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    config_path = write_config(tmp_path, "bad.json", {"model": {"kind": "nope"}})
    assert main(["simulate", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "model.kind" in err


def test_output_prefix_starts_the_file_name(tmp_path, capsys):
    out_dir = tmp_path / "out"
    config_path = write_config(
        tmp_path,
        "sim.json",
        {
            "model": linear_section(),
            "experiment": {"step_size": 0.25, "n_steps": 2, "initials": [[1.0, 0.0]]},
            "output": {"directory": str(out_dir), "prefix": "run1_"},
        },
    )
    assert main(["simulate", "--config", config_path]) == 0
    assert capsys.readouterr().out == f"{out_dir / 'run1_trajectory.csv'}\n"
    assert [path.name for path in out_dir.iterdir()] == ["run1_trajectory.csv"]


def test_main_reports_an_unwritable_output_path(tmp_path, capsys):
    # Below a file, the directory cannot be made; on a directory, the file
    # cannot be opened.  Either way the command ran in full first.
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    (tmp_path / "structure.csv").mkdir()
    config = str(Path(__file__).resolve().parents[1] / "configs" / "structure_linear.json")
    for out_dir in (blocker / "sub", tmp_path):
        assert main(["structure", "--config", config, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"error: cannot write output file {out_dir / 'structure.csv'}: "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert blocker.read_text(encoding="utf-8") == ""


def test_main_rejects_bad_realizations_override(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        "wk.json",
        {
            "model": linear_section(),
            "experiment": {
                "T": 0.25,
                "step_sizes": [0.25, 0.125],
                "test_functions": ["cos_sum"],
                "initials": [[3.0, 1.0]],
            },
            "output": {"directory": str(tmp_path / "out")},
        },
    )
    assert main(["weak-order", "--config", config_path, "--realizations", "1"]) == 1
    assert "mc.realizations" in capsys.readouterr().err


_FRICTIONLESS_RUNS = {
    "deterministic ergodic": ("ergodic", {
        "T": 1.0, "step_size": 0.25, "test_functions": ["exp_negsq"],
        "initials": [[1.0, 0.0]], "pipeline": "deterministic",
    }),
    "deterministic weak-order": ("weak-order", {
        "T": 1.0, "step_sizes": [0.25, 0.125], "test_functions": ["cos_sum"],
        "initials": [[1.0, 0.0]], "pipeline": "deterministic",
    }),
    "mc ergodic": ("ergodic", {
        "T": 1.0, "step_size": 0.25, "test_functions": ["exp_negsq"],
        "initials": [[1.0, 0.0]], "pipeline": "mc",
    }),
    "structure": ("structure", {"trials": 2, "volume_steps": 2}),
}


@pytest.mark.parametrize("case", sorted(_FRICTIONLESS_RUNS))
def test_every_pipeline_refuses_a_linear_model_without_friction(tmp_path, capsys, case):
    command, experiment = _FRICTIONLESS_RUNS[case]
    out_dir = tmp_path / "out"
    config_path = write_config(
        tmp_path,
        "v0.json",
        {
            "model": {**linear_section(), "v": 0},
            "experiment": experiment,
            "mc": {"realizations": 16},
            "output": {"directory": str(out_dir)},
        },
    )
    assert main([command, "--config", config_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid configuration: model: friction v must be positive\n"
    assert not out_dir.exists()


def test_deterministic_weak_order_runs_on_a_long_horizon(tmp_path):
    # At v = 4 and T = 20 the exact law's covariance once came out with a
    # significantly negative eigenvalue.
    config = parse_config(
        {
            "model": {**linear_section(), "v": 4.0},
            "experiment": {
                "T": 20.0,
                "step_sizes": [0.25, 0.125],
                "test_functions": ["cos_sum"],
                "initials": [[3.0, 1.0]],
            },
            "output": {"directory": str(tmp_path)},
        },
        "weak-order",
    )
    (path,) = run(config, "weak-order")
    _, _, rows = read_csv(path)
    assert all(math.isfinite(float(row[2])) for row in rows[:-1])


# The shipped configs whose committed results regenerate in seconds.
# linear_ergodic is left out, although its run takes only about 5 s: its
# reference column depends on the BLAS stack.
_FAST_GOLDENS = [
    ("weak-order", "linear_weak_order", "weak_order.csv"),
    ("simulate", "simulate_double_well", "trajectory.csv"),
    ("structure", "structure_linear", "structure.csv"),
    ("structure", "structure_double_well", "structure.csv"),
]


@pytest.mark.parametrize("command, name, csv", _FAST_GOLDENS)
def test_shipped_config_regenerates_committed_result(tmp_path, command, name, csv):
    root = Path(__file__).resolve().parents[1]
    config = str(root / "configs" / f"{name}.json")
    assert main([command, "--config", config, "--out", str(tmp_path)]) == 0
    assert (tmp_path / csv).read_bytes() == (root / "results" / name / csv).read_bytes()


def test_parse_rejects_repeated_derived_labels():
    # Without initial_labels each initial is labelled p{p:g}_q{q:g}; two
    # initials that print alike would write rows that cannot be told apart.
    for initials in ([[1e-7, 0.0], [1.000001e-7, 0.0]], [[1.0, 0.0], [1.0, 0.0]]):
        with pytest.raises(ConfigError, match="experiment.initial_labels"):
            parse_config(
                {
                    "model": linear_section(),
                    "experiment": {
                        "T": 1.0,
                        "step_size": 0.25,
                        "test_functions": ["cos_sum"],
                        "initials": initials,
                    },
                },
                "ergodic",
            )


def test_parse_rejects_extra_initials_where_one_is_read():
    experiments = {
        "weak-order": {"T": 1.0, "step_sizes": [0.25, 0.125], "test_functions": ["cos_sum"]},
        "simulate": {"step_size": 0.25, "n_steps": 2},
    }
    for command, experiment in experiments.items():
        raw = {"model": linear_section(), "experiment": experiment}
        experiment["initials"] = [[3.0, 1.0]]
        assert parse_config(raw, command).experiment["initials"] == [[3.0, 1.0]]
        experiment["initials"] = [[3.0, 1.0], [0.0, 2.0]]
        message = f"experiment.initials: one entry for command '{command}', got 2"
        with pytest.raises(ConfigError, match=message):
            parse_config(raw, command)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_main_rejects_bad_seed_override(tmp_path, capsys, seed):
    out_dir = tmp_path / "out"
    config_path = write_config(
        tmp_path,
        "sim.json",
        {
            "model": linear_section(),
            "experiment": {"step_size": 0.25, "n_steps": 2, "initials": [[1.0, 0.0]]},
            "output": {"directory": str(out_dir)},
        },
    )
    assert main(["simulate", "--config", config_path, f"--seed={seed}"]) == 1
    assert "mc.master_seed" in capsys.readouterr().err
    assert not out_dir.exists()
