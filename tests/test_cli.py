"""Config validation, CSV output contracts, and reproducibility of the CLI."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from langevin_gf import __version__, cli, genfun
from langevin_gf.analysis import conformal_defect
from langevin_gf.cli import (
    ExperimentConfig,
    _checkpoint_indices,
    _draw_structure_trial,
    _structure_rows,
    _StructureTrial,
    load_config,
    main,
    parse_config,
    run,
)
from langevin_gf.errors import ConfigError, Error, EvaluationError, RangeError, StepSizeError
from langevin_gf.genfun import AugmentedState, from_augmented, gf2_step_augmented, to_augmented
from langevin_gf.integrators import gf2_jacobian, gf2_step
from langevin_gf.mc import SeedPlan, derive_seed, generator_for
from langevin_gf.models import DoubleWell, LangevinModel, LinearOscillator, PhaseState
from test_integrators import _Refused


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


def test_main_refuses_a_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"model": {"kind": "linear"}}\xff')
    assert main(["structure", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert not (tmp_path / "structure.csv").exists()


def test_a_key_repeated_in_one_object_is_refused(tmp_path, capsys):
    # json.loads would keep the last value: 3 trials, or a friction of 3.
    model = '"kind": "linear", "a": 1.0, "v": 2.0, "sigma": 0.5'
    texts = {
        "trials": '{"model": {%s}, "experiment": {"trials": 2, "volume_steps": 4, "trials": 3}}',
        "v": '{"model": {%s, "v": 3.0}, "experiment": {"trials": 2, "volume_steps": 4}}',
    }
    for key, text in texts.items():
        path = tmp_path / f"repeated_{key}.json"
        path.write_text(text % model, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path, "structure")
        assert str(info.value) == f"config file {path} repeats the key '{key}' in one object"
        assert main(["structure", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "structure.csv").exists()
    # The same object without the repeat loads.
    path.write_text(texts["v"].replace(', "v": 3.0', "") % model, encoding="utf-8")
    assert load_config(path, "structure").experiment["trials"] == 2


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


def _shipped_structure(seed: int, out: Path) -> dict:
    shipped = Path(__file__).resolve().parents[1] / "configs" / "structure_double_well.json"
    raw = json.loads(shipped.read_text(encoding="utf-8"))
    raw["mc"]["master_seed"] = seed
    raw["output"] = {"directory": str(out)}
    return raw


def test_structure_failure_names_the_first_failing_trial_and_step(tmp_path, capsys):
    # At master_seed 1, trial 73 draws h = 0.2474 and leaves the numeric
    # domain at step 9 of its volume chain, the earliest step at which any
    # trial does.
    raw = _shipped_structure(1, tmp_path)
    message = (
        "trial 73, step 9: step produced a non-finite state at h=0.24738492177376023"
    )
    with pytest.raises(EvaluationError) as info:
        run(parse_config(raw, "structure"), "structure")
    assert str(info.value) == message
    assert (info.value.row, info.value.step) == (73, 9)
    path = write_config(tmp_path, "structure.json", raw)
    assert main(["structure", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "structure.csv").exists()


def test_a_failing_structure_run_steps_its_trials_once(tmp_path, monkeypatch):
    # The batch is the command's one stepping path: a failure is named from
    # it, with no second run of any trial.
    kernels, calls = [], []
    kernel, rows = cli._Gf2Kernel, cli._structure_rows
    monkeypatch.setattr(cli, "_Gf2Kernel", lambda *args: kernels.append(args) or kernel(*args))
    monkeypatch.setattr(cli, "_structure_rows", lambda *args: calls.append(args) or rows(*args))
    with pytest.raises(EvaluationError, match=r"^trial 73, step 9: "):
        run(parse_config(_shipped_structure(1, tmp_path), "structure"), "structure")
    assert len(kernels) == 1
    assert [len(trials) for _, trials, _ in calls] == [100]


def test_structure_refused_step_names_the_failing_trial(monkeypatch):
    # f = c q with c = -2 / 0.125^2 makes the step matrix of the trial with
    # h = 0.125 singular; the batch refuses it and names it.
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
    reason = r"^trial 2, step 0: implicit step matrix .* at h=0\.125; "
    with pytest.raises(StepSizeError, match=reason) as info:
        _structure_rows(model, trials, 4)
    assert info.value.row == 2
    assert _step_synchronous_failure(model, trials) == (StepSizeError, str(info.value))
    # A Hessian that turns singular once the first lift runs is seen only by
    # the genfun rows, whose augmented step refuses the trial's row of the batch.
    lifted = []
    lift = genfun._lift
    for module in (cli, genfun):
        monkeypatch.setattr(module, "_lift", lambda *args: lifted.append(1) or lift(*args))
    model = dataclasses.replace(
        model, force_jacobian=lambda q: np.full(np.shape(q) + (1,), c if lifted else 0.0)
    )
    with pytest.raises(StepSizeError, match=reason) as info:
        _structure_rows(model, trials, 4)
    assert info.value.row == 2
    lifted.clear()
    assert _step_synchronous_failure(model, trials) == (StepSizeError, str(info.value))


# Without noise the oscillator never leaves |q| <= 0.2 from q <= 0.2, so
# only trial 3, started at q = 0.3, meets a force that refuses q > 0.25.
_LINEAR_TRIALS = [
    _StructureTrial(PhaseState([0.0], [0.1 * i]), h, 0.5, np.zeros(1), np.zeros((4, 1)))
    for i, h in enumerate([0.1, 0.2, 0.125, 0.15])
]


def _refusing(row: int | None) -> LangevinModel:
    """The linear oscillator with a force that raises _Refused, naming ``row``,
    on any q > 0.25."""
    linear = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()

    def force(q):
        if np.any(q[..., 0] > 0.25):
            raise _Refused(7, "custom force refused", row=row)
        return linear.force(q)

    return dataclasses.replace(linear, force=force)


def test_structure_failure_prefixes_the_failing_trial_in_place():
    # ``trial i, `` is added to the error the batch raised, keeping its class
    # and attributes, where rebuilding it from the message once gave a
    # TypeError for _Refused's constructor.  The trial is the error's row: a
    # custom force that names row 0 of the batch names trial 0.
    with pytest.raises(_Refused) as info:
        _structure_rows(_refusing(0), _LINEAR_TRIALS, 4)
    assert str(info.value) == "trial 0, step 0: custom force refused (code 7)"
    assert (info.value.code, info.value.row) == (7, 0)

    linear = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    model = dataclasses.replace(
        linear, force=lambda q: np.where(q > 0.25, np.nan, linear.force(q))
    )
    with pytest.raises(EvaluationError) as info:
        _structure_rows(model, _LINEAR_TRIALS, 4)
    assert str(info.value) == "trial 3, step 0: step produced a non-finite state at h=0.15"
    assert info.value.row == 3

    # The genfun rows name the first trial whose clock is out of range as the row.
    trials = [dataclasses.replace(trial, t_n=400.0 * i) for i, trial in enumerate(_LINEAR_TRIALS)]
    with pytest.raises(RangeError) as info:
        _structure_rows(linear, trials, 4)
    assert str(info.value) == "trial 1, step 0: e^(vt) overflows at v*t = 800.0"
    assert info.value.row == 1
    assert _step_synchronous_failure(linear, trials) == (RangeError, str(info.value))


def test_structure_names_the_trial_whose_potential_is_non_finite():
    # Only the lift reads the potential, so the genfun rows refuse trial 3,
    # started at q = 0.3, as their step 0.
    linear = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    model = dataclasses.replace(
        linear, potential=lambda q: np.where(q[..., 0] > 0.25, np.nan, linear.potential(q))
    )
    with pytest.raises(EvaluationError) as info:
        _structure_rows(model, _LINEAR_TRIALS, 4)
    assert str(info.value) == "trial 3, step 0: model evaluation is non-finite at q=[0.3]"
    assert info.value.row == 3
    assert _step_synchronous_failure(model, _LINEAR_TRIALS) == (EvaluationError, str(info.value))


def test_structure_refuses_a_non_finite_volume_jacobian():
    # force_third turns inf from its third call on, the volume chain's step 1;
    # its slogdet once made volume_rel_error nan while the command exited 0.
    linear = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    calls = []

    def third(q):
        calls.append(q)
        return linear.force_third(q) + (np.inf if len(calls) >= 3 else 0.0)

    model = dataclasses.replace(linear, force_third=third)
    trial = _StructureTrial(
        PhaseState([0.3], [0.2]), 0.1, 0.5, np.array([0.1]), np.full((4, 1), 0.1)
    )
    with pytest.raises(EvaluationError) as info:
        _structure_rows(model, [trial], 4)
    assert str(info.value) == "trial 0, step 1: Jacobian contains non-finite entries"
    assert (info.value.row, info.value.step) == (0, 1)


@pytest.mark.parametrize("v", [699.0, 1000.0, 3000.0])
def test_structure_clocks_stay_in_range_for_any_friction(tmp_path, v):
    # t_n is drawn below e^{vt}'s range for the augmented step, so only a step
    # size that the direct scheme itself refuses, v h > 700, fails, naming its trial.
    shipped = Path(__file__).resolve().parents[1] / "configs" / "structure_linear.json"
    raw = json.loads(shipped.read_text(encoding="utf-8"))
    raw["model"]["v"] = v
    raw["output"] = {"directory": str(tmp_path)}
    config = parse_config(raw, "structure")
    if v < 2800.0:
        (path,) = run(config, "structure")
        _, _, rows = read_csv(path)
        assert len(rows) == 100 and all(math.isfinite(float(x)) for row in rows for x in row)
        return
    with pytest.raises(RangeError) as info:
        run(config, "structure")
    assert str(info.value).startswith("trial 10, e^(vt) overflows at v*t = 709.79")
    assert info.value.row == 10


def _outcome(call, *args):
    """What call(*args) returns, or the package Error it raises."""
    try:
        return call(*args)
    except Error as exc:
        return exc


def _first_failure(k: int, outcomes: list) -> tuple[type, str] | None:
    """The failure the batch meets first at step k among the trials' outcomes:
    one without a row, which only a custom model raises before any state is
    checked, then a refused step matrix, then a non-finite state, each at
    the lowest trial."""
    failures = [
        (exc.row is not None, not isinstance(exc, StepSizeError), i, exc)
        for i, exc in enumerate(outcomes)
        if isinstance(exc, Error)
    ]
    if not failures:
        return None
    has_row, _, i, exc = min(failures, key=lambda failure: failure[:3])
    return type(exc), (f"trial {i}, " if has_row else "") + f"step {k}: {exc}"


def _step_synchronous_failure(model, trials) -> tuple[type, str] | None:
    """The per-state reference for a structure failure.  Every trial takes
    one step at a time alone through gf2_step, then gf2_jacobian, in the
    batch's stages: the one-step check as step 0 and the volume chain from
    step 0.  The row checks follow as step 0, each over every trial through
    the single-state calls: the conformal defect of the one-step Jacobian,
    then the lift, the augmented step and the inverse lift."""
    one_step = [[trial.dw for trial in trials]]
    volume = list(zip(*(trial.block for trial in trials)))
    for chain in (one_step, volume):
        states = [trial.z for trial in trials]
        for k, dws in enumerate(chain):
            steps = list(zip(states, trials, dws))
            moved = [_outcome(gf2_step, model, z, trial.h, dw) for z, trial, dw in steps]
            failure = _first_failure(k, moved) or _first_failure(
                k, [_outcome(gf2_jacobian, model, z, trial.h, dw) for z, trial, dw in steps]
            )
            if failure:
                return failure
            states = moved
    jacobians = [gf2_jacobian(model, trial.z, trial.h, trial.dw) for trial in trials]
    # Each check reads the outcome of the one before it for its trial; the
    # defect takes a one-matrix stack, whose failure names its row.
    checks = [
        lambda i, trial: conformal_defect(jacobians[i][None], model.friction, [trial.h]),
        lambda i, trial: to_augmented(trial.z, trial.t_n, model),
        lambda i, trial: gf2_step_augmented(
            model, outcomes[i].X, outcomes[i].Y, trial.h, trial.dw
        ),
        lambda i, trial: from_augmented(AugmentedState(*outcomes[i]), model),
    ]
    for check in checks:
        outcomes = [_outcome(check, i, trial) for i, trial in enumerate(trials)]
        failure = _first_failure(0, outcomes)
        if failure:
            return failure
    return None


def test_structure_failures_match_the_step_synchronous_reference(tmp_path):
    raw = _shipped_structure(0, tmp_path)
    model = DoubleWell(v=raw["model"]["v"], beta=raw["model"]["beta"]).build()
    exp = raw["experiment"]
    failing = []
    for seed in range(10):
        raw = _shipped_structure(seed, tmp_path / str(seed))
        plan = SeedPlan(seed)
        trials = [
            _draw_structure_trial(model, generator_for(derive_seed(plan, i)), exp["volume_steps"])
            for i in range(exp["trials"])
        ]
        expected = _step_synchronous_failure(model, trials)
        if expected is None:
            run(parse_config(raw, "structure"), "structure")
            continue
        failing.append(seed)
        with pytest.raises(Error) as info:
            run(parse_config(raw, "structure"), "structure")
        assert (type(info.value), str(info.value)) == expected
    assert failing == [0, 1, 2, 3, 4, 5, 8, 9]
    # A failure with no row, which only a custom model raises, names no
    # trial, in the batch and in the reference alike.
    model = _refusing(None)
    with pytest.raises(_Refused) as info:
        _structure_rows(model, _LINEAR_TRIALS, 4)
    assert (info.value.code, info.value.row) == (7, None)
    expected = (_Refused, "step 0: custom force refused (code 7)")
    assert (type(info.value), str(info.value)) == expected
    assert _step_synchronous_failure(model, _LINEAR_TRIALS) == expected


@pytest.mark.parametrize("name", ["structure_linear", "structure_double_well"])
def test_structure_rows_are_the_single_state_calls_bit_for_bit(name):
    # Each batched row of the shipped runs gives the bits of the public R = 1
    # calls on its trial: the augmented step, the genfun gap and the defect.
    shipped = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    config = parse_config(json.loads(shipped.read_text(encoding="utf-8")), "structure")
    model, volume_steps = cli._model(config), config.experiment["volume_steps"]
    plan = SeedPlan(config.mc["master_seed"])
    trials = [
        _draw_structure_trial(model, generator_for(derive_seed(plan, i)), volume_steps)
        for i in range(config.experiment["trials"])
    ]
    rows = _structure_rows(model, trials, volume_steps)
    x, y = genfun._lift(
        model,
        np.stack([trial.z.p for trial in trials]),
        np.stack([trial.z.q for trial in trials]),
        np.array([trial.t_n for trial in trials]),
    )
    h = np.array([trial.h for trial in trials])
    xg, yg = genfun._augmented_step(model, x, y, h, np.stack([trial.dw for trial in trials]))
    for i, trial in enumerate(trials):
        aug = to_augmented(trial.z, trial.t_n, model)
        step = gf2_step_augmented(model, aug.X, aug.Y, trial.h, trial.dw)
        assert xg[i].tobytes() + yg[i].tobytes() == step[0].tobytes() + step[1].tobytes()
        back, _ = from_augmented(AugmentedState(*step), model)
        direct = gf2_step(model, trial.z, trial.h, trial.dw)
        gap = max(np.max(np.abs(back.p - direct.p)), np.max(np.abs(back.q - direct.q)))
        jac = gf2_jacobian(model, trial.z, trial.h, trial.dw)
        defect = conformal_defect(jac, model.friction, trial.h)
        assert float(rows[i][4]).hex() == float(gap).hex()
        assert float(rows[i][2]).hex() == defect.hex()


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
# linear_ergodic's reference column comes from a BLAS product (analysis.quad2d),
# so another BLAS stack may move its last bits.
_FAST_GOLDENS = [
    ("ergodic", "linear_ergodic", "ergodic.csv"),
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
