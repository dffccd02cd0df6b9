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
    load_config,
    main,
    parse_config,
    run,
)
from langevin_gf.errors import ConfigError


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
    with pytest.raises(ConfigError, match="initial_labels"):
        parse_config(
            {
                "model": linear_section(),
                "experiment": {
                    "T": 1.0,
                    "step_size": 0.25,
                    "test_functions": ["cos_sum"],
                    "initials": [[3.0, 1.0]],
                    "initial_labels": ["a,b"],
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
    config = parse_config(
        {
            "model": linear_section(),
            "experiment": {
                "T": 1.0,
                "step_size": 0.3,
                "test_functions": ["cos_sum"],
                "initials": [[1.0, 1.0]],
            },
            "output": {"directory": str(tmp_path)},
        },
        "ergodic",
    )
    with pytest.raises(ConfigError, match="multiple"):
        run(config, "ergodic")


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
