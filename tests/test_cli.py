import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biasedwave.cli
import biasedwave.montecarlo
from biasedwave import load_config, parse_config, run_sweep, threshold_experiment
from biasedwave.cli import SWEEP_COLUMNS, THRESHOLD_COLUMNS, ConfigError, main
from biasedwave.oscint import PAIR_REL_TOL


def cell_as(value, text: str):
    """The CSV cell text read back as the type of the JSON value."""
    if value is None:
        return None if text == "" else text
    if isinstance(value, bool):
        return {"true": True, "false": False}.get(text, text)
    return type(value)(text)


def base_config(tmp_path, **overrides):
    doc = {
        "lambda_ladder": [64.0],
        "gamma": {"mode": "fixed", "values": [8.0]},
        "alpha_list": [0.5],
        "p_rule": {"mode": "fixed", "values": [0.5]},
        "mc_samples": 0,
        "seed": 0,
        "output_stem": str(tmp_path / "run"),
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_minimal_valid(self, tmp_path):
        config = parse_config(base_config(tmp_path))
        assert config.lambda_ladder == (64.0,)
        assert config.gammas_for(64.0) == (8.0,)
        assert config.p_for(64.0, 8.0, 0.5) == (0.5,)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(base_config(tmp_path, extra=1))

    def test_unknown_nested_key(self, tmp_path):
        doc = base_config(tmp_path)
        doc["gamma"] = {"mode": "fixed", "values": [8.0], "spare": 1}
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc = base_config(tmp_path)
        doc["tolerances"] = {"delta": 0.2, "unknown": 3}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_empty_or_unsorted_ladder(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(base_config(tmp_path, lambda_ladder=[]))
        with pytest.raises(ConfigError):
            parse_config(base_config(tmp_path, lambda_ladder=[128.0, 64.0]))

    def test_log_lambda_mode(self, tmp_path):
        doc = base_config(tmp_path, gamma={"mode": "log_lambda"})
        config = parse_config(doc)
        assert config.gammas_for(4096.0) == (9.0,)  # ceil(ln 4096)

    def test_threshold_rule_needs_exactly_one_beta(self, tmp_path):
        doc = base_config(tmp_path,
                          p_rule={"mode": "threshold", "c": 1.0})
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc["p_rule"] = {"mode": "threshold", "c": 1.0, "beta": 0.2,
                         "beta_factor": 0.5}
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc["p_rule"] = {"mode": "threshold", "c": 1.0, "beta_factor": 0.5}
        config = parse_config(doc)
        assert config.beta_for(0.5) == 0.25
        p, = config.p_for(256.0, 4.0, 0.5)
        assert p == pytest.approx(0.5 + 256 ** -0.25 / 2.0, rel=1e-14)

    def test_small_mc_sample_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(base_config(tmp_path, mc_samples=50))

    @pytest.mark.parametrize("key,value", [
        ("grid_check", "false"),
        ("mc_samples", 150.9),
        ("seed", True),
        ("tolerances", None),
        ("alpha_list", ["0.5"]),
        ("grid_check_lambda_cap", -1.0),
        ("tolerances", {"gamma_min": -3}),
    ])
    def test_mistyped_values_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(base_config(tmp_path, **{key: value}))

    def test_bad_probability_values(self, tmp_path):
        doc = base_config(tmp_path, p_rule={"mode": "fixed", "values": [1.2]})
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestRunSweep:
    def test_single_point_is_strong(self, tmp_path):
        result = run_sweep(parse_config(base_config(tmp_path)))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["error"] == ""
        assert row["class"] == "strong"
        assert row["N"] == 512
        assert row["mc_mean"] is None

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        doc = base_config(tmp_path, mc_samples=200, seed=9,
                          lambda_ladder=[64.0, 128.0])
        run_sweep(parse_config(doc))
        first = (tmp_path / "run.csv").read_bytes()
        run_sweep(parse_config(doc))
        assert (tmp_path / "run.csv").read_bytes() == first

    def test_csv_and_json_round_trip(self, tmp_path):
        doc = base_config(tmp_path, mc_samples=100,
                          p_rule={"mode": "fixed", "values": [0.5, 0.9]})
        result = run_sweep(parse_config(doc))
        with open(result.json_path) as fh:
            json_rows = json.load(fh)
        with open(result.csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(json_rows) == len(csv_rows) == 2
        for jrow, crow in zip(json_rows, csv_rows):
            for name in SWEEP_COLUMNS:
                assert cell_as(jrow[name], crow[name]) == jrow[name], name

    def test_meta_contents(self, tmp_path):
        result = run_sweep(parse_config(base_config(tmp_path)))
        meta = json.loads(result.meta_path.read_text())
        assert meta["package"] == "biasedwave"
        assert "gamma=8.0,alpha=0.5" in meta["calibrations"]
        assert meta["config"]["seed"] == 0
        assert 0.0 <= meta["quadrature"]["table_max_drift"] <= PAIR_REL_TOL

    def test_largest_seed_runs_and_one_more_is_refused(self, tmp_path):
        # row i keys Philox with seed + i, which must fit in 64 bits
        doc = base_config(tmp_path, mc_samples=100, seed=2 ** 64 - 2,
                          p_rule={"mode": "fixed", "values": [0.5, 0.9]})
        result = run_sweep(parse_config(doc))
        assert [r["error"] for r in result.rows] == ["", ""]
        assert result.rows[1]["mc_seed"] == 2 ** 64 - 1
        doc["seed"] += 1
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)

    def test_exact_mode_never_touches_rng(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("random stream touched in exact mode")
        monkeypatch.setattr(biasedwave.montecarlo, "_keyed_signs", boom)
        monkeypatch.setattr(np.random, "Philox", boom)
        result = run_sweep(parse_config(base_config(tmp_path)))
        assert result.rows[0]["error"] == ""

    def test_failures_recorded_and_run_continues(self, tmp_path):
        doc = base_config(tmp_path, lambda_ladder=[64.0, 128.0],
                          p_rule={"mode": "threshold", "c": 40.0, "beta": 0.0})
        result = run_sweep(parse_config(doc))
        assert len(result.rows) == 2
        assert all("ValueError" in row["error"] for row in result.rows)

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken report")
        monkeypatch.setattr(biasedwave.cli, "build_report", broken)
        with pytest.raises(TypeError):
            run_sweep(parse_config(base_config(tmp_path)))

    def test_grid_check_column(self, tmp_path):
        doc = base_config(tmp_path, mc_samples=100, grid_check=True,
                          gamma={"mode": "fixed", "values": [1.0]})
        result = run_sweep(parse_config(doc))
        row = result.rows[0]
        assert row["error"] == ""
        assert row["grid_rel_diff"] is not None
        assert row["grid_rel_diff"] < 1e-3


class TestThresholdExperiment:
    def test_requires_threshold_rule(self, tmp_path):
        with pytest.raises(ConfigError):
            threshold_experiment(parse_config(base_config(tmp_path)))

    def test_families_and_fits(self, tmp_path):
        doc = base_config(
            tmp_path,
            lambda_ladder=[64.0, 128.0, 256.0],
            gamma={"mode": "fixed", "values": [4.0]},
            p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})
        result = threshold_experiment(parse_config(doc))
        families = {row["family"] for row in result.rows}
        assert families == {"fair", "at_threshold", "super_threshold", "unfair"}
        assert len(result.rows) == 4 * 3
        by_family = {f["family"]: f for f in result.fits}
        assert by_family["fair"]["slope"] == pytest.approx(0.0, abs=0.02)
        assert by_family["unfair"]["slope"] > 0.3
        assert by_family["at_threshold"]["beta"] == 0.25
        with open(result.csv_path, newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header == THRESHOLD_COLUMNS

    def test_config_beta_changes_neither_rows_nor_meta(self, tmp_path):
        outputs = []
        for name, beta in (("a", {"beta": 0.1}), ("b", {"beta_factor": 0.5})):
            doc = base_config(
                tmp_path, output_stem=str(tmp_path / name),
                lambda_ladder=[64.0, 128.0],
                gamma={"mode": "fixed", "values": [2.0]},
                p_rule={"mode": "threshold", "c": 1.0, **beta})
            result = threshold_experiment(parse_config(doc))
            meta = json.loads(result.meta_path.read_text())
            assert meta["config"]["p_beta"] is None
            assert meta["config"]["p_beta_factor"] is None
            del meta["config"]["output_stem"]
            outputs.append((result.csv_path.read_bytes(),
                            result.json_path.read_bytes(), meta))
        assert outputs[0] == outputs[1]


class TestCommandLine:
    def test_sweep_command(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 rows" in out and "0 failed" in out
        assert load_config(path).output_stem == str(tmp_path / "run")

    def test_kernel_command(self, tmp_path, capsys):
        out_path = tmp_path / "kernel.csv"
        assert main(["kernel", "--lambda", "64", "--gamma", "1",
                     "--alpha", "0.5", "--output", str(out_path)]) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        assert float(rows[0]["I_k"]) > 0

    @pytest.mark.parametrize("where", ["missing/kernel.csv", "file/kernel.csv"])
    def test_kernel_command_unwritable_output_prints_one_line(self, tmp_path,
                                                              capsys, where):
        (tmp_path / "file").write_text("")
        assert main(["kernel", "--lambda", "64", "--gamma", "1", "--alpha", "0.5",
                     "--output", str(tmp_path / where)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: --output ")
        assert err.count("\n") == 1

    def test_asymptotics_command(self, capsys):
        assert main(["asymptotics", "--w-min", "10", "--w-max", "300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual_slope"] == pytest.approx(-1.5, abs=0.1)
        assert payload["envelope_exponent"] == pytest.approx(-0.5, abs=0.05)

    def test_mc_command(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            tmp_path, gamma={"mode": "fixed", "values": [1.0]})))
        assert main(["mc", "--config", str(path), "--samples", "150",
                     "--seed", "3"]) == 0
        with open(tmp_path / "run.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["mc_samples"] == "150"
        assert row["mc_seed"] == "3"

    @pytest.mark.parametrize("samples,seed", [("20", "3"), ("150", "-3")])
    def test_mc_command_validates_overrides(self, tmp_path, capsys, samples,
                                            seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["mc", "--config", str(path), "--samples", samples,
                     "--seed", seed]) == 2
        err = capsys.readouterr().err
        key = "mc_samples" if samples == "20" else "seed"
        assert err.startswith("biasedwave: error: ") and key in err

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    @pytest.mark.parametrize("overrides,key", [({"seed": -1}, "seed"),
                                               ({"sede": 0}, "sede")])
    def test_bad_config_prints_one_line(self, tmp_path, capsys, command,
                                        overrides, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, **overrides)))
        argv = (["sweep", str(path)] if command == "sweep" else
                ["mc", "--config", str(path), "--samples", "100",
                 "--seed", str(overrides.get("seed", 0))])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: ") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    @pytest.mark.parametrize("content", ["{bad", None])
    def test_unreadable_config_prints_one_line(self, tmp_path, capsys, command,
                                               content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        argv = (["sweep", str(path)] if command == "sweep" else
                ["mc", "--config", str(path), "--samples", "100", "--seed", "0"])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,key", [
        (["kernel", "--lambda", "64", "--gamma", "1", "--alpha", "1.5"], "alpha"),
        (["asymptotics", "--w-min", "0", "--w-max", "300"], "w_min"),
        (["asymptotics", "--w-min", "2", "--w-max", "3"], "points"),
    ])
    def test_bad_arguments_print_one_line(self, tmp_path, capsys, argv, key):
        output = tmp_path / "kernel.csv"
        extra = ["--output", str(output)] if argv[0] == "kernel" else []
        assert main(argv + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: ") and key in err
        assert err.count("\n") == 1
        assert not output.exists()

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    def test_unwritable_output_stem_prints_one_line(self, tmp_path, capsys,
                                                     monkeypatch, command):
        def no_row_may_run(*args, **kwargs):
            raise AssertionError("a row ran before the output stem was checked")

        monkeypatch.setattr(biasedwave.cli, "build_report", no_row_may_run)
        path = tmp_path / "config.json"
        doc = base_config(tmp_path, output_stem=str(path / "run"))  # under a file
        if command == "threshold":
            doc["p_rule"] = {"mode": "threshold", "c": 1.0, "beta_factor": 0.5}
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: output_stem ")
        assert err.count("\n") == 1

    def test_module_entry_point(self):
        src = str(Path(biasedwave.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "biasedwave", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: biasedwave")

    def test_fit_command(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for x in (1.0, 2.0, 4.0, 8.0):
                writer.writerow([x, 5.0 * x ** 1.25])
        assert main(["fit", str(path), "--x-col", "x", "--y-col", "y"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slope"] == pytest.approx(1.25, abs=1e-12)
        assert payload["point_count"] == 4

    @pytest.mark.parametrize("x_col,y_col,key", [("x", "zz", "'zz'"),
                                                 ("x", "bad", "3 points"),
                                                 ("lambda", "y", "distinct")])
    def test_fit_command_bad_column_prints_one_line(self, tmp_path, capsys,
                                                    x_col, y_col, key):
        path = tmp_path / "data.csv"
        path.write_text("x,y,bad,lambda\n1,5,,64\n2,11,,64\n4,24,7,64\n")
        assert main(["fit", str(path), "--x-col", x_col, "--y-col", y_col]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: ") and key in err
        assert err.count("\n") == 1

    def test_threshold_command(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = base_config(
            tmp_path,
            lambda_ladder=[64.0, 128.0, 256.0],
            gamma={"mode": "fixed", "values": [2.0]},
            p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})
        path.write_text(json.dumps(doc))
        assert main(["threshold", str(path)]) == 0
        assert "at_threshold" in capsys.readouterr().out

    def test_threshold_command_fails_on_failed_rows(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = base_config(
            tmp_path,
            lambda_ladder=[64.0, 128.0],
            p_rule={"mode": "threshold", "c": 40.0, "beta_factor": 0.5})
        path.write_text(json.dumps(doc))
        assert main(["threshold", str(path)]) == 1
        assert "4 failed" in capsys.readouterr().out
