import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import biasedwave
import biasedwave.cli
import biasedwave.model
import biasedwave.montecarlo
import biasedwave.oscint
from biasedwave import (build_params, load_config, parse_config, run_sweep,
                        threshold_experiment)
from biasedwave.cli import SWEEP_COLUMNS, THRESHOLD_COLUMNS, ConfigError, main
from biasedwave.oscint import PAIR_REL_TOL

MISSING = object()  # a test_mistyped_values_rejected value that deletes its key

# each wave parameter's config key, and values at and beside its domain's
# edges with whether build_params takes them; the other three stay at valid
# values (lam 64, gamma 8, alpha 0.5, p 0.5), so gamma * lam >= 1 throughout
WAVE_KEYS = {"lam": "lambda_ladder", "gamma": "gamma.values", "alpha": "alpha_list",
             "p": "p_rule.values"}
WAVE_EDGES = {"lam": [(1.0, False), (1.0000001, True)],
              "gamma": [(0.0, False), (0.01, True)],
              "alpha": [(0.0, True), (1.0, False), (0.9999999, True)],
              "p": [(0.0, True), (1.0, True), (-0.0, True), (1.0000001, False)]}
WRONG_KINDS = [True, "0.5", 10 ** 400, float("nan"), float("inf")]


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


@pytest.fixture
def no_rows(monkeypatch):
    """Make any row that runs fail the test."""
    def no_row_may_run(*args, **kwargs):
        raise AssertionError("a row ran before the output stem was checked")

    monkeypatch.setattr(biasedwave.cli, "build_report", no_row_may_run)


class TestConfigParsing:
    def test_minimal_valid(self, tmp_path):
        config = parse_config(base_config(tmp_path))
        assert config.lambda_ladder == (64.0,)
        assert config.gammas_for(64.0) == (8.0,)
        assert list(config.points()) == [(64.0, 8.0, 0.5, 0.5)]

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
        [(lam, gamma, alpha, p)] = config.points()
        assert (lam, gamma, alpha) == (64.0, 8.0, 0.5)
        assert p == pytest.approx(0.5 + 64 ** -0.25 / 8 ** 0.5, rel=1e-14)

    def test_small_mc_sample_count_rejected(self, tmp_path):
        for samples in (50, -5):
            with pytest.raises(ConfigError, match="^mc_samples "):
                parse_config(base_config(tmp_path, mc_samples=samples))

    @pytest.mark.parametrize("key,value", [
        ("grid_check", "false"),
        ("mc_samples", 150.9),
        ("seed", True),
        ("tolerances", None),
        ("alpha_list", ["0.5"]),
        ("grid_check_lambda_cap", -1.0),
        ("tolerances", {"gamma_min": -3}),
        ("alpha_list", [0.5, 0.5]),
        ("gamma", {"mode": "fixed", "values": [8.0, 8.0]}),
        ("config", [64.0]),  # the whole document
        ("lambda_ladder", MISSING),
        ("gamma", [8.0]),
        ("p_rule", "fixed"),
        ("lambda_ladder", [1.0, 64.0]),
        ("alpha_list", [1.0]),
        ("tolerances", {"delta": 0.0}),
        ("tolerances", {"kappa": 1.0}),
        ("output_stem", 5),
        ("p_rule", {"mode": "threshold", "c": -1.0, "beta": 0.2}),
        ("gamma", {"mode": "fixed", "values": [8.0, 0.0]}),
        ("p_rule", {"mode": "fixed", "values": [0.5, 0.9, 0.5]}),
    ])
    def test_mistyped_values_rejected(self, tmp_path, key, value):
        doc = value if key == "config" else base_config(tmp_path, **{key: value})
        if value is MISSING:
            del doc[key]
        with pytest.raises(ConfigError, match=key):
            parse_config(doc)

    @pytest.mark.parametrize("key,rule", [
        ("gamma", {"mode": ["fixed"], "values": [8.0]}),
        ("p_rule", {"mode": {"a": 1}, "values": [0.5]}),
    ])
    def test_rule_mode_of_wrong_type_rejected(self, tmp_path, key, rule):
        with pytest.raises(ConfigError, match=rf"^{key}\.mode must be "):
            parse_config(base_config(tmp_path, **{key: rule}))

    def test_grid_check_without_monte_carlo_rejected(self, tmp_path):
        # the check compares one Monte Carlo sample; mc_samples 0 draws none
        doc = base_config(tmp_path, grid_check=True)
        with pytest.raises(ConfigError, match="^grid_check "):
            parse_config(doc)
        assert parse_config(dict(doc, mc_samples=100)).grid_check

    def test_grid_check_cap_below_the_ladder_rejected(self, tmp_path):
        # no row has lambda <= cap, so every grid_rel_diff would be null
        doc = base_config(tmp_path, mc_samples=100, grid_check=True,
                          grid_check_lambda_cap=32.0)
        with pytest.raises(ConfigError, match="^grid_check_lambda_cap 32.0 is below"):
            parse_config(doc)
        assert parse_config(dict(doc, grid_check_lambda_cap=64.0)).grid_check
        assert not parse_config(dict(doc, grid_check=False)).grid_check

    @pytest.mark.parametrize("param,value,taken", [
        pytest.param(param, value, taken, id=f"{param}={value!r:.12}")
        for param, edges in WAVE_EDGES.items()
        for value, taken in edges + [(bad, False) for bad in WRONG_KINDS]])
    def test_config_and_library_agree_on_the_domain(self, tmp_path, param, value,
                                                    taken):
        args = {"lam": 64.0, "gamma": 8.0, "alpha": 0.5, "p": 0.5, param: value}
        doc = base_config(tmp_path, lambda_ladder=[args["lam"]],
                          gamma={"mode": "fixed", "values": [args["gamma"]]},
                          alpha_list=[args["alpha"]],
                          p_rule={"mode": "fixed", "values": [args["p"]]})
        if taken:
            build_params(**args)
            parse_config(doc)
        else:
            with pytest.raises(ValueError, match=rf"^{param} "):
                build_params(**args)
            with pytest.raises(ConfigError, match=rf"^{re.escape(WAVE_KEYS[param])} "):
                parse_config(doc)

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
        # the sign stream, so mc_* columns of different streams can be told apart
        assert meta["sampling"] == {
            "bit_generator": "PCG64DXSM", "key": "SeedSequence(seed + row)",
            "words_per_sample": "ceil(N / 2)", "draws_per_word": 2,
            "coin_resolution": 2.0 ** -32}
        assert all("sampling" not in row for row in json.loads(result.json_path.read_text()))

    @pytest.mark.parametrize("rule,rows", [
        pytest.param({"p_rule": {"mode": "fixed", "values": [0.5, 0.9]}}, 2, id="fixed"),
        pytest.param({"lambda_ladder": [64.0, 128.0], "gamma": {"mode": "log_lambda"}},
                     2, id="log_lambda"),
        pytest.param({"lambda_ladder": [64.0, 128.0], "alpha_list": [0.3, 0.5],
                      "p_rule": {"mode": "threshold", "c": 1.0, "beta_factor": 0.5}},
                     4, id="threshold"),
    ])
    def test_largest_seed_runs_and_one_more_is_refused(self, tmp_path, rule, rows):
        # row i seeds its sign stream with seed + i, which must fit in 64 bits
        doc = base_config(tmp_path, mc_samples=100, seed=2 ** 64 - rows, **rule)
        result = run_sweep(parse_config(doc))
        assert [r["error"] for r in result.rows] == [""] * rows
        assert result.rows[-1]["mc_seed"] == 2 ** 64 - 1
        doc["seed"] += 1
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)

    def test_exact_mode_never_touches_rng(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("random stream touched in exact mode")
        monkeypatch.setattr(biasedwave.montecarlo, "_keyed_signs", boom)
        # the bit generator montecarlo calls; raising=True fails if it is renamed
        monkeypatch.setattr(biasedwave.montecarlo, "PCG64DXSM", boom)
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

    def test_dotted_stem_keeps_every_part(self, tmp_path):
        for version in ("v1", "v2"):
            stem = tmp_path / f"run.{version}"
            result = run_sweep(parse_config(base_config(tmp_path, output_stem=str(stem))))
            assert [p.name for p in (result.csv_path, result.json_path,
                                     result.meta_path)] == [
                f"run.{version}.csv", f"run.{version}.json", f"run.{version}.meta.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.v1.csv", "run.v1.json", "run.v1.meta.json",
            "run.v2.csv", "run.v2.json", "run.v2.meta.json"]

    def test_overflowing_direction_count_is_a_row_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            tmp_path, lambda_ladder=[1e300], gamma={"mode": "fixed", "values": [1e10]})))
        assert main(["sweep", str(path)]) == 1
        assert "1 failed" in capsys.readouterr().out
        rows = json.loads((tmp_path / "run.json").read_text())
        assert rows[0]["error"].startswith("ValueError: gamma * lam = inf")
        assert (tmp_path / "run.csv").exists() and (tmp_path / "run.meta.json").exists()

    def test_unallocatable_sample_count_is_a_row_error(self, tmp_path, capsys):
        # 10**15 masses need 8e15 bytes, beyond any address space: the
        # allocation fails at once and touches no memory
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, mc_samples=10 ** 15)))
        assert main(["sweep", str(path)]) == 1
        assert "1 failed" in capsys.readouterr().out
        rows = json.loads((tmp_path / "run.json").read_text())
        assert rows[0]["error"].startswith("MemoryError")
        assert (tmp_path / "run.csv").exists() and (tmp_path / "run.meta.json").exists()

    def test_each_geometry_is_built_once(self, tmp_path, monkeypatch):
        built = []
        build = biasedwave.cli.build_kernel

        def counted(params, *args):
            built.append((params.n_dirs, params.lam, params.alpha))
            return build(params, *args)

        monkeypatch.setattr(biasedwave.cli, "build_kernel", counted)
        doc = base_config(tmp_path, lambda_ladder=[64.0, 128.0], alpha_list=[0.3, 0.5],
                          p_rule={"mode": "fixed", "values": [0.5, 0.9]})
        rows = run_sweep(parse_config(doc)).rows
        assert len(rows) == 8 and len(built) == len(set(built)) == 4

        # 36 geometries, more than a 32-entry memo of kernels would hold
        built.clear()
        doc = base_config(tmp_path, lambda_ladder=[64.0, 128.0, 256.0, 512.0, 1024.0,
                                                   2048.0],
                          gamma={"mode": "fixed", "values": [8.0, 16.0]},
                          alpha_list=[0.3, 0.5, 0.7],
                          p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})
        rows = threshold_experiment(parse_config(doc)).rows
        assert len(rows) == 4 * 36 and len(built) == len(set(built)) == 36

        # gamma = ceil(ln lam) is 3, 3, 5, 5, 7: ten row geometries, and the
        # ladder[0] references of gamma 5 and 7, which are not row geometries
        built.clear()
        doc = base_config(tmp_path, lambda_ladder=[8.0, 16.0, 64.0, 128.0, 1000.0],
                          gamma={"mode": "log_lambda"}, alpha_list=[0.3, 0.5],
                          p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})
        rows = threshold_experiment(parse_config(doc)).rows
        assert len(rows) == 4 * 10 and len(built) == len(set(built)) == 14

    def test_a_sweep_reads_the_table_in_one_pass(self, tmp_path, monkeypatch):
        calls = []
        table = biasedwave.oscint.profile_table

        def counted(s_values):
            calls.append(np.size(s_values))
            return table(s_values)

        monkeypatch.setattr(biasedwave.oscint, "profile_table", counted)
        # the shape of the sweep_ladder benchmark: 6 lam x 3 alpha geometries
        ladder = [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0]
        doc = base_config(tmp_path, lambda_ladder=ladder, alpha_list=[0.3, 0.5, 0.7],
                          p_rule={"mode": "fixed", "values": [0.5, 0.8]})
        rows = run_sweep(parse_config(doc)).rows
        assert len(rows) == 36 and not any(r["error"] for r in rows)
        sizes = [int(4 * lam) + 1 for lam in ladder for _ in range(3)]  # N // 2 + 1
        assert calls == [sum(sizes)]
        outputs = [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")]

        # profile_table bounds its own temporaries: a block far below the run's
        # arguments still leaves one call and the same bytes
        calls.clear()
        monkeypatch.setattr(biasedwave.oscint, "_BLOCK_NODES", 600)
        run_sweep(parse_config(doc))
        assert calls == [sum(sizes)]
        assert [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")] == outputs

    def test_a_refused_geometry_allocates_nothing_in_a_batched_run(self, tmp_path):
        # lam 131072 at gamma 8 is N 1048576, above MAX_KERNEL_SIZE: a half row
        # of it alone would take 4 MiB
        doc = base_config(tmp_path, lambda_ladder=[64.0, 128.0, 131072.0],
                          alpha_list=[0.3, 0.5], p_rule={"mode": "fixed", "values": [0.5, 0.8]})
        tracemalloc.start()
        try:
            rows = run_sweep(parse_config(doc)).rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert [r["error"] for r in rows[-4:]] == [
            "ValueError: kernel size 1048576 exceeds 1000000"] * 4
        assert not any(r["error"] for r in rows[:-4])
        with_refused = [(tmp_path / name).read_text() for name in ("run.csv", "run.json")]
        run_sweep(parse_config(dict(doc, lambda_ladder=[64.0, 128.0])))
        csv_text, json_text = [(tmp_path / name).read_text() for name in ("run.csv", "run.json")]
        assert csv_text.splitlines() == with_refused[0].splitlines()[:-4]
        assert json.loads(json_text) == json.loads(with_refused[1])[:-4]

    def test_grid_check_column(self, tmp_path):
        doc = base_config(tmp_path, mc_samples=100, grid_check=True,
                          gamma={"mode": "fixed", "values": [1.0]})
        result = run_sweep(parse_config(doc))
        row = result.rows[0]
        assert row["error"] == ""
        assert row["grid_rel_diff"] is not None
        assert row["grid_rel_diff"] < 1e-3

    def test_grid_check_runs_beyond_4096_directions(self, tmp_path):
        # N 8192 at lam**(1-alpha) 16: a field of 8192 * 63 direction-node pairs
        doc = base_config(tmp_path, lambda_ladder=[256.0], mc_samples=100,
                          grid_check=True, gamma={"mode": "fixed", "values": [32.0]})
        [row] = run_sweep(parse_config(doc)).rows
        assert (row["N"], row["error"]) == (8192, "")
        assert row["grid_rel_diff"] < 1e-3


CHECK_CALLS = ("sample_coefficients", "grid_quadrature_mass")


def record_mc_and_checks(monkeypatch, calls: list):
    """Append (name, lam, p) to calls on each cli call of the Monte Carlo and
    grid-check functions."""
    for name in ("mc_moments",) + CHECK_CALLS:
        def recorded(first, *args, _name=name, _call=getattr(biasedwave.cli, name)):
            params = getattr(first, "params", first)  # mc_moments takes a kernel
            calls.append((_name, params.lam, params.p))
            return _call(first, *args)

        monkeypatch.setattr(biasedwave.cli, name, recorded)


class TestGridCheckPhase:
    """The grid checks run after the run's last Monte Carlo, in the order
    their rows ran, on the same sample and kernel as the row."""

    def grid_doc(self, tmp_path, **overrides):
        doc = base_config(tmp_path, lambda_ladder=[64.0, 128.0, 256.0],
                          gamma={"mode": "fixed", "values": [1.0]},
                          p_rule={"mode": "fixed", "values": [0.5, 0.8]},
                          mc_samples=100, grid_check=True, grid_check_lambda_cap=128.0)
        return dict(doc, **overrides)

    @pytest.mark.parametrize("run", ["sweep", "threshold"])
    def test_checks_follow_the_last_monte_carlo_in_row_order(self, tmp_path,
                                                              monkeypatch, run):
        calls = []
        record_mc_and_checks(monkeypatch, calls)
        if run == "sweep":
            rows = run_sweep(parse_config(self.grid_doc(tmp_path))).rows
        else:
            doc = self.grid_doc(tmp_path, p_rule={"mode": "threshold", "c": 0.4,
                                                  "beta_factor": 0.5})
            rows = threshold_experiment(parse_config(doc)).rows
        last_mc = max(i for i, call in enumerate(calls) if call[0] == "mc_moments")
        ran = [call[1:] for call in calls[:last_mc + 1]]
        assert [call[0] for call in calls[:last_mc + 1]] == ["mc_moments"] * len(rows)
        assert calls[last_mc + 1:] == [(name, lam, p) for lam, p in ran if lam <= 128.0
                                       for name in CHECK_CALLS]
        assert not any(row["error"] for row in rows)
        assert ([row["grid_rel_diff"] is not None for row in rows]
                == [row["lambda"] <= 128.0 for row in rows])

    def test_a_deferred_check_reads_the_rows_sample_and_kernel(self, tmp_path):
        config = parse_config(self.grid_doc(tmp_path, seed=11))
        rows = run_sweep(config).rows
        checked = 0
        for index, row in enumerate(rows):
            if row["grid_rel_diff"] is None:
                continue
            params = biasedwave.model.build_params(row["lambda"], row["gamma"],
                                                   row["alpha"], row["p"])
            coeffs = biasedwave.montecarlo.sample_coefficients(params, config.seed + index)
            fast = biasedwave.montecarlo.mass_quadratic_form(
                biasedwave.oscint.build_kernel(params), coeffs)
            slow = biasedwave.montecarlo.grid_quadrature_mass(params, coeffs)
            assert row["grid_rel_diff"] == abs(fast - slow) / abs(slow)
            checked += 1
        assert checked == 4

    def test_a_failed_check_is_recorded_on_its_own_row(self, tmp_path, monkeypatch,
                                                       capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.grid_doc(tmp_path)))
        clean = run_sweep(load_config(path)).rows
        grid = biasedwave.cli.grid_quadrature_mass

        def fails_at_128(params, coeffs):
            if params.lam == 128.0 and params.p == 0.8:
                raise ValueError("grid refused")
            return grid(params, coeffs)

        monkeypatch.setattr(biasedwave.cli, "grid_quadrature_mass", fails_at_128)
        assert main(["sweep", str(path)]) == 1
        assert "(6 rows, 1 failed)" in capsys.readouterr().out
        rows = json.loads((tmp_path / "run.json").read_text())
        assert [row["error"] for row in rows] == ["", "", "", "ValueError: grid refused",
                                                  "", ""]
        mc_columns = [c for c in SWEEP_COLUMNS if c.startswith("mc_")]
        for row, before in zip(rows, clean):
            assert [row[c] for c in mc_columns] == [before[c] for c in mc_columns]
        assert rows[3]["grid_rel_diff"] is None
        assert [row["grid_rel_diff"] for i, row in enumerate(rows) if i != 3] == [
            before["grid_rel_diff"] for i, before in enumerate(clean) if i != 3]

    def test_a_failed_monte_carlo_queues_no_check(self, tmp_path, monkeypatch):
        calls = []
        record_mc_and_checks(monkeypatch, calls)
        recorded_mc = biasedwave.cli.mc_moments

        def fails_at_64(kernel, samples, seed):
            if kernel.params.lam == 64.0:
                raise RuntimeError("sampling failed")
            return recorded_mc(kernel, samples, seed)

        monkeypatch.setattr(biasedwave.cli, "mc_moments", fails_at_64)
        rows = run_sweep(parse_config(self.grid_doc(tmp_path))).rows
        assert [row["error"] for row in rows] == ["RuntimeError: sampling failed"] * 2 + [""] * 4
        assert [row["grid_rel_diff"] is not None for row in rows] == [False, False, True,
                                                                      True, False, False]
        assert [call for call in calls if call[0] in CHECK_CALLS] == [
            (name, 128.0, p) for p in (0.5, 0.8) for name in CHECK_CALLS]

    def test_a_programming_error_in_a_check_propagates(self, tmp_path, monkeypatch):
        def broken(params, coeffs):
            raise TypeError("broken grid")

        monkeypatch.setattr(biasedwave.cli, "grid_quadrature_mass", broken)
        with pytest.raises(TypeError, match="broken grid"):
            run_sweep(parse_config(self.grid_doc(tmp_path)))


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

    def test_each_gamma_alpha_is_calibrated_once_per_run(self, tmp_path, monkeypatch):
        calibrated = []
        calibrate = biasedwave.cli.calibrate_constants

        def counted(kernel):
            calibrated.append((kernel.params.gamma, kernel.params.alpha))
            return calibrate(kernel)

        monkeypatch.setattr(biasedwave.cli, "calibrate_constants", counted)
        doc = base_config(  # gamma = ceil(ln lam) is 5, 5, 6, 7
            tmp_path, lambda_ladder=[64.0, 128.0, 256.0, 512.0],
            gamma={"mode": "log_lambda"}, alpha_list=[0.3, 0.5],
            p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})
        result = threshold_experiment(parse_config(doc))
        assert len(result.rows) == 4 * 4 * 2
        assert sorted(calibrated) == [(g, a) for g in (5.0, 6.0, 7.0) for a in (0.3, 0.5)]
        meta = json.loads(result.meta_path.read_text())
        assert len(meta["calibrations"]) == 6

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

    def test_log_lambda_fits_each_alpha_across_the_ladder(self, tmp_path, capsys):
        # gamma = ceil(ln lam) is 5, 5, 6 here, so no gamma holds three rows
        path = tmp_path / "config.json"
        doc = base_config(
            tmp_path,
            lambda_ladder=[64.0, 128.0, 256.0],
            gamma={"mode": "log_lambda"},
            p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})
        path.write_text(json.dumps(doc))
        assert main(["threshold", str(path)]) == 0
        out = capsys.readouterr().out
        fits = json.loads((tmp_path / "run.meta.json").read_text())["fits"]
        assert [f["family"] for f in fits] == ["fair", "at_threshold",
                                               "super_threshold", "unfair"]
        assert all(f["gamma"] is None and f["point_count"] == 3 for f in fits)
        assert out.count("gamma=log_lambda alpha=0.5 ") == 4
        slopes = {f["family"]: f["slope"] for f in fits}
        assert slopes["fair"] == pytest.approx(0.0, abs=0.02)
        assert slopes["unfair"] > 0.3


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

    @pytest.mark.parametrize("argv,start", [
        # N 64, whose row [1, -0.9, ..., -0.9] comes from the stand-in for
        # oscint.profile_rows below: its eigenvalue 1 - 0.9 * 63 lies below
        # the PSD floor, a RuntimeError
        (["kernel", "--lambda", "64", "--gamma", "1", "--alpha", "0.5",
          "--output", "kernel.csv"], "kernel spectrum "),
        (["fit", "missing.csv", "--x-col", "x", "--y-col", "y"], "[Errno 2] "),
    ], ids=["psd-floor", "missing-csv"])
    def test_refused_work_prints_one_line(self, tmp_path, capsys, monkeypatch,
                                          argv, start):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(biasedwave.oscint, "profile_rows", lambda geometries: [
            np.where(np.arange(g.n_dirs // 2 + 1) == 0, 1.0, -0.9) for g in geometries])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"biasedwave: error: {start}")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep"])
    @pytest.mark.parametrize("overrides,key", [
        ({"seed": -1}, "seed"), ({"sede": 0}, "sede"),
        ({"lambda_ladder": [10 ** 400]}, "lambda_ladder"),
        ({"tolerances": {"delta": 10 ** 400}}, "tolerances.delta"),
    ])
    def test_bad_config_prints_one_line(self, tmp_path, capsys, command,
                                        overrides, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, **overrides)))
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: ") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    @pytest.mark.parametrize("key,once,twice", [
        ("seed", '"seed": 1', '"seed": 1, "seed": 2'),
        ("delta", '"tolerances": {"delta": 0.5}',
         '"tolerances": {"delta": 0.5, "delta": 0.25}'),
    ], ids=["seed", "tolerances.delta"])
    def test_repeated_key_prints_one_line(self, tmp_path, capsys, no_rows,
                                          command, key, once, twice):
        doc = base_config(tmp_path, output_stem=str(tmp_path / "out" / "run"),
                          p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})
        del doc["seed"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc)[:-1] + f", {once}}}")
        load_config(path)  # the text is valid with the key written once
        path.write_text(json.dumps(doc)[:-1] + f", {twice}}}")
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: ") and repr(key) in err
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["sweep"])
    @pytest.mark.parametrize("content", ["{bad", None])
    def test_unreadable_config_prints_one_line(self, tmp_path, capsys, command,
                                               content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,key", [
        (["kernel", "--lambda", "64", "--gamma", "1", "--alpha", "1.5"], "alpha"),
        (["asymptotics", "--w-min", "0", "--w-max", "300"], "w_min"),
        (["asymptotics", "--w-min", "2", "--w-max", "3"], "points"),
        (["kernel", "--lambda", "1e300", "--gamma", "1e10", "--alpha", "0.5"],
         "gamma * lam"),
        (["asymptotics", "--w-min", "10", "--w-max", "inf"], "finite"),
        (["asymptotics", "--w-min", "10", "--w-max", "1e15"], "--w-max"),
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
                                                     no_rows, command):
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

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    @pytest.mark.parametrize("suffix", [".csv", ".meta.json"])
    def test_output_path_that_is_a_directory_prints_one_line(
            self, tmp_path, capsys, no_rows, command, suffix):
        (tmp_path / f"run{suffix}").mkdir()
        path = tmp_path / "config.json"
        doc = base_config(tmp_path)
        if command == "threshold":
            doc["p_rule"] = {"mode": "threshold", "c": 1.0, "beta_factor": 0.5}
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: output_stem ") and f"run{suffix}" in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", f"run{suffix}"]

    # Path.exists and is_dir return False for a stem holding a NUL byte, so it
    # is refused by name, like a stem without a file name
    @pytest.mark.parametrize("stem", [".", "/", "..", "results/", "results/.",
                                      "a\0b"])
    def test_stem_without_file_name_prints_one_line(self, tmp_path, capsys,
                                                     monkeypatch, no_rows, stem):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # ".." is tmp_path
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            tmp_path, output_stem=stem,
            p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})))
        for command in ("sweep", "threshold"):
            assert main([command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"biasedwave: error: output_stem {stem!r} ")
            assert err.count("\n") == 1
            assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "work"]

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    def test_outputs_may_not_overwrite_the_config(self, tmp_path, capsys,
                                                  monkeypatch, no_rows, command):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.json"  # the stem "run" writes run.json
        path.write_text(json.dumps(base_config(
            tmp_path, output_stem="run",
            p_rule={"mode": "threshold", "c": 1.0, "beta_factor": 0.5})))
        config_bytes = path.read_bytes()
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("biasedwave: error: output_stem 'run' ")
        assert str(path) in err and err.count("\n") == 1
        assert path.read_bytes() == config_bytes
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

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

    def test_refused_threshold_creates_no_directory(self, tmp_path, capsys):
        path = tmp_path / "config.json"  # a fixed p_rule: threshold refuses it
        path.write_text(json.dumps(base_config(
            tmp_path, output_stem=str(tmp_path / "newdir" / "sub" / "run"))))
        assert main(["threshold", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("biasedwave: error: threshold experiment requires a "
                       "threshold p_rule\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestReadmeExamples:
    """The README's config schema and command block match the program."""

    README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_config_schema_example_parses(self, tmp_path):
        block = re.search(r"### Config schema\s+```json\n(.*?)```", self.README, re.S)
        doc = json.loads(block.group(1))
        doc["output_stem"] = str(tmp_path / "out" / "run")
        config = parse_config(doc)
        assert config.output_stem == doc["output_stem"]

    def test_library_table_names_resolve(self):
        # a backticked identifier in a module's row names that module's or the
        # package's attribute, or a sweep column
        table = re.search(r"## Library layout\n(.*?)\n\n", self.README, re.S).group(1)
        rows = re.findall(r"^\| `biasedwave\.(\w+)` *\|(.*)\|$", table, re.M)
        assert len(rows) == 7
        for module, contents in rows:
            names = [n for n in re.findall(r"`([^`]+)`", contents) if n.isidentifier()]
            for name in names:
                assert (hasattr(getattr(biasedwave, module), name)
                        or hasattr(biasedwave, name) or name in SWEEP_COLUMNS), (module, name)

    def test_stated_constants_resolve_and_match(self):
        # a backticked UPPER_CASE name (two characters or more; `W` is the
        # profile, not a constant) is a constant of a package module, and
        # `NAME` = `value` or `NAME = value` states its value
        modules = [importlib.import_module(f"biasedwave.{info.name}")
                   for info in pkgutil.iter_modules(biasedwave.__path__)
                   if info.name != "__main__"]  # importing it runs the command line

        def constant(name):
            values = [getattr(m, name) for m in modules if hasattr(m, name)]
            assert values, name
            return values[0]

        for name in re.findall(r"`([A-Z][A-Z0-9_]+)`", self.README):
            constant(name)
        stated = re.findall(r"`([A-Z][A-Z0-9_]+)`? = `?([^`]+)`", self.README)
        assert "MAX_GRID_FIELD" in {name for name, _ in stated}
        for name, value in stated:
            assert eval(value, {"__builtins__": {}}) == constant(name), (name, value)

    def test_command_block_names_only_subcommands(self, capsys):
        # the block and the parser's subcommands (its usage line) are one set
        block = re.search(r"## Command line\s+```\n(.*?)```", self.README, re.S)
        commands = re.findall(r"^biasedwave (\S+)", block.group(1), re.M)
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = re.search(r"^usage: biasedwave \[-h\] \{([\w,]+)\}",
                            capsys.readouterr().out).group(1)
        assert sorted(commands) == sorted(choices.split(","))
        for command in commands:
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0, command
