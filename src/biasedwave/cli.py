"""Configuration-driven sweeps, threshold experiments, and CSV/JSON emission.

A sweep walks the (lambda, gamma, alpha, p) grid in config order, emits one
moment report per point (plus optional Monte Carlo columns), and writes
<stem>.csv, <stem>.json, and <stem>.meta.json.  The optional grid checks run
after every row's Monte Carlo, in row order: OpenBLAS's idle thread spins
after each of their GEMMs and would take a CPU from the sampling.  The
kernel table (k, d_k, I_k, mu_k) is written by the same CSV writer.  All
numeric CSV fields use 17-significant-digit scientific notation with LF line
endings so repeated runs are byte-identical; the sweep touches no random
state unless Monte Carlo is enabled.  `model`'s checks decide which input is
valid, the config's included; the parser only names the key.  Every refusal
(_REFUSALS) is one stderr line and exit 2; exit 1 is kept for failed rows.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fitting import fit_exponent
from .model import (_check_integer, _check_real, _check_wave, build_directions,
                    build_params)
from .moments import (DEFAULT_DELTA, DEFAULT_GAMMA_MIN, DEFAULT_KAPPA,
                      build_report, calibrate_constants)
from .montecarlo import (MIN_MC_SAMPLES, SAMPLING, grid_quadrature_mass,
                         mass_quadratic_form, mc_moments, sample_coefficients)
from .oscint import (GL_ORDER, GL_REFINE_ORDER, PAIR_REL_TOL, S_CUT,
                     TABLE_DEGREE, TABLE_MAX_DRIFT, TABLE_PANEL_WIDTH,
                     build_kernel, profile_rows)
from .specfun import asymptotic_check, residual_probe_points, surface_wave_envelope

SWEEP_COLUMNS = [
    "lambda", "gamma", "alpha", "p", "N", "E", "Var", "E_norm", "Var_norm",
    "vol_norm", "E_upper", "E_lower", "Var_upper", "class", "threshold_ok",
    "mc_samples", "mc_mean", "mc_var", "mc_se_mean", "mc_se_var", "mc_seed",
    "grid_rel_diff", "error",
]
THRESHOLD_COLUMNS = ["family", "beta"] + SWEEP_COLUMNS
# the errors that refuse an input or its work: a row records one, main exits 2
_REFUSALS = (ValueError, RuntimeError, MemoryError, OSError)
ASYMPTOTICS_MAX_RADII = 1 << 22  # the envelope's samples in `asymptotics`

# each family's p-rule fields; the threshold families keep the config's c
THRESHOLD_FAMILIES = {
    "fair": {"p_mode": "fixed", "p_values": (0.5,)},
    "at_threshold": {"p_beta_factor": 0.5},
    "super_threshold": {"p_beta_factor": 0.25},
    "unfair": {"p_mode": "fixed", "p_values": (1.0,)},
}


class ConfigError(ValueError):
    """Raised on malformed or unknown config content or command-line arguments."""


def _require_keys(obj: dict, required: set, optional: set, where: str):
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - keys
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _config_check(check, *args) -> None:
    """check(*args), one of model's input checks, its refusal raised as a ConfigError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _number(value, where: str) -> float:
    """A number that model._check_real takes, as float."""
    _config_check(_check_real, where, value)
    return float(value)


def _integer(value, where: str) -> int:
    """A non-negative integer that model._check_integer takes."""
    _config_check(_check_integer, where, value, 0)
    return value


def _wave_values(values, where: str, param: str) -> tuple:
    """Distinct values of the wave parameter param (model._check_wave), as floats."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list")
    for value in values:
        _config_check(_check_wave, param, value, f"{where} entries")
    out = tuple(map(float, values))
    if len(set(out)) < len(out):  # a repeat would run, and fit, rows twice
        raise ConfigError(f"{where} entries must be distinct")
    return out


def _non_negative(value, where: str) -> float:
    number = _number(value, where)
    if number < 0.0:
        raise ConfigError(f"{where} must be non-negative")
    return number


def _rule(doc: dict, name: str, modes: dict):
    """The mode and object of the rule doc[name], an object with a 'mode' key.

    modes maps each mode to its (required, optional) keys besides 'mode'.  A
    tuple of the names is searched, so a list or object mode is an unknown mode.
    """
    rule = doc[name]
    if not isinstance(rule, dict) or "mode" not in rule:
        raise ConfigError(f"{name} must be an object with a 'mode'")
    names = tuple(modes)
    if rule["mode"] not in names:
        raise ConfigError(f"{name}.mode must be {' or '.join(map(repr, names))}, "
                          f"got {rule['mode']!r}")
    required, optional = modes[rule["mode"]]
    _require_keys(rule, {"mode", *required}, set(optional), name)
    return rule["mode"], rule


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; see README for the JSON schema."""

    lambda_ladder: tuple
    gamma_mode: str
    gamma_values: tuple
    alpha_list: tuple
    p_mode: str
    p_values: tuple
    p_coefficient: float
    p_beta: float | None
    p_beta_factor: float | None
    mc_samples: int
    seed: int
    output_stem: str
    delta: float
    kappa: float
    gamma_min: float
    grid_check: bool
    grid_check_lambda_cap: float

    def gammas_for(self, lam: float) -> tuple:
        if self.gamma_mode == "fixed":
            return self.gamma_values
        return (float(math.ceil(math.log(lam))),)

    def beta_for(self, alpha: float) -> float:
        if self.p_beta is not None:
            return self.p_beta
        return self.p_beta_factor * alpha

    def points(self):
        """(lam, gamma, alpha, p) of every row, in config order, p innermost."""
        for lam in self.lambda_ladder:
            for gamma in self.gammas_for(lam):
                for alpha in self.alpha_list:
                    if self.p_mode == "fixed":
                        yield from ((lam, gamma, alpha, p) for p in self.p_values)
                    else:
                        beta = self.beta_for(alpha)
                        yield lam, gamma, alpha, (
                            0.5 + self.p_coefficient * lam ** (-beta) / math.sqrt(gamma))


def parse_config(doc: dict) -> SweepConfig:
    """Validate a config document; unknown keys anywhere are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, {"lambda_ladder", "gamma", "alpha_list", "p_rule",
                        "output_stem"},
                  {"mc_samples", "seed", "tolerances", "grid_check",
                   "grid_check_lambda_cap"}, "config")
    ladder = _wave_values(doc["lambda_ladder"], "lambda_ladder", "lam")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("lambda_ladder must be strictly increasing")

    gamma_mode, gamma = _rule(doc, "gamma", {"fixed": ({"values"}, ()),
                                             "log_lambda": ((), ())})
    gamma_values = (_wave_values(gamma["values"], "gamma.values", "gamma")
                    if gamma_mode == "fixed" else ())
    alphas = _wave_values(doc["alpha_list"], "alpha_list", "alpha")

    p_mode, p_rule = _rule(doc, "p_rule", {"fixed": ({"values"}, ()),
                                           "threshold": ({"c"}, ("beta", "beta_factor"))})
    p_values, p_coefficient, p_beta, p_beta_factor = (), 0.0, None, None
    if p_mode == "fixed":
        p_values = _wave_values(p_rule["values"], "p_rule.values", "p")
    else:
        p_coefficient = _non_negative(p_rule["c"], "p_rule.c")
        if ("beta" in p_rule) == ("beta_factor" in p_rule):
            raise ConfigError("p_rule needs exactly one of 'beta' or 'beta_factor'")
        p_beta, p_beta_factor = (_non_negative(p_rule[key], f"p_rule.{key}")
                                 if key in p_rule else None
                                 for key in ("beta", "beta_factor"))

    mc_samples = _integer(doc.get("mc_samples", 0), "mc_samples")
    if 0 < mc_samples < MIN_MC_SAMPLES:
        raise ConfigError(
            f"mc_samples must be 0 (disabled) or at least {MIN_MC_SAMPLES}")
    seed = _integer(doc.get("seed", 0), "seed")

    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError(f"tolerances must be an object, got {tol!r}")
    _require_keys(tol, set(), {"delta", "kappa", "gamma_min"}, "tolerances")
    delta = _number(tol.get("delta", DEFAULT_DELTA), "tolerances.delta")
    kappa = _number(tol.get("kappa", DEFAULT_KAPPA), "tolerances.kappa")
    gamma_min = _number(tol.get("gamma_min", DEFAULT_GAMMA_MIN),
                        "tolerances.gamma_min")
    if delta <= 0 or kappa <= 1:
        raise ConfigError("tolerances require delta > 0 and kappa > 1")
    if gamma_min <= 0:
        raise ConfigError(f"tolerances.gamma_min must be positive, got {gamma_min}")

    grid_check = doc.get("grid_check", False)
    if not isinstance(grid_check, bool):
        raise ConfigError(f"grid_check must be true or false, got {grid_check!r}")
    if grid_check and mc_samples == 0:  # the check reads a row's first Monte Carlo sample
        raise ConfigError("grid_check needs Monte Carlo: set mc_samples to at least "
                          f"{MIN_MC_SAMPLES} or grid_check to false")
    grid_cap = _number(doc.get("grid_check_lambda_cap", 256.0),
                       "grid_check_lambda_cap")
    if grid_cap <= 0:
        raise ConfigError("grid_check_lambda_cap must be positive")
    if grid_check and grid_cap < ladder[0]:  # the check runs on rows with lambda <= cap
        raise ConfigError(f"grid_check_lambda_cap {grid_cap} is below every lambda_ladder "
                          "entry, so grid_check would check no row")

    stem = doc["output_stem"]
    if not isinstance(stem, str) or not stem:
        raise ConfigError("output_stem must be a non-empty string")

    config = SweepConfig(
        lambda_ladder=ladder, gamma_mode=gamma_mode, gamma_values=gamma_values,
        alpha_list=alphas, p_mode=p_mode, p_values=p_values,
        p_coefficient=p_coefficient, p_beta=p_beta, p_beta_factor=p_beta_factor,
        mc_samples=mc_samples, seed=seed, output_stem=stem,
        delta=delta, kappa=kappa, gamma_min=gamma_min,
        grid_check=grid_check, grid_check_lambda_cap=grid_cap,
    )
    rows = sum(1 for _ in config.points())
    if seed + rows - 1 >= 2 ** 64:  # row i seeds its sign stream with seed + i
        raise ConfigError(f"seed + {rows - 1} (last row) must be < 2**64, got {seed}")
    return config


def _unique_keys(pairs) -> dict:
    """A JSON object from its key-value pairs; a key written twice is refused."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is written twice")
        doc[key] = value
    return doc


def load_config(path) -> SweepConfig:
    """The config in the file at path.

    The output paths are named here, before any row runs or any directory is
    created (see _output_paths): an unreadable file, a key written twice in
    any object, and a config whose outputs would overwrite the file, is a
    ConfigError.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    config = parse_config(doc)
    for out in _output_paths(config.output_stem):
        if out.exists() and out.samefile(path):
            raise ConfigError(f"output_stem {config.output_stem!r} would overwrite "
                              f"the config {path}")
    return config


def _geometry(params) -> tuple:
    return params.n_dirs, params.lam, params.alpha


@contextlib.contextmanager
def _row_errors(row: dict):
    """Record an error of the row's own work on the row; the run goes on.

    Only the _REFUSALS are recorded, the errors that main maps to exit 2 (no
    row's work reads or writes a file, so none raises OSError): any other
    exception is a programming error and propagates.
    """
    try:
        yield
    except _REFUSALS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"


def _sweep_rows(configs: list) -> tuple:
    """Each config's rows in config order, and the run's calibration table.

    The configs differ only in their coins, so row i of each has one geometry
    and keys its Monte Carlo stream with seed + i.  Each (gamma, alpha) is
    calibrated once, at ladder[0], and each (N, lam, alpha) is built once: p
    is the innermost loop, and the calibration kernel serves its own geometry.
    Every kernel row of the run, the ladder[0] references included, comes
    from one profile_rows pass in build order before the first row runs; a
    geometry whose build_params fails is left out, and its rows record that.

    The run has two phases.  The row loop runs every row's report and Monte
    Carlo and queues each grid check (row, kernel, seed + i); the queued
    checks run after it, in the order their rows ran, on the same sample and
    kernel.  The grid check's GEMMs leave OpenBLAS's idle worker thread
    spinning for a while after each call, which would take a CPU from the
    next row's Monte Carlo; after the last row there is none left to slow.
    A row whose Monte Carlo fails queues no check, and a check that fails
    records its error on its own row, keeping its mc_* columns.
    """
    geometries = {}
    for lam, gamma, alpha, _ in configs[0].points():
        for rung in (configs[0].lambda_ladder[0], lam):
            try:
                params = build_params(rung, gamma, alpha, 0.5)
            except ValueError:
                continue
            geometries.setdefault(_geometry(params), params)
    table = dict(zip(geometries, profile_rows(list(geometries.values()))))

    calibrations, kernel, out, checks = {}, None, [[] for _ in configs], []
    for index, points in enumerate(zip(*(c.points() for c in configs), strict=True)):
        for config, rows, (lam, gamma, alpha, p) in zip(configs, out, points):
            row = dict.fromkeys(SWEEP_COLUMNS)
            row.update({"lambda": lam, "gamma": gamma, "alpha": alpha, "p": p,
                        "error": ""})
            rows.append(row)
            with _row_errors(row):
                if (gamma, alpha) not in calibrations:
                    reference = build_params(config.lambda_ladder[0], gamma, alpha, 0.5)
                    kernel = build_kernel(reference, table[_geometry(reference)])
                    calibrations[gamma, alpha] = calibrate_constants(kernel)
                params = build_params(lam, gamma, alpha, p)
                if kernel is None or _geometry(kernel.params) != _geometry(params):
                    kernel = build_kernel(params, table[_geometry(params)])
                kernel = dataclasses.replace(kernel, params=params)
                row.update(build_report(kernel, constants=calibrations[gamma, alpha],
                                        delta=config.delta, kappa=config.kappa,
                                        gamma_min=config.gamma_min))
                if config.mc_samples > 0:
                    row.update(mc_moments(kernel, config.mc_samples, config.seed + index))
                    if config.grid_check and lam <= config.grid_check_lambda_cap:
                        checks.append((row, kernel, config.seed + index))
    for row, kernel, seed in checks:
        with _row_errors(row):
            coeffs = sample_coefficients(kernel.params, seed)
            fast = mass_quadratic_form(kernel, coeffs)
            slow = grid_quadrature_mass(kernel.params, coeffs)
            row["grid_rel_diff"] = abs(fast - slow) / abs(slow)
    return out, calibrations


def _format_cell(value) -> str:
    """A CSV cell from its value's type; a float gets 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.16e}"


def _output_paths(stem: str) -> tuple:
    """The stem's .csv, .json and .meta.json paths; nothing is created.

    A stem holding a NUL byte, or whose text does not end in its file name
    (".", "/", "..", or one ending in a separator such as "results/"), is a
    ConfigError naming output_stem.
    """
    if "\0" in stem:
        raise ConfigError(f"output_stem {stem!r} holds a NUL byte")
    base = Path(stem)
    if base.name in ("", "..") or not stem.endswith(base.name):
        raise ConfigError(f"output_stem {stem!r} has no file name")
    return tuple(base.with_name(base.name + suffix)
                 for suffix in (".csv", ".json", ".meta.json"))


def _created_output_paths(stem: str) -> tuple:
    """The stem's output paths, their directory created before any row runs.
    A path that is a directory, or a directory that cannot be created, is a
    ConfigError naming output_stem."""
    paths = _output_paths(stem)
    for out in paths:
        if out.is_dir():
            raise ConfigError(f"output_stem {stem!r} would write over the directory {out}")
    try:
        paths[0].parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_stem {stem!r} cannot be written: {exc}") from None
    return paths


def _write_csv(path, columns, rows):
    """A header of columns and one line of _format_cell cells per row, LF-ended."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_cell(value) for value in row] for row in rows)


def export_kernel_csv(kernel, path) -> None:
    """Write the kernel's k, d_k, I_k, mu_k rows in the sweep's cell format."""
    chord = build_directions(kernel.params).chord
    _write_csv(path, ["k", "d_k", "I_k", "mu_k"],
               zip(range(kernel.size), chord, kernel.values, kernel.spectrum))


def _write_outputs(rows, columns, paths: tuple, meta: dict):
    csv_path, json_path, meta_path = paths
    _write_csv(csv_path, columns, ([row.get(c) for c in columns] for row in rows))
    json_path.write_text(json.dumps([{c: row.get(c) for c in columns} for row in rows],
                                    indent=2) + "\n")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _meta(config: SweepConfig, calibrations: dict) -> dict:
    return {
        "package": "biasedwave",
        "version": __version__,
        "seed": config.seed,
        "config": dataclasses.asdict(config),
        "quadrature": {"table_panel_width": TABLE_PANEL_WIDTH,
                       "table_degree": TABLE_DEGREE, "table_s_cut": S_CUT,
                       "table_node_order": GL_ORDER,
                       "gl_refine_order": GL_REFINE_ORDER,
                       "table_max_drift": TABLE_MAX_DRIFT,
                       "pair_rel_tol": PAIR_REL_TOL},
        "calibrations": {f"gamma={g},alpha={a}": c
                         for (g, a), c in sorted(calibrations.items())},
        "sampling": {**SAMPLING, "key": "SeedSequence(seed + row)"},
    }


@dataclass(frozen=True)
class SweepResult:
    """A run's rows and output paths; fits is None except for a threshold run."""

    rows: list
    csv_path: Path
    json_path: Path
    meta_path: Path
    fits: list | None = None


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every grid point, write CSV/JSON/meta, and return the rows."""
    paths = _created_output_paths(config.output_stem)
    [rows], calibrations = _sweep_rows([config])
    _write_outputs(rows, SWEEP_COLUMNS, paths, _meta(config, calibrations))
    return SweepResult(rows, *paths)


def threshold_experiment(config: SweepConfig) -> SweepResult:
    """Run the fair / at-threshold / super-threshold / fully-biased families.

    For each (family, gamma, alpha) the lambda-exponent of E_norm / vol_norm
    is fitted across the ladder.  In log_lambda mode gamma = ceil(ln lam)
    moves along the ladder, so each (family, alpha) is fitted across it and
    the fit's gamma is None.  The at-threshold family (beta = alpha/2) should
    stay flat; the super-threshold family (beta = alpha/4) should grow with
    exponent about alpha/2; the fully biased family should lose
    equidistribution at large lambda.  Each family sets its own beta, so the
    config's beta and beta_factor are cleared and the meta records null for
    both.
    """
    if config.p_mode != "threshold":
        raise ConfigError("threshold experiment requires a threshold p_rule")
    paths = _created_output_paths(config.output_stem)
    config = dataclasses.replace(config, p_beta=None, p_beta_factor=None)
    all_rows = []
    fits = []
    fam_configs = [dataclasses.replace(config, **rule)
                   for rule in THRESHOLD_FAMILIES.values()]
    fam_rows, calibrations = _sweep_rows(fam_configs)
    pooled = config.gamma_mode == "log_lambda"  # gamma moves with lam
    for family, fam_config, rows in zip(THRESHOLD_FAMILIES, fam_configs, fam_rows):
        for row in rows:
            row["family"] = family
            row["beta"] = (fam_config.beta_for(row["alpha"])
                           if fam_config.p_mode == "threshold" else None)
        all_rows.extend(rows)
        for gamma in [None] if pooled else sorted({r["gamma"] for r in rows}):
            for alpha in fam_config.alpha_list:
                sel = [r for r in rows
                       if (pooled or r["gamma"] == gamma) and r["alpha"] == alpha
                       and not r["error"]]
                if len(sel) < 3:
                    continue
                lams = np.array([r["lambda"] for r in sel])
                ratio = np.array([r["E_norm"] / r["vol_norm"] for r in sel])
                fit = fit_exponent(lams, ratio)
                fits.append({"family": family, "gamma": gamma, "alpha": alpha,
                             "beta": sel[0]["beta"], "slope": fit.slope,
                             "r_squared": fit.r_squared,
                             "point_count": fit.point_count})
    meta = _meta(config, calibrations)
    meta["fits"] = fits
    _write_outputs(all_rows, THRESHOLD_COLUMNS, paths, meta)
    return SweepResult(all_rows, *paths, fits)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _summary(result) -> int:
    """Print the `wrote` line (and a threshold run's fits); 1 if any row failed."""
    failures = sum(1 for r in result.rows if r["error"])
    tail = "" if result.fits is None else f", {len(result.fits)} fits"
    print(f"wrote {result.csv_path} ({len(result.rows)} rows, {failures} failed{tail})")
    for f in result.fits or ():
        gamma = "log_lambda" if f["gamma"] is None else f"{f['gamma']:g}"
        print(f"  {f['family']:16s} gamma={gamma} alpha={f['alpha']:g} "
              f"slope={f['slope']:+.3f} r2={f['r_squared']:.4f}")
    return 0 if failures == 0 else 1


def _cmd_sweep(args) -> int:
    return _summary(run_sweep(load_config(args.config)))


def _cmd_threshold(args) -> int:
    return _summary(threshold_experiment(load_config(args.config)))


def _cmd_kernel(args) -> int:
    # the kernel depends on the geometry alone; any coin gives the same rows
    kernel = build_kernel(build_params(args.lam, args.gamma, args.alpha, 0.5))
    try:
        export_kernel_csv(kernel, args.output)
    except OSError as exc:
        raise ConfigError(f"--output {args.output!r} cannot be written: {exc}") from None
    print(f"wrote {args.output} ({kernel.size} separations)")
    return 0


def _cmd_asymptotics(args) -> int:
    n_radii = 8 * (args.w_max - args.w_min) / np.pi  # 8 per probe point
    if math.isfinite(args.w_max) and n_radii > ASYMPTOTICS_MAX_RADII:
        max_width = ASYMPTOTICS_MAX_RADII * np.pi / 8
        raise ConfigError(f"--w-max - --w-min must be at most {max_width:.0f}, "
                          f"got {args.w_max - args.w_min:g}")
    check = asymptotic_check(residual_probe_points(args.w_min, args.w_max))
    slope = check.residual_slope()
    radii = np.linspace(args.w_min, args.w_max, max(2048, int(n_radii)))
    envelope = surface_wave_envelope(2.0, radii / 2.0)
    print(json.dumps({
        "w_min": args.w_min, "w_max": args.w_max,
        "residual_slope": slope.slope, "residual_r_squared": slope.r_squared,
        "c_check": check.c_check,
        "envelope_exponent": envelope.envelope_exponent,
        "envelope_r_squared": envelope.envelope_fit.r_squared,
    }, indent=2))
    return 0


def _cmd_fit(args) -> int:
    with open(args.csv, newline="") as fh:
        reader = csv.DictReader(fh)
        for col in (args.x_col, args.y_col):
            if col not in (reader.fieldnames or ()):
                raise ConfigError(f"column {col!r} is not in {args.csv}")
        xs, ys = [], []
        for row in reader:
            if row[args.x_col] and row[args.y_col]:
                xs.append(float(row[args.x_col]))
                ys.append(float(row[args.y_col]))
    fit = fit_exponent(np.array(xs), np.array(ys))
    print(json.dumps({"slope": fit.slope, "intercept": fit.intercept,
                      "r_squared": fit.r_squared,
                      "point_count": fit.point_count}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biasedwave",
        description="moment verification sweeps for biased-sign random waves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_thr = sub.add_parser(
        "threshold", help="run the threshold-family experiment",
        description="Run the fair, at-threshold, super-threshold and unfair "
                    "families over the config's grid.  Of p_rule only c is "
                    "read: each family sets its own beta, so the config's "
                    "beta or beta_factor leaves the rows unchanged.")
    p_thr.add_argument("config")
    p_thr.set_defaults(func=_cmd_threshold)

    p_ker = sub.add_parser("kernel", help="export one circulant kernel as CSV")
    p_ker.add_argument("--lambda", dest="lam", type=float, required=True)
    p_ker.add_argument("--gamma", type=float, required=True)
    p_ker.add_argument("--alpha", type=float, required=True)
    p_ker.add_argument("--output", default="kernel.csv")
    p_ker.set_defaults(func=_cmd_kernel)

    p_asy = sub.add_parser("asymptotics",
                           help="check the large-argument angular integral")
    p_asy.add_argument("--w-min", type=float, required=True)
    p_asy.add_argument("--w-max", type=float, required=True)
    p_asy.set_defaults(func=_cmd_asymptotics)

    p_fit = sub.add_parser("fit", help="fit a power-law exponent from CSV columns")
    p_fit.add_argument("csv")
    p_fit.add_argument("--x-col", required=True)
    p_fit.add_argument("--y-col", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _REFUSALS as exc:  # exit 1 is kept for failed rows
        print(f"biasedwave: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
