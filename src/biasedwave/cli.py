"""Configuration-driven sweeps, threshold experiments, and CSV/JSON emission.

A sweep walks the (lambda, gamma, alpha, p) grid in config order, emits one
moment report per point (plus optional Monte Carlo columns), and writes
<stem>.csv, <stem>.json, and <stem>.meta.json.  All numeric CSV fields use
17-significant-digit scientific notation with LF line endings so repeated runs
are byte-identical; the sweep touches no random state unless Monte Carlo is
enabled.
"""

from __future__ import annotations

import argparse
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
from .model import build_params
from .moments import (DEFAULT_DELTA, DEFAULT_GAMMA_MIN, DEFAULT_KAPPA,
                      build_report, calibrate_constants)
from .montecarlo import (MIN_MC_SAMPLES, grid_quadrature_mass, mass_quadratic_form,
                         mc_moments, sample_coefficients)
from .oscint import (GL_ORDER, GL_REFINE_ORDER, PAIR_REL_TOL, S_CUT,
                     TABLE_DEGREE, TABLE_MAX_DRIFT, TABLE_PANEL_WIDTH,
                     build_kernel, export_kernel_csv)
from .specfun import asymptotic_check, residual_probe_points, surface_wave_envelope

SWEEP_COLUMNS = [
    "lambda", "gamma", "alpha", "p", "N", "E", "Var", "E_norm", "Var_norm",
    "vol_norm", "E_upper", "E_lower", "Var_upper", "class", "threshold_ok",
    "mc_samples", "mc_mean", "mc_var", "mc_se_mean", "mc_se_var", "mc_seed",
    "grid_rel_diff", "error",
]
THRESHOLD_COLUMNS = ["family", "beta"] + SWEEP_COLUMNS

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


def _number(value, where: str) -> float:
    """A finite JSON number as float; strings and booleans are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    """A JSON integer; floats, strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _numbers(values, where: str) -> tuple:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list")
    return tuple(_number(v, where) for v in values)


def _positive_floats(values, where: str) -> tuple:
    out = _numbers(values, where)
    if any(v <= 0 for v in out):
        raise ConfigError(f"{where} entries must be positive finite numbers")
    return out


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

    def p_for(self, lam: float, gamma: float, alpha: float) -> tuple:
        if self.p_mode == "fixed":
            return self.p_values
        beta = self.beta_for(alpha)
        return (0.5 + self.p_coefficient * lam ** (-beta) / math.sqrt(gamma),)


def parse_config(doc: dict) -> SweepConfig:
    """Validate a config document; unknown keys anywhere are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, {"lambda_ladder", "gamma", "alpha_list", "p_rule",
                        "output_stem"},
                  {"mc_samples", "seed", "tolerances", "grid_check",
                   "grid_check_lambda_cap"}, "config")
    ladder = _positive_floats(doc["lambda_ladder"], "lambda_ladder")
    if any(v <= 1.0 for v in ladder):
        raise ConfigError("lambda_ladder entries must exceed 1")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("lambda_ladder must be strictly increasing")

    gamma = doc["gamma"]
    if not isinstance(gamma, dict) or "mode" not in gamma:
        raise ConfigError("gamma must be an object with a 'mode'")
    if gamma["mode"] == "fixed":
        _require_keys(gamma, {"mode", "values"}, set(), "gamma")
        gamma_values = _positive_floats(gamma["values"], "gamma.values")
    elif gamma["mode"] == "log_lambda":
        _require_keys(gamma, {"mode"}, set(), "gamma")
        gamma_values = ()
    else:
        raise ConfigError(f"gamma.mode must be 'fixed' or 'log_lambda', "
                          f"got {gamma['mode']!r}")

    alphas = _numbers(doc["alpha_list"], "alpha_list")
    if any(not 0.0 <= a < 1.0 for a in alphas):
        raise ConfigError("alpha_list entries must lie in [0, 1)")

    p_rule = doc["p_rule"]
    if not isinstance(p_rule, dict) or "mode" not in p_rule:
        raise ConfigError("p_rule must be an object with a 'mode'")
    p_values: tuple = ()
    p_coefficient = 0.0
    p_beta = None
    p_beta_factor = None
    if p_rule["mode"] == "fixed":
        _require_keys(p_rule, {"mode", "values"}, set(), "p_rule")
        p_values = _numbers(p_rule["values"], "p_rule.values")
        if any(not 0.0 <= v <= 1.0 for v in p_values):
            raise ConfigError("p_rule.values must lie in [0, 1]")
    elif p_rule["mode"] == "threshold":
        _require_keys(p_rule, {"mode", "c"}, {"beta", "beta_factor"}, "p_rule")
        p_coefficient = _number(p_rule["c"], "p_rule.c")
        if p_coefficient < 0.0:
            raise ConfigError("p_rule.c must be non-negative")
        has_beta = "beta" in p_rule
        has_factor = "beta_factor" in p_rule
        if has_beta == has_factor:
            raise ConfigError("p_rule needs exactly one of 'beta' or 'beta_factor'")
        if has_beta:
            p_beta = _number(p_rule["beta"], "p_rule.beta")
            if p_beta < 0.0:
                raise ConfigError("p_rule.beta must be non-negative")
        else:
            p_beta_factor = _number(p_rule["beta_factor"], "p_rule.beta_factor")
            if p_beta_factor < 0.0:
                raise ConfigError("p_rule.beta_factor must be non-negative")
    else:
        raise ConfigError(f"p_rule.mode must be 'fixed' or 'threshold', "
                          f"got {p_rule['mode']!r}")

    mc_samples = _integer(doc.get("mc_samples", 0), "mc_samples")
    if mc_samples < 0 or 0 < mc_samples < MIN_MC_SAMPLES:
        raise ConfigError(
            f"mc_samples must be 0 (disabled) or at least {MIN_MC_SAMPLES}")
    seed = _integer(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    rows = len(ladder) * len(alphas) * (len(gamma_values) or 1) * (len(p_values) or 1)
    if seed + rows - 1 >= 2 ** 64:  # row i keys its Philox stream with seed + i
        raise ConfigError(f"seed + {rows - 1} (last row) must be < 2**64, got {seed}")

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
    grid_cap = _number(doc.get("grid_check_lambda_cap", 256.0),
                       "grid_check_lambda_cap")
    if grid_cap <= 0:
        raise ConfigError("grid_check_lambda_cap must be positive")

    stem = doc["output_stem"]
    if not isinstance(stem, str) or not stem:
        raise ConfigError("output_stem must be a non-empty string")

    return SweepConfig(
        lambda_ladder=ladder, gamma_mode=gamma["mode"], gamma_values=gamma_values,
        alpha_list=alphas, p_mode=p_rule["mode"], p_values=p_values,
        p_coefficient=p_coefficient, p_beta=p_beta, p_beta_factor=p_beta_factor,
        mc_samples=mc_samples, seed=seed, output_stem=stem,
        delta=delta, kappa=kappa, gamma_min=gamma_min,
        grid_check=grid_check, grid_check_lambda_cap=grid_cap,
    )


def _read_config(path):
    """The JSON document in the file at path; an unreadable file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def load_config(path) -> SweepConfig:
    return parse_config(_read_config(path))


def _empty_row() -> dict:
    return {name: None for name in SWEEP_COLUMNS}


def _sweep_rows(config: SweepConfig):
    """Yield rows in config order together with the calibration table."""
    lam_cal = config.lambda_ladder[0]
    calibrations: dict = {}
    rows = []
    index = 0
    for lam in config.lambda_ladder:
        for gamma in config.gammas_for(lam):
            for alpha in config.alpha_list:
                cal_key = (gamma, alpha)
                for p in config.p_for(lam, gamma, alpha):
                    row = _empty_row()
                    row.update({"lambda": lam, "gamma": gamma, "alpha": alpha,
                                "p": p, "error": ""})
                    try:
                        if cal_key not in calibrations:
                            reference = build_params(lam_cal, gamma, alpha, 0.5)
                            calibrations[cal_key] = calibrate_constants(
                                build_kernel(reference))
                        constants = calibrations[cal_key]
                        kernel = build_kernel(build_params(lam, gamma, alpha, p))
                        row.update(build_report(kernel, constants=constants,
                                                delta=config.delta,
                                                kappa=config.kappa,
                                                gamma_min=config.gamma_min))
                        if config.mc_samples > 0:
                            row.update(mc_moments(kernel, config.mc_samples,
                                                  config.seed + index))
                            if (config.grid_check
                                    and lam <= config.grid_check_lambda_cap):
                                coeffs = sample_coefficients(
                                    kernel.params, config.seed + index)
                                fast = mass_quadratic_form(kernel, coeffs)
                                slow = grid_quadrature_mass(kernel.params, coeffs)
                                row["grid_rel_diff"] = abs(fast - slow) / abs(slow)
                    except (ValueError, RuntimeError) as exc:  # recorded, sweep continues
                        row["error"] = f"{type(exc).__name__}: {exc}"
                    rows.append(row)
                    index += 1
    return rows, calibrations


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


def _output_base(stem: str) -> Path:
    """Path of the output stem, its directory created before any row runs.

    A directory that cannot be created is a ConfigError naming output_stem.
    """
    base = Path(stem)
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_stem {stem!r} cannot be written: {exc}") from None
    return base


def _write_outputs(rows, columns, base: Path, meta: dict):
    csv_path = base.with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])
    json_path = base.with_suffix(".json")
    with open(json_path, "w") as fh:
        json.dump([{c: row.get(c) for c in columns} for row in rows],
                  fh, indent=2, sort_keys=False)
        fh.write("\n")
    meta_path = base.with_suffix(".meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path, meta_path


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
    }


@dataclass(frozen=True)
class SweepResult:
    rows: list
    csv_path: Path
    json_path: Path
    meta_path: Path


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every grid point, write CSV/JSON/meta, and return the rows."""
    base = _output_base(config.output_stem)
    rows, calibrations = _sweep_rows(config)
    paths = _write_outputs(rows, SWEEP_COLUMNS, base, _meta(config, calibrations))
    return SweepResult(rows, *paths)


@dataclass(frozen=True)
class ThresholdResult:
    rows: list
    fits: list
    csv_path: Path
    json_path: Path
    meta_path: Path


def threshold_experiment(config: SweepConfig) -> ThresholdResult:
    """Run the fair / at-threshold / super-threshold / fully-biased families.

    For each (family, gamma, alpha) the lambda-exponent of
    E_norm / vol_norm is fitted across the ladder.  The at-threshold family
    (beta = alpha/2) should stay flat; the super-threshold family
    (beta = alpha/4) should grow with exponent about alpha/2; the fully biased
    family should lose equidistribution at large lambda.  Each family sets its
    own beta, so the config's beta and beta_factor are cleared and the meta
    records null for both.
    """
    if config.p_mode != "threshold":
        raise ConfigError("threshold experiment requires a threshold p_rule")
    base = _output_base(config.output_stem)
    config = dataclasses.replace(config, p_beta=None, p_beta_factor=None)
    all_rows = []
    fits = []
    calibrations_all: dict = {}
    for family, rule in THRESHOLD_FAMILIES.items():
        fam_config = dataclasses.replace(config, **rule)
        rows, calibrations = _sweep_rows(fam_config)
        calibrations_all.update(calibrations)
        for row in rows:
            row["family"] = family
            row["beta"] = (fam_config.beta_for(row["alpha"])
                           if fam_config.p_mode == "threshold" else None)
        all_rows.extend(rows)
        for gamma in sorted({r["gamma"] for r in rows}):
            for alpha in fam_config.alpha_list:
                sel = [r for r in rows
                       if r["gamma"] == gamma and r["alpha"] == alpha
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
    meta = _meta(config, calibrations_all)
    meta["fits"] = fits
    paths = _write_outputs(all_rows, THRESHOLD_COLUMNS, base, meta)
    return ThresholdResult(all_rows, fits, *paths)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    result = run_sweep(load_config(args.config))
    failures = sum(1 for r in result.rows if r["error"])
    print(f"wrote {result.csv_path} ({len(result.rows)} rows, {failures} failed)")
    return 0 if failures == 0 else 1


def _cmd_threshold(args) -> int:
    result = threshold_experiment(load_config(args.config))
    failures = sum(1 for r in result.rows if r["error"])
    print(f"wrote {result.csv_path} ({len(result.rows)} rows, {failures} failed, "
          f"{len(result.fits)} fits)")
    for f in result.fits:
        print(f"  {f['family']:16s} gamma={f['gamma']:g} alpha={f['alpha']:g} "
              f"slope={f['slope']:+.3f} r2={f['r_squared']:.4f}")
    return 0 if failures == 0 else 1


def _cmd_kernel(args) -> int:
    try:  # the kernel depends on the geometry alone; any coin gives the same rows
        kernel = build_kernel(build_params(args.lam, args.gamma, args.alpha, 0.5))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        export_kernel_csv(kernel, args.output)
    except OSError as exc:
        raise ConfigError(f"--output {args.output!r} cannot be written: {exc}") from None
    print(f"wrote {args.output} ({kernel.size} separations)")
    return 0


def _cmd_asymptotics(args) -> int:
    try:  # a window without enough probe points or maxima is a bad argument
        check = asymptotic_check(residual_probe_points(args.w_min, args.w_max))
        slope = check.residual_slope()
        radii = np.linspace(args.w_min, args.w_max,
                            max(2048, int(8 * (args.w_max - args.w_min) / np.pi)))
        envelope = surface_wave_envelope(2.0, radii / 2.0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(json.dumps({
        "w_min": args.w_min, "w_max": args.w_max,
        "residual_slope": slope.slope, "residual_r_squared": slope.r_squared,
        "c_check": check.c_check,
        "envelope_exponent": envelope.envelope_exponent,
        "envelope_r_squared": envelope.envelope_fit.r_squared,
    }, indent=2))
    return 0


def _cmd_mc(args) -> int:
    doc = _read_config(args.config)
    if isinstance(doc, dict):  # overrides are validated like the file itself
        doc.update(mc_samples=args.samples, seed=args.seed)
    result = run_sweep(parse_config(doc))
    failures = sum(1 for r in result.rows if r["error"])
    print(f"wrote {result.csv_path} ({len(result.rows)} rows, {failures} failed)")
    return 0 if failures == 0 else 1


def _cmd_fit(args) -> int:
    try:  # a missing column, an unreadable file or too few points is a bad argument
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
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
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

    p_mc = sub.add_parser("mc", help="run a sweep with Monte Carlo overrides")
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--samples", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.set_defaults(func=_cmd_mc)

    p_fit = sub.add_parser("fit", help="fit a power-law exponent from CSV columns")
    p_fit.add_argument("csv")
    p_fit.add_argument("--x-col", required=True)
    p_fit.add_argument("--y-col", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # exit 1 is kept for failed rows
        print(f"biasedwave: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
