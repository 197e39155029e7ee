"""One fresh-interpreter pass of a workload; run by run.py, not by hand.

    python3 perfbench/worker.py --workload W --seed S --mode M --out DIR

Modes:
  probe  the host-speed probe alone: numpy and scipy, never the package.
  setup  import the package, build the cutoff, parse the config; nothing else.
  pass   setup, then one untraced pass (`cli.run_sweep`, or the oracle audit)
         timed end to end, then the correctness gates outside the timed region.
  trace  setup, then the untraced pass, then a traced pass: `cli.run_sweep`
         itself with a span around each module function it calls (or the
         oracle audit with a span around each call); then a J0
         micro-benchmark.

The result, with the spans of a traced pass, goes to DIR/result.json.  The
package is imported from the checkout's `src` and nowhere else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
import types
from pathlib import Path

import spans as spanlib
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Gate tolerances, each the one the repository's own tests apply to the same
# comparison (never looser).
CLOSED_FORM_REL_TOL = 1e-10   # acceptance 1 (enumeration), 2 (double sum)
GENERIC_REL_TOL = 1e-11       # test_moments: fast variance vs generic loop
GRID_REL_TOL = 1e-3           # acceptance 2: FFT form vs planar grid
MC_MEAN_SE, MC_VAR_SE = 4.0, 5.0  # acceptance 3: Monte Carlo bands
PLANAR_ORACLE_TOL = 1e-6      # test_oscint: kernel entry vs 2-d oracle, x I_0
E1_LITERAL_TOL = 1e-8         # test_montecarlo: literal discretisation norm


def import_package():
    src = ROOT / "src"
    if not (src / "biasedwave" / "__init__.py").is_file():
        sys.exit(f"no package source at {src}")
    sys.path.insert(0, str(src))
    import biasedwave
    from biasedwave import cli, model, moments, montecarlo, oscint, specfun
    if not Path(biasedwave.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"biasedwave imported from {biasedwave.__file__}, not {src}")
    return types.SimpleNamespace(cli=cli, model=model, moments=moments,
                                 montecarlo=montecarlo, oscint=oscint,
                                 specfun=specfun)


# The functions `cli.run_sweep` resolves in the `cli` namespace, as span name
# -> span attributes read from the call's arguments.  A traced pass wraps them
# there and calls `run_sweep` itself, so it measures the program's own calls.
SWEEP_LAYERS = {
    "oscint.build_kernel": lambda params, *_, **__: {
        "alpha": params.alpha, "entries": params.n_dirs // 2 + 1},
    "moments.calibrate_constants": None,
    "moments.build_report": None,
    "montecarlo.mc_moments": lambda kernel, samples, *_, **__: {"samples": samples},
    "montecarlo.sample_coefficients": None,
    "montecarlo.mass_quadratic_form": None,
    "montecarlo.grid_quadrature_mass": None,
}


def oracle_audit(bw, inputs: dict, span) -> list[tuple]:
    """Every oracle comparison of the audit as (name, got, want, abs_tol)."""
    out = []
    model, oscint, moments, mc = bw.model, bw.oscint, bw.moments, bw.montecarlo

    def kernel_of(g):
        params = model.build_params(g["lam"], g["gamma"], g["alpha"], g["p"])
        with span("oscint.build_kernel", alpha=params.alpha,
                  entries=params.n_dirs // 2 + 1):
            return oscint.build_kernel(params)

    def spot_check(kernel, g, planar: bool):
        params, i0 = kernel.params, kernel.diagonal
        chord = model.build_directions(params).chord
        for k in g["spot"]:
            tag = f"N={params.n_dirs} k={k}"
            with span("oscint.pair_integral"):
                ref = oscint.pair_integral(params, float(chord[k]))
            out.append((f"kernel entry {tag} vs pair_integral",
                        float(kernel.values[k]), ref, oscint.PAIR_REL_TOL * i0))
            if not planar:
                continue
            with span("oscint.pair_integral_2d_oracle"):
                ref = oscint.pair_integral_2d_oracle(params, float(chord[k]))
            out.append((f"kernel entry {tag} vs 2-d oracle",
                        float(kernel.values[k]), ref, PLANAR_ORACLE_TOL * i0))

    for g in inputs["enumeration"]:
        kernel = kernel_of(g)
        with span("moments.enumerate_moments"):
            e_ref, v_ref = moments.enumerate_moments(kernel, g["p"])
        with span("moments.closed_forms"):
            e, v = moments.exact_expectation(kernel), moments.exact_variance(kernel)
        out.append((f"E N={g['n']} vs enumeration", e, e_ref,
                    CLOSED_FORM_REL_TOL * abs(e_ref)))
        out.append((f"Var N={g['n']} vs enumeration", v, v_ref,
                    CLOSED_FORM_REL_TOL * abs(v_ref)))
        spot_check(kernel, g, planar=False)
    for g in inputs["generic"]:
        kernel = kernel_of(g)
        with span("moments.exact_variance_generic"):
            v_ref = moments.exact_variance_generic(kernel)
        with span("moments.closed_forms"):
            v = moments.exact_variance(kernel)
        out.append((f"Var N={g['n']} vs generic loop", v, v_ref,
                    GENERIC_REL_TOL * abs(v_ref)))
        spot_check(kernel, g, planar=True)
    for g in inputs["dense"]:
        kernel = kernel_of(g)
        with span("montecarlo.sample_coefficients"):
            coeffs = mc.sample_coefficients(kernel.params, g["sign_seed"])
        with span("montecarlo.mass_quadratic_form"):
            fast = mc.mass_quadratic_form(kernel, coeffs)
        with span("montecarlo.mass_double_sum"):
            slow = mc.mass_double_sum(kernel, coeffs)
        out.append((f"mass N={g['n']} vs double sum", fast, slow,
                    CLOSED_FORM_REL_TOL * abs(slow)))
        with span("montecarlo.grid_quadrature_mass"):
            grid = mc.grid_quadrature_mass(kernel.params, coeffs)
        out.append((f"mass N={g['n']} vs planar grid", fast, grid,
                    GRID_REL_TOL * abs(grid)))
    for g in inputs["discretisation"]:
        params = model.build_params(g["lam"], g["gamma"], g["alpha"], g["p"])
        with span("montecarlo.e1_error_norm"):
            probe = mc.e1_error_norm(params, n_doublings=2)
        out.append((f"literal discretisation norm lam={g['lam']:.4g}",
                    float(max(probe.literal_norms)), 0.0, E1_LITERAL_TOL))
    return out


def compare(name: str, got, want, tol) -> dict:
    ok = (isinstance(got, (int, float)) and math.isfinite(got)
          and abs(got - want) <= tol)
    return {"name": name, "ok": bool(ok), "got": got, "want": want, "tol": tol}


def sweep_checks(bw, rows: list[dict]) -> list[dict]:
    """Row gates: no error, finite E and Var >= 0; N <= 512 rows against the
    generic variance loop; Monte Carlo bands and the grid cross-check."""
    out = []
    kernels = {}
    for r in rows:
        tag = f"lam={r['lambda']:g} alpha={r['alpha']:g} p={r['p']:.6g}"
        e, v = r.get("E"), r.get("Var")
        sound = (not r.get("error") and isinstance(e, float) and math.isfinite(e)
                 and isinstance(v, float) and math.isfinite(v) and v >= 0.0)
        out.append({"name": f"row {tag}", "ok": sound, "got": r.get("error") or v,
                    "want": None, "tol": None})
        if not sound:
            continue
        if r["N"] <= bw.moments.GENERIC_VARIANCE_LIMIT:
            key = (r["lambda"], r["gamma"], r["alpha"])
            if key not in kernels:
                kernels[key] = bw.oscint.build_kernel(bw.model.build_params(*key, 0.5))
            want = bw.moments.exact_variance_generic(kernels[key], p=r["p"])
            out.append(compare(f"Var {tag} vs generic loop", v, want,
                               GENERIC_REL_TOL * abs(want)))
        if r.get("mc_samples"):
            out.append(compare(f"MC mean {tag}", r["mc_mean"], e,
                               MC_MEAN_SE * r["mc_se_mean"]))
            out.append(compare(f"MC variance {tag}", r["mc_var"], v,
                               MC_VAR_SE * r["mc_se_var"]))
        if r.get("grid_rel_diff") is not None:
            out.append(compare(f"grid cross-check {tag}", r["grid_rel_diff"],
                               0.0, GRID_REL_TOL))
    return out


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "biasedwave": sys.modules["biasedwave"].__version__}


def j0_throughput(bw, seed: int, evals: int, span, repeats: int = 3):
    import numpy as np
    args = np.random.default_rng(seed).uniform(0.0, workloads.J0_ARG_MAX, evals)
    for _ in range(repeats):
        with span("specfun.bessel_j0", evals=evals):
            bw.specfun.bessel_j0(args)


def host_probe() -> float:
    """Seconds for a fixed job that does not touch the package.

    It imports numpy and scipy and does the kinds of work the lab does: keyed
    Philox streams, FFTs, a Bessel function, a matrix product, a Python loop,
    and elementwise passes over arrays larger than the cache.  On a shared
    host whose speed drifts, its time follows the drift.
    """
    t0 = time.perf_counter()
    import numpy as np
    from scipy import special
    x = np.linspace(0.0, 400.0, 1 << 17)
    big = np.linspace(0.0, 400.0, 1 << 21)
    m = np.linspace(-1.0, 1.0, 1 << 16).reshape(256, 256)
    for r in range(60):
        for i in range(40):
            np.random.Generator(np.random.Philox(key=[r, i])).random(4096)
        np.fft.irfft(np.fft.rfft(x))
        special.j0(x)
        m @ m
        sum(i * i for i in range(20000))
        if r % 5 == 0:
            np.cos(big * 1.5) * np.sqrt(big)
    return time.perf_counter() - t0


def run(args) -> dict:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "probe":
        return {"probe_s": host_probe()}
    inputs = workloads.make(args.workload, args.seed, args.tiny)
    sweep = args.workload != "oracle_audit"
    tracer = spanlib.Tracer() if args.mode == "trace" else None
    span = tracer.span if tracer else spanlib.no_span

    t0 = time.perf_counter()
    with span("setup"):
        with span("import"):
            bw = import_package()
        with span("model.build_cutoff"):
            bw.model.build_cutoff()
        if sweep:
            with span("cli.parse_config"):
                config = bw.cli.parse_config(
                    dict(inputs, output_stem=str(out_dir / "sweep")))
    result = {"setup_s": time.perf_counter() - t0}
    if args.mode == "setup":
        return result

    checks = []
    t0 = time.perf_counter()
    with span("sweep.untraced" if sweep else "oracle.untraced"):
        if sweep:
            rows = bw.cli.run_sweep(config).rows
        else:
            comparisons = oracle_audit(bw, inputs, spanlib.no_span)
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        if sweep:
            traced_config = dataclasses.replace(
                config, output_stem=str(out_dir / "sweep-traced"))
            with spanlib.wrapped(bw.cli, SWEEP_LAYERS, span), span("cli.run_sweep"):
                bw.cli.run_sweep(traced_config)
        else:
            with span("oracle.traced"):
                oracle_audit(bw, inputs, span)
        j0_throughput(bw, args.seed, workloads.J0_EVALS_TINY if args.tiny
                      else workloads.J0_EVALS, span)

    if sweep:
        if args.corrupt:
            rows[0] = dict(rows[0], Var=-1.0)
        checks += sweep_checks(bw, rows)
        result["rows"] = len(rows)
        result["mc_samples"] = sum(r.get("mc_samples") or 0 for r in rows)
        result["outputs"] = [str(out_dir / "sweep.csv"), str(out_dir / "sweep.json")]
    else:
        record = out_dir / "oracle.json"
        record.write_text(json.dumps(comparisons, indent=1) + "\n")
        if args.corrupt:
            name, got, want, tol = comparisons[0]
            comparisons[0] = (name, got + 2.0 * tol + abs(want), want, tol)
        checks += [compare(*c) for c in comparisons]
        result["comparisons"] = len(comparisons)
        result["outputs"] = [str(record)]

    result["checks"] = checks
    result["env"] = environment()
    if tracer:
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "setup", "pass", "trace"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    (Path(args.out) / "result.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
