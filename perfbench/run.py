"""biasedwave benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload sweep_ladder --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (perfbench/worker.py), because a user
of the command line pays import and lazy set-up on every run.  --trace 0
repeats cycles of an untraced pass and set-up-only passes for --seconds (at
least three cycles; their outputs also make the determinism check), with a
host-speed probe between cycles, and reports medians scaled to a nominal
host speed; --trace 1 repeats traced passes and reports the per-layer totals.
Human-readable lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The exit code is
1 when a correctness gate failed.  `--workload all` runs every workload in
turn and prefixes each metric with its workload.

Outputs, results (with the environment) and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUPS_PER_PASS = 2
# Times are scaled to a host on which the host-speed probe (worker.py) takes
# this long: its median on a quiet 2-vCPU Xeon host.
PROBE_NOMINAL_S = 1.75
CHILD_TIMEOUT_S = 150

# Throughputs under the names a reader looks for, as (name, pass count key).
# The first is the workload's unit of work, reported as work_per_s: each
# end-to-end metric must be defined and non-zero on every workload.
RATES = {"sweep_ladder": (("points_per_s", "rows"),),
         "mc_coverage": (("mc_samples_per_s", "mc_samples"),
                         ("points_per_s", "rows")),
         "oracle_audit": (("checks_per_s", "comparisons"),)}

END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}

_ALPHAS = ("0.3", "0.5", "0.7")
PER_LAYER = {
    "model.build_cutoff.s": "s",
    "specfun.bessel_j0.evals_per_s": "1/s",
    "oscint.build_kernel.s": "s",
    "oscint.build_kernel.calls": "count",
    **{f"oscint.build_kernel.s.alpha_{a}": "s" for a in _ALPHAS},
    "oscint.kernel_entries": "count",
    "oscint.kernel_entries_per_s": "1/s",
    "oscint.pair_integral.s": "s",
    "oscint.pair_integral_2d_oracle.s": "s",
    "moments.calibrate_constants.s": "s",
    "moments.build_report.s": "s",
    "moments.enumerate_moments.s": "s",
    "moments.exact_variance_generic.s": "s",
    "montecarlo.mc_moments.s": "s",
    "montecarlo.mc_moments.samples_per_s": "1/s",
    "montecarlo.sample_coefficients.s": "s",
    "montecarlo.grid_quadrature_mass.s": "s",
    "montecarlo.mass_double_sum.s": "s",
    "montecarlo.e1_error_norm.s": "s",
    "cli.parse_config.s": "s",
    "cli.rows": "count",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> tuple[dict, int]:
    """Environment for the passes: BLAS and OpenMP threads capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("PYTHONPATH", None)
    return env, nproc


def run_child(args, mode: str, tag: str, env: dict) -> dict:
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}" / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--out", str(out_dir)]
    cmd += ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads((out_dir / "result.json").read_text())


def repeat(args, mode: str, env: dict, minimum: int) -> list[dict]:
    """Passes of `mode` until --seconds have elapsed and `minimum` are done."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < args.seconds:
        results.append(run_child(args, mode, f"{mode}{len(results)}", env))
    return results


def determinism_check(passes: list[dict]) -> dict:
    """Byte-identical outputs across passes with the same seed: one op."""
    first = [Path(p).read_bytes() for p in passes[0]["outputs"]]
    same = all([Path(p).read_bytes() for p in r["outputs"]] == first
               for r in passes[1:])
    return {"name": f"outputs byte-identical over {len(passes)} passes",
            "ok": same, "got": None, "want": None, "tol": None}


def end_to_end(args, env: dict):
    """Untraced passes: metrics, checks, pass results and extra report lines.

    The speed of a small shared host drifts by half in phases of a minute or
    two, which a median over one run cannot remove.  So the run alternates
    the host-speed probe with cycles of one full pass and SETUPS_PER_PASS
    set-up-only passes, and scales each time in a cycle by PROBE_NOMINAL_S /
    (the mean of the probes on either side of it).  The unscaled figures are
    printed too.
    """
    run_child(args, "setup", "warmup", env)  # page cache, not a user's cost

    def probe():
        return run_child(args, "probe", "probe", env)["probe_s"]

    passes, setups, scales = [], [], []
    probes = [probe()]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_child(args, "pass", f"pass{len(passes)}", env))
        setups.append([passes[-1]["setup_s"]] + [
            run_child(args, "setup", f"setup{len(passes)}.{i}", env)["setup_s"]
            for i in range(SETUPS_PER_PASS)])
        probes.append(probe())
        scales.append(PROBE_NOMINAL_S / statistics.mean(probes[-2:]))

    def medians(scale_of):
        """Medians with each time multiplied by scale_of(cycle index)."""
        walls = [p["wall_s"] * scale_of(i) for i, p in enumerate(passes)]
        return {"setup_s": statistics.median(v * scale_of(i)
                                             for i, c in enumerate(setups) for v in c),
                "wall_s": statistics.median(walls),
                **{name: statistics.median(p[key] / w for p, w in zip(passes, walls))
                   for name, key in RATES[args.workload]}}

    scaled, raw = medians(scales.__getitem__), medians(lambda i: 1.0)
    metrics = {"setup_s": scaled["setup_s"], "wall_s": scaled["wall_s"],
               "work_per_s": scaled[RATES[args.workload][0][0]],
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    checks = passes[0]["checks"] + [determinism_check(passes)]
    notes = [f"{name} = {scaled[name]:.6g} 1/s" for name, _ in RATES[args.workload]]
    notes += ["host-speed scale of each cycle: "
              + " ".join(f"{k:.4g}" for k in scales)
              + f" (probe nominal {PROBE_NOMINAL_S} s)",
              "unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()),
              "probe_s of each probe: " + " ".join(f"{v:.4g}" for v in probes),
              "wall_s of each pass: "
              + " ".join(f"{p['wall_s']:.4g}" for p in passes),
              "setup_s of each set-up: "
              + " ".join(f"{v:.4g}" for c in setups for v in c)]
    return metrics, checks, passes, notes


def layer_metrics(result: dict) -> dict:
    """Per-layer totals of one traced pass."""
    spans = result["spans"]
    # "<span name>.s" is the summed duration of the spans of that name
    m = {name: spanlib.total(spans, name[:-2]) for name in PER_LAYER
         if name.endswith(".s")}
    m["cli.rows"] = result.get("rows", 0)
    m["oscint.build_kernel.calls"] = spanlib.count(spans, "oscint.build_kernel")
    for a in _ALPHAS:
        m[f"oscint.build_kernel.s.alpha_{a}"] = spanlib.total(
            spans, "oscint.build_kernel", alpha=float(a))
    entries = spanlib.attr_sum(spans, "oscint.build_kernel", "entries")
    m["oscint.kernel_entries"] = entries
    m["oscint.kernel_entries_per_s"] = (entries / m["oscint.build_kernel.s"]
                                        if entries else 0.0)
    samples = spanlib.attr_sum(spans, "montecarlo.mc_moments", "samples")
    m["montecarlo.mc_moments.samples_per_s"] = (
        samples / m["montecarlo.mc_moments.s"] if samples else 0.0)
    j0 = [s for s in spans if s["name"] == "specfun.bessel_j0"]
    m["specfun.bessel_j0.evals_per_s"] = statistics.median(
        s["attrs"]["evals"] / spanlib.duration(s) for s in j0)

    roots = {s["name"]: s for s in spans if s["parent"] is None}
    if "cli.run_sweep" in roots:
        traced, untraced = roots["cli.run_sweep"], roots["sweep.untraced"]
        # run_sweep's own time in the traced pass: all but its layer calls
        m["cli.overhead_s"] = spanlib.self_times(spans)[traced["id"]]
    else:
        traced, untraced = roots["oracle.traced"], roots["oracle.untraced"]
        m["cli.overhead_s"] = 0.0
    m["trace.overhead_s"] = spanlib.duration(traced) - spanlib.duration(untraced)
    return m


def dominant_layers(spans: list[dict]) -> list[tuple[str, float]]:
    """Self-time share of each layer inside the traced pass, largest first."""
    traced = next(s for s in spans if s["parent"] is None
                  and s["name"] in ("cli.run_sweep", "oracle.traced"))
    inside = {traced["id"]}
    for s in spans:  # spans are recorded parent-first
        if s["parent"] in inside:
            inside.add(s["id"])
    own = spanlib.self_times(spans)
    shares: dict = {}
    for s in spans:
        if s["id"] in inside:
            shares[s["name"]] = shares.get(s["name"], 0.0) + own[s["id"]]
    whole = spanlib.duration(traced)
    return sorted(((k, v / whole) for k, v in shares.items()),
                  key=lambda kv: -kv[1])


def traced(args, env: dict):
    """Traced passes: metrics, checks, pass results and extra report lines."""
    results = repeat(args, "trace", env, minimum=1)
    per_pass = [layer_metrics(r) for r in results]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in PER_LAYER}
    checks = results[0]["checks"]
    for i, r in enumerate(results):
        problems = spanlib.validate(r["spans"])
        checks.append({"name": f"span tree of traced pass {i}", "ok": not problems,
                       "got": problems[:5], "want": [], "tol": None})
    shares = dominant_layers(results[0]["spans"])
    stated = workloads.DOMINANT_LAYERS[args.workload]
    notes = ["largest self time in the traced pass: "
             + ", ".join(f"{k} {v:.1%}" for k, v in shares[:3]),
             f"share of the stated dominant layers {', '.join(stated)}: "
             f"{sum(v for k, v in shares if k in stated):.1%}"]
    return metrics, checks, results, notes


def environment(nproc: int, first: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             env=dict(os.environ,
                                      GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    return {"python": sys.version.split()[0], **first.get("env", {}),
            "blas_threads": nproc, "nproc": nproc, "cpu": cpu, "commit": commit}


def run_workload(args) -> dict:
    env, nproc = child_env()
    units = PER_LAYER if args.trace else END_TO_END
    metrics, checks, results, notes = (traced if args.trace else end_to_end)(args, env)
    failed = [c for c in checks if not c["ok"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "passes": len(results),
        "environment": environment(nproc, results[0]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": len(checks), "failed": len(failed), "failures": failed,
        "notes": notes,
    }
    if args.trace:
        record["spans"] = [r["spans"] for r in results]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}" / "result.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    w = args.workload
    print(f"[{w}] seed={args.seed} passes={len(results)} "
          f"env={json.dumps(record['environment'])}")
    for name, m in record["metrics"].items():
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"[{w}] {line}")
    print(f"[{w}] failed_ratio = {len(failed)}/{len(checks)} = "
          f"{len(failed) / len(checks):.6g} (failed checks / checks attempted)")
    for c in failed:
        print(f"[{w}] FAILED {c['name']}: got {c['got']} want {c['want']} "
              f"tol {c['tol']}")
    print(f"[{w}] details in {out.relative_to(ROOT)}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few rows per workload, for the smoke tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one program output before the gates run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "biasedwave" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(argparse.Namespace(**{**vars(args),
                                                              "workload": name})))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 3
    prefix = args.workload == "all"
    metrics = {(f"{r['workload']}.{k}" if prefix else k): v
               for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
