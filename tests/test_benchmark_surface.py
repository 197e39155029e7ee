"""The names the benchmark in perfbench/ resolves in the package still work.

The benchmark calls the oracles by name and wraps the functions `run_sweep`
resolves in the `cli` namespace; a refactor that renames one of them breaks
the oracle audit or the traced pass.  These tests run both at the tiny sizes
of perfbench/smoke.py, reading perfbench/ and writing only under tmp_path.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's worker, workloads and spans modules and the package as the
    worker imports it; sys.path is restored afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import worker
    import workloads
    return worker, workloads, spans, worker.import_package()


def test_oracle_audit_passes_every_comparison(bench):
    worker, workloads, spans, bw = bench
    comparisons = worker.oracle_audit(bw, workloads.oracle_audit(5, tiny=True),
                                      spans.no_span)
    checks = [worker.compare(*c) for c in comparisons]
    assert len(checks) >= 20
    assert [c["name"] for c in checks if not c["ok"]] == []


@pytest.mark.parametrize("workload", ["sweep_ladder", "mc_coverage"])
def test_traced_sweep_opens_a_span_per_layer(bench, tmp_path, workload):
    worker, workloads, spans, bw = bench
    inputs = workloads.make(workload, 5, tiny=True)
    config = bw.cli.parse_config(dict(inputs, output_stem=str(tmp_path / "sweep")))
    tracer = spans.Tracer()
    with spans.wrapped(bw.cli, worker.SWEEP_LAYERS, tracer.span):
        rows = bw.cli.run_sweep(config).rows
    checks = worker.sweep_checks(bw, rows)
    assert [c["name"] for c in checks if not c["ok"]] == []
    layers = {"oscint.build_kernel", "moments.calibrate_constants",
              "moments.build_report"}
    if config.mc_samples:
        layers |= {"montecarlo.mc_moments"}
    if config.grid_check:
        layers |= {"montecarlo.sample_coefficients",
                   "montecarlo.mass_quadratic_form",
                   "montecarlo.grid_quadrature_mass"}
    assert layers <= {s["name"] for s in tracer.spans}
    # a kernel span is a kernel build: one per geometry of the rows
    geometries = {(r["lambda"], r["gamma"], r["alpha"]) for r in rows}
    assert spans.count(tracer.spans, "oscint.build_kernel") == len(geometries)
    assert spans.validate(tracer.spans) == []
