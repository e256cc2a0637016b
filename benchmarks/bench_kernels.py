"""Kernel microbenchmarks — host wall-clock, not simulated seconds.

Unlike the fig* benchmarks (which reproduce the paper's *simulated*
results), this suite times the NumPy kernels underneath on the host via
:mod:`repro.bench.wallclock` and emits machine-readable documents
(``BENCH_kernels.json`` / ``BENCH_e2e.json``). Run here at smoke size so
the suite stays fast and the JSON schema is exercised on every benchmark
run; full-size numbers come from the CLI::

    PYTHONPATH=src python -m repro.bench.wallclock kernels --preset full
"""

from __future__ import annotations

from repro.bench.wallclock import (
    build_document,
    merge_baseline,
    run_e2e_suite,
    run_kernel_suite,
    validate_document,
    write_document,
)


def test_kernel_suite_smoke(tmp_path):
    entries = run_kernel_suite(preset="smoke", repeats=1)
    doc = build_document("kernels", "smoke", entries)
    problems = validate_document(doc)
    assert problems == []
    # Every (kernel, graph) cell present, positive timings.
    names = {e["name"] for e in entries}
    assert {
        "gather_full",
        "gather_chunked",
        "coarsen",
        "move_sweep",
    } <= names
    assert all(e["wall_s"] > 0 for e in entries)
    out = tmp_path / "BENCH_kernels.json"
    write_document(doc, str(out))
    assert out.exists()


def test_e2e_suite_smoke_and_baseline_merge(tmp_path):
    entries = run_e2e_suite(preset="smoke", repeats=1)
    doc = build_document("e2e", "smoke", entries)
    assert validate_document(doc) == []
    # Simulated seconds ride along as the cost-model tripwire.
    assert all(e["sim_s"] > 0 for e in entries)
    # A re-run of the same suite merged as baseline yields speedup fields.
    merged = merge_baseline(build_document("e2e", "smoke", entries), doc)
    for e in merged["benchmarks"]:
        assert "speedup" in e and e["before_s"] == e["after_s"]
