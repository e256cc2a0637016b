"""Tests of the benchmark itself (run with ``python -m pytest perfbench -q``).

A smoke-sized pass of every workload, traced and untraced, checks that the
result line follows the contract and names exactly the metrics declared in
``BENCHMARK.json``, and that a traced run's layer self times plus
``(untracked)`` sum to its traced wall time.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]]
    assert e2e == list(workloads.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layer == list(workloads.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_follows_the_contract(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace:
        table = next(json.loads(x)["exact_sum"] for x in lines if x.startswith('{"exact_sum"'))
        assert abs(table["sum_s"] - table["wall_s"]) <= 1e-9 * table["wall_s"] + 1e-9
        assert "(untracked)" in table["self_s"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_environments_that_change_the_program():
    for var in ("REPRO_RACECHECK", "REPRO_KERNEL_NUMBA_FALLBACK"):
        env = {**os.environ, var: "1"}
        proc = _run(
            "--workload", "detect-planted", "--seed", "1", "--seconds", "1",
            "--size", "smoke", env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        "--workload", "detect-planted", "--seed", "1", "--seconds", "1",
        cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fair_share_attribution_sums_to_the_wall():
    tracer = spans.Tracer()
    tracer.start()

    def worker(name):
        with tracer.span(name):
            with tracer.span(name + ".inner"):
                time.sleep(0.02)
            time.sleep(0.01)

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    time.sleep(0.01)
    tracer.stop()
    report = spans.attribute(tracer)
    spans.check_exact_sum(report)
    assert report["self"]["(untracked)"] > 0
    assert report["inclusive"]["t0"] >= report["inclusive"]["t0.inner"]


def test_patches_install_and_uninstall_cleanly():
    from repro.parallel.runtime import ParallelRuntime

    before = ParallelRuntime.__dict__["parallel_for"]
    saved = spans.install(spans.Tracer())
    assert ParallelRuntime.__dict__["parallel_for"] is not before
    spans.uninstall(saved)
    assert ParallelRuntime.__dict__["parallel_for"] is before
