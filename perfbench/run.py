"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detect-planted --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` next to this directory.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Earlier lines carry the host block and, for traced runs, the exact-sum
self-time table. The exit code is 2 when the program cannot be found or
the environment would change the program being measured.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("detect-planted", "detect-rmat", "stream-churn", "serve-mixed")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="input sizes; smoke is for the benchmark's own tests",
    )
    return p.parse_args(argv)


def _import_program() -> str | None:
    """Put ``src/`` first on the path; return why the program is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program source at {src / 'repro'}"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro: {exc}"
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def _stop_resource_tracker() -> None:
    """End the shared-memory resource tracker process this run started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _finite(value: float) -> float:
    """JSON has no infinity: a metric of failed operations reads 1e9."""
    value = float(value)
    return value if math.isfinite(value) else 1e9


def main(argv=None) -> int:
    args = _parse(argv)
    missing = _import_program()
    if missing:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    refused = checks.refused_env()
    if refused:
        print(
            f"perfbench: refusing to run with {', '.join(refused)} set "
            "(it changes the program being measured)",
            file=sys.stderr,
        )
        return 2

    host = checks.host_block()
    print(json.dumps({"host": host}), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    run = workloads.Run(
        args.workload, args.seed, args.seconds, args.size, args.trace, OUT_DIR
    )
    shm_before = checks.shm_segments()
    saved = spans.install(run.tracer) if run.traced else []
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        spans.uninstall(saved)
    # Give released segments a moment to disappear before the leak check.
    for _ in range(50):
        leaked = checks.shm_segments() - shm_before
        if not leaked:
            break
        time.sleep(0.1)
    run.op([f"leaked shared memory: {sorted(leaked)}"] if leaked else [], "shm guard")

    if run.traced:
        report = spans.attribute(run.tracer)
        spans.check_exact_sum(report)
        metrics = workloads.per_layer(run, report)
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
        table = {
            "wall_s": report["wall"],
            "self_s": report["self"],
            "sum_s": sum(report["self"].values()),
        }
        print(json.dumps({"exact_sum": table}), flush=True)
        out = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({"host": host, **report}, indent=1))
    else:
        metrics = workloads.end_to_end(run)
        units = {name: unit for name, unit, *_ in workloads.END_TO_END}
    samples = {alg: [round(t, 6) for t in ts] for alg, ts in run.times.items()}
    nmi_min = min(run.nmi, default=None)
    print(json.dumps({"samples_s": samples, "nmi_min": nmi_min}), flush=True)
    for problem in run.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    _stop_resource_tracker()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": _finite(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
