"""Host wall-clock suites for what the repository benchmark does not cover.

Two clocks live in this repository:

* **simulated seconds** — the paper's reproduced metric, produced by the
  discrete-event :class:`~repro.parallel.runtime.ParallelRuntime`. They
  model the 1996 paper's machine and are deterministic.
* **host wall-clock** — how long the NumPy implementation underneath
  actually takes on the machine running it. Host time of detection and
  serving is measured by the repository benchmark (``perfbench/``,
  declared in ``BENCHMARK.json``), with stated noise bounds and a
  per-layer breakdown.

This module keeps the three suites that measure what that benchmark does
not. All three write one document schema (:data:`SCHEMA`, checked by
:func:`validate_document`):

* ``scale`` — fig9-class (≥10M-edge) generation throughput and peak RSS,
  one timed detection per configured algorithm, and the
  sharded-vs-monolithic memory A/B (``BENCH_scale.json``);
* ``quality`` — the detector-zoo quality-vs-speed matrix
  (:mod:`repro.bench.quality`, ``BENCH_quality.json``): every detector ×
  every generator category, NMI/ARI against planted ground truth plus
  modularity, condensed into a Pareto block (``--min-nmi`` is the CI
  quality-smoke floor);
* ``stream`` — the streaming-detection suite
  (:mod:`repro.bench.streambench`, ``BENCH_stream.json``): batched edit
  throughput, the delta-CSR vs full-rebuild freeze A/B, sustained
  events/s with p50/p99 per-batch latency through DynamicPLP/DynamicPLM,
  and the ``dplm_incremental_ab`` incremental-vs-full-recompute
  comparison (``--min-events-per-s`` and ``--min-nmi`` are the CI
  stream-smoke pins; ``--min-freeze-speedup`` pins the committed
  document's delta-vs-full freeze ratio).

The resolved backend kind, worker count, and host ``cpu_count`` are
recorded in every document's ``host`` block. Run locally::

    PYTHONPATH=src python -m repro.bench.wallclock scale --out BENCH_scale.json
    PYTHONPATH=src python -m repro.bench.wallclock quality --out BENCH_quality.json
    PYTHONPATH=src python -m repro.bench.wallclock stream --out BENCH_stream.json
    PYTHONPATH=src python -m repro.bench.wallclock validate BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Iterable

import numpy as np

from repro.community import kernel_backends
from repro.community.factory import make_detector
from repro.graph.csr import Graph
from repro.graph.generators import planted_partition, rmat
from repro.parallel.backend import peak_rss_mb, reset_peak_rss, resolve_backend

__all__ = [
    "SCHEMA",
    "run_scale_suite",
    "validate_document",
    "write_document",
]

SCHEMA = "repro-wallclock/v1"

#: The document kinds, one per suite.
KINDS = ("scale", "quality", "stream")

#: Per-entry keys every benchmark record must carry.
REQUIRED_ENTRY_KEYS = ("name", "graph", "size", "n", "m", "repeats", "wall_s")


def _time_best(fn: Callable[[], Any], repeats: int, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (after ``warmup`` calls)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _entry(
    name: str,
    graph: Graph,
    size: str,
    repeats: int,
    wall_s: float,
    **extra: Any,
) -> dict[str, Any]:
    """One benchmark record: the required keys, then ``extra`` in order."""
    out: dict[str, Any] = {
        "name": name,
        "graph": graph.name,
        "size": size,
        "n": int(graph.n),
        "m": int(graph.m),
        "repeats": int(repeats),
        "wall_s": float(wall_s),
    }
    out.update(extra)
    return out


# ----------------------------------------------------------------------
# Scale suite (fig9-class inputs, §V-H)
# ----------------------------------------------------------------------
def _pool_pids(backend) -> list[int]:
    """PIDs of the backend's live pool workers ([] for serial/no pool)."""
    pool = getattr(backend, "_pool", None)
    processes = getattr(pool, "_processes", None)
    return sorted(processes) if processes else []


def _worker_peaks_mb(backend) -> dict[str, float]:
    """Per-worker VmHWM of the pool's processes, keyed by pid string."""
    peaks: dict[str, float] = {}
    for pid in _pool_pids(backend):
        peak = peak_rss_mb(pid)
        if peak is not None:
            peaks[str(pid)] = peak
    return peaks


#: (rmat args, planted-partition args, detectors, ...) per preset.
_SCALE_PRESETS: dict[str, dict[str, Any]] = {
    # >= 10M undirected edges on both instance classes — the fig9-class
    # target of the scale path.
    "scale": {
        "rmat": dict(scale=20, edge_factor=12, seed=42),
        "pp": dict(n=1_000_000, k=100, p_in=1.7e-3, p_out=4.2e-6, seed=42),
        "detectors": ("plp", "plm", "epp"),
        "gen_repeats": 3,
        "shards": 4,
    },
    # ~1M-edge R-MAT only; the CI scale-smoke tier.
    "scale-smoke": {
        "rmat": dict(scale=17, edge_factor=8, seed=42),
        "pp": None,
        "detectors": ("plp",),
        "gen_repeats": 3,
    },
    # Seconds-fast variant for the benchmark suite's schema test.
    "scale-tiny": {
        "rmat": dict(scale=12, edge_factor=8, seed=42),
        "pp": dict(n=2_000, k=8, p_in=0.04, p_out=0.002, seed=42),
        "detectors": ("plp",),
        "gen_repeats": 1,
        "shards": 2,
    },
    # Sharded detection A/B on the fig9-class R-MAT: k shm CSR shards on
    # the process pool vs the monolithic single-segment run, per-worker
    # peak RSS on both sides.
    "scale-sharded": {
        "rmat": dict(scale=20, edge_factor=12, seed=42),
        "pp": None,
        "detectors": (),
        "gen_repeats": 1,
        "shards": 4,
    },
    # ~1M-edge R-MAT sharded tier — the CI shard-smoke pin.
    "scale-sharded-smoke": {
        "rmat": dict(scale=17, edge_factor=8, seed=42),
        "pp": None,
        "detectors": (),
        "gen_repeats": 1,
        "shards": 2,
    },
}


def _scale_generate_entry(
    label: str, build: Callable[[], Graph], size: str, repeats: int
) -> tuple[Graph, dict[str, Any]]:
    """Time a full generator call (best-of-``repeats``) with peak RSS.

    The first call is the warmup; with a single repeat a second call is
    the measurement. The last graph built is handed to the detectors.
    """
    reset_peak_rss()
    built: dict[str, Graph] = {}

    def run() -> None:
        built["graph"] = build()

    best = _time_best(run, max(1, repeats - 1))
    graph = built["graph"]
    entry = _entry(
        f"{label}_generate",
        graph,
        size,
        max(1, repeats),
        best,
        edges_per_s=round(graph.m / best, 1) if best > 0 else float("inf"),
        peak_rss_mb=peak_rss_mb(),
    )
    return graph, entry


def _scale_detect_entry(
    name: str, graph: Graph, size: str, workers: int | None
) -> dict[str, Any]:
    """One timed detector run with peak RSS (no warmup — detection at
    fig9 size is minutes-long, and allocation noise is small against it).

    Besides the parent's peak, any live pool workers are VmHWM-reset
    before and sampled after the run, so detector-internal pool phases
    (EPP's ensemble, sharded rounds) report ``per_worker_peak_rss_mb``
    instead of hiding their footprint behind the parent's number.
    """
    backend = resolve_backend(workers)
    reset_peak_rss()
    for pid in _pool_pids(backend):
        reset_peak_rss(pid)
    t0 = time.perf_counter()
    result = make_detector(name, threads=4, seed=1, workers=workers).run(graph)
    wall = time.perf_counter() - t0
    extra: dict[str, Any] = {}
    worker_peaks = _worker_peaks_mb(backend)
    if worker_peaks:
        extra["per_worker_peak_rss_mb"] = worker_peaks
        extra["worker_peak_rss_mb"] = max(worker_peaks.values())
    return _entry(
        f"{name}_detect",
        graph,
        size,
        1,
        wall,
        sim_s=float(result.timing.total),
        sim_edges_per_s=round(graph.m / result.timing.total, 1)
        if result.timing.total
        else float("inf"),
        peak_rss_mb=peak_rss_mb(),
        communities=int(np.unique(result.partition.labels).size),
        **extra,
    )


def _scale_sharded_entry(
    graph: Graph, size: str, shards: int, workers: int | None, repeats: int = 1
) -> dict[str, Any]:
    """Interleaved sharded-vs-monolithic detection A/B with memory claim.

    Alternates the monolithic single-segment run (``ShardedPLP(shards=1)``,
    inline: one process holds the whole CSR — its parent VmHWM *is* the
    per-worker memory of the unsharded path) with the k-shard pooled run
    (each pool worker maps one shard segment at a time and self-reports
    its VmHWM per round task). ``labels_match`` asserts canonical-label
    agreement, ``identical`` the stronger byte equality the sharding
    contract actually guarantees; ``rss_ratio`` is the bounded-memory
    headline — sharded per-worker peak over monolithic.
    """
    from repro.community import ShardedPLP
    from repro.parallel.racecheck import canonical_labels

    best_mono = best_shard = float("inf")
    mono_peak: float | None = None
    worker_peak: float | None = None
    mono_labels = shard_labels = None
    for _ in range(max(1, repeats)):
        reset_peak_rss()
        t0 = time.perf_counter()
        mres = ShardedPLP(threads=4, seed=1, shards=1, workers=1).run(graph)
        best_mono = min(best_mono, time.perf_counter() - t0)
        peak = peak_rss_mb()
        if peak is not None:
            mono_peak = peak if mono_peak is None else max(mono_peak, peak)
        mono_labels = mres.partition.labels

        t0 = time.perf_counter()
        sres = ShardedPLP(
            threads=4, seed=1, shards=shards, workers=workers
        ).run(graph)
        best_shard = min(best_shard, time.perf_counter() - t0)
        peak = sres.info.get("worker_peak_rss_mb")
        if peak is not None:
            worker_peak = peak if worker_peak is None else max(worker_peak, peak)
        shard_labels = sres.partition.labels

    labels_match = bool(
        np.array_equal(
            canonical_labels(mono_labels), canonical_labels(shard_labels)
        )
    )
    return _entry(
        "plp_sharded_ab",
        graph,
        size,
        max(1, repeats),
        best_shard,
        shards=int(shards),
        workers=int(resolve_backend(workers).workers),
        mono_wall_s=float(best_mono),
        mono_worker_peak_rss_mb=mono_peak,
        worker_peak_rss_mb=worker_peak,
        rss_ratio=round(worker_peak / mono_peak, 3)
        if worker_peak is not None and mono_peak
        else None,
        labels_match=labels_match,
        identical=bool(np.array_equal(mono_labels, shard_labels)),
        communities=int(np.unique(shard_labels).size),
        note="interleaved monolithic (shards=1, inline, parent VmHWM) vs "
        "k-shard pooled (workers self-report VmHWM per round task)",
    )


def run_scale_suite(
    preset: str = "scale",
    workers: int | None = None,
    dtype_policy: str = "wide",
) -> list[dict[str, Any]]:
    """Massive-input scale benchmarks (fig9-class, §V-H).

    Per instance: full-generator wall time with generation throughput and
    peak RSS, and one timed detection run per configured algorithm (PLP
    always; PLM and EPP on the full preset), built by the detector
    factory with 4 simulated threads and seed 1. ``workers`` drives EPP's
    internal ensemble backend and the sharded A/B's pool.
    """
    if preset not in _SCALE_PRESETS:
        raise ValueError(
            f"unknown scale preset {preset!r} (use {sorted(_SCALE_PRESETS)})"
        )
    cfg = _SCALE_PRESETS[preset]
    entries: list[dict[str, Any]] = []
    instances: list[tuple[str, Graph]] = []

    rmat_args = cfg["rmat"]
    size = f"2^{rmat_args['scale']}x{rmat_args['edge_factor']}"
    graph, entry = _scale_generate_entry(
        "rmat",
        lambda: rmat(dtype_policy=dtype_policy, **rmat_args),
        size,
        cfg["gen_repeats"],
    )
    entries.append(entry)
    instances.append((size, graph))

    if cfg["pp"] is not None:
        pp_args = cfg["pp"]
        size = f"n{pp_args['n']}"
        graph, entry = _scale_generate_entry(
            "pp",
            lambda: planted_partition(dtype_policy=dtype_policy, **pp_args)[0],
            size,
            cfg["gen_repeats"],
        )
        entries.append(entry)
        instances.append((size, graph))

    for size, graph in instances:
        for name in cfg["detectors"]:
            entries.append(_scale_detect_entry(name, graph, size, workers))
    if cfg.get("shards"):
        size, graph = instances[0]  # the R-MAT instance
        entries.append(
            _scale_sharded_entry(graph, size, cfg["shards"], workers)
        )
    return entries


# ----------------------------------------------------------------------
# Document assembly / validation
# ----------------------------------------------------------------------
def _host_info(workers: int | None = None) -> dict[str, Any]:
    """Host metadata, including which execution backend produced the run.

    ``backend``/``workers`` record the *resolved* configuration (serial
    when ``workers <= 1`` or shared memory is unavailable), ``cpu_count``
    the host cores available — the denominator any multicore speedup
    claim must be read against.
    """
    from repro.graph.sharding import shard_support

    backend = resolve_backend(workers)
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend.kind,
        "workers": int(backend.workers),
        "cpu_count": int(os.cpu_count() or 1),
        "kernel_backends": kernel_backends(),
        "shards": shard_support(),
    }


def _stream_presets() -> tuple[str, ...]:
    """Stream preset names (lazy import keeps the CLI parser cheap)."""
    from repro.bench.streambench import STREAM_PRESETS

    return tuple(STREAM_PRESETS)


def build_document(
    kind: str,
    preset: str,
    entries: list[dict[str, Any]],
    workers: int | None = None,
) -> dict:
    """Wrap a suite's entries with the schema tag and the host block."""
    return {
        "schema": SCHEMA,
        "kind": kind,
        "preset": preset,
        "host": _host_info(workers),
        "benchmarks": entries,
    }


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Typed-field rules: what a value must be, and the check.
_NON_NEGATIVE = ("a non-negative number", lambda v: _is_number(v) and v >= 0)
_UNIT = ("a number in [0, 1]", lambda v: _is_number(v) and 0.0 <= v <= 1.0)
_NUMBER = ("a number", _is_number)
_BOOL = ("a boolean", lambda v: isinstance(v, bool))
_POSITIVE_INT = (
    "a positive integer",
    lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
)
_NAME = ("a non-empty string", lambda v: isinstance(v, str) and bool(v))
_GENERATE = {"edges_per_s": _NON_NEGATIVE}
_DETECT = {"sim_s": _NON_NEGATIVE, "communities": _POSITIVE_INT}
_EVENTS = {"events_per_s": _NON_NEGATIVE}
_LATENCY = {**_EVENTS, "p50_ms": _NON_NEGATIVE, "p99_ms": _NON_NEGATIVE}

#: Typed fields every entry of the named kind must carry. Scale and
#: stream entries are keyed by entry name; a name not listed (such as
#: the retired ``rmat_gen_ab`` of older scale documents) needs only the
#: required keys. Quality entries are keyed by kind, because their names
#: follow the detector.
ENTRY_FIELDS: dict[str, dict[str, tuple[str, Callable[[Any], bool]]]] = {
    "rmat_generate": _GENERATE,
    "pp_generate": _GENERATE,
    "plp_detect": _DETECT,
    "plm_detect": _DETECT,
    "epp_detect": _DETECT,
    "plp_sharded_ab": {"labels_match": _BOOL, "shards": _POSITIVE_INT},
    "dyn_apply_events": _EVENTS,
    "edgelist_ingest_stream": _EVENTS,
    "dplp_stream": _LATENCY,
    "dplm_stream": _LATENCY,
    "freeze_delta_ab": {
        "identical": _BOOL,
        "full_wall_s": _NON_NEGATIVE,
        "freeze_speedup": _NON_NEGATIVE,
        "dirty_fraction": _UNIT,
    },
    "dplm_incremental_ab": {
        "full_wall_s": _NON_NEGATIVE,
        "update_speedup": _NON_NEGATIVE,
        "nmi_min": _UNIT,
        "nmi_mean": _UNIT,
    },
}
QUALITY_FIELDS = {
    "algorithm": _NAME,
    "category": _NAME,
    "sim_time_s": _NUMBER,
    "modularity": _NUMBER,
    "communities": _POSITIVE_INT,
}
#: Quality fields on instances with a planted ground truth.
TRUTH_FIELDS = {
    "nmi": _UNIT,
    "ari": ("a number in [-1, 1]", lambda v: _is_number(v) and -1.0 <= v <= 1.0),
}


def validate_document(doc: dict) -> list[str]:
    """Return a list of schema problems (empty = valid).

    Checks the header, every entry's required keys and non-negative
    ``wall_s``, then the typed fields :data:`ENTRY_FIELDS` lists for the
    entry (:data:`QUALITY_FIELDS`, plus :data:`TRUTH_FIELDS` on
    ground-truth instances, for quality entries), and a quality
    document's Pareto block.
    """
    from repro.bench.quality import TRUTH_CATEGORIES

    problems: list[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        problems.append(
            f"kind must be one of {', '.join(map(repr, KINDS))}, got {kind!r}"
        )
    if not isinstance(doc.get("host"), dict):
        problems.append("host info missing")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        problems.append("benchmarks must be a non-empty list")
        return problems
    for i, entry in enumerate(benches):
        for key in REQUIRED_ENTRY_KEYS:
            if key not in entry:
                problems.append(f"benchmarks[{i}] missing key {key!r}")
        fields = {"wall_s": _NON_NEGATIVE}
        if kind == "quality":
            fields.update(QUALITY_FIELDS)
            if entry.get("category") in TRUTH_CATEGORIES:
                fields.update(TRUTH_FIELDS)
        else:
            fields.update(ENTRY_FIELDS.get(entry.get("name"), {}))
        for key, (what, ok) in fields.items():
            if not ok(entry.get(key)):
                problems.append(f"benchmarks[{i}].{key} must be {what}")
    if kind == "quality":
        problems.extend(_validate_pareto_block(doc.get("pareto")))
    return problems


def _validate_pareto_block(pareto: Any) -> list[str]:
    """Schema checks for the quality document's Pareto condensation."""
    if not isinstance(pareto, dict):
        return ["quality documents need a 'pareto' block"]
    problems = []
    points = pareto.get("points")
    if not isinstance(points, list) or not points:
        problems.append("pareto.points must be a non-empty list")
        points = []
    algorithms = set()
    for j, point in enumerate(points):
        if not isinstance(point.get("algorithm"), str):
            problems.append(f"pareto.points[{j}].algorithm must be a string")
            continue
        algorithms.add(point["algorithm"])
        for key in ("time_score", "mod_score"):
            if not isinstance(point.get(key), (int, float)):
                problems.append(f"pareto.points[{j}].{key} must be a number")
    frontier = pareto.get("frontier")
    if not isinstance(frontier, list) or not frontier:
        problems.append("pareto.frontier must be a non-empty list")
    else:
        for alg in frontier:
            if alg not in algorithms:
                problems.append(
                    f"pareto.frontier names unknown algorithm {alg!r}"
                )
    return problems


def write_document(doc: dict, path: str) -> None:
    """Write a benchmark document as stable, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _format_rows(entries: Iterable[dict[str, Any]]) -> str:
    lines = []
    for e in entries:
        extra = ""
        if "edges_per_s" in e:
            extra += f"  {e['edges_per_s'] / 1e6:.2f}M edges/s"
        if "events_per_s" in e:
            extra += f"  {e['events_per_s'] / 1e3:.1f}k events/s"
        if "p50_ms" in e:
            extra += f"  p50={e['p50_ms']:.1f}ms  p99={e['p99_ms']:.1f}ms"
        if "freeze_speedup" in e:
            extra += (
                f"  full={e['full_wall_s']:.6f}s  "
                f"delta x{e['freeze_speedup']:.1f} "
                f"(dirty {e['dirty_fraction']:.4f}, "
                f"{'identical' if e['identical'] else 'MISMATCH'})"
            )
        if "update_speedup" in e:
            extra += (
                f"  full={e['full_wall_s']:.3f}s  "
                f"x{e['update_speedup']:.2f}  nmi_min={e['nmi_min']:.4f}"
            )
        if e.get("peak_rss_mb") is not None:
            extra += f"  peak={e['peak_rss_mb']:.0f}MiB"
        if "modularity" in e:
            extra += f"  sim={e['sim_time_s']:.4f}s  mod={e['modularity']:.3f}"
        if "nmi" in e:
            extra += f"  nmi={e['nmi']:.3f}  ari={e['ari']:.3f}"
        if e.get("name") == "plp_sharded_ab":
            worker = e.get("worker_peak_rss_mb")
            mono = e.get("mono_worker_peak_rss_mb")
            extra += (
                f"  k={e['shards']}  mono={e['mono_wall_s']:.3f}s"
                + (f"  worker={worker:.0f}MiB" if worker is not None else "")
                + (f"  mono_worker={mono:.0f}MiB" if mono is not None else "")
                + f"  {'match' if e['labels_match'] else 'MISMATCH'}"
            )
        lines.append(
            f"{e['name']:>20s}  {e['graph']:<24s} {e['size']:>5s}  "
            f"{e['wall_s']:.6f}s{extra}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.wallclock", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("scale", help="run the massive-input scale suite")
    s.add_argument(
        "--preset", default="scale", choices=sorted(_SCALE_PRESETS)
    )
    s.add_argument("--out", default="BENCH_scale.json")
    s.add_argument("--workers", type=int, default=None)
    s.add_argument(
        "--dtype-policy", default="wide", choices=["wide", "lean"],
        help="CSR dtype policy for the generated instances",
    )
    s.add_argument(
        "--min-gen-eps",
        type=float,
        default=None,
        help="fail (exit 1) if R-MAT full-generator throughput in edges/s "
        "falls below this floor — the CI scale-smoke pin",
    )
    s.add_argument(
        "--assert-sharded",
        action="store_true",
        help="fail (exit 1) unless the plp_sharded_ab entry shows "
        "canonical-label agreement AND sharded per-worker peak RSS "
        "strictly below the monolithic run — the CI shard-smoke pin",
    )
    q = sub.add_parser(
        "quality", help="run the detector-zoo quality-vs-speed matrix"
    )
    q.add_argument("--preset", default="full", choices=["smoke", "full"])
    q.add_argument("--repeats", type=int, default=1)
    q.add_argument("--threads", type=int, default=32)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default="BENCH_quality.json")
    q.add_argument(
        "--min-nmi",
        type=float,
        default=None,
        help="fail (exit 1) if any detector's NMI on the planted-partition "
        "instance falls below this floor — the CI quality-smoke pin",
    )
    st = sub.add_parser("stream", help="run the streaming-detection suite")
    st.add_argument(
        "--preset",
        default="stream",
        choices=sorted(_stream_presets()),
    )
    st.add_argument("--repeats", type=int, default=3)
    st.add_argument("--threads", type=int, default=32)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", default="BENCH_stream.json")
    st.add_argument(
        "--kernel-backend",
        choices=["numpy", "numba", "auto"],
        default=None,
        help="hot-loop executor for the streamed detectors",
    )
    st.add_argument(
        "--min-events-per-s",
        type=float,
        default=None,
        help="fail (exit 1) if dplp_stream sustained events/s falls below "
        "this floor — the CI stream-smoke throughput pin",
    )
    st.add_argument(
        "--min-nmi",
        type=float,
        default=None,
        help="fail (exit 1) if dplm_incremental_ab worst-batch NMI against "
        "the full recompute falls below this floor — the CI stream-smoke "
        "quality pin",
    )
    st.add_argument(
        "--min-freeze-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if the delta-CSR freeze is not at least this "
        "many times faster than the forced full rebuild (freeze_delta_ab) "
        "— the committed-document pin is 10",
    )
    v = sub.add_parser("validate", help="validate BENCH_*.json schema")
    v.add_argument("files", nargs="+")
    args = parser.parse_args(argv)

    if args.command == "validate":
        failed = False
        for path in args.files:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            problems = validate_document(doc)
            if problems:
                failed = True
                print(f"{path}: INVALID")
                for p in problems:
                    print(f"  - {p}")
            else:
                print(f"{path}: ok ({len(doc['benchmarks'])} benchmarks)")
        return 1 if failed else 0

    if args.command == "quality":
        from repro.bench.pareto import quality_pareto_report
        from repro.bench.quality import run_quality_suite

        entries = run_quality_suite(
            args.preset,
            repeats=args.repeats,
            threads=args.threads,
            seed=args.seed,
        )
    elif args.command == "stream":
        from repro.bench.streambench import run_stream_suite

        entries = run_stream_suite(
            args.preset,
            repeats=args.repeats,
            threads=args.threads,
            seed=args.seed,
            kernel_backend=args.kernel_backend,
        )
    else:
        entries = run_scale_suite(
            args.preset, workers=args.workers, dtype_policy=args.dtype_policy
        )
    workers = getattr(args, "workers", None)
    doc = build_document(args.command, args.preset, entries, workers=workers)
    if args.command == "quality":
        doc["pareto"] = quality_pareto_report(entries)
    write_document(doc, args.out)
    print(_format_rows(doc["benchmarks"]))
    print(f"wrote {args.out}")
    if args.command == "quality":
        pareto = doc["pareto"]
        print(f"\nPareto condensation (baseline {pareto['baseline']}):")
        frontier = set(pareto["frontier"])
        for p in pareto["points"]:
            marker = "*" if p["algorithm"] in frontier else " "
            print(
                f" {marker} {p['algorithm']:>12s}  "
                f"time x{p['time_score']:.3f}  "
                f"quality {p['mod_score']:+.4f}"
            )
        print(f"frontier: {', '.join(pareto['frontier'])}")
        if args.min_nmi is not None:
            failed = [
                e
                for e in entries
                if e["category"] == "planted"
                and e.get("nmi", 0.0) < args.min_nmi
            ]
            if failed:
                for e in failed:
                    print(
                        f"FAIL: {e['algorithm']} NMI {e.get('nmi', 0.0):.3f} "
                        f"on {e['graph']} below floor {args.min_nmi}"
                    )
                return 1
            print(f"quality ok: all planted-partition NMI >= {args.min_nmi}")
    if args.command == "stream":
        ab = next(
            (e for e in entries if e["name"] == "freeze_delta_ab"), None
        )
        if ab is not None and not ab["identical"]:
            print("FAIL: delta-CSR freeze diverges from the full rebuild")
            return 1
        if args.min_freeze_speedup is not None:
            if ab is None or ab["freeze_speedup"] < args.min_freeze_speedup:
                got = 0.0 if ab is None else ab["freeze_speedup"]
                print(
                    f"FAIL: delta-CSR freeze x{got:.2f} vs full rebuild "
                    f"below floor x{args.min_freeze_speedup:.2f}"
                )
                return 1
            print(
                f"stream ok: delta-CSR freeze x{ab['freeze_speedup']:.2f} "
                f">= x{args.min_freeze_speedup:.2f} vs full rebuild "
                f"(dirty {ab['dirty_fraction']:.4f})"
            )
        if args.min_events_per_s is not None:
            plp = next(e for e in entries if e["name"] == "dplp_stream")
            if plp["events_per_s"] < args.min_events_per_s:
                print(
                    f"FAIL: dplp_stream {plp['events_per_s']:.0f} events/s "
                    f"below floor {args.min_events_per_s:.0f}"
                )
                return 1
            print(
                f"stream ok: dplp_stream {plp['events_per_s']:.0f} "
                f"events/s >= {args.min_events_per_s:.0f}"
            )
        if args.min_nmi is not None:
            ab = next(
                e for e in entries if e["name"] == "dplm_incremental_ab"
            )
            if ab["nmi_min"] < args.min_nmi:
                print(
                    f"FAIL: dplm incremental NMI {ab['nmi_min']:.4f} vs "
                    f"full recompute below floor {args.min_nmi}"
                )
                return 1
            print(
                f"stream ok: dplm incremental nmi_min {ab['nmi_min']:.4f} "
                f">= {args.min_nmi} (x{ab['update_speedup']:.2f} vs full)"
            )
    if args.command == "scale" and args.min_gen_eps is not None:
        gen = next(e for e in entries if e["name"] == "rmat_generate")
        if gen["edges_per_s"] < args.min_gen_eps:
            print(
                f"FAIL: rmat generation {gen['edges_per_s']:.0f} edges/s "
                f"below floor {args.min_gen_eps:.0f}"
            )
            return 1
    if args.command == "scale" and args.assert_sharded:
        ab = next(
            (e for e in entries if e["name"] == "plp_sharded_ab"), None
        )
        if ab is None:
            print("FAIL: preset emitted no plp_sharded_ab entry")
            return 1
        if not ab["labels_match"]:
            print("FAIL: sharded labels diverge from the monolithic run")
            return 1
        worker = ab.get("worker_peak_rss_mb")
        mono = ab.get("mono_worker_peak_rss_mb")
        if worker is None or mono is None or not worker < mono:
            print(
                f"FAIL: sharded per-worker peak RSS {worker} MiB not "
                f"strictly below monolithic {mono} MiB"
            )
            return 1
        print(
            f"sharded ok: labels match, per-worker peak {worker:.0f} MiB "
            f"< monolithic {mono:.0f} MiB (x{ab['rss_ratio']:.2f})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
