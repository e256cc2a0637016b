"""Host wall-clock microbenchmarks for the shared NumPy kernels.

Two different clocks live in this repository:

* **simulated seconds** — the paper's reproduced metric, produced by the
  discrete-event :class:`~repro.parallel.runtime.ParallelRuntime`. They
  model the 1996 paper's machine and are deterministic.
* **host wall-clock** — how long the NumPy implementation underneath
  actually takes on the machine running the suite. This module measures
  that, so host-speed optimizations are tracked release over release
  without ever touching the simulated cost model.

The suite times the shared hot kernels (neighborhood gather, coarsening)
and the PLM move-phase sweep on R-MAT and planted-partition graphs at
several sizes, and the end-to-end detectors, emitting machine-readable
JSON (``BENCH_kernels.json`` / ``BENCH_e2e.json`` at the repo root). A
previous run can be passed as a baseline, in which case every entry
carries ``before_s`` / ``after_s`` / ``speedup`` — the perf trajectory
all future optimization PRs are measured against.

Both suites take ``--workers N`` (or ``REPRO_WORKERS``): the kernel suite
fans its independent cells out to the shared-memory process pool of
:mod:`repro.parallel.backend`; the e2e suite keeps its timed cells
sequential (fair walls) but drives EPP's internal ensemble backend and
emits the interleaved serial-vs-process ``epp_workers_ab`` comparison.
The resolved backend kind, worker count, and host ``cpu_count`` are
recorded in every document's ``host`` block.

Run locally::

    PYTHONPATH=src python -m repro.bench.wallclock kernels --out BENCH_kernels.json
    PYTHONPATH=src python -m repro.bench.wallclock e2e --workers 4 --out BENCH_e2e.json
    PYTHONPATH=src python -m repro.bench.wallclock quality --out BENCH_quality.json
    PYTHONPATH=src python -m repro.bench.wallclock validate BENCH_kernels.json

The ``quality`` subcommand runs the detector-zoo quality-vs-speed matrix
(:mod:`repro.bench.quality`): every detector × every generator category,
NMI/ARI against planted ground truth plus modularity, condensed into a
Pareto block (``--min-nmi`` is the CI quality-smoke floor).

The ``stream`` subcommand runs the streaming-detection suite
(:mod:`repro.bench.streambench`, ``BENCH_stream.json``): batched edit
throughput, the delta-CSR vs full-rebuild freeze A/B, sustained events/s
with p50/p99 per-batch latency through DynamicPLP/DynamicPLM, and the
``dplm_incremental_ab`` incremental-vs-full-recompute comparison
(``--min-events-per-s`` and ``--min-nmi`` are the CI stream-smoke pins;
``--min-freeze-speedup`` pins the committed document's delta-vs-full
freeze ratio)::

    PYTHONPATH=src python -m repro.bench.wallclock stream --out BENCH_stream.json
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

from repro.community import EPP, PLM, PLMR, PLP, kernel_backends
from repro.community._kernels import gather_neighborhoods
from repro.graph.coarsening import coarsen
from repro.graph.csr import Graph
from repro.graph.generators import planted_partition, rmat
from repro.parallel.backend import materialize, resolve_backend
from repro.parallel.runtime import ParallelRuntime

__all__ = [
    "SCHEMA",
    "run_kernel_suite",
    "run_e2e_suite",
    "run_scale_suite",
    "merge_baseline",
    "validate_document",
    "write_document",
]

SCHEMA = "repro-wallclock/v1"

#: Per-entry keys every benchmark record must carry.
REQUIRED_ENTRY_KEYS = ("name", "graph", "size", "n", "m", "repeats", "wall_s")


# ----------------------------------------------------------------------
# Graph presets
# ----------------------------------------------------------------------
def _graphs(preset: str) -> list[tuple[str, Graph]]:
    """(size-label, graph) pairs for a preset.

    Size labels name the target undirected edge count; the emitted entries
    record the exact ``m`` of each instance.
    """
    if preset == "smoke":
        return [
            ("1k", planted_partition(400, 4, 0.08, 0.004, seed=42)[0]),
            ("1k", rmat(8, 4, seed=42)),
        ]
    if preset == "full":
        return [
            ("10k", planted_partition(2000, 8, 0.04, 0.002, seed=42)[0]),
            ("10k", rmat(11, 6, seed=42)),
            ("100k", planted_partition(16000, 32, 0.018, 0.00025, seed=42)[0]),
            ("100k", rmat(14, 7, seed=42)),
        ]
    raise ValueError(f"unknown preset {preset!r} (use 'smoke' or 'full')")


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
# Kernel suite
# ----------------------------------------------------------------------
#: Kernel cell names, in emission order per graph.
KERNEL_NAMES = (
    "gather_full",
    "gather_chunked",
    "coarsen",
    "move_sweep",
)


def _kernel_cell(
    graph,
    size: str,
    name: str,
    repeats: int,
    chunk: int,
    kernel_backend: str | None = None,
) -> dict[str, Any]:
    """Time one (kernel, graph) cell; the fan-out unit of the suite.

    Module-level (not a closure) so the process backend can ship it to a
    worker; the setup (rng seed 7, labels, permutation) is rebuilt
    identically per cell, so which process runs it cannot change what is
    measured. ``kernel_backend`` (a policy string — picklable) selects
    who executes the ``move_sweep`` cell's hot loops; the other cells
    time the vectorized helpers directly and always record
    ``backend: "numpy"``.
    """
    graph = materialize(graph)
    rng = np.random.default_rng(7)
    nodes = np.arange(graph.n, dtype=np.int64)
    order = rng.permutation(nodes)
    labels = rng.integers(0, max(2, graph.n // 10), size=graph.n)
    blocks = [order[lo : lo + chunk] for lo in range(0, graph.n, chunk)]

    def bench_gather_full():
        return gather_neighborhoods(graph, nodes)

    def bench_gather_chunked():
        for b in blocks:
            gather_neighborhoods(graph, b)

    def bench_coarsen():
        return coarsen(graph, labels)

    def bench_move_sweep():
        plm = PLM(threads=1, seed=3, kernel_backend=kernel_backend)
        lab = np.arange(graph.n, dtype=np.int64)
        runtime = ParallelRuntime(threads=1)
        plm._move_phase(graph, lab, runtime, "bench")

    fns: dict[str, Callable[[], Any]] = {
        "gather_full": bench_gather_full,
        "gather_chunked": bench_gather_chunked,
        "coarsen": bench_coarsen,
        "move_sweep": bench_move_sweep,
    }
    reps = max(1, repeats // 2) if name == "move_sweep" else repeats
    if name == "move_sweep":
        from repro.community.backends import resolve_kernel_backend

        cell_backend = resolve_kernel_backend(kernel_backend)
    else:
        cell_backend = "numpy"
    return _entry(
        name, graph, size, reps, _time_best(fns[name], reps),
        backend=cell_backend,
    )


def _numba_ready() -> bool:
    """Whether the numba backend can actually run on this host.

    Gates the A/B entries: they are emitted only when a real comparison
    is possible — an A/B against an unavailable backend would be a
    fabricated number.
    """
    return bool(kernel_backends()["numba"]["available"])


def _move_sweep_fingerprint(graph: Graph, backend: str) -> bytes:
    """One PLM move phase under ``backend``; returns a result fingerprint.

    The fingerprint (final labels + sweep count) is what the A/B's
    ``identical`` byte-equality assertion compares across backends.
    """
    plm = PLM(threads=1, seed=3, kernel_backend=backend)
    lab = np.arange(graph.n, dtype=np.int64)
    runtime = ParallelRuntime(threads=1)
    _, sweeps = plm._move_phase(graph, lab, runtime, "bench")
    return lab.tobytes() + bytes([sweeps & 0xFF])


def _backend_ab(
    name: str,
    graph: Graph,
    size: str,
    repeats: int,
    run_with: Callable[[str], bytes],
) -> dict[str, Any]:
    """Fair interleaved NumPy-vs-Numba A/B of one benchmark body.

    ``run_with(backend)`` executes the body under a backend and returns a
    result fingerprint. The **first** compiled call pays JIT compilation
    and is excluded from the timed rounds — its excess over the compiled
    steady state is reported separately as ``compile_s`` (see
    EXPERIMENTS.md on why compile time must not pollute a throughput
    A/B). Rounds then alternate numpy/numba so drifting host load biases
    neither side; ``wall_s`` is the compiled best, ``numpy_wall_s`` the
    vectorized best, and ``identical`` asserts every fingerprint matched
    byte-for-byte.
    """
    t0 = time.perf_counter()
    fp_ref = run_with("numba")  # compile + warmup, timed for compile_s
    first_s = time.perf_counter() - t0
    identical = run_with("numpy") == fp_ref  # numpy warmup
    best_np = best_nb = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fp = run_with("numpy")
        best_np = min(best_np, time.perf_counter() - t0)
        identical &= fp == fp_ref
        t0 = time.perf_counter()
        fp = run_with("numba")
        best_nb = min(best_nb, time.perf_counter() - t0)
        identical &= fp == fp_ref
    return _entry(
        name,
        graph,
        size,
        max(1, repeats),
        best_nb,
        backend="numba",
        numpy_wall_s=float(best_np),
        backend_speedup=round(best_np / best_nb, 3)
        if best_nb > 0
        else float("inf"),
        compile_s=round(max(0.0, first_s - best_nb), 6),
        identical=bool(identical),
        note="interleaved numpy/numba best-of rounds; first compiled call "
        "excluded from timing and reported as compile_s",
    )


def run_kernel_suite(
    preset: str = "full",
    repeats: int = 5,
    chunk: int = 32,
    workers: int | None = None,
    kernel_backend: str | None = None,
) -> list[dict[str, Any]]:
    """Time the shared kernels; returns one record per (kernel, graph).

    ``*_full`` entries measure one whole-graph vectorized call;
    ``*_chunked`` entries sweep the graph in ``chunk``-node blocks over a
    random permutation — the access pattern of the simulated executor's
    grain blocks, where per-call overhead dominates.

    ``workers > 1`` fans the independent cells out to the shared-memory
    process pool (each graph ships once, zero-copy); results come back in
    submission order, so the document layout is backend-invariant. With
    more concurrent cells than idle cores the per-cell walls inflate
    under contention — use serial runs for release-over-release deltas.

    ``kernel_backend`` selects who executes the ``move_sweep`` cell's hot
    loops. When the numba backend is available on the host, one
    ``move_sweep_backend_ab`` entry per graph is appended — the
    interleaved NumPy-vs-Numba comparison (timed sequentially in this
    process for fair walls) with JIT compile time excluded and reported
    as ``compile_s``.
    """
    backend = resolve_backend(workers)
    graphs = _graphs(preset)
    tasks = [
        (
            backend.share_graph(graph) if backend.workers > 1 else graph,
            size,
            name,
            repeats,
            chunk,
            kernel_backend,
        )
        for size, graph in graphs
        for name in KERNEL_NAMES
    ]
    entries = backend.map(_kernel_cell, tasks)
    if _numba_ready():
        for size, graph in graphs:
            entries.append(
                _backend_ab(
                    "move_sweep_backend_ab",
                    graph,
                    size,
                    max(1, repeats // 2),
                    lambda b, g=graph: _move_sweep_fingerprint(g, b),
                )
            )
    return entries


# ----------------------------------------------------------------------
# End-to-end suite
# ----------------------------------------------------------------------
def _e2e_detector(
    name: str, workers: int | None, kernel_backend: str | None = None
):
    """Fresh detector for an e2e cell. Only EPP consumes host workers —
    its base ensemble is the detector-internal parallel boundary."""
    if name == "plp":
        return PLP(threads=4, seed=1, kernel_backend=kernel_backend)
    if name == "plm":
        return PLM(threads=4, seed=1, kernel_backend=kernel_backend)
    if name == "plmr":
        return PLMR(threads=4, seed=1, kernel_backend=kernel_backend)
    if name == "epp":
        return EPP(
            threads=4,
            seed=1,
            ensemble_size=4,
            workers=workers,
            kernel_backend=kernel_backend,
        )
    raise ValueError(f"unknown e2e algorithm {name!r}")


E2E_ALGORITHMS = ("plp", "plm", "plmr", "epp")


def _epp_workers_ab(
    graph: Graph, size: str, repeats: int, workers: int
) -> dict[str, Any]:
    """Fair interleaved A/B: EPP with the serial vs the process backend.

    Both configurations run the *same* modeled machine and seeds — the
    simulated outputs are asserted identical (``sim_identical``) — and the
    measurements alternate serial/parallel within each round so drifting
    host load biases neither side. ``wall_s`` is the parallel best;
    ``serial_wall_s``/``workers_speedup`` carry the comparison.
    """

    def serial_run():
        return EPP(threads=4, seed=1, ensemble_size=4, workers=1).run(graph)

    def pooled_run():
        return EPP(threads=4, seed=1, ensemble_size=4, workers=workers).run(graph)

    sims = {serial_run().timing.total, pooled_run().timing.total}  # warmup
    best_serial = best_pooled = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        sims.add(serial_run().timing.total)
        best_serial = min(best_serial, time.perf_counter() - t0)
        t0 = time.perf_counter()
        sims.add(pooled_run().timing.total)
        best_pooled = min(best_pooled, time.perf_counter() - t0)
    return _entry(
        "epp_workers_ab",
        graph,
        size,
        max(1, repeats),
        best_pooled,
        sim_s=float(next(iter(sims))),
        sim_identical=len(sims) == 1,
        serial_wall_s=float(best_serial),
        workers=int(workers),
        workers_speedup=round(best_serial / best_pooled, 3)
        if best_pooled > 0
        else float("inf"),
    )


def _e2e_fingerprint(
    name: str, graph: Graph, workers: int | None, backend: str
) -> bytes:
    """One full detector run under ``backend``; labels + simulated time."""
    result = _e2e_detector(name, workers, kernel_backend=backend).run(graph)
    return (
        result.partition.labels.tobytes()
        + repr(float(result.timing.total)).encode()
    )


def run_e2e_suite(
    preset: str = "full",
    repeats: int = 2,
    workers: int | None = None,
    kernel_backend: str | None = None,
) -> list[dict[str, Any]]:
    """Wall-clock full detector runs; also records simulated seconds.

    The simulated time is carried along as a tripwire: a host-speed
    optimization must leave ``sim_s`` bit-identical, so a drift here means
    the cost model or the algorithm itself changed.

    Cells are timed **sequentially** on purpose, even with ``workers``:
    concurrently-timed cells would contend for cores and corrupt the wall
    numbers. ``workers`` instead drives the detector-internal backend
    (EPP's base ensemble) and, when ``> 1``, appends one
    ``epp_workers_ab`` entry per graph — the fair interleaved serial-vs-
    process comparison the multicore speedup claims are measured by.

    ``kernel_backend`` selects who executes every timed detector's hot
    loops (recorded per entry as ``backend``). When the numba backend is
    available, ``plp_backend_ab``/``plm_backend_ab`` entries per graph
    carry the interleaved NumPy-vs-Numba end-to-end comparison with JIT
    compile time excluded (``compile_s``).
    """
    from repro.community.backends import resolve_kernel_backend

    effective = resolve_backend(workers).workers
    resolved_kb = resolve_kernel_backend(kernel_backend)
    entries: list[dict[str, Any]] = []
    for size, graph in _graphs(preset):
        for name in E2E_ALGORITHMS:
            sim: dict[str, float] = {}

            def bench():
                result = _e2e_detector(
                    name, workers, kernel_backend=kernel_backend
                ).run(graph)
                sim["s"] = result.timing.total

            wall = _time_best(bench, repeats, warmup=1)
            entries.append(
                _entry(
                    f"{name}_run",
                    graph,
                    size,
                    repeats,
                    wall,
                    sim_s=float(sim["s"]),
                    backend=resolved_kb,
                )
            )
        if effective > 1:
            entries.append(_epp_workers_ab(graph, size, repeats, effective))
        if _numba_ready():
            for name in ("plp", "plm"):
                entries.append(
                    _backend_ab(
                        f"{name}_backend_ab",
                        graph,
                        size,
                        repeats,
                        lambda b, n=name, g=graph: _e2e_fingerprint(
                            n, g, workers, b
                        ),
                    )
                )
    return entries


# ----------------------------------------------------------------------
# Scale suite (fig9-class inputs, §V-H)
# ----------------------------------------------------------------------
def _reset_peak_rss(pid: "int | str" = "self") -> None:
    """Reset a process's peak-RSS high-water mark (Linux; no-op elsewhere).

    Works cross-process (``pid`` an int) for same-uid children — how the
    suite resets the persistent pool's workers before a measured run.
    """
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _read_peak_rss_mb(pid: "int | str" = "self") -> float | None:
    """A process's peak RSS in MiB since the last reset (None off-Linux)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


def _pool_pids(backend) -> list[int]:
    """PIDs of the backend's live pool workers ([] for serial/no pool)."""
    pool = getattr(backend, "_pool", None)
    processes = getattr(pool, "_processes", None)
    return sorted(processes) if processes else []


def _worker_peaks_mb(backend) -> dict[str, float]:
    """Per-worker VmHWM of the pool's processes, keyed by pid string."""
    peaks: dict[str, float] = {}
    for pid in _pool_pids(backend):
        peak = _read_peak_rss_mb(pid)
        if peak is not None:
            peaks[str(pid)] = peak
    return peaks


#: (rmat args, planted-partition args, loop-sampler cap, detectors) per preset.
_SCALE_PRESETS: dict[str, dict[str, Any]] = {
    # >= 10M undirected edges on both instance classes — the fig9-class
    # target of the scale path.
    "scale": {
        "rmat": dict(scale=20, edge_factor=12, seed=42),
        "pp": dict(n=1_000_000, k=100, p_in=1.7e-3, p_out=4.2e-6, seed=42),
        "loop_samples": 100_000,
        "detectors": ("plp", "plm", "epp"),
        "gen_repeats": 3,
        "shards": 4,
    },
    # ~1M-edge R-MAT only; the CI scale-smoke tier.
    "scale-smoke": {
        "rmat": dict(scale=17, edge_factor=8, seed=42),
        "pp": None,
        "loop_samples": 20_000,
        "detectors": ("plp",),
        "gen_repeats": 3,
    },
    # Seconds-fast variant for the benchmark suite's schema test.
    "scale-tiny": {
        "rmat": dict(scale=12, edge_factor=8, seed=42),
        "pp": dict(n=2_000, k=8, p_in=0.04, p_out=0.002, seed=42),
        "loop_samples": 2_000,
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
        "loop_samples": None,
        "detectors": (),
        "gen_repeats": 1,
        "shards": 4,
    },
    # ~1M-edge R-MAT sharded tier — the CI shard-smoke pin.
    "scale-sharded-smoke": {
        "rmat": dict(scale=17, edge_factor=8, seed=42),
        "pp": None,
        "loop_samples": None,
        "detectors": (),
        "gen_repeats": 1,
        "shards": 2,
    },
}


def _scale_generate_entry(
    label: str, build: Callable[[], Graph], size: str, repeats: int
) -> tuple[Graph, dict[str, Any]]:
    """Time a full generator call (best-of-``repeats``) with peak RSS."""
    _reset_peak_rss()
    graph = build()  # warmup; also the instance handed to the detectors
    best = float("inf")
    for _ in range(max(0, repeats - 1)):
        t0 = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - t0)
    if best == float("inf"):
        # single-repeat preset: the warmup call is the measurement
        t0 = time.perf_counter()
        graph = build()
        best = time.perf_counter() - t0
    peak = _read_peak_rss_mb()
    entry = _entry(
        f"{label}_generate",
        graph,
        size,
        max(1, repeats),
        best,
        edges_per_s=round(graph.m / best, 1) if best > 0 else float("inf"),
        peak_rss_mb=peak,
    )
    return graph, entry


def _rmat_gen_ab(
    graph: Graph, size: str, args: dict[str, Any], loop_samples: int, repeats: int
) -> dict[str, Any]:
    """Interleaved A/B of the vectorized vs the loop R-MAT *sampler*.

    Measures the sampling phase (endpoint-pair generation) both
    implementations share semantics on; CSR assembly downstream is
    identical code for both and excluded. The loop side is timed on
    ``loop_samples`` pairs and extrapolated to a rate — running it at
    full fig9 size would take minutes per round. Rounds alternate
    vec/loop so drifting host load biases neither side.
    """
    from repro.graph.generators import PAPER_RMAT, _rmat_sample
    from repro.graph.reference import rmat_sample_loop

    scale = int(args["scale"])
    m = (1 << scale) * int(args["edge_factor"])
    a, b, c, d = PAPER_RMAT
    loop_n = min(loop_samples, m)
    best_vec = best_loop = float("inf")
    for _ in range(max(1, repeats)):
        rng = np.random.default_rng(args.get("seed", 0))
        t0 = time.perf_counter()
        _rmat_sample(rng, scale, m, a, b, c, d)
        best_vec = min(best_vec, time.perf_counter() - t0)
        rng = np.random.default_rng(args.get("seed", 0))
        t0 = time.perf_counter()
        rmat_sample_loop(rng, scale, loop_n, a, b, c, d)
        best_loop = min(best_loop, time.perf_counter() - t0)
    vec_eps = m / best_vec
    loop_eps = loop_n / best_loop
    return _entry(
        "rmat_gen_ab",
        graph,
        size,
        max(1, repeats),
        best_vec,
        samples=int(m),
        vec_edges_per_s=round(vec_eps, 1),
        loop_samples=int(loop_n),
        loop_wall_s=float(best_loop),
        loop_edges_per_s=round(loop_eps, 1),
        gen_speedup=round(vec_eps / loop_eps, 1),
        note="sampling phase; loop side capped at loop_samples and "
        "extrapolated per-pair; interleaved best-of rounds",
    )


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
    _reset_peak_rss()
    for pid in _pool_pids(backend):
        _reset_peak_rss(pid)
    t0 = time.perf_counter()
    result = _e2e_detector(name, workers).run(graph)
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
        peak_rss_mb=_read_peak_rss_mb(),
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
        _reset_peak_rss()
        t0 = time.perf_counter()
        mres = ShardedPLP(threads=4, seed=1, shards=1, workers=1).run(graph)
        best_mono = min(best_mono, time.perf_counter() - t0)
        peak = _read_peak_rss_mb()
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
    entry = _entry(
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
    return entry


def run_scale_suite(
    preset: str = "scale",
    workers: int | None = None,
    dtype_policy: str = "wide",
) -> list[dict[str, Any]]:
    """Massive-input scale benchmarks (fig9-class, §V-H).

    Per instance: full-generator wall time with generation throughput and
    peak RSS, the interleaved vectorized-vs-loop R-MAT sampler A/B
    (``rmat_gen_ab.gen_speedup`` is the scale path's headline number), and
    one timed detection run per configured algorithm (PLP always; PLM and
    EPP on the full preset). ``workers`` drives EPP's internal ensemble
    backend exactly as in the e2e suite.
    """
    if preset not in _SCALE_PRESETS:
        raise ValueError(
            f"unknown scale preset {preset!r} (use {sorted(_SCALE_PRESETS)})"
        )
    cfg = _SCALE_PRESETS[preset]
    from repro.graph.generators import planted_partition, rmat

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
    if cfg["loop_samples"]:
        entries.append(
            _rmat_gen_ab(
                graph, size, rmat_args, cfg["loop_samples"], cfg["gen_repeats"]
            )
        )
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
    backend = resolve_backend(workers)
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend.kind,
        "workers": int(backend.workers),
        "cpu_count": int(os.cpu_count() or 1),
        "kernel_backends": kernel_backends(),
        "shards": _shard_support(),
    }


def _shard_support() -> dict[str, Any]:
    from repro.graph.sharding import shard_support

    return shard_support()


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
    return {
        "schema": SCHEMA,
        "kind": kind,
        "preset": preset,
        "host": _host_info(workers),
        "benchmarks": entries,
    }


def merge_baseline(doc: dict, baseline: dict) -> dict:
    """Attach before/after numbers from a baseline run of the same suite.

    Entries are matched on (name, graph, size); every matched entry gains
    ``before_s`` (baseline), ``after_s`` (this run) and ``speedup``.

    A match whose instance changed shape (``n``/``m`` differ — e.g. a
    generator's RNG stream was deliberately re-drawn) is *not* comparable;
    it gains ``baseline_skipped`` instead of a bogus speedup.
    """
    index = {
        (e["name"], e["graph"], e["size"]): e for e in baseline.get("benchmarks", [])
    }
    for entry in doc["benchmarks"]:
        base = index.get((entry["name"], entry["graph"], entry["size"]))
        if base is None:
            continue
        if (base.get("n"), base.get("m")) != (entry["n"], entry["m"]):
            entry["baseline_skipped"] = "instance changed (n/m differ from baseline)"
            continue
        entry["before_s"] = float(base["wall_s"])
        entry["after_s"] = float(entry["wall_s"])
        if entry["after_s"] > 0:
            entry["speedup"] = round(entry["before_s"] / entry["after_s"], 3)
    return doc


def validate_document(doc: dict) -> list[str]:
    """Return a list of schema problems (empty = valid)."""
    problems: list[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if doc.get("kind") not in (
        "kernels",
        "e2e",
        "scale",
        "serve",
        "quality",
        "stream",
    ):
        problems.append(
            "kind must be 'kernels', 'e2e', 'scale', 'serve', 'quality' "
            f"or 'stream', got {doc.get('kind')!r}"
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
        wall = entry.get("wall_s")
        if not isinstance(wall, (int, float)) or wall < 0:
            problems.append(f"benchmarks[{i}].wall_s must be a non-negative number")
        # Kernel-backend fields are optional (older documents predate
        # them) but typed when present.
        backend = entry.get("backend")
        if backend is not None and backend not in ("numpy", "numba"):
            problems.append(
                f"benchmarks[{i}].backend must be 'numpy' or 'numba', "
                f"got {backend!r}"
            )
        if entry.get("name") == "plp_sharded_ab":
            if not isinstance(entry.get("labels_match"), bool):
                problems.append(
                    f"benchmarks[{i}] sharded A/B needs a boolean 'labels_match'"
                )
            shards = entry.get("shards")
            if not isinstance(shards, int) or shards < 1:
                problems.append(
                    f"benchmarks[{i}].shards must be a positive integer"
                )
        if entry.get("name", "").endswith("_backend_ab"):
            if not isinstance(entry.get("identical"), bool):
                problems.append(
                    f"benchmarks[{i}] backend A/B needs a boolean 'identical'"
                )
            for key in ("numpy_wall_s", "compile_s"):
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"benchmarks[{i}].{key} must be a non-negative number"
                    )
        if doc.get("kind") == "quality":
            problems.extend(_validate_quality_entry(entry, i))
        if doc.get("kind") == "stream":
            problems.extend(_validate_stream_entry(entry, i))
    if doc.get("kind") == "quality":
        problems.extend(_validate_pareto_block(doc.get("pareto")))
    return problems


def _validate_stream_entry(entry: dict, i: int) -> list[str]:
    """Schema checks specific to streaming-suite entries."""
    problems = []
    name = entry.get("name", "")
    if "events_per_s" in entry or name.endswith("_stream"):
        eps = entry.get("events_per_s")
        if not isinstance(eps, (int, float)) or eps < 0:
            problems.append(
                f"benchmarks[{i}].events_per_s must be a non-negative number"
            )
    if name in ("dplp_stream", "dplm_stream"):
        for key in ("p50_ms", "p99_ms"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"benchmarks[{i}].{key} must be a non-negative number"
                )
    if name == "freeze_delta_ab":
        if not isinstance(entry.get("identical"), bool):
            problems.append(
                f"benchmarks[{i}] freeze A/B needs a boolean 'identical'"
            )
        for key in ("full_wall_s", "freeze_speedup"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"benchmarks[{i}].{key} must be a non-negative number"
                )
        frac = entry.get("dirty_fraction")
        if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
            problems.append(
                f"benchmarks[{i}].dirty_fraction must be a number in [0, 1]"
            )
    if name == "dplm_incremental_ab":
        for key in ("full_wall_s", "update_speedup"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"benchmarks[{i}].{key} must be a non-negative number"
                )
        for key in ("nmi_min", "nmi_mean"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems.append(
                    f"benchmarks[{i}].{key} must be a number in [0, 1]"
                )
    return problems


def _validate_quality_entry(entry: dict, i: int) -> list[str]:
    """Schema checks specific to detector-zoo quality entries."""
    from repro.bench.quality import TRUTH_CATEGORIES

    problems = []
    for key in ("algorithm", "category"):
        if not isinstance(entry.get(key), str) or not entry.get(key):
            problems.append(
                f"benchmarks[{i}].{key} must be a non-empty string"
            )
    for key in ("sim_time_s", "modularity"):
        if not isinstance(entry.get(key), (int, float)):
            problems.append(f"benchmarks[{i}].{key} must be a number")
    communities = entry.get("communities")
    if not isinstance(communities, int) or communities < 1:
        problems.append(
            f"benchmarks[{i}].communities must be a positive integer"
        )
    if entry.get("category") in TRUTH_CATEGORIES:
        # Ground-truth instances must score both agreement metrics.
        nmi = entry.get("nmi")
        if not isinstance(nmi, (int, float)) or not 0.0 <= nmi <= 1.0:
            problems.append(f"benchmarks[{i}].nmi must be a number in [0, 1]")
        ari = entry.get("ari")
        if not isinstance(ari, (int, float)) or not -1.0 <= ari <= 1.0:
            problems.append(f"benchmarks[{i}].ari must be a number in [-1, 1]")
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
        if "speedup" in e:
            extra = f"  before={e['before_s']:.6f}s  speedup={e['speedup']:.2f}x"
        if "workers_speedup" in e:
            extra += (
                f"  serial={e['serial_wall_s']:.6f}s  "
                f"x{e['workers_speedup']:.2f} @{e['workers']} workers"
            )
        if "backend_speedup" in e:
            extra += (
                f"  numpy={e['numpy_wall_s']:.6f}s  "
                f"x{e['backend_speedup']:.2f} numba "
                f"(compile {e['compile_s']:.3f}s, "
                f"{'identical' if e['identical'] else 'MISMATCH'})"
            )
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
        if "gen_speedup" in e:
            extra += f"  loop={e['loop_wall_s']:.3f}s  gen x{e['gen_speedup']:.0f}"
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
    for kind in ("kernels", "e2e"):
        p = sub.add_parser(kind, help=f"run the {kind} suite")
        p.add_argument("--preset", default="full", choices=["smoke", "full"])
        p.add_argument("--repeats", type=int, default=5 if kind == "kernels" else 2)
        p.add_argument("--out", default=f"BENCH_{kind}.json")
        p.add_argument(
            "--baseline",
            default=None,
            help="previous run of the same suite; adds before/after numbers",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="host worker processes (shared-memory pool; default: "
            "REPRO_WORKERS or 1 = serial). kernels: fans out cells; "
            "e2e: drives EPP's internal backend + the epp_workers_ab entry",
        )
        p.add_argument(
            "--kernel-backend",
            choices=["numpy", "numba", "auto"],
            default=None,
            help="hot-loop executor for the timed detectors (default: "
            "REPRO_KERNEL_BACKEND or numpy); *_backend_ab entries are "
            "emitted whenever the numba backend is available",
        )
    s = sub.add_parser("scale", help="run the massive-input scale suite")
    s.add_argument(
        "--preset", default="scale", choices=sorted(_SCALE_PRESETS)
    )
    s.add_argument("--out", default="BENCH_scale.json")
    s.add_argument("--baseline", default=None)
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
    q.add_argument("--baseline", default=None)
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
    st.add_argument("--baseline", default=None)
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

    if args.command == "kernels":
        entries = run_kernel_suite(
            args.preset,
            repeats=args.repeats,
            workers=args.workers,
            kernel_backend=args.kernel_backend,
        )
    elif args.command == "e2e":
        entries = run_e2e_suite(
            args.preset,
            repeats=args.repeats,
            workers=args.workers,
            kernel_backend=args.kernel_backend,
        )
    elif args.command == "quality":
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
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            doc = merge_baseline(doc, json.load(fh))
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
