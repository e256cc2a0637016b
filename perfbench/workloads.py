"""The four benchmark workloads and the metrics they report.

Each workload sets up several times (the median is ``setup_s``), then
repeats its unit of work until ``--seconds`` have passed, checking every
output. A *round* is that unit: four detections on one graph for the
``detect-*`` workloads, one event batch for ``stream-churn`` and one
request for ``serve-mixed``.

A traced run (``--trace 1``) installs the call-site patches of
:mod:`spans`, alternates untraced and traced rounds on the same inputs,
and reports per-layer metrics per traced round instead of the end-to-end
ones.
"""

from __future__ import annotations

import math
import shutil
import statistics
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.community import make_detector
from repro.graph import DynamicGraph
from repro.graph.io import save_npz
from repro.parallel import resolve_backend, shutdown_all
from repro.serve import ServeClient, serve_in_thread

import checks
import inputs
import spans

THREADS = 32  # the paper machine's hardware threads, simulated
WORKERS = 2
# Sharded PLP runs its shard rounds in-process: pooled, each of its ~20
# rounds is a pool round trip, and on a 2-vCPU host its time then follows
# the host's scheduling (per-run medians swung 0.96-1.6 s on identical
# work). EPP still exercises the pool, with one round trip per run.
DETECTORS = (
    ("plp", {}),
    ("plm", {}),
    ("epp", {"workers": WORKERS}),
    ("splp", {"shards": 2, "workers": 1}),
)
SETUP_REPEATS = 3
MIN_ROUNDS = 2
SIM_PREFIX = 10  # operations whose simulated time makes parallel.runtime.sim_s

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("plp_s", "s", "lower", 0.25),
    ("plm_s", "s", "lower", 0.25),
    ("epp_s", "s", "lower", 0.25),
    ("splp_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.2),
    ("modularity", "score", "higher", 0.05),
    ("nmi", "score", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: (name, unit, better) of every per-layer metric. Seconds and counts are
#: per traced round, except ``graph.generate_s`` (one set-up).
PER_LAYER = (
    ("graph.generate_s", "s", "lower"),
    ("graph.coarsen_s", "s", "lower"),
    ("graph.coarsen_calls", "count", "lower"),
    ("graph.prolong_s", "s", "lower"),
    ("graph.shard_build_s", "s", "lower"),
    ("graph.dynamic.apply_s", "s", "lower"),
    ("graph.dynamic.events", "count", "higher"),
    ("graph.dynamic.freeze_s", "s", "lower"),
    ("graph.dynamic.delta_ratio", "ratio", "higher"),
    ("graph.dynamic.dirty_fraction", "ratio", "lower"),
    ("graph.io.load_s", "s", "lower"),
    ("parallel.runtime.loop_s", "s", "lower"),
    ("parallel.runtime.kernel_s", "s", "lower"),
    ("parallel.runtime.commit_s", "s", "lower"),
    ("parallel.runtime.executor_s", "s", "lower"),
    ("parallel.runtime.loops", "count", "lower"),
    ("parallel.runtime.blocks", "count", "lower"),
    ("parallel.runtime.sim_s", "s", "lower"),
    ("parallel.backend.map_s", "s", "lower"),
    ("parallel.backend.tasks", "count", "lower"),
    ("parallel.backend.share_s", "s", "lower"),
    ("parallel.backend.restarts", "count", "lower"),
    ("community.plp.propagate_s", "s", "lower"),
    ("community.plm.move_s", "s", "lower"),
    ("community.plm.refine_s", "s", "lower"),
    ("community.plm.move_outside_loop_s", "s", "lower"),
    ("community.plm.sweeps", "count", "lower"),
    ("community.plm.levels", "count", "lower"),
    ("community.plm.spec_validated_ratio", "ratio", "higher"),
    ("community.epp.base_s", "s", "lower"),
    ("community.epp.combine_s", "s", "lower"),
    ("community.epp.final_s", "s", "lower"),
    ("community.splp.partition_s", "s", "lower"),
    ("community.splp.exchange_s", "s", "lower"),
    ("community.splp.merge_s", "s", "lower"),
    ("community.dplm.update_s", "s", "lower"),
    ("community.dplm.incremental_ratio", "ratio", "higher"),
    ("partition.modularity_s", "s", "lower"),
    ("partition.combine_hashing_s", "s", "lower"),
    ("serve.jobs.submit_s", "s", "lower"),
    ("serve.jobs.queue_wait_s", "s", "lower"),
    ("serve.jobs.cache_hit_ratio", "ratio", "higher"),
    ("serve.jobs.batch_size", "count", "higher"),
    ("serve.jobs.rejected", "count", "lower"),
    ("serve.registry.reload_s", "s", "lower"),
    ("serve.registry.cold_loads", "count", "lower"),
    ("serve.registry.evictions", "count", "lower"),
    ("serve.protocol.encode_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untracked_s", "s", "lower"),
)

#: Inclusive span name behind each per-round time metric.
SPAN_METRICS = {
    "graph.coarsen_s": "graph.coarsen",
    "graph.prolong_s": "graph.prolong",
    "graph.shard_build_s": "graph.shard_build",
    "graph.dynamic.apply_s": "graph.dynamic.apply",
    "graph.dynamic.freeze_s": "graph.dynamic.freeze",
    "graph.io.load_s": "graph.io.load",
    "parallel.runtime.loop_s": spans.LOOP,
    "parallel.backend.map_s": "parallel.backend.map",
    "parallel.backend.share_s": "parallel.backend.share",
    "community.plp.propagate_s": "community.plp.propagate",
    "community.plm.move_s": "community.plm.move",
    "community.plm.refine_s": "community.plm.refine",
    "community.epp.base_s": "community.epp.base",
    "community.epp.combine_s": "community.epp.combine",
    "community.epp.final_s": "community.epp.final",
    "community.splp.partition_s": "community.splp.partition",
    "community.splp.exchange_s": "community.splp.exchange",
    "community.splp.merge_s": "community.splp.merge",
    "community.dplm.update_s": "community.dplm.update",
    "partition.modularity_s": "partition.modularity",
    "partition.combine_hashing_s": "partition.combine_hashing",
    "serve.registry.reload_s": "serve.registry.reload",
    "serve.protocol.encode_s": "serve.protocol.encode",
}


class Run:
    """State and tallies of one benchmark run."""

    def __init__(self, workload, seed, seconds, size, traced, work_dir):
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.size = inputs.SIZES[size]
        self.traced = bool(traced)
        self.work_dir = Path(work_dir)
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.times: dict[str, list[float]] = defaultdict(list)  # per algorithm
        self.latencies: list[float] = []  # per round of work; inf = failed
        self.work_units = 0.0
        self.busy = 0.0
        self.modularity: list[float] = []
        self.nmi: list[float] = []
        self.sim: list[float] = []
        self.plm_info: list[dict] = []
        self.dplm_modes: list[str] = []
        self.overhead: list[float] = []
        self.traced_rounds = 0
        self.serve_stats: dict = {}
        self.peak_rss_mb = 0.0
        self.restarts = 0
        #: How the per-algorithm seconds of a run fold into one value.
        self.per_algorithm = statistics.median

    # -- tallies --------------------------------------------------------
    def op(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")
        return not problems

    def setup(self, build, teardown):
        """Run ``build`` several times (once when traced); keep the last."""
        repeats = 1 if self.traced else SETUP_REPEATS
        for i in range(repeats):
            t0 = time.perf_counter()
            state = build()
            self.setup_times.append(time.perf_counter() - t0)
            if i + 1 < repeats:
                teardown(state)
        return state

    def generating(self):
        """Window around input generation (traced runs only)."""
        return self.tracer.window() if self.traced else nullcontext()

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds

    def detect(self, alg, params, graph, seed, truth=None, floor=None, window=False):
        """One checked detection; returns ``(result, seconds)``."""
        detector = make_detector(alg, threads=THREADS, seed=seed, **params)
        if window:
            self.tracer.start()
        try:
            with self.tracer.span(f"community.{alg}.run"):
                t0 = time.perf_counter()
                result = detector.run(graph)
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failed operation, not a crash
            self.op([f"{type(exc).__name__}: {exc}"], f"{alg} on {graph.name}")
            return None, math.inf
        finally:
            if window:
                self.tracer.stop()
        problems, q, nmi = checks.detection_problems(graph, result.labels, truth, floor)
        if self.op(problems, f"{alg} on {graph.name}"):
            self.modularity.append(q)
            if nmi is not None:
                self.nmi.append(nmi)
        if alg == "plm":
            self.plm_info.append(result.info)
        return result, dt


def _warm_up(run: Run) -> None:
    """Pooled EPP (PLP bases, PLM final) on a tiny graph; starts the pool."""
    graph, _ = inputs.planted(run.size["warm"], inputs.sub_seed(run.seed, 9), "warm")
    make_detector("epp", threads=THREADS, workers=WORKERS).run(graph)


# ----------------------------------------------------------------------
# detect-planted / detect-rmat
# ----------------------------------------------------------------------
def detect(run: Run, kind: str) -> None:
    size = run.size
    floor = checks.NMI_FLOOR.get(run.workload)

    def build():
        graphs = []
        with run.generating():
            for i in range(size["detect_graphs"]):
                s = inputs.sub_seed(run.seed, 1, i)
                if kind == "planted":
                    graphs.append(inputs.planted(size["planted"], s, f"planted-{i}"))
                else:
                    graphs.append((inputs.rmat(size["rmat"], s, f"rmat-{i}"), None))
        _warm_up(run)
        return graphs

    graphs = run.setup(build, lambda _: shutdown_all())

    def one_round(graph, truth, seed, window):
        # Traced runs keep only the traced twin of each round.
        record = window or not run.traced
        outs, wall = {}, 0.0
        for alg, params in DETECTORS:
            result, dt = run.detect(alg, params, graph, seed, truth, floor, window)
            wall += dt
            outs[alg] = result
            if record:
                run.times[alg].append(dt)
                if result is not None:
                    run.busy += dt
                    run.work_units += 1
        if record:
            # The round, not the single detection, is the latency sample:
            # per-detection times form four clusters, one per algorithm,
            # and a percentile falling between two of them jumps.
            run.latencies.append(wall)
        if record and not run.sim:
            run.sim.append(sum(o.timing.total for o in outs.values() if o is not None))
        if truth is None and outs["plm"] is not None:
            # No planted truth: agreement of the other outputs with PLM's.
            for alg in ("plp", "epp", "splp"):
                if outs[alg] is not None:
                    run.nmi.append(
                        checks.nmi(outs["plm"].labels, outs[alg].labels)
                    )
        return wall

    deadline = run.deadline()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        graph, truth = graphs[r % len(graphs)]
        seed = run.seed * 1000 + r
        if run.traced:
            plain = one_round(graph, truth, seed, False)
            traced = one_round(graph, truth, seed, True)
            run.overhead.append(traced - plain)
            run.traced_rounds += 1
        else:
            one_round(graph, truth, seed, False)
        r += 1
    _finish(run)
    shutdown_all()


# ----------------------------------------------------------------------
# stream-churn
# ----------------------------------------------------------------------
def stream(run: Run) -> None:
    size = run.size
    floor = checks.NMI_FLOOR[run.workload]

    def build():
        with run.generating():
            graph, truth = inputs.planted(
                size["stream"], inputs.sub_seed(run.seed, 3), "stream"
            )
        dyn = DynamicGraph.from_graph(graph)
        dplm = make_detector("dplm", threads=THREADS, seed=run.seed)
        dplm.run(graph)
        _warm_up(run)
        return graph, truth, dyn, dplm

    graph, truth, dyn, dplm = run.setup(build, lambda _: shutdown_all())
    plain_lat: list[float] = []
    traced_lat: list[float] = []
    deadline = run.deadline()
    batch = 0
    segment = 0  # completed groups of ``stream_segment`` batches
    while segment < MIN_ROUNDS or time.perf_counter() < deadline:
        us, vs, ws, kinds = inputs.event_batch(graph, truth, size, run.seed, batch)
        window = run.traced and batch % 2 == 1
        batch += 1
        if window:
            run.tracer.start()
        t0 = time.perf_counter()
        try:
            dyn.apply_events(us, vs, ws, kinds)
            graph = dyn.freeze()
            result = dplm.update(graph, dyn.drain_events())
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failed operation, not a crash
            run.op([f"{type(exc).__name__}: {exc}"], f"batch {batch}")
            run.latencies.append(math.inf)
            continue
        finally:
            if window:
                run.tracer.stop()
        (traced_lat if window else plain_lat).append(dt)
        run.traced_rounds += window
        run.latencies.append(dt)
        run.busy += dt
        run.work_units += us.size
        run.dplm_modes.append(result.info.get("mode", ""))
        if len(run.sim) < SIM_PREFIX:
            run.sim.append(result.timing.total)
        problems, q, nmi = checks.detection_problems(graph, result.labels, truth, floor)
        if run.op(problems, f"batch {batch}"):
            run.modularity.append(q)
            run.nmi.append(nmi)
        if batch % size["stream_segment"]:
            continue
        # From-scratch detections of the current snapshot: the work each
        # incremental update replaces.
        if not run.traced:
            for alg, params in DETECTORS:
                _, dt = run.detect(alg, params, graph, run.seed * 1000 + segment, truth, floor)
                run.times[alg].append(dt)
        segment += 1
    if traced_lat and plain_lat:
        run.overhead.append(statistics.fmean(traced_lat) - statistics.fmean(plain_lat))
    _finish(run)
    shutdown_all()


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def serve(run: Run) -> None:
    size = run.size
    floor = checks.NMI_FLOOR[run.workload]
    work = run.work_dir / f"serve-{run.seed}"
    graphs: list[tuple] = []
    hot = size["serve_hot"]

    def build():
        work.mkdir(parents=True, exist_ok=True)
        graphs.clear()
        with run.generating():
            for i in range(size["serve_graphs"]):
                graphs.append(
                    inputs.planted(
                        size["served"], inputs.sub_seed(run.seed, 4, i), f"serve-{i}"
                    )
                )
        for i, (graph, _) in enumerate(graphs):
            save_npz(graph, work / f"g{i}.npz")
        handle = serve_in_thread(
            workers=WORKERS,
            capacity=size["serve_capacity"],
            cache_dir=str(work / "cache"),
        )
        warm, _ = inputs.planted(size["warm"], inputs.sub_seed(run.seed, 9), "warm")
        save_npz(warm, work / "warm.npz")
        with _client(handle) as client:
            for i in range(len(graphs)):
                client.load(f"g{i}", str(work / f"g{i}.npz"))
            # Start the pool and every detector on a tiny graph, then drop
            # it so the hot set alone fills the registry.
            client.load("warm", str(work / "warm.npz"))
            for alg, params in inputs.ALGORITHMS:
                client.detect("warm", alg, params)
            client.evict("warm")
            for i in range(hot):
                client.pin(f"g{i}")
        return handle

    def teardown(handle):
        handle.stop()
        shutil.rmtree(work, ignore_errors=True)

    handle = run.setup(build, teardown)
    schedules = [
        iter(inputs.request_schedule(run.seed, c, 5000, hot, len(graphs)))
        for c in range(2)
    ]
    records: list[list] = [[], []]

    def phase(seconds, window):
        queue, registry = handle.server.queue, handle.server.registry
        before = {**queue.stats, **registry.stats}
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(
                target=_client_loop, args=(handle, schedules[c], deadline, records[c])
            )
            for c in range(2)
        ]
        counts = [len(r) for r in records]
        if window:
            run.tracer.start()
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 150)
        wall = time.perf_counter() - t0
        if window:
            run.tracer.stop()
        if any(t.is_alive() for t in threads):
            raise RuntimeError("serve clients did not finish")
        after = {**queue.stats, **registry.stats}
        done = [rec for c in range(2) for rec in records[c][counts[c]:]]
        return wall, done, {k: after[k] - before[k] for k in after}

    if run.traced:
        _, plain, _ = phase(run.seconds / 2, False)
        wall, done, delta = phase(run.seconds / 2, True)
        run.traced_rounds = len(done)
        run.serve_stats = delta
        run.overhead.append(
            statistics.fmean(r[1] for r in done) - statistics.fmean(r[1] for r in plain)
        )
    else:
        wall, done, _ = phase(run.seconds, False)
    _finish(run)
    handle.stop()
    _check_served(run, graphs, records, floor, work)
    shutil.rmtree(work, ignore_errors=True)

    run.work_units = len([r for r in done if r[3] is None])
    run.busy = wall
    for req, dt, res, err in (r for rec in records for r in rec):
        run.latencies.append(dt if err is None else math.inf)
        if err is None and not res["cached"]:
            run.times[req.algorithm].append(dt)
    # A served time is the request's own detection plus a random share of
    # the other client's job it queued behind; the median of such a mix
    # jumps between the two, so served times are averaged.
    run.per_algorithm = statistics.fmean
    run.sim.extend(r[2]["sim_time"] for r in records[0][:SIM_PREFIX] if r[3] is None)


def _client(handle) -> ServeClient:
    host, port = handle.address.rsplit(":", 1)
    return ServeClient(host=host, port=int(port), timeout=120.0)


def _client_loop(handle, schedule, deadline, out):
    """Closed loop: the next request leaves when the previous answered."""
    with _client(handle) as conn:
        for req in schedule:
            if time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                res = conn.detect(f"g{req.graph}", req.algorithm, req.params, seed=req.seed)
                err = None
            except Exception as exc:  # refused or failed: counted, not raised
                res, err = None, f"{type(exc).__name__}: {exc}"
            out.append((req, time.perf_counter() - t0, res, err))


def _check_served(run, graphs, records, floor, work):
    """Check every response, then byte-match one against a direct run."""
    first: dict[tuple, bytes] = {}
    for rec in records:
        for req, _, res, err in rec:
            what = f"request {req.algorithm} g{req.graph} seed {req.seed}"
            if err is not None:
                run.op([err], what)
                continue
            graph, truth = graphs[req.graph]
            labels = res["labels"]
            problems, q, nmi = checks.detection_problems(
                graph, labels, truth, floor, reported=res["modularity"]
            )
            key = (req.graph, req.algorithm, req.seed)
            raw = np.asarray(labels).tobytes()
            if first.setdefault(key, raw) != raw:
                problems.append("repeated request returned different labels")
            if run.op(problems, what):
                run.modularity.append(q)
                run.nmi.append(nmi)
    fresh = [r for r in records[0] if r[3] is None and not r[2]["cached"]]
    if not fresh:
        return
    pick = fresh[int(inputs.rng(run.seed, 13).integers(len(fresh)))]
    req, _, res, _ = pick
    direct = make_detector(req.algorithm, seed=req.seed, **req.params).run(
        graphs[req.graph][0]
    )
    same = (
        direct.labels.dtype == res["labels"].dtype
        and direct.labels.tobytes() == res["labels"].tobytes()
    )
    run.op([] if same else ["served labels differ from a direct run"], "byte-match")


WORKLOADS = {
    "detect-planted": lambda run: detect(run, "planted"),
    "detect-rmat": lambda run: detect(run, "rmat"),
    "stream-churn": stream,
    "serve-mixed": serve,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _rank(values, q: float) -> float:
    """Nearest-rank percentile (failed operations sort last as inf)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run) -> dict[str, float]:
    """Every end-to-end metric; an algorithm that never succeeded reads inf."""
    return {
        "setup_s": statistics.median(run.setup_times),
        **{
            f"{alg}_s": run.per_algorithm(run.times[alg] or [math.inf])
            for alg, _ in DETECTORS
        },
        "latency_p50_ms": 1e3 * _rank(run.latencies, 0.5),
        "latency_p90_ms": 1e3 * _rank(run.latencies, 0.9),
        "throughput_per_s": run.work_units / run.busy if run.busy else 0.0,
        "modularity": statistics.fmean(run.modularity or [0.0]),
        "nmi": statistics.fmean(run.nmi or [0.0]),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run, report: dict) -> dict[str, float]:
    rounds = max(1, run.traced_rounds)
    inc = report["inclusive"]
    counts = run.tracer.counts
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, span in SPAN_METRICS.items():
        out[metric] = inc.get(span, 0.0) / rounds
    out["graph.generate_s"] = inc.get("graph.generate", 0.0)
    loops = report["loops"]
    out["parallel.runtime.kernel_s"] = loops["kernel"] / rounds
    out["parallel.runtime.commit_s"] = loops["commit"] / rounds
    out["parallel.runtime.executor_s"] = (
        out["parallel.runtime.loop_s"]
        - out["parallel.runtime.kernel_s"]
        - out["parallel.runtime.commit_s"]
    )
    out["parallel.runtime.loops"] = loops["loops"] / rounds
    out["parallel.runtime.blocks"] = loops["blocks"] / rounds
    out["parallel.runtime.sim_s"] = float(sum(run.sim))
    out["parallel.backend.tasks"] = counts["parallel.backend.tasks"] / rounds
    out["parallel.backend.restarts"] = float(run.restarts)
    out["community.plm.move_outside_loop_s"] = (
        inc.get("community.plm.move", 0.0) - loops["in_move"]
    ) / rounds
    if run.plm_info:
        sweeps = [sum(i["sweeps_per_level"]) for i in run.plm_info]
        out["community.plm.sweeps"] = statistics.fmean(sweeps)
        out["community.plm.levels"] = statistics.fmean(i["levels"] for i in run.plm_info)
        spec = [i.get("speculation", {}) for i in run.plm_info]
        good = sum(s.get("validated", 0) for s in spec)
        bad = sum(s.get("invalidated", 0) for s in spec)
        out["community.plm.spec_validated_ratio"] = good / (good + bad) if good + bad else 0.0
    out["graph.coarsen_calls"] = counts["graph.coarsen_calls"] / rounds
    out["graph.dynamic.events"] = counts["graph.dynamic.events"] / rounds
    freezes = counts["graph.dynamic.freezes"]
    if freezes:
        out["graph.dynamic.delta_ratio"] = counts["graph.dynamic.delta_freezes"] / freezes
        out["graph.dynamic.dirty_fraction"] = counts["graph.dynamic.dirty_fraction"] / freezes
    if run.dplm_modes:
        out["community.dplm.incremental_ratio"] = run.dplm_modes.count(
            "incremental"
        ) / len(run.dplm_modes)
    missed = [s for s, cached in run.tracer.submits if not cached]
    if missed:
        out["serve.jobs.submit_s"] = statistics.fmean(missed)
        out["serve.jobs.queue_wait_s"] = max(
            0.0, (sum(missed) - inc.get("parallel.backend.map", 0.0)) / len(missed)
        )
    st = run.serve_stats
    if st:
        asked = st["cache_hits"] + st["cache_misses"]
        out["serve.jobs.cache_hit_ratio"] = st["cache_hits"] / asked if asked else 0.0
        out["serve.jobs.batch_size"] = st["jobs"] / st["batches"] if st["batches"] else 0.0
        out["serve.jobs.rejected"] = float(st["rejected"])
        out["serve.registry.cold_loads"] = st["cold_loads"] / rounds
        out["serve.registry.evictions"] = st["evictions"] / rounds
    out["tracing_overhead_s"] = statistics.fmean(run.overhead) if run.overhead else 0.0
    out["trace.wall_s"] = report["wall"]
    out["trace.untracked_s"] = report["self"][spans.UNTRACKED]
    return out


def _finish(run: Run) -> None:
    """Read peak memory and pool restarts while the workers still live."""
    run.peak_rss_mb = checks.peak_rss_mb()
    run.restarts = int(getattr(resolve_backend(WORKERS), "restarts", 0))
