"""Event-driven simulated executor for parallel loops.

:class:`ParallelRuntime` plays the role OpenMP plays in the paper's C++
framework: algorithms express node/edge loops as ``parallel_for`` calls and
the runtime decides chunking, interleaving, and cost. Execution is a
discrete-event simulation of per-thread clocks:

* chunks are dispatched to simulated threads per the schedule,
* a chunk's *kernel* runs against the shared state and returns an update,
* the update is **committed at the chunk's simulated completion time** —
  so a kernel whose chunk starts while other chunks are still in flight
  does not see their writes. This reproduces the paper's benign races
  (stale labels in PLP, stale community volumes in PLM) mechanically:
  with 1 thread the execution is exactly sequential-asynchronous, with
  ``p`` threads roughly ``p`` chunks are mutually invisible at any time.

Simulated time accumulates on the runtime and is read via
:attr:`ParallelRuntime.elapsed`; named sections give per-phase breakdowns.

Observability: every ``parallel_for`` leaves a
:class:`~repro.parallel.tracing.LoopRecord` (imbalance, overhead,
stale-commit lag), sections are tracked as a hierarchical tree whose
leaves sum exactly to :attr:`elapsed`, and an opt-in
:class:`~repro.parallel.tracing.Tracer` captures per-block events for
Chrome-trace export. :meth:`report_since` folds all of it into a
:class:`~repro.parallel.metrics.TimingReport`.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.parallel.machine import Machine, PAPER_MACHINE
from repro.parallel.metrics import TimingReport
from repro.parallel.racecheck import RaceChecker, RaceError, racecheck_enabled
from repro.parallel.scheduling import Schedule, make_schedule
from repro.parallel.tracing import (
    BlockEvent,
    LoopRecord,
    SectionSpan,
    Tracer,
    aggregate_loops,
    build_section_tree,
)

__all__ = ["ParallelRuntime", "ParallelForStats", "RuntimeSnapshot"]

Kernel = Callable[[np.ndarray], Any]
Commit = Callable[[Any], None]


@dataclass(frozen=True)
class ParallelForStats:
    """Outcome of one simulated parallel loop.

    ``busy`` and ``dispatch`` are per-thread kernel time and per-thread
    dispatch overhead; a thread's simulated clock at loop end is exactly
    ``busy[t] + dispatch[t]`` (threads never wait mid-loop), so
    ``elapsed == max(busy[t] + dispatch[t]) + barrier`` — the accounting
    invariant the executor tests assert.
    """

    elapsed: float
    chunks: int
    total_cost: float
    busy: tuple[float, ...]
    dispatch: tuple[float, ...] = ()
    barrier: float = 0.0
    blocks: int = 0
    items: int = 0
    schedule: str = ""
    memory_bound: float = 0.0
    stale_lag_sum: float = 0.0
    stale_lag_max: float = 0.0
    stale_blocks: int = 0

    @property
    def imbalance(self) -> float:
        """Max thread busy time over mean busy time (1.0 = perfect)."""
        busy = np.asarray(self.busy)
        mean = busy.mean()
        return float(busy.max() / mean) if mean > 0 else 1.0

    @property
    def overhead(self) -> float:
        """Total dispatch + barrier overhead of the loop."""
        return float(sum(self.dispatch)) + self.barrier

    @property
    def overhead_share(self) -> float:
        """Overhead as a fraction of the loop's thread-seconds."""
        denom = float(sum(self.busy)) + self.overhead
        return self.overhead / denom if denom > 0 else 0.0

    @property
    def stale_lag_mean(self) -> float:
        """Mean stale-commit lag over blocks (see :mod:`repro.parallel.tracing`)."""
        return self.stale_lag_sum / self.blocks if self.blocks else 0.0


@dataclass(frozen=True)
class RuntimeSnapshot:
    """Opaque marker of a runtime's accounting state (see :meth:`snapshot`)."""

    elapsed: float
    sections: dict[str, float]
    tree: dict[tuple[str, ...], float]
    loop_index: int


class ParallelRuntime:
    """Simulated OpenMP-like runtime bound to a machine and thread count.

    Parameters
    ----------
    machine:
        The :class:`~repro.parallel.machine.Machine` model.
    threads:
        Requested thread count (clamped to hardware threads).
    default_schedule:
        Schedule used when a loop does not specify one (the paper uses
        ``guided`` for its node loops).
    tracer:
        Optional :class:`~repro.parallel.tracing.Tracer` capturing
        per-block events and section spans for trace export. Sub-runtimes
        created by :meth:`split` inherit it.
    name:
        Track name in trace exports (``"main"`` unless this is a
        sub-runtime).
    racecheck:
        Race-detection instrumentation: pass a configured
        :class:`~repro.parallel.racecheck.RaceChecker`, ``True`` for a
        default one (raise on fatal conflicts), or ``None`` (default) to
        honor the ``REPRO_RACECHECK`` environment variable. ``False``
        disables it even when the env var is set. Algorithms register
        their shared arrays via :attr:`racecheck`'s
        :meth:`~repro.parallel.racecheck.RaceChecker.track`; the executor
        attributes every tracked access to its ``(loop, chunk, block)``
        and classifies cross-block conflicts at each loop barrier.
        Sub-runtimes created by :meth:`split` share the checker.
    chunk_permutation:
        Optional seed perturbing the order chunks are dispatched in (the
        schedule's chunk *contents* are unchanged). Models run-to-run
        nondeterminism of real dynamic/guided dispatch; used by
        :func:`~repro.parallel.racecheck.verify_schedule_independence`.
        ``None`` keeps the schedule's natural order.
    """

    def __init__(
        self,
        machine: Machine = PAPER_MACHINE,
        threads: int = 1,
        default_schedule: str = "guided",
        tracer: Tracer | None = None,
        name: str = "main",
        racecheck: "RaceChecker | bool | None" = None,
        chunk_permutation: int | None = None,
        _trace_offset: float = 0.0,
    ) -> None:
        self.machine = machine
        self.threads = machine.clamp_threads(threads)
        self.default_schedule = default_schedule
        self.tracer = tracer
        self.name = name
        if racecheck is None:
            racecheck = racecheck_enabled()
        if racecheck is True:
            racecheck = RaceChecker()
        elif racecheck is False:
            racecheck = None
        self.racecheck: RaceChecker | None = racecheck
        self.chunk_permutation = chunk_permutation
        self._trace_offset = _trace_offset
        self._elapsed = 0.0
        self._sections: dict[str, float] = {}
        self._section_path: list[str] = []
        self._tree: dict[tuple[str, ...], float] = {}
        self._loops: list[LoopRecord] = []

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Total simulated seconds accumulated so far."""
        return self._elapsed

    def reset(self) -> None:
        """Zero the simulated clock and drop all accumulated accounting."""
        self._elapsed = 0.0
        self._sections.clear()
        self._section_path.clear()
        self._tree.clear()
        self._loops.clear()

    @property
    def sections(self) -> dict[str, float]:
        """Per-section simulated time (populated by :meth:`section`).

        Flat view: nested sections appear under their own name; sections
        merged from sub-runtimes appear namespaced (``"base/propagate"``).
        Use :meth:`section_tree` for the hierarchical, exactly-summing view.
        """
        return dict(self._sections)

    @property
    def section_paths(self) -> dict[tuple[str, ...], float]:
        """Inclusive simulated time per full section path."""
        return dict(self._tree)

    @property
    def loop_records(self) -> list[LoopRecord]:
        """Per-``parallel_for`` telemetry records, in execution order."""
        return list(self._loops)

    def section_tree(self) -> dict[str, Any]:
        """Hierarchical section breakdown whose leaves sum to :attr:`elapsed`."""
        return build_section_tree(self._tree, self._elapsed)

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Attribute simulated time spent inside the block to ``name``.

        Sections nest: time inside an inner ``section`` is also inclusive
        in the enclosing one, and the full path is tracked for
        :meth:`section_tree`.
        """
        self._section_path.append(name)
        path = tuple(self._section_path)
        start = self._elapsed
        try:
            yield
        finally:
            self._section_path.pop()
            dt = self._elapsed - start
            self._sections[name] = self._sections.get(name, 0.0) + dt
            self._tree[path] = self._tree.get(path, 0.0) + dt
            if self.tracer is not None:
                self.tracer.record_section(
                    SectionSpan(
                        runtime=self.name,
                        path=path,
                        start=self._trace_offset + start,
                        end=self._trace_offset + self._elapsed,
                    )
                )

    def snapshot(self) -> RuntimeSnapshot:
        """Capture the accounting state, for :meth:`report_since`."""
        return RuntimeSnapshot(
            elapsed=self._elapsed,
            sections=dict(self._sections),
            tree=dict(self._tree),
            loop_index=len(self._loops),
        )

    def report_since(self, snap: RuntimeSnapshot) -> TimingReport:
        """Build a :class:`TimingReport` for everything since ``snap``.

        The report carries the flat section deltas, the per-loop telemetry
        aggregates, and the hierarchical section tree (whose leaves sum to
        ``report.total`` exactly).
        """
        total = self._elapsed - snap.elapsed
        sections = {
            k: v - snap.sections.get(k, 0.0)
            for k, v in self._sections.items()
            if v - snap.sections.get(k, 0.0) > 0
        }
        tree_paths = {
            p: v - snap.tree.get(p, 0.0)
            for p, v in self._tree.items()
            if v - snap.tree.get(p, 0.0) > 0
        }
        return TimingReport(
            total=total,
            threads=self.threads,
            sections=sections,
            loops=aggregate_loops(self._loops[snap.loop_index :]),
            tree=build_section_tree(tree_paths, total),
        )

    def charge(
        self,
        work_units: float,
        parallel: bool = False,
        memory_bound: float = 0.0,
    ) -> float:
        """Charge a lump of work outside an explicit loop.

        ``parallel=True`` assumes perfect division among threads (used for
        bulk vectorized phases like prefix sums); sequential work runs on a
        single turbo-boosted core. ``memory_bound`` applies the machine's
        bandwidth roofline (see :meth:`Machine.effective_rate`).
        """
        if work_units < 0:
            raise ValueError("work must be non-negative")
        if parallel:
            rate = (
                self.machine.effective_rate(self.threads, memory_bound)
                * self.threads
            )
            dt = work_units / rate + self._barrier_cost()
        else:
            dt = work_units / self.machine.effective_rate(1, memory_bound)
        self._elapsed += dt
        return dt

    def _barrier_cost(self) -> float:
        if self.threads <= 1:
            return 0.0
        return self.machine.barrier_overhead_s * (1.0 + math.log2(self.threads))

    # ------------------------------------------------------------------
    # The core primitive
    # ------------------------------------------------------------------
    def parallel_for(
        self,
        items: np.ndarray,
        kernel: Kernel,
        commit: Commit | None = None,
        costs: np.ndarray | None = None,
        schedule: str | None = None,
        chunk_size: int = 0,
        min_chunk: int = 1,
        grain: int = 32,
        memory_bound: float = 0.0,
        loop: str | None = None,
    ) -> ParallelForStats:
        """Run ``kernel`` over ``items`` in simulated parallel.

        Parameters
        ----------
        items:
            Index array of loop items (e.g. active node ids).
        kernel:
            Called with a contiguous slice of ``items``; reads shared state
            freely and returns an *update* object describing its writes
            (or ``None``).
        commit:
            Applies one update to the shared state. Called at the chunk's
            simulated completion time. If ``None``, kernels must be pure
            readers (updates are discarded).
        costs:
            Per-item work units (defaults to 1 per item). For graph kernels
            pass ``degrees[items] + c``.
        schedule:
            ``static`` / ``dynamic`` / ``guided`` (default: runtime default).
        chunk_size:
            Chunk size for ``dynamic`` schedules. Rejected for schedules
            that would silently ignore it (``static`` / ``guided``).
        min_chunk:
            Minimum chunk size for ``guided`` schedules. Rejected for
            schedules that would silently ignore it (``static`` /
            ``dynamic``).
        grain:
            Commit granularity in items. A real thread publishes each
            node's update as soon as it is made; chunks are therefore
            executed as a sequence of ``grain``-sized blocks, each
            committing at its simulated end time. Small grains model
            per-node visibility closely (a thread always sees its own
            earlier writes; concurrent threads' in-flight blocks stay
            invisible); larger grains trade fidelity for fewer kernel
            calls.
        memory_bound:
            Fraction of the loop's time spent waiting on memory; applies
            the machine's bandwidth roofline (PLP's label scans are
            heavily memory-bound, PLM's gain computations less so).
        loop:
            Telemetry label for this loop (e.g. ``"plp.propagate"``);
            loops sharing a label aggregate into one
            :class:`~repro.parallel.tracing.LoopTelemetry` row.
        """
        items = np.asarray(items)
        n = items.size
        if costs is None:
            costs = np.ones(n, dtype=np.float64)
        else:
            costs = np.asarray(costs, dtype=np.float64)
            if costs.shape != (n,):
                raise ValueError("costs must align with items")
        kind = schedule or self.default_schedule
        if chunk_size and kind != "dynamic":
            raise ValueError(
                f"chunk_size is only honored by schedule 'dynamic', not {kind!r}"
            )
        if min_chunk != 1 and kind != "guided":
            raise ValueError(
                f"min_chunk is only honored by schedule 'guided', not {kind!r}"
            )
        sched = make_schedule(
            kind, costs, self.threads, chunk_size=chunk_size, min_chunk=min_chunk
        )
        label = loop or "parallel_for"
        start_abs = self._trace_offset + self._elapsed
        rc = self.racecheck
        if rc is not None:
            rc.begin_loop(label)
        try:
            stats = self._execute(
                sched,
                items,
                costs,
                kernel,
                commit,
                max(1, grain),
                memory_bound,
                label=label,
                kind=kind,
                start_abs=start_abs,
            )
        except BaseException:
            if rc is not None:
                rc.abort_loop()
            raise
        if rc is not None:
            try:
                found = rc.end_loop()
            except RaceError as err:
                if self.tracer is not None:
                    for c in err.conflicts:
                        self.tracer.record_conflict(c, start_abs)
                raise
            if self.tracer is not None:
                for c in found:
                    self.tracer.record_conflict(c, start_abs)
        self._loops.append(
            LoopRecord(
                loop=label,
                runtime=self.name,
                schedule=kind,
                threads=self.threads,
                start=start_abs,
                elapsed=stats.elapsed,
                total_cost=stats.total_cost,
                items=stats.items,
                chunks=stats.chunks,
                blocks=stats.blocks,
                busy=stats.busy,
                dispatch=stats.dispatch,
                barrier=stats.barrier,
                memory_bound=stats.memory_bound,
                stale_lag_sum=stats.stale_lag_sum,
                stale_lag_max=stats.stale_lag_max,
                stale_blocks=stats.stale_blocks,
            )
        )
        self._elapsed += stats.elapsed
        return stats

    def _execute(
        self,
        sched: Schedule,
        items: np.ndarray,
        costs: np.ndarray,
        kernel: Kernel,
        commit: Commit | None,
        grain: int,
        memory_bound: float = 0.0,
        label: str = "parallel_for",
        kind: str = "",
        start_abs: float = 0.0,
    ) -> ParallelForStats:
        p = self.threads
        rate = self.machine.effective_rate(p, memory_bound)
        dispatch = self.machine.dispatch_overhead_s
        clocks = [0.0] * p
        busy = [0.0] * p
        disp = [0.0] * p
        pending: list[tuple[float, int, Any, tuple[int, int]]] = []
        pending_end = 0.0  # latest end pushed to ``pending``
        seq = 0
        blocks_run = 0
        lag_sum = 0.0
        lag_max = 0.0
        lag_blocks = 0
        tracer = self.tracer
        capture = tracer is not None and tracer.capture_blocks
        rc = self.racecheck

        # Per-thread state: the block queue of the chunk a thread currently
        # owns. Threads acquire chunks (static: from their own queue,
        # dynamic/guided: from the shared queue) when their block queue
        # drains.
        numbered = list(enumerate(sched.chunks))
        if self.chunk_permutation is not None and len(numbered) > 1:
            # Perturb dispatch order only: chunk boundaries, thread
            # affinities (static), and costs are untouched. Seeded per
            # loop so repeated loops see different-but-reproducible orders.
            perm_rng = np.random.default_rng(
                (self.chunk_permutation, len(self._loops))
            )
            numbered = [numbered[i] for i in perm_rng.permutation(len(numbered))]
        if sched.is_static:
            own: list[deque] = [deque() for _ in range(p)]
            for ci, chunk in numbered:
                own[chunk.thread % p].append((ci, chunk))
            shared: deque = deque()
        else:
            own = [deque() for _ in range(p)]
            shared = deque(numbered)

        blocks: list[deque] = [deque() for _ in range(p)]

        def acquire(t: int) -> bool:
            """Give thread ``t`` its next chunk, split into grain blocks."""
            if own[t]:
                ci, chunk = own[t].popleft()
            elif shared:
                ci, chunk = shared.popleft()
            else:
                return False
            for lo in range(chunk.start, chunk.stop, grain):
                hi = min(lo + grain, chunk.stop)
                blocks[t].append((lo, hi, lo == chunk.start, ci))
            return True

        def next_start(t: int, clock: float) -> float:
            """Sim time thread ``t``'s next block would start at.

            Chunk-head blocks pay dispatch; an empty block queue means the
            thread acquires a fresh chunk next, whose head also pays it.
            """
            if blocks[t] and not blocks[t][0][2]:
                return clock
            return clock + dispatch

        # Event loop keyed by each thread's next block *start* (not its
        # clock): dispatch overhead makes starts non-monotone in clock, and
        # commits must become visible in start order for every kernel to
        # see exactly the writes that committed before it read.
        ready = [(next_start(t, 0.0), t) for t in range(p)]
        heapq.heapify(ready)
        while ready:
            start, t = heapq.heappop(ready)
            if not blocks[t] and not acquire(t):
                continue  # thread idles out
            lo, hi, first, ci = blocks[t].popleft()
            block_dispatch = dispatch if first else 0.0
            # Make all writes from blocks that finished by `start` visible.
            while pending and pending[0][0] <= start:
                _, _, update, ckey = heapq.heappop(pending)
                if commit is not None and update is not None:
                    if rc is not None:
                        rc.set_block(ckey, "commit")
                    commit(update)
                    if rc is not None:
                        rc.clear_block()
            # Stale-commit lag: writes still in flight at kernel-read time
            # land later; the gap to the latest of them is how stale this
            # block's view of the shared state is. Starts pop in
            # non-decreasing order, so every commit popped so far ended at
            # or before ``start`` and every pending one after it: the
            # latest end ever pushed is the latest pending end.
            block_lag = 0.0
            if pending:
                block_lag = pending_end - start
                lag_sum += block_lag
                lag_max = max(lag_max, block_lag)
                lag_blocks += 1
            key = (ci, blocks_run)
            if rc is not None:
                rc.set_block(key, "kernel")
            update = kernel(items[lo:hi])
            if rc is not None:
                rc.clear_block()
            duration = float(costs[lo:hi].sum()) / rate
            end = start + duration
            clocks[t] = end
            busy[t] += duration
            disp[t] += block_dispatch
            blocks_run += 1
            heapq.heappush(pending, (end, seq, update, key))
            pending_end = max(pending_end, end)
            seq += 1
            heapq.heappush(ready, (next_start(t, end), t))
            if capture:
                tracer.record_block(
                    BlockEvent(
                        loop=label,
                        runtime=self.name,
                        schedule=kind,
                        thread=t,
                        start=start_abs + start,
                        end=start_abs + end,
                        cost=duration * rate,
                        items=hi - lo,
                        chunk=ci,
                        dispatch=block_dispatch,
                        stale_lag=block_lag,
                    )
                )

        # Loop barrier: drain remaining commits in completion order.
        while pending:
            _, _, update, ckey = heapq.heappop(pending)
            if commit is not None and update is not None:
                if rc is not None:
                    rc.set_block(ckey, "commit")
                commit(update)
                if rc is not None:
                    rc.clear_block()

        barrier = self._barrier_cost() if clocks else 0.0
        elapsed = max(clocks) + barrier if clocks else 0.0
        return ParallelForStats(
            elapsed=elapsed,
            chunks=len(sched.chunks),
            total_cost=sched.total_cost(),
            busy=tuple(busy),
            dispatch=tuple(disp),
            barrier=barrier,
            blocks=blocks_run,
            items=int(items.size),
            schedule=kind,
            memory_bound=memory_bound,
            stale_lag_sum=lag_sum,
            stale_lag_max=lag_max,
            stale_blocks=lag_blocks,
        )

    # ------------------------------------------------------------------
    # Nested parallelism (EPP's concurrent base-algorithm ensemble)
    # ------------------------------------------------------------------
    def split(self, count: int, prefix: str = "sub") -> list["ParallelRuntime"]:
        """Create ``count`` sub-runtimes dividing this runtime's threads.

        Models nested parallel regions: EPP runs its ensemble of base
        algorithms concurrently, each on ``threads // count`` threads
        (at least 1). Sub-runtimes inherit the tracer, the race checker,
        and the chunk-permutation seed, and are offset to the parent's
        current simulated time, so their loops land on overlapping
        (concurrent) tracks in trace exports.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        per = max(1, self.threads // count)
        offset = self._trace_offset + self._elapsed
        return [
            ParallelRuntime(
                self.machine,
                per,
                self.default_schedule,
                tracer=self.tracer,
                name=f"{self.name}.{prefix}{i}",
                racecheck=self.racecheck if self.racecheck is not None else False,
                chunk_permutation=self.chunk_permutation,
                _trace_offset=offset,
            )
            for i in range(count)
        ]

    def join_max(self, subs: list["ParallelRuntime"], prefix: str = "sub") -> float:
        """Advance this runtime's clock by the slowest sub-runtime.

        If there were more concurrent sub-runtimes than thread groups,
        groups run in waves (ceil(count / groups) rounds of the max).

        The sub-runtimes' section breakdowns are **merged into this
        runtime** under ``prefix`` — namespaced in the flat view
        (``"base/propagate"``) and nested under the current section path
        in the tree view — scaled so they account for exactly the time
        this join charges under the wave model. Their loop telemetry
        records are adopted unscaled (they describe real simulated loops).
        """
        if not subs:
            return 0.0
        groups = max(1, self.threads // max(1, subs[0].threads))
        waves = -(-len(subs) // groups)
        # Pessimistic wave model: each wave costs the max elapsed among all.
        worst = max(s.elapsed for s in subs)
        dt = worst * waves
        if dt > 0:
            base_path = tuple(self._section_path) + (prefix,)
            self._tree[base_path] = self._tree.get(base_path, 0.0) + dt
            agg = sum(s.elapsed for s in subs)
            scale = dt / agg if agg > 0 else 0.0
            for s in subs:
                for path, v in s._tree.items():
                    full = base_path + path
                    self._tree[full] = self._tree.get(full, 0.0) + scale * v
                for name, v in s._sections.items():
                    key = f"{prefix}/{name}"
                    self._sections[key] = self._sections.get(key, 0.0) + scale * v
        for s in subs:
            self._loops.extend(s._loops)
            s._loops.clear()
        self._elapsed += dt
        return dt

    # ------------------------------------------------------------------
    # Cost helpers shared by algorithms
    # ------------------------------------------------------------------
    def charge_coarsening(self, fine_m_entries: int, coarse_n: int) -> float:
        """Charge the paper's parallel coarsening scheme.

        Each thread scans its share of the fine edges building a partial
        coarse graph (parallel over entries), then coarse nodes are merged
        in parallel. The aggregation result itself is computed exactly in
        :func:`repro.graph.coarsening.coarsen`; this accounts its time.
        """
        scan = self.charge(float(fine_m_entries) * 1.5, parallel=True)
        merge = self.charge(float(coarse_n) * 4.0, parallel=True)
        return scan + merge

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelRuntime threads={self.threads} "
            f"schedule={self.default_schedule!r} elapsed={self._elapsed:.4g}s>"
        )
