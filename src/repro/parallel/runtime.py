"""Simulated executor for parallel loops: plan the timeline, then replay it.

:class:`ParallelRuntime` plays the role OpenMP plays in the paper's C++
framework: algorithms express node/edge loops as ``parallel_for`` calls and
the runtime decides chunking, interleaving, and cost. Each loop runs in
two steps:

* :func:`plan_blocks` simulates per-thread clocks before any kernel runs.
  A block's duration depends only on its items' costs, so the whole
  timeline (which block runs when, on which thread) follows from costs,
  schedule, grain, machine and chunk order alone.
* :func:`replay_blocks` runs each block's *kernel* against the shared
  state in that order and **commits its update at the block's simulated
  end time**, so a kernel that starts while other blocks are still in
  flight does not see their writes. This reproduces the paper's benign
  races (stale labels in PLP, stale community volumes in PLM)
  mechanically: with 1 thread the execution is exactly
  sequential-asynchronous, with ``p`` threads roughly ``p`` blocks are
  mutually invisible at any time.

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
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

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

__all__ = [
    "BlockPlan",
    "ParallelRuntime",
    "RuntimeSnapshot",
    "plan_blocks",
    "replay_blocks",
]

Kernel = Callable[[np.ndarray], Any]
Commit = Callable[[Any], None]


class BlockPlan(NamedTuple):
    """The simulated timeline of one loop: one entry per block, in run
    order (sorted by ``(start, thread)``)."""

    lo: np.ndarray  #: first item of the block
    hi: np.ndarray  #: one past its last item
    chunk: np.ndarray  #: index of the owning chunk in the schedule
    thread: np.ndarray  #: simulated thread that runs it
    start: np.ndarray  #: sim time its kernel reads the shared state
    end: np.ndarray  #: sim time its update commits
    duration: np.ndarray  #: kernel time, ``costs[lo:hi].sum() / rate``
    dispatch: np.ndarray  #: overhead paid just before it (chunk heads only)


def plan_blocks(
    schedule: Schedule,
    costs: np.ndarray,
    threads: int,
    grain: int,
    rate: float,
    dispatch: float,
    order: np.ndarray | None = None,
) -> BlockPlan:
    """Simulate one loop's per-thread clocks without running a kernel.

    Every chunk is cut into ``grain``-item blocks. A thread that frees up
    takes its next chunk (static: its own, else the shared queue's head in
    ``order``, by default the schedule's order), pays ``dispatch`` once,
    then runs the chunk's blocks back to back. Threads take chunks in the
    order of their first block's start; equal starts go to the lower
    thread id.
    """
    bounds = schedule.bounds
    sizes = np.diff(bounds)
    nblocks = -(-sizes // grain)
    block_chunk = np.repeat(np.arange(sizes.size), nblocks)
    first = np.cumsum(nblocks) - nblocks
    within = np.arange(block_chunk.size) - first[block_chunk]
    lo = bounds[block_chunk] + within * grain
    hi = np.minimum(lo + grain, bounds[block_chunk + 1])
    duration = np.add.reduceat(costs, lo) / rate if lo.size else np.zeros(0)

    chunk_order = range(sizes.size) if order is None else order.tolist()
    own: list[deque] = [deque(chunk_order)] * threads  # one shared queue
    if schedule.owners is not None:
        own = [deque() for _ in range(threads)]
        owners = schedule.owners.tolist()
        for c in chunk_order:
            own[owners[c]].append(c)
    first_of, count, dur = first.tolist(), nblocks.tolist(), duration.tolist()
    ran: list[int] = []  # block ids in the order threads took them
    on: list[int] = []  # the thread each of them runs on
    starts: list[float] = []
    ends: list[float] = []
    ready = [(float(dispatch), t) for t in range(threads)]
    while ready:
        clock, t = heapq.heappop(ready)
        if not own[t]:
            continue  # thread idles out
        c = own[t].popleft()
        for b in range(first_of[c], first_of[c] + count[c]):
            ran.append(b)
            starts.append(clock)
            clock += dur[b]
            ends.append(clock)
        on.extend([t] * count[c])
        heapq.heappush(ready, (clock + dispatch, t))

    thread, start = np.array(on, dtype=np.int64), np.array(starts)
    # lexsort is stable: a thread's zero-duration blocks keep their order.
    run = np.lexsort((thread, start))
    ids = np.array(ran, dtype=np.int64)[run]
    return BlockPlan(
        lo=lo[ids],
        hi=hi[ids],
        chunk=block_chunk[ids],
        thread=thread[run],
        start=start[run],
        end=np.array(ends)[run],
        duration=duration[ids],
        dispatch=np.where(within[ids] == 0, float(dispatch), 0.0),
    )


def replay_blocks(
    plan: BlockPlan,
    items: np.ndarray,
    kernel: Kernel,
    commit: Commit | None,
    racecheck: RaceChecker | None = None,
) -> None:
    """Run each planned block's kernel in run order and commit its update.

    Block ``i``'s update is committed before block ``b``'s kernel runs
    exactly when ``(end_i, i) < (start_b, b)``; updates still in flight at
    the end commit at the loop barrier, in ``(end, i)`` order.
    """
    n = plan.start.size
    # One sorted event list: kernel reads (id b) and commits (id n + i),
    # keyed by (time, block, read-before-commit).
    events = np.lexsort(
        (
            np.repeat([0, 1], n),
            np.tile(np.arange(n), 2),
            np.concatenate([plan.start, plan.end]),
        )
    )
    lo, hi, chunk = plan.lo.tolist(), plan.hi.tolist(), plan.chunk.tolist()
    updates: list[Any] = [None] * n
    for e in events.tolist():
        if e < n:
            if racecheck is not None:
                racecheck.set_block((chunk[e], e), "kernel")
            updates[e] = kernel(items[lo[e] : hi[e]])
        else:
            e -= n
            update, updates[e] = updates[e], None
            if commit is None or update is None:
                continue
            if racecheck is not None:
                racecheck.set_block((chunk[e], e), "commit")
            commit(update)
        if racecheck is not None:
            racecheck.clear_block()


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
        if not 0.0 <= work_units < math.inf:
            raise ValueError("work must be finite and non-negative")
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
        grain: int = 32,
        memory_bound: float = 0.0,
        loop: str | None = None,
    ) -> LoopRecord:
        """Run ``kernel`` over ``items`` in simulated parallel.

        Returns the loop's :class:`~repro.parallel.tracing.LoopRecord`,
        which is also appended to :attr:`loop_records`.

        Parameters
        ----------
        items:
            Index array of loop items (e.g. active node ids).
        kernel:
            Called with a contiguous slice of ``items``; reads shared state
            freely and returns an *update* object describing its writes
            (or ``None``).
        commit:
            Applies one update to the shared state. Called at the block's
            simulated completion time. If ``None``, kernels must be pure
            readers (updates are discarded).
        costs:
            Per-item work units (defaults to 1 per item); finite and
            non-negative. For graph kernels pass ``degrees[items] + c``.
        schedule:
            ``static`` / ``dynamic`` / ``guided`` (default: runtime default).
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
            if not np.all((costs >= 0) & (costs < np.inf)):
                raise ValueError("costs must be finite and non-negative")
        kind = schedule or self.default_schedule
        sched = make_schedule(kind, n, self.threads)
        order = None
        if self.chunk_permutation is not None and sched.chunks > 1:
            # Perturb dispatch order only: chunk bounds, static owners and
            # costs are untouched. Seeded per loop so repeated loops see
            # different-but-reproducible orders.
            rng = np.random.default_rng((self.chunk_permutation, len(self._loops)))
            order = rng.permutation(sched.chunks)
        rate = self.machine.effective_rate(self.threads, memory_bound)
        plan = plan_blocks(
            sched,
            costs,
            self.threads,
            max(1, grain),
            rate,
            self.machine.dispatch_overhead_s,
            order,
        )
        label = loop or "parallel_for"
        start_abs = self._trace_offset + self._elapsed
        rc = self.racecheck
        if rc is not None:
            rc.begin_loop(label)
        try:
            replay_blocks(plan, items, kernel, commit, rc)
        except BaseException:
            if rc is not None:
                rc.abort_loop()
            raise
        # Stale-commit lag: a block whose kernel reads while an earlier
        # block's update is still in flight lags by the gap to the latest
        # such end. Earlier blocks ending by its start are committed, so
        # that latest end is the running maximum of the ends before it.
        before = np.maximum.accumulate(np.concatenate([[0.0], plan.end]))[:-1]
        lag = np.where(before > plan.start, before - plan.start, 0.0)
        if self.tracer is not None and self.tracer.capture_blocks:
            rows = zip(
                plan.thread.tolist(),
                (start_abs + plan.start).tolist(),
                (start_abs + plan.end).tolist(),
                (plan.duration * rate).tolist(),
                (plan.hi - plan.lo).tolist(),
                plan.chunk.tolist(),
                plan.dispatch.tolist(),
                lag.tolist(),
            )
            for row in rows:
                self.tracer.record_block(BlockEvent(label, self.name, kind, *row))
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
        barrier = self._barrier_cost()
        p = self.threads
        record = LoopRecord(
            loop=label,
            runtime=self.name,
            schedule=kind,
            threads=p,
            start=start_abs,
            elapsed=float(plan.end.max(initial=0.0)) + barrier,
            total_cost=float(costs.sum()),
            items=n,
            chunks=sched.chunks,
            blocks=lag.size,
            # bincount and cumsum add in run order, like the thread clocks;
            # sum() is compensated from Python 3.12 on and rounds otherwise.
            busy=tuple(np.bincount(plan.thread, plan.duration, p).tolist()),
            dispatch=tuple(np.bincount(plan.thread, plan.dispatch, p).tolist()),
            barrier=barrier,
            memory_bound=memory_bound,
            stale_lag_sum=float(np.cumsum(lag)[-1]) if lag.size else 0.0,
            stale_lag_max=float(lag.max(initial=0.0)),
            stale_blocks=int(np.count_nonzero(lag)),
        )
        self._loops.append(record)
        self._elapsed += record.elapsed
        return record

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
