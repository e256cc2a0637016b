"""Runtime race & determinism checker for the simulated parallel loops.

The paper's central engineering claim is that PLP/PLM-style algorithms stay
*correct enough* under racy shared-memory label updates: stale **reads** of
labels and community volumes are tolerated by design (§III-A, §III-B),
while unsynchronized read-modify-write on shared accumulators is not — the
C++ code guards volume transfers with per-community locks precisely
because a lost update corrupts quality silently. Our simulated runtime
executes parallel blocks sequentially, so a real data race would not
crash; it would just make results schedule-dependent. This module makes
that class of bug *detectable and attributable*:

* :class:`TrackedArray` — an ``ndarray`` view that records index-level
  reads and writes of shared state (labels, volumes, community totals),
  attributed to the current ``(loop, chunk, block)`` and phase (kernel
  read vs. commit write) of the runtime's dispatch context;
* :class:`RaceChecker` — collects those footprints per ``parallel_for``
  and, at the loop barrier, intersects them across blocks, classifying
  every cross-block overlap as **benign-stale** (read of a value another
  block wrote — allowed by the paper's semantics and whitelisted
  per-array), **write-write**, or **unprotected read-modify-write**
  (a commit overwrites an index its kernel read while another block also
  wrote it — the lost-update pattern). Fatal conflicts raise
  :class:`RaceError`; everything is also recorded as structured
  :class:`Conflict` reports (and, when a tracer is attached, exported
  with the trace);
* :func:`verify_schedule_independence` — a schedule-perturbation harness
  that reruns a detector under permuted chunk orders, different schedules
  and host worker counts and compares partitions byte-for-byte.

Enable globally with ``REPRO_RACECHECK=1``, per-run with the CLI's
``--racecheck``, or programmatically with ``ParallelRuntime(racecheck=True)``.
The shared-memory contract each algorithm declares (which arrays tolerate
staleness, which are lock-modeled accumulators) is documented in
``docs/CORRECTNESS.md``.

**What is and is not covered.** The checker sees *live* indexed accesses to
tracked arrays. PLM's per-sweep ``labels[order]`` view, which each block
reads for its own nodes only, is a copy taken outside any block and is
therefore invisible to footprint tracking; its equivalence to live reads
is the "a node's label cannot change before its own block runs" argument,
validated separately by :func:`verify_schedule_independence` and the
pinned output digests of the Louvain-family detectors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "RACECHECK_ENV",
    "racecheck_enabled",
    "RaceError",
    "ScheduleDependenceError",
    "ArrayPolicy",
    "Conflict",
    "TrackedArray",
    "RaceChecker",
    "ScheduleRun",
    "ScheduleIndependenceReport",
    "canonical_labels",
    "verify_schedule_independence",
]

#: Environment variable enabling racecheck globally (any value except
#: ``0`` / ``false`` / ``no`` / ``off`` / empty counts as on).
RACECHECK_ENV = "REPRO_RACECHECK"


def racecheck_enabled() -> bool:
    """Whether ``REPRO_RACECHECK`` asks for racecheck instrumentation."""
    value = os.environ.get(RACECHECK_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


class RaceError(RuntimeError):
    """A non-whitelisted cross-block conflict on a tracked shared array.

    Carries the structured :attr:`conflicts` that triggered it; the
    message includes ``(loop, chunk, block, array, indices)`` attribution
    for the first few.
    """

    def __init__(self, conflicts: Sequence["Conflict"]) -> None:
        self.conflicts = list(conflicts)
        lines = [f"{len(self.conflicts)} fatal shared-memory conflict(s):"]
        for c in self.conflicts[:4]:
            lines.append("  " + c.describe())
        super().__init__("\n".join(lines))


class ScheduleDependenceError(AssertionError):
    """Partitions diverged across schedules / chunk orders / worker counts."""

    def __init__(self, report: "ScheduleIndependenceReport") -> None:
        self.report = report
        divergent = report.divergent
        lines = [
            f"{report.algorithm} on {report.graph!r}: "
            f"{len(divergent)}/{len(report.runs)} runs diverged from the "
            "per-thread-count reference partition:"
        ]
        for run in divergent[:6]:
            lines.append(
                f"  schedule={run.schedule} threads={run.threads} "
                f"workers={run.workers} permutation={run.permutation} "
                f"modularity={run.modularity:.6f}"
            )
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Policies and conflict records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayPolicy:
    """Per-array whitelist: which cross-block overlaps the contract allows.

    Parameters
    ----------
    stale_read_ok:
        Kernel reads of indices another block writes are *benign-stale*
        (the paper's tolerated staleness) instead of fatal.
    accumulate_ok:
        Multiple blocks may update the same index through *locked* writes
        (ufunc ``.at`` accumulation, or a commit-phase write of an index
        the same commit read — both model the C++ per-community locks).
    write_write_ok:
        Multiple blocks may plain-write the same index (idempotent flag
        arrays like PLP's ``active``, where the contract is convergence,
        not last-writer determinism).
    """

    stale_read_ok: bool = False
    accumulate_ok: bool = False
    write_write_ok: bool = False


@dataclass(frozen=True)
class Conflict:
    """One classified cross-block overlap on one array in one loop.

    ``blocks`` holds sample ``(chunk, block)`` pairs involved (for reads:
    the reading block first, then a writer; for writes: two writers).
    ``indices`` is a sample of the conflicting array indices; ``count``
    the total number of distinct conflicting indices.
    """

    kind: str  #: ``benign-stale`` / ``stale-read`` / ``write-write`` / ``read-modify-write``
    array: str
    loop: str
    fatal: bool
    count: int
    indices: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]

    def describe(self) -> str:
        """One-line human-readable attribution."""
        blocks = ", ".join(f"(chunk {c}, block {b})" for c, b in self.blocks[:3])
        idx = ", ".join(str(i) for i in self.indices[:5])
        return (
            f"{self.kind} on array '{self.array}' in loop '{self.loop}': "
            f"{self.count} index(es) [e.g. {idx}] between blocks {blocks}"
        )


# ----------------------------------------------------------------------
# Footprint recording
# ----------------------------------------------------------------------
_FULL = object()  # sentinel: the whole array was touched


def _as_indices(idx: Any, n: int):
    """Normalize an indexing expression to a flat int64 index array.

    Anything not expressible as 1-D integer positions (multi-axis tuples,
    ``None``) degrades to the :data:`_FULL` sentinel — a conservative
    whole-array footprint.
    """
    if isinstance(idx, tuple):
        if len(idx) == 1:
            idx = idx[0]
        else:
            return _FULL
    if idx is Ellipsis or idx is None:
        return _FULL
    if isinstance(idx, (int, np.integer)):
        i = int(idx)
        return np.array([i + n if i < 0 else i], dtype=np.int64)
    if isinstance(idx, slice):
        start, stop, step = idx.indices(n)
        return np.arange(start, stop, step, dtype=np.int64)
    arr = np.asarray(idx)
    if arr.dtype == bool:
        return np.flatnonzero(arr).astype(np.int64)
    if arr.dtype.kind in "iu":
        flat = arr.astype(np.int64, copy=False).ravel()
        return np.where(flat < 0, flat + n, flat) if flat.size and flat.min() < 0 else flat
    return _FULL


class _Footprint:
    """Index footprints of one (array, block) pair, split by phase."""

    __slots__ = ("kr", "cr", "kw", "cwp", "cwa", "full_read", "full_write")

    def __init__(self) -> None:
        self.kr: list[np.ndarray] = []  # kernel reads
        self.cr: list[np.ndarray] = []  # commit reads (under the modeled lock)
        self.kw: list[np.ndarray] = []  # kernel writes (never locked)
        self.cwp: list[np.ndarray] = []  # commit plain writes
        self.cwa: list[np.ndarray] = []  # commit accumulate (ufunc .at) writes
        self.full_read = False
        self.full_write = False


def _unique_concat(parts: list[np.ndarray], full: bool, universe: np.ndarray) -> np.ndarray:
    if full:
        return universe
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return np.unique(parts[0])
    return np.unique(np.concatenate(parts))


class TrackedArray(np.ndarray):
    """ndarray view whose indexed reads/writes flow into a :class:`RaceChecker`.

    Obtained from :meth:`RaceChecker.track`; shares memory with the wrapped
    array, so in-place mutation through the tracked view updates the
    original. Derived arrays (views, copies, ufunc results) are inert —
    only explicitly tracked views record. Indexed results are returned as
    plain ``ndarray`` so tracking never leaks into temporaries.
    """

    _recorder: "RaceChecker | None"
    _track: str | None

    def __array_finalize__(self, obj) -> None:
        # Derived arrays (slices, copies, empty_like results) never track.
        self._recorder = None
        self._track = None

    # -- indexed access -------------------------------------------------
    def __getitem__(self, idx):
        rec = self._recorder
        if rec is not None:
            rec._record(self._track, "read", idx, self.shape[0] if self.ndim else 1)
        out = super().__getitem__(idx)
        if isinstance(out, np.ndarray):
            return out.view(np.ndarray)
        return out

    def __setitem__(self, idx, value) -> None:
        rec = self._recorder
        if rec is not None:
            rec._record(self._track, "write", idx, self.shape[0] if self.ndim else 1)
        super().__setitem__(idx, value)

    # -- ufuncs ---------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if method == "at":
            # ufunc.at(target, indices[, values]): an unbuffered in-place
            # accumulation — the runtime applies these at commit time,
            # which models the C++ per-community locks.
            target = inputs[0]
            if isinstance(target, TrackedArray) and target._recorder is not None:
                target._recorder._record(
                    target._track,
                    "accum",
                    inputs[1],
                    target.shape[0] if target.ndim else 1,
                )
            base = tuple(
                i.view(np.ndarray) if isinstance(i, TrackedArray) else i
                for i in inputs
            )
            return getattr(ufunc, method)(*base, **kwargs)
        for item in inputs:
            if isinstance(item, TrackedArray) and item._recorder is not None:
                item._recorder._record_full(item._track, "read")
        base_inputs = tuple(
            i.view(np.ndarray) if isinstance(i, TrackedArray) else i
            for i in inputs
        )
        if out is not None:
            for o in out:
                if isinstance(o, TrackedArray) and o._recorder is not None:
                    o._recorder._record_full(o._track, "write")
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, TrackedArray) else o
                for o in out
            )
        return getattr(ufunc, method)(*base_inputs, **kwargs)


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
_CONFLICT_KINDS = ("benign-stale", "stale-read", "write-write", "read-modify-write")


class RaceChecker:
    """Collects per-block footprints and classifies conflicts per loop.

    Parameters
    ----------
    raise_on_fatal:
        Raise :class:`RaceError` at the loop barrier when a fatal
        (non-whitelisted) conflict is found. ``False`` records everything
        in :attr:`conflicts` and keeps going (report mode).
    overrides:
        ``{array_name: {policy_field: bool}}`` — merged over the policy an
        algorithm declares in :meth:`track`. Lets tests prove the
        whitelist is exact by revoking one flag at a time.
    max_samples:
        Indices / block pairs kept per conflict report.
    """

    def __init__(
        self,
        raise_on_fatal: bool = True,
        overrides: dict[str, dict[str, bool]] | None = None,
        max_samples: int = 8,
    ) -> None:
        self.raise_on_fatal = raise_on_fatal
        self.overrides = {k: dict(v) for k, v in (overrides or {}).items()}
        self.max_samples = max_samples
        self.conflicts: list[Conflict] = []
        self.counters: dict[str, int] = {"loops": 0, "fatal": 0}
        for kind in _CONFLICT_KINDS:
            self.counters[kind] = 0
        self._policies: dict[str, ArrayPolicy] = {}
        # Loop scope stack: (label, {(array, (chunk, block)): _Footprint}).
        self._scopes: list[tuple[str, dict]] = []
        self._ctx: tuple[tuple[int, int], str] | None = None

    # -- registration ---------------------------------------------------
    def track(
        self,
        array: np.ndarray,
        name: str,
        *,
        stale_read_ok: bool = False,
        accumulate_ok: bool = False,
        write_write_ok: bool = False,
    ) -> TrackedArray:
        """Wrap ``array`` in a recording view under the declared policy.

        The returned view shares memory with ``array``; constructor
        ``overrides`` for ``name`` are merged over the declared flags.
        """
        flags = {
            "stale_read_ok": stale_read_ok,
            "accumulate_ok": accumulate_ok,
            "write_write_ok": write_write_ok,
        }
        flags.update(self.overrides.get(name, {}))
        self._policies[name] = ArrayPolicy(**flags)
        view = np.asarray(array).view(TrackedArray)
        view._recorder = self
        view._track = name
        return view

    def policy(self, name: str) -> ArrayPolicy:
        """The effective (override-merged) policy for ``name``."""
        return self._policies.get(name, ArrayPolicy())

    # -- dispatch context (called by the runtime executor) ---------------
    def begin_loop(self, label: str) -> None:
        """Open a loop scope; subsequent block accesses record into it."""
        self._scopes.append((label, {}))

    def set_block(self, key: tuple[int, int], phase: str) -> None:
        """Attribute following accesses to block ``key`` in ``phase``."""
        self._ctx = (key, phase)

    def clear_block(self) -> None:
        """Leave the current block context (loop-serial code records nothing)."""
        self._ctx = None

    def abort_loop(self) -> None:
        """Discard the current loop scope (kernel raised mid-loop)."""
        if self._scopes:
            self._scopes.pop()
        self._ctx = None

    # -- recording -------------------------------------------------------
    def _record(self, name: str | None, kind: str, idx: Any, n: int) -> None:
        if name is None or self._ctx is None or not self._scopes:
            return
        key, phase = self._ctx
        foot = self._scopes[-1][1]
        fp = foot.get((name, key))
        if fp is None:
            fp = foot[(name, key)] = _Footprint()
        ind = _as_indices(idx, n)
        if kind == "read":
            if ind is _FULL:
                if phase == "kernel":
                    fp.full_read = True
                return
            (fp.kr if phase == "kernel" else fp.cr).append(ind)
        elif kind == "accum":
            if ind is _FULL:
                fp.full_write = True
                return
            # Accumulation in a kernel mutates shared state outside the
            # commit protocol — record it as an unlocked kernel write.
            (fp.cwa if phase == "commit" else fp.kw).append(ind)
        else:  # plain write
            if ind is _FULL:
                fp.full_write = True
                return
            (fp.cwp if phase == "commit" else fp.kw).append(ind)

    def _record_full(self, name: str | None, kind: str) -> None:
        self._record(name, kind, Ellipsis, 0)

    # -- classification ---------------------------------------------------
    def end_loop(self) -> list[Conflict]:
        """Close the loop scope: intersect footprints, classify, report.

        Appends every conflict to :attr:`conflicts`, bumps counters, and —
        with ``raise_on_fatal`` — raises :class:`RaceError` listing the
        fatal ones. Returns the conflicts found in this loop.
        """
        label, foot = self._scopes.pop()
        self._ctx = None
        self.counters["loops"] += 1
        if not foot:
            return []
        by_array: dict[str, list[tuple[tuple[int, int], _Footprint]]] = {}
        for (name, key), fp in foot.items():
            by_array.setdefault(name, []).append((key, fp))
        found: list[Conflict] = []
        for name, blocks in by_array.items():
            found.extend(self._classify(label, name, blocks))
        self.conflicts.extend(found)
        fatal = [c for c in found for _ in (0,) if c.fatal]
        for c in found:
            self.counters[c.kind] = self.counters.get(c.kind, 0) + 1
        if fatal:
            self.counters["fatal"] += len(fatal)
            if self.raise_on_fatal:
                raise RaceError(fatal)
        return found

    def _classify(
        self,
        loop: str,
        name: str,
        blocks: list[tuple[tuple[int, int], _Footprint]],
    ) -> list[Conflict]:
        policy = self.policy(name)
        # Universe of finite indices, for resolving whole-array footprints.
        finite: list[np.ndarray] = []
        for _, fp in blocks:
            for part in (fp.kr, fp.cr, fp.kw, fp.cwp, fp.cwa):
                finite.extend(part)
        universe = (
            np.unique(np.concatenate(finite)) if finite else np.empty(0, np.int64)
        )
        keys: list[tuple[int, int]] = []
        reads: list[np.ndarray] = []
        locked: list[np.ndarray] = []
        plain: list[np.ndarray] = []
        for key, fp in blocks:
            keys.append(key)
            reads.append(_unique_concat(fp.kr, fp.full_read, universe))
            cr = _unique_concat(fp.cr, False, universe)
            cwp = _unique_concat(fp.cwp, fp.full_write, universe)
            cwa = _unique_concat(fp.cwa, False, universe)
            kw = _unique_concat(fp.kw, False, universe)
            # A commit write of an index the same commit read is a locked
            # read-modify-write (the modeled per-community lock); commits
            # are serialized, so these updates can never lose each other.
            locked_mask = np.isin(cwp, cr, assume_unique=True)
            locked.append(np.union1d(cwa, cwp[locked_mask]))
            plain.append(np.union1d(kw, cwp[~locked_mask]))

        b = len(keys)
        writes = [np.union1d(locked[i], plain[i]) for i in range(b)]
        # idx -> number of distinct writing blocks, and the single owner
        # for exclusively-written indices.
        w_idx = np.concatenate(writes) if any(w.size for w in writes) else np.empty(0, np.int64)
        w_blk = (
            np.concatenate(
                [np.full(writes[i].size, i, dtype=np.int64) for i in range(b)]
            )
            if w_idx.size
            else np.empty(0, np.int64)
        )
        conflicts: list[Conflict] = []
        if w_idx.size:
            order = np.lexsort((w_blk, w_idx))
            wi, wb = w_idx[order], w_blk[order]
            starts = np.empty(wi.size, dtype=bool)
            starts[0] = True
            np.not_equal(wi[1:], wi[:-1], out=starts[1:])
            run_starts = np.flatnonzero(starts)
            counts = np.diff(np.append(run_starts, wi.size))
            uniq_idx = wi[run_starts]
            multi = counts >= 2
            multi_idx = uniq_idx[multi]
            single_idx = uniq_idx[~multi]
            single_owner = wb[run_starts[~multi]]
            if multi_idx.size:
                # Locked-only multi-writer indices (reductions / locked
                # RMW) are fine under accumulate_ok; anything involving a
                # plain write needs write_write_ok.
                locked_all = np.ones(multi_idx.size, dtype=bool)
                plain_any = np.zeros(multi_idx.size, dtype=bool)
                for i in range(b):
                    plain_any |= np.isin(multi_idx, plain[i], assume_unique=False)
                locked_all = ~plain_any
                ww_locked = multi_idx[locked_all]
                ww_plain = multi_idx[~locked_all]
                if ww_locked.size and not policy.accumulate_ok:
                    conflicts.append(
                        self._conflict(
                            "write-write", name, loop, True, ww_locked,
                            self._writers_of(ww_locked, wi, wb, run_starts, counts, keys),
                        )
                    )
                if ww_plain.size:
                    conflicts.append(
                        self._conflict(
                            "write-write", name, loop, not policy.write_write_ok,
                            ww_plain,
                            self._writers_of(ww_plain, wi, wb, run_starts, counts, keys),
                        )
                    )
        else:
            multi_idx = np.empty(0, np.int64)
            single_idx = np.empty(0, np.int64)
            single_owner = np.empty(0, np.int64)

        # Stale reads and lost updates, per reading block.
        stale_all: list[np.ndarray] = []
        stale_blocks: list[tuple[int, int]] = []
        rmw_all: list[np.ndarray] = []
        rmw_blocks: list[tuple[int, int]] = []
        for i in range(b):
            if not reads[i].size or not w_idx.size:
                continue
            foreign_single = single_idx[single_owner != i]
            others = np.union1d(multi_idx, foreign_single)
            if not others.size:
                continue
            hit = np.intersect1d(reads[i], others, assume_unique=True)
            if not hit.size:
                continue
            # Lost-update pattern: this block's kernel read idx, its own
            # *unlocked* write targets idx, and another block writes idx.
            lost = np.intersect1d(hit, plain[i], assume_unique=True)
            if lost.size:
                rmw_all.append(lost)
                rmw_blocks.append(keys[i])
                hit = np.setdiff1d(hit, lost, assume_unique=True)
            if hit.size:
                stale_all.append(hit)
                stale_blocks.append(keys[i])
        if rmw_all:
            idx = np.unique(np.concatenate(rmw_all))
            partners = self._writers_of(
                idx[: self.max_samples], *self._sorted_writes(w_idx, w_blk), keys
            )
            # Unprotected RMW is the lost-update pattern and fatal by
            # default. The one legitimate exception is an idempotent flag
            # array whose policy already allows both racing plain writes
            # AND stale reads (e.g. dirty-bit arrays: read-check-set of a
            # monotone boolean cannot lose information).
            rmw_fatal = not (policy.write_write_ok and policy.stale_read_ok)
            conflicts.append(
                self._conflict(
                    "read-modify-write", name, loop, rmw_fatal, idx,
                    tuple(rmw_blocks[: self.max_samples]) + partners,
                )
            )
        if stale_all:
            idx = np.unique(np.concatenate(stale_all))
            kind = "benign-stale" if policy.stale_read_ok else "stale-read"
            partners = self._writers_of(
                idx[: self.max_samples], *self._sorted_writes(w_idx, w_blk), keys
            )
            conflicts.append(
                self._conflict(
                    kind, name, loop, not policy.stale_read_ok, idx,
                    tuple(stale_blocks[: self.max_samples]) + partners,
                )
            )
        return conflicts

    @staticmethod
    def _sorted_writes(w_idx: np.ndarray, w_blk: np.ndarray):
        order = np.lexsort((w_blk, w_idx))
        wi, wb = w_idx[order], w_blk[order]
        starts = np.empty(wi.size, dtype=bool)
        if wi.size:
            starts[0] = True
            np.not_equal(wi[1:], wi[:-1], out=starts[1:])
        run_starts = np.flatnonzero(starts)
        counts = np.diff(np.append(run_starts, wi.size))
        return wi, wb, run_starts, counts

    def _writers_of(
        self,
        sample_idx: np.ndarray,
        wi: np.ndarray,
        wb: np.ndarray,
        run_starts: np.ndarray,
        counts: np.ndarray,
        keys: list[tuple[int, int]],
    ) -> tuple[tuple[int, int], ...]:
        """Block keys of writers of the sampled indices (for attribution)."""
        out: list[tuple[int, int]] = []
        if not wi.size:
            return ()
        uniq = wi[run_starts]
        for idx in np.asarray(sample_idx)[: self.max_samples]:
            pos = np.searchsorted(uniq, idx)
            if pos < uniq.size and uniq[pos] == idx:
                start = run_starts[pos]
                for j in range(start, start + min(int(counts[pos]), 2)):
                    key = keys[int(wb[j])]
                    if key not in out:
                        out.append(key)
        return tuple(out[: self.max_samples])

    def _conflict(
        self,
        kind: str,
        array: str,
        loop: str,
        fatal: bool,
        indices: np.ndarray,
        blocks: tuple[tuple[int, int], ...],
    ) -> Conflict:
        return Conflict(
            kind=kind,
            array=array,
            loop=loop,
            fatal=fatal,
            count=int(indices.size),
            indices=tuple(int(i) for i in indices[: self.max_samples]),
            blocks=tuple(blocks[: self.max_samples]),
        )

    # -- summaries --------------------------------------------------------
    def counter_snapshot(self) -> dict[str, int]:
        """Copy of the counters, for delta summaries across a run."""
        return dict(self.counters)

    def summary(self, since: dict[str, int] | None = None) -> dict[str, int]:
        """Counter totals (optionally relative to a snapshot).

        Keys: ``loops`` checked, one count per conflict kind, and
        ``fatal``. With ``raise_on_fatal`` the fatal count is only
        non-zero when the error was swallowed upstream.
        """
        if since is None:
            return dict(self.counters)
        return {k: v - since.get(k, 0) for k, v in self.counters.items()}


# ----------------------------------------------------------------------
# Schedule-perturbation harness
# ----------------------------------------------------------------------
def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel communities by first occurrence (order-of-appearance ids).

    Two label vectors describe the same *clustering* iff their canonical
    forms are byte-identical — this separates genuine partition divergence
    from mere representative-id renaming (PLP's winning label is a node
    id, so visit order can change which id represents a community without
    changing the community).
    """
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return rank[inverse]


@dataclass(frozen=True)
class ScheduleRun:
    """One configuration of the schedule-independence sweep."""

    schedule: str
    threads: int
    workers: int
    permutation: int | None
    identical: bool  #: labels byte-identical to the thread-count reference
    equivalent: bool  #: same clustering up to community renaming
    modularity: float


@dataclass(frozen=True)
class ScheduleIndependenceReport:
    """Outcome of :func:`verify_schedule_independence`.

    Byte-identity is asserted *within* each thread count (different thread
    counts legitimately produce different-but-equivalent partitions — the
    staleness window itself changes). ``independent`` is True when every
    run matched its thread count's reference partition.
    """

    algorithm: str
    graph: str
    runs: list[ScheduleRun] = field(default_factory=list)

    @property
    def independent(self) -> bool:
        """All runs byte-identical to their per-thread-count reference."""
        return all(run.identical for run in self.runs)

    @property
    def consistent(self) -> bool:
        """All runs recover the same clustering (up to label renaming)."""
        return all(run.equivalent for run in self.runs)

    @property
    def divergent(self) -> list[ScheduleRun]:
        """Runs whose partition differed from the reference."""
        return [run for run in self.runs if not run.identical]

    @property
    def renamed_only(self) -> list[ScheduleRun]:
        """Runs that differ from the reference only by community renaming."""
        return [run for run in self.runs if run.equivalent and not run.identical]

    @property
    def max_modularity_spread(self) -> float:
        """Largest quality gap across all runs (0 when fully identical)."""
        mods = [run.modularity for run in self.runs]
        return max(mods) - min(mods) if mods else 0.0


def verify_schedule_independence(
    factory: Callable[[str, int], Any],
    graph,
    schedules: Sequence[str] = ("static", "dynamic", "guided"),
    threads: Sequence[int] = (4,),
    workers: Sequence[int] = (1,),
    permutations: Sequence[int | None] = (None,),
    raise_on_divergence: bool = True,
    strict: bool = True,
    racecheck: bool = False,
) -> ScheduleIndependenceReport:
    """Rerun a detector under perturbed schedules; compare partitions.

    Parameters
    ----------
    factory:
        ``factory(schedule, workers) -> CommunityDetector``. Detectors
        that take no ``schedule`` / ``workers`` (EPP ignores schedules)
        simply ignore the argument in their factory.
    graph:
        Input graph.
    schedules / threads / workers / permutations:
        The sweep: every combination runs once. ``permutations`` are
        chunk-order seeds fed to
        :attr:`~repro.parallel.runtime.ParallelRuntime.chunk_permutation`
        (``None`` = the schedule's natural order); they model the
        run-to-run nondeterminism of a real machine's chunk dispatch.
    raise_on_divergence:
        Raise :class:`ScheduleDependenceError` if any run's labels differ
        from the first run at the same thread count — byte-for-byte with
        ``strict=True``, up to community renaming (see
        :func:`canonical_labels`) with ``strict=False``.
    strict:
        Whether byte-identity (True) or clustering-equivalence (False) is
        the pass condition for ``raise_on_divergence``. Use non-strict
        for perturbations that legitimately change which node id
        *represents* a community (PLP under permuted chunk orders) while
        still asserting the communities themselves are stable.
    racecheck:
        Additionally run every configuration under a fresh
        :class:`RaceChecker` (fatal conflicts raise :class:`RaceError`).

    Returns
    -------
    ScheduleIndependenceReport
        Per-configuration identity/equivalence flags and modularities.
        Comparison is within each thread count; worker counts and chunk
        permutations must never change clusterings, schedules must not
        change them *when the community structure pins the outcome* (see
        docs/CORRECTNESS.md — on ambiguous graphs divergence is expected
        and this harness is the detector for it).
    """
    from repro.parallel.machine import PAPER_MACHINE
    from repro.parallel.runtime import ParallelRuntime
    from repro.partition.quality import modularity as _modularity

    references: dict[int, np.ndarray] = {}
    runs: list[ScheduleRun] = []
    algorithm = ""
    for sched, t, w, perm in product(schedules, threads, workers, permutations):
        detector = factory(sched, w)
        detector.threads = t
        algorithm = getattr(detector, "name", type(detector).__name__)
        runtime = ParallelRuntime(
            PAPER_MACHINE,
            threads=t,
            chunk_permutation=perm,
            racecheck=True if racecheck else False,
        )
        result = detector.run(graph, runtime=runtime)
        labels = np.asarray(result.partition.labels)
        ref = references.setdefault(t, labels)
        runs.append(
            ScheduleRun(
                schedule=sched,
                threads=t,
                workers=w,
                permutation=perm,
                identical=bool(np.array_equal(labels, ref)),
                equivalent=bool(
                    np.array_equal(canonical_labels(labels), canonical_labels(ref))
                ),
                modularity=float(_modularity(graph, result.partition)),
            )
        )
    report = ScheduleIndependenceReport(
        algorithm=algorithm, graph=getattr(graph, "name", "graph"), runs=runs
    )
    failed = not (report.independent if strict else report.consistent)
    if raise_on_divergence and failed:
        raise ScheduleDependenceError(report)
    return report
