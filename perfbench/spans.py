"""Host-time spans recorded from outside the program, and their attribution.

Nothing under ``src/`` records host time, so the traced run measures each
layer from the benchmark's side: :func:`install` replaces public functions
and methods of ``repro.graph``, ``repro.parallel``, ``repro.community``,
``repro.partition`` and ``repro.serve`` at their call sites (the module or
class attribute the caller looks up) with thin wrappers that open a span
per call. :func:`uninstall` puts the originals back.

Spans live in memory until :func:`attribute` folds them into two views:

* **inclusive** seconds per layer name (a span nested in a span of the
  same name is not counted twice), which the per-layer metrics report;
* **self** seconds per layer, where each instant of a traced window is
  shared equally among the innermost open spans of all threads and
  instants with no open span go to ``(untracked)``. Self times plus
  ``(untracked)`` therefore sum to the traced wall time.

Work done inside pool workers is invisible to the parent; it shows up as
the parent's ``parallel.backend.map`` span, never as a guess.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter_ns

#: ``ParallelRuntime.section`` names of the detectors the benchmark runs,
#: mapped to layer names.
SECTION_LAYERS = {
    "propagate": "community.plp.propagate",
    "move": "community.plm.move",
    "refine": "community.plm.refine",
    "update": "community.dplm.move",
    "combine": "community.epp.combine",
    "final": "community.epp.final",
    "partition": "community.splp.partition",
    "exchange": "community.splp.exchange",
    "merge": "community.splp.merge",
}

LOOP = "parallel.runtime.loop"
UNTRACKED = "(untracked)"

# Span record fields.
_TID, _PARENT, _DEPTH, _NAME, _T0, _T1, _EXTRA = range(7)


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.on = False
        self.spans: list[list] = []
        self.windows: list[tuple[int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: ``(seconds, cached)`` per ``JobQueue.submit`` call.
        self.submits: list[tuple[float, bool]] = []
        self._t_on = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- windows --------------------------------------------------------
    def live(self) -> bool:
        """Whether calls made right now, in this process, are traced."""
        return self.on and os.getpid() == self.pid

    def start(self) -> None:
        self._t_on = _now()
        self.on = True

    def stop(self) -> None:
        self.on = False
        self.windows.append((self._t_on, _now()))

    @contextmanager
    def window(self):
        self.start()
        try:
            yield
        finally:
            self.stop()

    # -- spans and counters ---------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        rec = [threading.get_ident(), stack[-1] if stack else -1, len(stack),
               name, _now(), None, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        t = _now()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        elif idx in stack:
            stack.remove(idx)
        rec = self.spans[idx]
        rec[_T1] = t
        rec[_EXTRA] = extra

    @contextmanager
    def span(self, name: str):
        """Span around benchmark-side code (a no-op while not live)."""
        if not self.live():
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, k: float = 1.0) -> None:
        if self.live():
            with self._lock:
                self.counts[name] += k


# ----------------------------------------------------------------------
# Call-site patches
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, fn, name: str, after=None):
    """Wrap ``fn`` so each live call records a ``name`` span.

    ``after(args, kwargs, result)`` runs inside the span on success and
    may update counters.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on or os.getpid() != tracer.pid:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        finally:
            tracer.close(idx)

    return wrapper


def _patch_plan(tracer: Tracer):
    """``(owner, attribute, replacement)`` for every traced call site."""
    import repro.community.dplm as dplm_mod
    import repro.community.epp as epp_mod
    import repro.community.plm as plm_mod
    import repro.community.sharded as sharded_mod
    import repro.graph.generators as gen_mod
    import repro.graph.io as io_mod
    import repro.serve.client as client_mod
    import repro.serve.server as server_mod
    from repro.community.dplm import DynamicPLM
    from repro.graph.dynamic import DynamicGraph
    from repro.parallel.backend import ProcessPoolBackend
    from repro.parallel.runtime import ParallelRuntime
    from repro.serve.jobs import JobQueue
    from repro.serve.registry import GraphRegistry

    plan = []

    def timed(owner, attr, name, after=None):
        plan.append((owner, attr, _timed(tracer, getattr(owner, attr), name, after)))

    # graph
    for attr in ("planted_partition", "rmat"):
        timed(gen_mod, attr, "graph.generate")
    for mod in (plm_mod, epp_mod, dplm_mod, sharded_mod):
        timed(mod, "coarsen", "graph.coarsen",
              lambda a, k, r: tracer.count("graph.coarsen_calls"))
        timed(mod, "prolong", "graph.prolong")
    timed(sharded_mod, "build_shards", "graph.shard_build")
    timed(DynamicGraph, "apply_events", "graph.dynamic.apply",
          lambda a, k, r: tracer.count("graph.dynamic.events", len(a[1])))

    def after_freeze(args, kwargs, result):
        stats = args[0].last_freeze or {}
        tracer.count("graph.dynamic.freezes")
        tracer.count("graph.dynamic.delta_freezes", stats.get("mode") == "delta")
        tracer.count("graph.dynamic.dirty_fraction", stats.get("dirty_fraction", 0.0))

    timed(DynamicGraph, "freeze", "graph.dynamic.freeze", after_freeze)
    timed(io_mod, "load_npz", "graph.io.load")

    # partition (call sites inside the detectors)
    for mod in (plm_mod, epp_mod):
        timed(mod, "modularity", "partition.modularity")
    timed(epp_mod, "combine_hashing", "partition.combine_hashing")

    # parallel
    original_pfor = ParallelRuntime.parallel_for

    @functools.wraps(original_pfor)
    def parallel_for(self, items, kernel, commit=None, *args, **kwargs):
        if not tracer.on or os.getpid() != tracer.pid:
            return original_pfor(self, items, kernel, commit, *args, **kwargs)
        acc = [0, 0, 0]  # kernel ns, commit ns, blocks

        def timed_kernel(*a, **k):
            t = _now()
            try:
                return kernel(*a, **k)
            finally:
                acc[0] += _now() - t
                acc[2] += 1

        timed_commit = None
        if commit is not None:

            def timed_commit(*a, **k):
                t = _now()
                try:
                    return commit(*a, **k)
                finally:
                    acc[1] += _now() - t

        idx = tracer.open(LOOP)
        try:
            return original_pfor(self, items, timed_kernel, timed_commit, *args, **kwargs)
        finally:
            tracer.close(idx, extra=acc)

    plan.append((ParallelRuntime, "parallel_for", parallel_for))

    original_section = ParallelRuntime.section

    @contextmanager
    def section(self, name):
        if not tracer.on or os.getpid() != tracer.pid:
            with original_section(self, name):
                yield
            return
        idx = tracer.open(SECTION_LAYERS.get(name, f"community.section.{name}"))
        try:
            with original_section(self, name):
                yield
        finally:
            tracer.close(idx)

    plan.append((ParallelRuntime, "section", section))

    # EPP's base ensemble runs between ``split(prefix="base")`` and
    # ``join_max(prefix="base")`` on the same runtime.
    base_open: dict[int, int] = {}
    original_split = ParallelRuntime.split
    original_join = ParallelRuntime.join_max

    @functools.wraps(original_split)
    def split(self, count, prefix="sub"):
        if prefix == "base" and tracer.live():
            base_open[id(self)] = tracer.open("community.epp.base")
        return original_split(self, count, prefix)

    @functools.wraps(original_join)
    def join_max(self, subs, prefix="sub"):
        try:
            return original_join(self, subs, prefix)
        finally:
            idx = base_open.pop(id(self), None) if prefix == "base" else None
            if idx is not None:
                tracer.close(idx)

    plan.append((ParallelRuntime, "split", split))
    plan.append((ParallelRuntime, "join_max", join_max))

    timed(ProcessPoolBackend, "map", "parallel.backend.map",
          lambda a, k, r: tracer.count("parallel.backend.tasks", len(a[2])))
    timed(ProcessPoolBackend, "share_graph", "parallel.backend.share")

    # community (detector entry points the benchmark does not call itself)
    timed(DynamicPLM, "update", "community.dplm.update")

    # serve
    original_share = GraphRegistry.share

    @functools.wraps(original_share)
    def share(self, graph_id):
        if not tracer.on or os.getpid() != tracer.pid:
            return original_share(self, graph_id)
        cold = self.describe(graph_id)["state"] == "cold"
        idx = tracer.open("serve.registry.reload" if cold else "serve.registry.share")
        try:
            return original_share(self, graph_id)
        finally:
            tracer.close(idx)

    plan.append((GraphRegistry, "share", share))

    original_submit = JobQueue.submit

    @functools.wraps(original_submit)
    async def submit(self, *args, **kwargs):
        if not tracer.live():
            return await original_submit(self, *args, **kwargs)
        t = _now()
        result = await original_submit(self, *args, **kwargs)
        with tracer._lock:
            tracer.submits.append(((_now() - t) / 1e9, bool(result.get("cached"))))
        return result

    plan.append((JobQueue, "submit", submit))
    for mod in (server_mod, client_mod):
        timed(mod, "dumps_line", "serve.protocol.encode")
    timed(client_mod, "decode_labels", "serve.protocol.decode")
    return plan


def install(tracer: Tracer) -> list:
    """Patch every traced call site; returns what :func:`uninstall` needs."""
    saved = []
    for owner, attr, replacement in _patch_plan(tracer):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def attribute(tracer: Tracer) -> dict:
    """Fold the recorded spans over the traced windows.

    Returns ``wall`` (seconds inside traced windows), ``self`` (fair-share
    self seconds per layer plus ``(untracked)``), ``inclusive`` (seconds
    per layer name), and the loop aggregates the per-layer metrics need.
    """
    spans = tracer.spans
    windows = sorted(tracer.windows)
    starts = [w[0] for w in windows]
    end_of_run = _now()
    per_window: list[list[tuple[int, int, int]]] = [[] for _ in windows]
    clipped = [0] * len(spans)
    for idx, rec in enumerate(spans):
        t0 = rec[_T0]
        t1 = rec[_T1] if rec[_T1] is not None else end_of_run
        w = max(0, bisect.bisect_right(starts, t0) - 1)
        while w < len(windows) and windows[w][0] < t1:
            s, e = max(t0, windows[w][0]), min(t1, windows[w][1])
            if s < e:
                per_window[w].append((s, 1, idx))
                per_window[w].append((e, 0, idx))
                clipped[idx] += e - s
            w += 1

    leaf = defaultdict(float)
    untracked = 0.0
    wall = 0
    for (w0, w1), events in zip(windows, per_window):
        wall += w1 - w0
        events.sort()
        active: dict[int, dict[int, int]] = defaultdict(dict)
        prev = w0
        for t, is_start, idx in events:
            if t > prev:
                tips = [max(d, key=d.get) for d in active.values() if d]
                if tips:
                    share = (t - prev) / len(tips)
                    for tip in tips:
                        leaf[tip] += share
                else:
                    untracked += t - prev
                prev = t
            rec = spans[idx]
            if is_start:
                active[rec[_TID]][idx] = rec[_DEPTH]
            else:
                active[rec[_TID]].pop(idx, None)
        untracked += w1 - prev

    children = defaultdict(int)
    for idx, rec in enumerate(spans):
        if rec[_PARENT] >= 0:
            children[rec[_PARENT]] += clipped[idx]

    def ancestors(idx):
        parent = spans[idx][_PARENT]
        while parent >= 0:
            yield parent
            parent = spans[parent][_PARENT]

    self_ns: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    loops = {"kernel": 0.0, "commit": 0.0, "blocks": 0, "loops": 0, "in_move": 0.0}
    for idx, rec in enumerate(spans):
        if clipped[idx] == 0:
            continue
        name = rec[_NAME]
        calls[name] += 1
        up = list(ancestors(idx))
        if all(spans[a][_NAME] != name for a in up):
            inclusive[name] += clipped[idx]
        if name != LOOP:
            self_ns[name] += leaf[idx]
            continue
        # Split a loop's self share into kernel / commit / executor by the
        # loop's own measured kernel and commit time.
        kernel_ns, commit_ns, blocks = rec[_EXTRA] or (0, 0, 0)
        loops["blocks"] += blocks
        loops["loops"] += 1
        own = max(1, clipped[idx] - children[idx])
        fk = min(1.0, kernel_ns / own)
        fc = min(1.0 - fk, commit_ns / own)
        self_ns["parallel.runtime.kernel"] += leaf[idx] * fk
        self_ns["parallel.runtime.commit"] += leaf[idx] * fc
        self_ns["parallel.runtime.executor"] += leaf[idx] * (1.0 - fk - fc)
        if all(spans[a][_NAME] != LOOP for a in up):
            loops["kernel"] += kernel_ns
            loops["commit"] += commit_ns
        if any(spans[a][_NAME] == "community.plm.move" for a in up):
            loops["in_move"] += clipped[idx]
    self_ns[UNTRACKED] = untracked

    s = 1e-9
    return {
        "wall": wall * s,
        "self": {k: v * s for k, v in sorted(self_ns.items())},
        "inclusive": {k: v * s for k, v in sorted(inclusive.items())},
        "calls": dict(calls),
        "loops": {k: (v * s if k in ("kernel", "commit", "in_move") else v)
                  for k, v in loops.items()},
    }


def check_exact_sum(report: dict, rel: float = 1e-9) -> float:
    """Raise unless self times plus ``(untracked)`` equal the traced wall.

    Returns the absolute difference in seconds.
    """
    total = sum(report["self"].values())
    diff = abs(total - report["wall"])
    if diff > rel * max(report["wall"], 1e-9) + 1e-9:
        raise AssertionError(
            f"layer self times sum to {total:.9f}s, traced wall is {report['wall']:.9f}s"
        )
    return diff
