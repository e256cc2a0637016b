"""Simulated shared-memory parallel runtime (the OpenMP substitute).

The paper's algorithms are OpenMP loop-parallel codes tuned on a 2x8-core
Xeon with 32 hardware threads. This host is a single-core CPython process,
so real thread scaling is unmeasurable; instead, every parallel loop in this
library runs through :class:`ParallelRuntime.parallel_for`, which

* splits the iteration space into chunks per an OpenMP-style schedule
  (``static`` / ``dynamic`` / ``guided``), and the chunks into blocks,
* plans the blocks' timeline on simulated threads from per-block costs,
  yielding a deterministic simulated wall-clock (makespan + dispatch +
  barrier overheads) under a configurable machine model with turbo
  frequency scaling and SMT, and
* *actually executes* the block kernels in that interleaving, with
  shared-state updates committed at each block's simulated completion
  time — so kernels genuinely observe stale data exactly when concurrent
  blocks would still be in flight.

See DESIGN.md §1 for why this substitution preserves the paper's scaling
and staleness phenomenology.
"""

from repro.parallel.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SharedGraph,
    default_workers,
    materialize,
    resolve_backend,
    shared_memory_available,
    shutdown_all,
)
from repro.parallel.machine import Machine, PAPER_MACHINE
from repro.parallel.racecheck import (
    RACECHECK_ENV,
    ArrayPolicy,
    Conflict,
    RaceChecker,
    RaceError,
    ScheduleDependenceError,
    ScheduleIndependenceReport,
    ScheduleRun,
    TrackedArray,
    canonical_labels,
    racecheck_enabled,
    verify_schedule_independence,
)
from repro.parallel.scheduling import (
    Schedule,
    static_schedule,
    dynamic_schedule,
    guided_schedule,
    make_schedule,
)
from repro.parallel.runtime import ParallelRuntime
from repro.parallel.metrics import TimingReport, ScalingPoint, strong_scaling_table
from repro.parallel.tracing import (
    BlockEvent,
    LoopRecord,
    LoopTelemetry,
    Tracer,
    aggregate_loops,
    build_section_tree,
    chrome_trace,
    format_section_tree,
    tree_leaf_sum,
    write_chrome_trace,
)

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "SharedGraph",
    "default_workers",
    "materialize",
    "resolve_backend",
    "shared_memory_available",
    "shutdown_all",
    "BlockEvent",
    "LoopRecord",
    "LoopTelemetry",
    "Tracer",
    "aggregate_loops",
    "build_section_tree",
    "chrome_trace",
    "format_section_tree",
    "tree_leaf_sum",
    "write_chrome_trace",
    "Machine",
    "PAPER_MACHINE",
    "RACECHECK_ENV",
    "ArrayPolicy",
    "Conflict",
    "RaceChecker",
    "RaceError",
    "ScheduleDependenceError",
    "ScheduleIndependenceReport",
    "ScheduleRun",
    "TrackedArray",
    "canonical_labels",
    "racecheck_enabled",
    "verify_schedule_independence",
    "Schedule",
    "static_schedule",
    "dynamic_schedule",
    "guided_schedule",
    "make_schedule",
    "ParallelRuntime",
    "TimingReport",
    "ScalingPoint",
    "strong_scaling_table",
]
