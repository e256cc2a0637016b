"""Detection-as-a-service: a long-lived server over the process pool.

The paper's workflow is one analyst, one graph, one run. The serving
layer turns the same detectors into a shared resource: a persistent
server holds hot graphs resident in shared memory (they ship to pool
workers zero-copy, once), a bounded asyncio job queue multiplexes
detect / compare / info requests from many concurrent clients, identical
in-flight requests coalesce, and repeated requests are answered from a
result cache — with labels byte-identical to a direct ``detect()`` call.

Pieces (each its own module):

* :class:`~repro.serve.registry.GraphRegistry` — pinned-graph registry:
  hot graphs live as shm-resident ``SharedGraph`` handles, leased to
  the jobs that read them, with LRU eviction to a ``.npz`` cache and
  lazy reload of cold graphs.
* :class:`~repro.serve.jobs.JobQueue` — async front end over the
  persistent :class:`~repro.parallel.backend.ProcessPoolBackend`:
  bounded-queue backpressure, per-request timeout, cancellation of
  never-started jobs, pipelined dispatch (one job per free pool
  worker), request coalescing, result cache.
* :mod:`~repro.serve.protocol` — the newline-delimited JSON wire format
  (and the exact byte-preserving label codec).
* :class:`~repro.serve.server.DetectionServer` — the asyncio socket
  server (unix socket or localhost TCP) tying the above together.
* :class:`~repro.serve.client.ServeClient` — the blocking client helper
  the CLI's ``repro client`` wraps.

Start one with ``repro serve graph.metis --socket /tmp/repro.sock`` and
talk to it with ``repro client detect graph -a plm``.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import JobQueue, JobTimeout, QueueFull
from repro.serve.protocol import decode_labels, encode_labels
from repro.serve.registry import GraphRegistry
from repro.serve.server import DetectionServer, serve_in_thread

__all__ = [
    "GraphRegistry",
    "JobQueue",
    "JobTimeout",
    "QueueFull",
    "DetectionServer",
    "serve_in_thread",
    "ServeClient",
    "ServeError",
    "encode_labels",
    "decode_labels",
]
