"""Latency benchmark for the detection server (``BENCH_serve.json``).

Measures what :mod:`repro.serve` is *for*: the per-request latency a
client sees, split by where the request lands in the serving stack —

* ``serve_cold`` — the graph must be loaded from disk before detection
  (registry capacity 1 forces an eviction/reload cycle per request);
* ``serve_warm`` — the graph is shm-resident, but the request is a fresh
  ``(algorithm, seed)`` so detection really runs;
* ``serve_cache_hit`` — the exact request was answered before; the
  result cache replies without touching the pool;
* ``serve_concurrent`` — ``concurrency`` client threads issue warm
  requests at once (the queueing/dispatch path under load).

Every scenario reports p50/p99 over its request stream; the document
carries ``cache_speedup`` (cold p50 / cache-hit p50), the number the
acceptance gate pins (a warm cache must be >= 5x faster than a cold
load). Entries reuse the ``repro-wallclock/v1`` schema with
``kind="serve"``; ``wall_s`` is the scenario's p50 so baseline diffing
works unchanged.

Run locally::

    PYTHONPATH=src python -m repro.bench.servebench --preset smoke --out BENCH_serve.json
    PYTHONPATH=src python -m repro.bench.wallclock validate BENCH_serve.json
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time
from typing import Any, Callable

import numpy as np

from repro.bench.wallclock import build_document, validate_document, write_document
from repro.graph import io as graph_io
from repro.graph.generators import planted_partition
from repro.serve import ServeClient, serve_in_thread

__all__ = ["run_serve_suite", "main"]

#: (graph args, request counts) per preset. ``full`` is sized so the
#: whole suite stays under a couple of minutes on one core.
_PRESETS: dict[str, dict[str, Any]] = {
    "smoke": {
        "graph": dict(n=600, k=6, p_in=0.1, p_out=0.005, seed=42),
        "cold_requests": 5,
        "warm_requests": 10,
        "hit_requests": 50,
        "concurrent_requests": 3,  # per client thread
    },
    "full": {
        "graph": dict(n=2000, k=10, p_in=0.05, p_out=0.002, seed=42),
        "cold_requests": 10,
        "warm_requests": 30,
        "hit_requests": 200,
        "concurrent_requests": 6,
    },
}


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 3),
        "mean_ms": round(float(arr.mean()) * 1e3, 3),
    }


def _entry(
    name: str, graph, samples: list[float], **extra: Any
) -> dict[str, Any]:
    pct = _percentiles(samples)
    out: dict[str, Any] = {
        "name": name,
        "graph": graph.name,
        "size": f"n{graph.n}",
        "n": int(graph.n),
        "m": int(graph.m),
        "repeats": len(samples),
        "wall_s": pct["p50_ms"] / 1e3,  # p50, for baseline diffing
        **pct,
    }
    out.update(extra)
    return out


def _timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_serve_suite(
    preset: str = "full",
    concurrency: int = 8,
    workers: int | None = None,
) -> list[dict[str, Any]]:
    """Run every serving scenario against a private in-process server."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r} (use {sorted(_PRESETS)})")
    cfg = _PRESETS[preset]
    graph, _ = planted_partition(**cfg["graph"])
    entries: list[dict[str, Any]] = []

    with tempfile.TemporaryDirectory(prefix="repro-servebench-") as tmp:
        npz = os.path.join(tmp, "bench.npz")
        graph_io.save_npz(graph, npz)
        sock = os.path.join(tmp, "serve.sock")

        # Capacity 1: pinning any other graph evicts the previous one, so
        # the cold scenario's per-request reload is forced by design.
        with serve_in_thread(
            socket_path=sock, workers=workers, capacity=1, cache_size=4096
        ) as handle:
            with ServeClient(socket_path=sock) as client:
                # -- cold: registry reload + detection per request -------
                cold: list[float] = []
                for i in range(cfg["cold_requests"]):
                    client.load(f"cold{i}", npz)  # lazy; not timed
                for i in range(cfg["cold_requests"]):
                    # capacity=1: pinning cold{i} evicts cold{i-1}, so
                    # every request here pays a genuine disk reload.
                    cold.append(
                        _timed(
                            lambda i=i: client.detect(
                                f"cold{i}", algorithm="plm", seed=0
                            )
                        )
                    )
                entries.append(
                    _entry("serve_cold", graph, cold, scenario="reload+detect")
                )

                # -- warm: shm-resident graph, fresh seeds ---------------
                client.load("hot", npz)
                client.pin("hot")
                client.detect("hot", algorithm="plm", seed=10_000)  # warm the pool
                warm: list[float] = []
                for seed in range(cfg["warm_requests"]):
                    warm.append(
                        _timed(
                            lambda seed=seed: client.detect(
                                "hot", algorithm="plm", seed=seed
                            )
                        )
                    )
                entries.append(
                    _entry("serve_warm", graph, warm, scenario="pinned+detect")
                )

                # -- cache hit: identical request repeated ---------------
                client.detect("hot", algorithm="plm", seed=0)  # ensure cached
                hits: list[float] = []
                for _ in range(cfg["hit_requests"]):
                    hits.append(
                        _timed(
                            lambda: client.detect("hot", algorithm="plm", seed=0)
                        )
                    )
                entries.append(
                    _entry("serve_cache_hit", graph, hits, scenario="cache only")
                )

            # -- concurrent: N clients, warm requests, shared queue ------
            per_client = cfg["concurrent_requests"]
            latencies: list[float] = []
            errors: list[Exception] = []
            lock = threading.Lock()

            def client_worker(idx: int) -> None:
                try:
                    with ServeClient(socket_path=sock) as c:
                        for r in range(per_client):
                            seed = 1_000 + idx * per_client + r
                            dt = _timed(
                                lambda: c.detect("hot", algorithm="plm", seed=seed)
                            )
                            with lock:
                                latencies.append(dt)
                except Exception as exc:  # pragma: no cover - failure detail
                    with lock:
                        errors.append(exc)

            threads = [
                threading.Thread(target=client_worker, args=(i,))
                for i in range(concurrency)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - t0
            if errors:
                raise RuntimeError(f"concurrent clients failed: {errors[0]}")
            entries.append(
                _entry(
                    "serve_concurrent",
                    graph,
                    latencies,
                    scenario="warm under load",
                    concurrency=int(concurrency),
                    requests=len(latencies),
                    throughput_rps=round(len(latencies) / elapsed, 1),
                )
            )

            with ServeClient(socket_path=sock) as client:
                server_stats = client.stats()

    by_name = {e["name"]: e for e in entries}
    speedup = round(
        by_name["serve_cold"]["p50_ms"] / max(by_name["serve_cache_hit"]["p50_ms"], 1e-9),
        1,
    )
    for e in entries:
        e["cache_speedup"] = speedup
    entries.append(
        {
            "name": "serve_stats",
            "graph": graph.name,
            "size": f"n{graph.n}",
            "n": int(graph.n),
            "m": int(graph.m),
            "repeats": 1,
            "wall_s": 0.0,
            "queue": server_stats["queue"],
            "registry": server_stats["registry"],
            "backend": server_stats["backend"],
        }
    )
    return entries


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the serve benchmark preset and write results."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.servebench", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--preset", default="full", choices=sorted(_PRESETS))
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--workers", type=int, default=None, help="server pool workers"
    )
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if cold p50 / cache-hit p50 falls below this",
    )
    args = parser.parse_args(argv)

    entries = run_serve_suite(
        args.preset, concurrency=args.concurrency, workers=args.workers
    )
    doc = build_document("serve", args.preset, entries, workers=args.workers)
    problems = validate_document(doc)
    if problems:  # pragma: no cover - schema regression guard
        for p in problems:
            print(f"schema problem: {p}", file=sys.stderr)
        return 1
    write_document(doc, args.out)
    for e in entries:
        if "p50_ms" not in e:
            continue
        print(
            f"{e['name']:>18s}  p50={e['p50_ms']:8.3f}ms  "
            f"p99={e['p99_ms']:8.3f}ms  ({e['repeats']} requests)"
        )
    speedup = next(e["cache_speedup"] for e in entries if "cache_speedup" in e)
    print(f"cache_speedup: {speedup}x (cold p50 / cache-hit p50)")
    print(f"wrote {args.out}")
    if args.min_cache_speedup is not None and speedup < args.min_cache_speedup:
        print(
            f"FAIL: cache_speedup {speedup}x below floor "
            f"{args.min_cache_speedup}x"
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
