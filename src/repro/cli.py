"""Command-line interface: detect, compare, and inspect communities.

Mirrors the paper's target workflow — an analyst at a workstation running
community detection on a network file — without writing Python::

    repro detect graph.metis --algorithm plm --threads 32
    repro compare graph.metis --threads 32 --runs 3
    repro info graph.metis
    repro generate lfr --n 5000 --mu 0.3 --out bench.metis
    repro serve --socket /tmp/repro.sock --graph web=web.metis
    repro client --socket /tmp/repro.sock detect --graph web

``detect`` writes one community id per line (node order) to ``--out``
and prints modularity plus simulated timing; ``compare`` runs the full
portfolio and prints the speed/quality table; ``info`` prints the Table I
row for a graph file; ``generate`` produces synthetic instances;
``serve`` starts the long-lived detection service of :mod:`repro.serve`
and ``client`` talks to it. Detectors are built through
:func:`repro.community.make_detector`, the same factory the server uses,
so a served detection is byte-identical to the CLI one.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.bench.report import format_table
from repro.community import (
    ALGORITHM_NAMES,
    KernelBackendUnavailable,
    make_detector,
)
from repro.graph import io as graph_io
from repro.parallel.machine import PAPER_MACHINE
from repro.parallel.runtime import ParallelRuntime
from repro.parallel.tracing import Tracer, format_section_tree, write_chrome_trace
from repro.graph import generators
from repro.graph.export import community_graph_dot
from repro.graph.lfr import lfr_graph
from repro.graph.properties import summarize
from repro.partition.community_stats import profile
from repro.partition.quality import coverage, modularity

__all__ = ["main", "build_parser"]


def _detector_from_args(name: str, args, seed: int | None = None):
    """Build a detector from parsed CLI args via the shared factory."""
    return make_detector(
        name,
        threads=args.threads,
        gamma=args.gamma,
        ensemble_size=args.ensemble_size,
        seed=args.seed if seed is None else seed,
        workers=getattr(args, "workers", None),
        kernel_backend=getattr(args, "kernel_backend", None),
        shards=getattr(args, "shards", None),
    )


class _VersionAction(argparse.Action):
    """``--version``: package version plus kernel-backend availability.

    The backend block answers the first support question a slow run
    raises — "is the compiled backend actually active on this host?" —
    without writing Python.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        import repro
        from repro.community import ALGORITHM_NAMES, kernel_backends

        print(f"repro {repro.__version__}")
        # Enumerated from the factory registry, never hard-coded: a
        # detector registered in _BUILDERS appears here automatically.
        print(f"algorithms: {', '.join(ALGORITHM_NAMES)}")
        info = kernel_backends()
        print(f"kernel backends (default: {info['default']}):")
        for name in ("numpy", "numba"):
            b = info[name]
            status = b["mode"] if b["available"] else "unavailable"
            version = b.get("version")
            suffix = f", numba {version}" if version else ""
            print(f"  {name:6s} {status}{suffix}")
        from repro.graph.sharding import shard_support

        shards = shard_support()
        print(
            f"sharding: supported (default shards: {shards['default']}, "
            f"partitioners: {', '.join(shards['partitioners'])})"
        )
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (detect/compare/info/generate)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="parallel community detection toolkit"
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print version and kernel-backend availability, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="detect communities in a graph file")
    detect.add_argument("graph", help="METIS (.graph/.metis) or edge-list file")
    detect.add_argument(
        "--algorithm", "-a", choices=list(ALGORITHM_NAMES), default="plm"
    )
    detect.add_argument("--threads", "-t", type=int, default=32)
    detect.add_argument(
        "--workers",
        "-w",
        type=int,
        default=None,
        help="host worker processes for detector-internal parallelism "
        "(EPP's base ensemble; default: REPRO_WORKERS or 1 = serial; "
        "results are identical for every worker count)",
    )
    detect.add_argument(
        "--dtype-policy",
        choices=["wide", "lean"],
        default="wide",
        help="CSR memory layout: lean halves index/weight bytes (§V-H scale)",
    )
    detect.add_argument(
        "--kernel-backend",
        choices=["numpy", "numba", "auto"],
        default=None,
        help="hot-loop executor: numpy (default), numba (compiled, needs "
        "the repro[compiled] extra) or auto; results are byte-identical "
        "for every backend (default: REPRO_KERNEL_BACKEND or numpy)",
    )
    detect.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the graph into k shm CSR shards and run sharded "
        "synchronous label propagation (plp/splp/epp; bounded per-worker "
        "memory; labels are identical for every shard count; default: "
        "REPRO_SHARDS or unsharded)",
    )
    detect.add_argument("--gamma", type=float, default=1.0)
    detect.add_argument("--ensemble-size", type=int, default=4)
    detect.add_argument("--seed", type=int, default=0)
    detect.add_argument("--out", "-o", help="write community ids, one per line")
    detect.add_argument(
        "--dot", help="write the Fig.11-style community graph as GraphViz DOT"
    )
    detect.add_argument(
        "--trace",
        help="write a Chrome-trace/Perfetto JSON of the simulated execution "
        "(open in chrome://tracing or ui.perfetto.dev) and print the "
        "per-phase section tree plus per-loop telemetry",
    )
    detect.add_argument(
        "--racecheck",
        action="store_true",
        help="run with race-detection instrumentation: record per-block "
        "read/write footprints on shared arrays, fail on any conflict the "
        "algorithm's shared-memory contract (docs/CORRECTNESS.md) does not "
        "whitelist, and print benign-conflict counters",
    )

    compare = sub.add_parser("compare", help="run the algorithm portfolio")
    compare.add_argument("graph")
    compare.add_argument("--threads", "-t", type=int, default=32)
    compare.add_argument(
        "--workers",
        "-w",
        type=int,
        default=None,
        help="host worker processes (see `detect --workers`)",
    )
    compare.add_argument(
        "--kernel-backend",
        choices=["numpy", "numba", "auto"],
        default=None,
        help="hot-loop executor (see `detect --kernel-backend`)",
    )
    compare.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for sharded detection (see `detect --shards`)",
    )
    compare.add_argument("--runs", type=int, default=1)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--gamma", type=float, default=1.0)
    compare.add_argument("--ensemble-size", type=int, default=4)
    compare.add_argument(
        "--algorithms",
        default="plp,epp,plm,plmr",
        help="comma-separated subset of: " + ",".join(ALGORITHM_NAMES),
    )

    info = sub.add_parser("info", help="structural summary of a graph file")
    info.add_argument("graph")

    generate = sub.add_parser("generate", help="generate a synthetic instance")
    generate.add_argument(
        "model", choices=["lfr", "planted", "rmat", "ba", "ws", "grid"]
    )
    generate.add_argument("--n", type=int, default=1000)
    generate.add_argument("--mu", type=float, default=0.3)
    generate.add_argument("--communities", type=int, default=10)
    generate.add_argument("--p-in", type=float, default=0.1)
    generate.add_argument("--p-out", type=float, default=0.005)
    generate.add_argument("--scale", type=int, default=10)
    generate.add_argument("--edge-factor", type=int, default=8)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--dtype-policy", choices=["wide", "lean"], default="wide"
    )
    generate.add_argument(
        "--out",
        "-o",
        required=True,
        help="output file; .npz writes the binary CSR cache, else METIS",
    )

    serve = sub.add_parser(
        "serve", help="start the long-lived detection service"
    )
    _endpoint_args(serve)
    serve.add_argument(
        "--workers",
        "-w",
        type=int,
        default=None,
        help="process-pool workers (default: REPRO_WORKERS or 1)",
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=4,
        help="graphs kept shm-resident at once (LRU beyond this)",
    )
    serve.add_argument(
        "--cache-dir", help="directory for evicted-graph .npz spills"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="queued jobs before the server answers busy",
    )
    serve.add_argument(
        "--result-cache", type=int, default=256, help="cached payload count"
    )
    serve.add_argument(
        "--timeout", type=float, default=300.0, help="default per-request timeout (s)"
    )
    serve.add_argument(
        "--graph",
        "-g",
        action="append",
        default=[],
        metavar="ID=PATH",
        help="preregister a graph (repeatable); loading is lazy",
    )

    client = sub.add_parser("client", help="talk to a running detection server")
    _endpoint_args(client)
    client_sub = client.add_subparsers(dest="client_op", required=True)
    client_sub.add_parser("ping", help="round-trip check")
    c_load = client_sub.add_parser("load", help="register a graph on the server")
    c_load.add_argument("graph_id")
    c_load.add_argument("path", help="graph file on the *server's* filesystem")
    for op in ("pin", "evict", "info"):
        p = client_sub.add_parser(op)
        p.add_argument("graph_id")
    client_sub.add_parser("list", help="registry contents")
    c_detect = client_sub.add_parser("detect", help="run one detection")
    c_detect.add_argument("graph_id")
    c_detect.add_argument(
        "--algorithm", "-a", choices=list(ALGORITHM_NAMES), default="plm"
    )
    c_detect.add_argument("--seed", type=int, default=0)
    c_detect.add_argument(
        "--params", default=None, help='JSON dict, e.g. \'{"gamma": 1.5}\''
    )
    c_detect.add_argument("--timeout", type=float, default=None)
    c_detect.add_argument("--out", "-o", help="write community ids, one per line")
    c_compare = client_sub.add_parser("compare", help="portfolio on one graph")
    c_compare.add_argument("graph_id")
    c_compare.add_argument("--algorithms", default="plp,plm")
    c_compare.add_argument("--seed", type=int, default=0)
    c_compare.add_argument("--params", default=None, help="JSON dict")
    client_sub.add_parser("stats", help="server/queue/registry counters")
    client_sub.add_parser("shutdown", help="stop the server")
    return parser


def _endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", "-s", help="unix socket path (preferred on one host)"
    )
    parser.add_argument("--host", help="TCP host (with --port)")
    parser.add_argument("--port", type=int, default=0, help="TCP port")


def _load_graph(path: str, dtype_policy: str = "wide"):
    """Load a graph file and re-layout it under ``dtype_policy`` if asked."""
    from repro.graph.csr import Graph

    graph = graph_io.load(path)
    if dtype_policy != graph.dtype_policy:
        graph = Graph(
            graph.indptr,
            graph.indices,
            graph.weights,
            name=graph.name,
            dtype_policy=dtype_policy,
        )
    return graph


def _cmd_detect(args) -> int:
    graph = _load_graph(args.graph, args.dtype_policy)
    detector = _detector_from_args(args.algorithm, args)
    tracer = Tracer() if args.trace else None
    runtime = ParallelRuntime(
        PAPER_MACHINE,
        threads=getattr(detector, "threads", 1),
        tracer=tracer,
        # None honors REPRO_RACECHECK; the flag forces it on.
        racecheck=True if args.racecheck else None,
    )
    result = detector.run(graph, runtime=runtime)
    part = result.partition
    print(f"graph:       {graph.name} (n={graph.n}, m={graph.m})")
    print(f"algorithm:   {detector.name} ({result.timing.threads} threads)")
    print(f"communities: {part.k}")
    print(f"modularity:  {modularity(graph, part):.4f}")
    print(f"coverage:    {coverage(graph, part):.4f}")
    print(f"sim time:    {result.timing.total:.4f}s")
    prof = profile(graph, part)
    print(
        f"sizes:       min {prof.size_min} / median {prof.size_median:g} "
        f"/ max {prof.size_max}"
    )
    if args.out:
        np.savetxt(args.out, part.labels, fmt="%d")
        print(f"wrote {args.out}")
    if args.dot:
        community_graph_dot(graph, part.labels, args.dot)
        print(f"wrote {args.dot}")
    if runtime.racecheck is not None:
        rc = result.info.get("racecheck", {})
        kinds = ", ".join(
            f"{k}={v}"
            for k, v in rc.items()
            if k not in ("loops", "fatal") and v
        )
        print(
            f"racecheck:   {rc.get('loops', 0)} loops checked, "
            f"{rc.get('fatal', 0)} fatal"
            + (f" ({kinds})" if kinds else " (no conflicts)")
        )
    if args.trace:
        _print_telemetry(result.timing)
        count = write_chrome_trace(tracer, args.trace)
        print(f"wrote {args.trace} ({count} trace events)")
    return 0


def _print_telemetry(timing) -> None:
    """Print the section tree and per-loop telemetry of a timing report."""
    print("\nsection tree (leaves sum to total):")
    print(format_section_tree(timing.tree))
    if timing.loops:
        rows = [
            (
                label,
                t.calls,
                f"{t.time:.6f}",
                f"{100.0 * t.time / timing.total:.1f}%",
                f"{t.imbalance:.3f}",
                f"{100.0 * t.overhead_share:.2f}%",
                f"{t.stale_lag_mean * 1e6:.2f}",
            )
            for label, t in sorted(
                timing.loops.items(), key=lambda kv: -kv[1].time
            )
        ]
        print()
        print(
            format_table(
                [
                    "loop",
                    "calls",
                    "time (s)",
                    "share",
                    "imbalance",
                    "overhead",
                    "stale lag (us)",
                ],
                rows,
                title="per-loop telemetry:",
            )
        )


def _cmd_compare(args) -> int:
    graph = graph_io.load(args.graph)
    names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    unknown = [a for a in names if a not in ALGORITHM_NAMES]
    if unknown:
        print(f"unknown algorithms: {', '.join(unknown)}", file=sys.stderr)
        return 2
    print(f"graph: {graph.name} (n={graph.n}, m={graph.m})")
    print(f"{'algorithm':20s} {'k':>7s} {'modularity':>10s} {'sim time':>10s}")
    for name in names:
        mods, times, ks = [], [], []
        for run in range(args.runs):
            detector = _detector_from_args(name, args, seed=args.seed + run)
            result = detector.run(graph)
            mods.append(modularity(graph, result.partition))
            times.append(result.timing.total)
            ks.append(result.partition.k)
        print(
            f"{detector.name:20s} {int(np.mean(ks)):7d} "
            f"{np.mean(mods):10.4f} {np.mean(times):9.4f}s"
        )
    return 0


def _cmd_info(args) -> int:
    graph = graph_io.load(args.graph)
    s = summarize(graph, lcc_sample=2000)
    print(f"name:       {s.name}")
    print(f"nodes:      {s.n}")
    print(f"edges:      {s.m}")
    print(f"max degree: {s.max_degree}")
    print(f"components: {s.components}")
    print(f"avg LCC:    {s.lcc:.4f}")
    return 0


def _cmd_generate(args) -> int:
    policy = args.dtype_policy
    if args.model == "lfr":
        graph = lfr_graph(
            args.n, mu=args.mu, seed=args.seed, dtype_policy=policy
        ).graph
    elif args.model == "planted":
        graph, _ = generators.planted_partition(
            args.n,
            args.communities,
            args.p_in,
            args.p_out,
            seed=args.seed,
            dtype_policy=policy,
        )
    elif args.model == "rmat":
        graph = generators.rmat(
            args.scale, args.edge_factor, seed=args.seed, dtype_policy=policy
        )
    elif args.model == "ba":
        graph = generators.barabasi_albert(
            args.n, 3, seed=args.seed, dtype_policy=policy
        )
    elif args.model == "ws":
        graph = generators.watts_strogatz(args.n, 4, 0.1, seed=args.seed)
    else:  # grid
        side = int(np.sqrt(args.n))
        graph = generators.grid2d(side, side, seed=args.seed, dtype_policy=policy)
    if graph.dtype_policy != policy:
        from repro.graph.csr import Graph

        graph = Graph(
            graph.indptr,
            graph.indices,
            graph.weights,
            name=graph.name,
            dtype_policy=policy,
        )
    if str(args.out).endswith(".npz"):
        # Binary CSR cache: memory-map-speed reload for fig9-class inputs.
        graph_io.save_npz(graph, args.out)
    else:
        graph_io.write_metis(graph, args.out)
    print(f"wrote {graph.n} nodes / {graph.m} edges to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import DetectionServer

    server = DetectionServer(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        capacity=args.capacity,
        cache_dir=args.cache_dir,
        max_pending=args.max_pending,
        cache_size=args.result_cache,
        default_timeout=args.timeout,
        log=lambda msg: print(f"[serve] {msg}", flush=True),
    )
    for spec in args.graph:
        graph_id, sep, path = spec.partition("=")
        if not sep:
            print(f"bad --graph spec {spec!r} (want ID=PATH)", file=sys.stderr)
            return 2
        server.registry.add(graph_id, path)
        print(f"[serve] registered {graph_id!r} <- {path}", flush=True)

    async def _run() -> None:
        await server.start()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    if args.socket is None and args.host is None:
        print("need --socket or --host/--port", file=sys.stderr)
        return 2
    params = None
    if getattr(args, "params", None):
        params = json.loads(args.params)
    try:
        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port or None
        ) as client:
            op = args.client_op
            if op == "ping":
                print(json.dumps(client.ping()))
            elif op == "load":
                print(json.dumps(client.load(args.graph_id, args.path)))
            elif op in ("pin", "evict", "info"):
                print(json.dumps(getattr(client, op)(args.graph_id)))
            elif op == "list":
                print(json.dumps(client.list(), indent=2))
            elif op == "detect":
                result = client.detect(
                    args.graph_id,
                    algorithm=args.algorithm,
                    params=params,
                    seed=args.seed,
                    timeout=args.timeout,
                )
                labels = result.pop("labels")
                print(json.dumps(result))
                if args.out:
                    np.savetxt(args.out, labels, fmt="%d")
                    print(f"wrote {args.out}")
            elif op == "compare":
                names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
                rows = client.compare(args.graph_id, names, params=params,
                                      seed=args.seed)
                print(json.dumps(rows, indent=2))
            elif op == "stats":
                print(json.dumps(client.stats(), indent=2))
            elif op == "shutdown":
                print(json.dumps(client.shutdown()))
    except ServeError as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, FileNotFoundError) as exc:
        print(f"cannot reach server: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "compare": _cmd_compare,
        "info": _cmd_info,
        "generate": _cmd_generate,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    try:
        return handlers[args.command](args)
    except KernelBackendUnavailable as exc:
        print(f"kernel backend unavailable: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
