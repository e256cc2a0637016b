"""End-to-end server tests: concurrent clients, byte-identity, clean
shutdown with zero leaked shared-memory segments."""

from __future__ import annotations

import glob
import os
import threading
import time

import numpy as np
import pytest

from repro.community import make_detector
from repro.graph import generators
from repro.graph import io as graph_io
from repro.serve import ServeClient, ServeError, serve_in_thread


@pytest.fixture
def graph():
    g, _ = generators.planted_partition(300, 5, 0.25, 0.02, seed=11)
    return g


@pytest.fixture
def graph_path(tmp_path, graph):
    path = os.fspath(tmp_path / "pp.npz")
    graph_io.save_npz(graph, path)
    return path


@pytest.fixture
def server(tmp_path, graph):
    handle = serve_in_thread(
        socket_path=os.fspath(tmp_path / "serve.sock"), workers=2
    )
    handle.server.registry.add("g", graph)
    yield handle
    handle.stop()


def test_ping_and_lazy_load(tmp_path, graph_path):
    with serve_in_thread(socket_path=os.fspath(tmp_path / "s.sock")) as handle:
        with ServeClient(socket_path=handle.address) as client:
            assert client.ping()["pong"] is True
            row = client.load("pp", graph_path)
            assert row["state"] == "cold"  # registration is lazy
            info = client.info("pp")  # info loads to fill n/m
            assert info["n"] == 300
            assert client.list()[0]["graph_id"] == "pp"


def test_served_labels_byte_identical_to_direct(server, graph):
    with ServeClient(socket_path=server.address) as client:
        result = client.detect("g", algorithm="plm", seed=3)
    direct = make_detector("plm", seed=3).run(graph).partition.labels
    assert result["labels"].tobytes() == direct.tobytes()
    assert result["k"] == len(np.unique(direct))


def test_cache_hit_on_repeat(server):
    with ServeClient(socket_path=server.address) as client:
        first = client.detect("g", algorithm="plp", seed=1)
        second = client.detect("g", algorithm="plp", seed=1)
    assert first["cached"] is False
    assert second["cached"] is True
    np.testing.assert_array_equal(first["labels"], second["labels"])


def test_eight_concurrent_clients_byte_identical(server, graph):
    """The acceptance gate: >= 8 concurrent clients, mixed algorithms,
    every served result byte-identical to the direct computation."""
    mixes = [("plm", 0), ("plm", 1), ("plp", 0), ("plp", 2),
             ("louvain", 0), ("plm", 0), ("plmr", 1), ("plp", 0)]
    results: list[tuple[int, str, int, bytes]] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def worker(idx: int, algorithm: str, seed: int) -> None:
        try:
            with ServeClient(socket_path=server.address) as client:
                r = client.detect("g", algorithm=algorithm, seed=seed)
                with lock:
                    results.append((idx, algorithm, seed, r["labels"].tobytes()))
        except Exception as exc:  # pragma: no cover - failure detail
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, algo, seed))
        for i, (algo, seed) in enumerate(mixes)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    assert len(results) == len(mixes)

    direct = {
        (algo, seed): make_detector(algo, seed=seed).run(graph).partition.labels
        for algo, seed in set(mixes)
    }
    for _, algo, seed, blob in results:
        assert blob == direct[(algo, seed)].tobytes(), (algo, seed)


def test_compare_runs_portfolio(server):
    with ServeClient(socket_path=server.address) as client:
        rows = client.compare("g", ["plp", "plm"], seed=0)
    assert [r["algorithm"] for r in rows] == ["PLP", "PLM"]
    assert all("labels" not in r for r in rows)
    assert all(r["modularity"] > 0 for r in rows)


def test_error_responses_are_structured(server):
    with ServeClient(socket_path=server.address) as client:
        with pytest.raises(ServeError) as err:
            client.detect("missing")
        assert err.value.error_type == "not_found"
        with pytest.raises(ServeError) as err:
            client.detect("g", algorithm="nope")
        assert err.value.error_type == "bad_request"
        with pytest.raises(ServeError) as err:
            client.request("frobnicate")
        assert err.value.error_type == "bad_request"
        # The connection survives every error above.
        assert client.ping()["pong"] is True


# (name, op, fields): each must get a structured bad_request.
HOSTILE = [
    ("request line over the stream limit", "ping", {"pad": "x" * 70_000}),
    ("graph not a string", "detect", {"graph": 5}),
    ("seed not an integer", "detect", {"graph": "g", "seed": [1]}),
    ("seed a boolean", "detect", {"graph": "g", "seed": True}),
    ("params not an object", "detect", {"graph": "g", "params": [1]}),
    ("algorithm not a string", "detect", {"graph": "g", "algorithm": 7}),
    ("timeout not a number", "detect", {"graph": "g", "timeout": "soon"}),
    ("path not a string", "load", {"graph": "h", "path": 3}),
    ("compare seed not an integer", "compare",
     {"graph": "g", "algorithms": ["plp"], "seed": "1"}),
    ("compare algorithm a list", "compare", {"graph": "g", "algorithms": [["plp"]]}),
    ("compare algorithm an object", "compare", {"graph": "g", "algorithms": [{}]}),
    ("params seed a list", "detect", {"graph": "g", "params": {"seed": [1]}}),
    ("params seed a string", "detect", {"graph": "g", "params": {"seed": "1"}}),
    ("params seed a boolean", "detect", {"graph": "g", "params": {"seed": True}}),
    ("compare params seed a string", "compare",
     {"graph": "g", "algorithms": ["plp"], "params": {"seed": "1"}}),
    ("params threads zero", "detect", {"graph": "g", "params": {"threads": 0}}),
    ("params threads a string", "detect", {"graph": "g", "params": {"threads": "x"}}),
    ("params threads a list", "detect", {"graph": "g", "params": {"threads": [4]}}),
    ("params threads a boolean", "detect",
     {"graph": "g", "params": {"threads": True}}),
    ("params gamma a string", "detect", {"graph": "g", "params": {"gamma": "hi"}}),
    ("params gamma negative", "detect", {"graph": "g", "params": {"gamma": -1}}),
    ("params ensemble_size a string", "detect",
     {"graph": "g", "algorithm": "epp", "params": {"ensemble_size": "2"}}),
    ("params ensemble_size zero", "detect",
     {"graph": "g", "algorithm": "epp", "params": {"ensemble_size": 0}}),
    ("splp params shards zero", "detect",
     {"graph": "g", "algorithm": "splp", "params": {"shards": 0}}),
    ("params kernel_backend a number", "detect",
     {"graph": "g", "params": {"kernel_backend": 3}}),
    ("params partitioner a number", "detect",
     {"graph": "g", "algorithm": "splp", "params": {"partitioner": 5}}),
]


@pytest.mark.parametrize(
    "name,op,fields", HOSTILE, ids=[case[0] for case in HOSTILE]
)
def test_hostile_requests_get_structured_errors(server, name, op, fields):
    with ServeClient(socket_path=server.address) as client:
        with pytest.raises(ServeError) as err:
            client.request(op, **fields)
        assert err.value.error_type == "bad_request"
    # The server stays up for the next connection.
    with ServeClient(socket_path=server.address) as client:
        assert client.ping()["pong"] is True


def test_null_params_seed_means_absent(server):
    with ServeClient(socket_path=server.address) as client:
        null = client.request(
            "detect", graph="g", algorithm="plp", seed=3, params={"seed": None}
        )
        plain = client.request("detect", graph="g", algorithm="plp", seed=3)
    assert null["seed"] == 3 and null["labels"] == plain["labels"]


def test_stats_exposes_all_layers(server):
    with ServeClient(socket_path=server.address) as client:
        client.detect("g", algorithm="plp", seed=0)
        stats = client.stats()
    assert stats["server"]["requests"] >= 1
    assert stats["queue"]["jobs"] >= 1
    assert stats["registry"]["capacity"] == 4
    assert stats["backend"]["kind"] in ("process", "serial")
    assert "degraded" in stats["backend"]


def test_stats_enumerates_factory_algorithms(server):
    from repro.community.factory import ALGORITHM_NAMES

    with ServeClient(socket_path=server.address) as client:
        stats = client.stats()
    # The server advertises exactly the factory registry, so clients can
    # discover routable detectors (incl. grappolo/slouvain) without a
    # trial-and-error detect call.
    assert stats["algorithms"] == sorted(ALGORITHM_NAMES)
    assert "grappolo" in stats["algorithms"]
    assert "slouvain" in stats["algorithms"]


def _stop_after_shutdown_op(tmp_path, graph, delay: float) -> None:
    """A client's shutdown request, then ``handle.stop()`` after ``delay``:
    the stop just joins the stopping server, whether its loop is still
    closing or already closed, and leaves nothing behind."""
    before = set(glob.glob("/dev/shm/*"))
    sock = os.fspath(tmp_path / "s.sock")
    handle = serve_in_thread(socket_path=sock, workers=2)
    handle.server.registry.add("g", graph)
    with ServeClient(socket_path=sock) as client:
        client.detect("g", algorithm="plp", seed=0)
        assert client.shutdown()["stopping"] is True
    time.sleep(delay)
    t0 = time.perf_counter()
    handle.stop()  # idempotent join
    assert time.perf_counter() - t0 < 5.0
    assert not os.path.exists(sock)  # socket unlinked
    leaked = set(glob.glob("/dev/shm/*")) - before
    assert not leaked, f"leaked shm segments: {leaked}"


def test_shutdown_op_stops_server_and_releases_shm(tmp_path, graph):
    _stop_after_shutdown_op(tmp_path, graph, delay=0.0)


def test_stop_after_server_stopped_itself(tmp_path, graph):
    _stop_after_shutdown_op(tmp_path, graph, delay=0.5)


def test_tcp_endpoint_works(graph):
    with serve_in_thread(host="127.0.0.1", port=0) as handle:
        handle.server.registry.add("g", graph)
        port = handle.server.port
        assert port != 0  # ephemeral port resolved
        with ServeClient(host="127.0.0.1", port=port) as client:
            result = client.detect("g", algorithm="plp", seed=0)
    direct = make_detector("plp", seed=0).run(graph).partition.labels
    assert result["labels"].tobytes() == direct.tobytes()
