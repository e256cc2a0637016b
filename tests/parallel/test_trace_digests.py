"""Pinned per-block timelines of the simulated executor.

``test_move_digests.py`` and ``test_vote_digests.py`` pin labels and
``timing.total``. This module pins everything the executor decides on the
way there: each block's thread, start, end, cost, chunk, dispatch and
stale lag (through the Chrome trace), and every loop record's fields.
Each digest is sha256 over ``json.dumps(chrome_trace(tracer),
sort_keys=True)`` followed by the JSON of every :class:`LoopRecord`.

Runtimes are built with ``racecheck=False`` so that a racecheck-enabled
environment produces the same trace. ``TimingReport.loops`` and
``.tree`` are left out: they aggregate with Python ``sum()``, whose
rounding differs across Python versions.

To re-pin after an *intended* behaviour change, print ``_digests()``
and paste the result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.community import make_detector
from repro.parallel import PAPER_MACHINE, ParallelRuntime, Tracer, chrome_trace
from tests.community.test_move_digests import _graphs

_ALGORITHMS = ("plp", "plm", "epp", "grappolo", "slouvain")


def _trace_digest(graph, algorithm: str, chunk_permutation: int | None = None) -> str:
    tracer = Tracer()
    runtime = ParallelRuntime(
        PAPER_MACHINE,
        threads=8,
        tracer=tracer,
        racecheck=False,
        chunk_permutation=chunk_permutation,
    )
    make_detector(algorithm, threads=8, seed=1).run(graph, runtime=runtime)
    h = hashlib.sha256(json.dumps(chrome_trace(tracer), sort_keys=True).encode())
    for record in runtime.loop_records:
        h.update(json.dumps(dataclasses.asdict(record), sort_keys=True).encode())
    return h.hexdigest()[:16]


def _digests() -> dict[str, str]:
    out = {}
    for gname, graph in _graphs().items():
        for alg in _ALGORITHMS:
            out[f"{alg}/{gname}"] = _trace_digest(graph, alg)
        if gname == "planted":
            out[f"plm-permuted/{gname}"] = _trace_digest(graph, "plm", 5)
    return out


PINNED = {
    "epp/planted": "ba6bb7362c49d667",
    "epp/rmat": "7836735b29dd9677",
    "epp/weighted": "005366c2cb3e4877",
    "grappolo/planted": "b00dc6f79b99379e",
    "grappolo/rmat": "f1d6730a2c300ccf",
    "grappolo/weighted": "3a8190494ab088ac",
    "plm-permuted/planted": "322906aa032c9f36",
    "plm/planted": "70c2d7d4ca436dd3",
    "plm/rmat": "29a762ec2d7ea070",
    "plm/weighted": "583592d0a1553567",
    "plp/planted": "0845a5ce1d1444d6",
    "plp/rmat": "4cc7342b12c9933b",
    "plp/weighted": "08d1982fcdcc263c",
    "slouvain/planted": "a3c9f248b6d004fd",
    "slouvain/rmat": "a0b86d1b794ff052",
    "slouvain/weighted": "1db00cf63a313643",
}


@pytest.fixture(scope="module")
def digests():
    return _digests()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_trace_digest_pinned(digests, key):
    assert digests[key] == PINNED[key]


def test_every_trace_digest_is_pinned(digests):
    assert set(digests) == set(PINNED)
