"""Byte-identity of the compiled kernel backend against NumPy.

The contract (see :mod:`repro.community.backends`): ``kernel_backend``
is a pure host-speed knob — labels, simulated timings and info counters
are byte-identical between backends, across schedules, thread counts,
worker processes and dtype policies.

These tests exercise the real dispatch path through PLP/PLM/PLMR/EPP
with the numba kernels running under the interpreted testing fallback
(``REPRO_KERNEL_NUMBA_FALLBACK=1``) — the identical source lines numba
would compile, minus the JIT. The CI ``kernel-numba`` job re-runs the
whole tier-1 suite with real compiled kernels on top of this.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.community.epp import EPP
from repro.community.plm import PLM, PLMR
from repro.community.plp import PLP
from repro.graph import generators
from repro.parallel import ParallelRuntime

pytestmark = pytest.mark.usefixtures("numba_fallback")


@pytest.fixture
def numba_fallback(monkeypatch):
    from repro.community._kernels_numba import FALLBACK_ENV

    monkeypatch.setenv(FALLBACK_ENV, "1")


@pytest.fixture(scope="module")
def planted():
    graph, _ = generators.planted_partition(300, 6, 0.3, 0.01, seed=7)
    return graph


@pytest.fixture(scope="module")
def planted_lean():
    graph, _ = generators.planted_partition(
        300, 6, 0.3, 0.01, seed=7, dtype_policy="lean"
    )
    return graph


CONFIGS = [(1, "static"), (8, "guided"), (4, "dynamic")]


def run_pair(make, graph):
    """Run a detector on both backends; return both (labels, result) pairs.

    Pops ``info["kernel_backend"]`` before comparison — it is the one
    key that legitimately differs.
    """
    out = {}
    for backend in ("numpy", "numba"):
        detector = make(backend)
        result = detector.run(graph)
        info = dict(result.info)
        assert info.pop("kernel_backend", backend) == backend
        out[backend] = (result.labels, result.timing.total, info)
    return out["numpy"], out["numba"]


class TestPLP:
    @pytest.mark.parametrize("threads,schedule", CONFIGS)
    @pytest.mark.parametrize("policy", ["wide", "lean"])
    def test_byte_identity(
        self, planted, planted_lean, threads, schedule, policy
    ):
        graph = planted if policy == "wide" else planted_lean
        ref, nb = run_pair(
            lambda b: PLP(
                threads=threads, schedule=schedule, seed=2, kernel_backend=b
            ),
            graph,
        )
        assert ref[0].tobytes() == nb[0].tobytes()
        assert ref[1] == nb[1]  # simulated timing, exact
        assert ref[2] == nb[2]  # iteration/migration counters


class TestPLM:
    @pytest.mark.parametrize("threads,schedule", CONFIGS)
    @pytest.mark.parametrize("policy", ["wide", "lean"])
    def test_byte_identity(
        self, planted, planted_lean, threads, schedule, policy
    ):
        graph = planted if policy == "wide" else planted_lean
        ref, nb = run_pair(
            lambda b: PLM(
                threads=threads, schedule=schedule, seed=2, kernel_backend=b
            ),
            graph,
        )
        assert ref[0].tobytes() == nb[0].tobytes()
        assert ref[1] == nb[1]
        assert ref[2] == nb[2]

    @pytest.mark.parametrize("policy", ["wide", "lean"])
    def test_plmr_byte_identity(self, planted, planted_lean, policy):
        graph = planted if policy == "wide" else planted_lean
        ref, nb = run_pair(
            lambda b: PLMR(threads=8, seed=2, kernel_backend=b), graph
        )
        assert ref[0].tobytes() == nb[0].tobytes()
        assert ref[1] == nb[1]
        assert ref[2] == nb[2]

    def test_move_phase_sweep_count_identical(self, planted):
        # The sweep counter feeds the bench fingerprints; pin it too.
        sweeps = {}
        for backend in ("numpy", "numba"):
            plm = PLM(threads=1, seed=3, kernel_backend=backend)
            labels = np.arange(planted.n, dtype=np.int64)
            runtime = ParallelRuntime(threads=1)
            _, sweeps[backend] = plm._move_phase(
                planted, labels, runtime, "test"
            )
        assert sweeps["numpy"] == sweeps["numba"]


class TestEPP:
    def test_byte_identity_inline_and_pooled(self, planted, monkeypatch):
        labels = {}
        for workers in (1, 2):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            for backend in ("numpy", "numba"):
                result = EPP(
                    seed=2, workers=workers, kernel_backend=backend
                ).run(planted)
                labels[(workers, backend)] = result.labels.tobytes()
        assert labels[(1, "numpy")] == labels[(1, "numba")]
        assert labels[(2, "numpy")] == labels[(2, "numba")]
        # The pool boundary itself must not change a byte either.
        assert labels[(1, "numpy")] == labels[(2, "numpy")]


class TestRacecheck:
    def test_racecheck_pins_numpy_and_matches(self, planted):
        # TrackedArray views cannot enter compiled kernels; under
        # racecheck the dispatch silently pins the numpy path. Results
        # must match a plain numba run — proving graceful degradation
        # loses nothing (the backends are byte-identical anyway).
        plain = PLM(threads=4, seed=2, kernel_backend="numba").run(planted)
        checked = PLM(threads=4, seed=2, kernel_backend="numba").run(
            planted, runtime=ParallelRuntime(threads=4, racecheck=True)
        )
        assert plain.labels.tobytes() == checked.labels.tobytes()
