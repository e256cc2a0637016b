"""The shared Louvain move kernel against a per-node dict reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.community._kernels import neighborhood_cache
from repro.community._moves import GAIN_EPS, _MAX_WIDTH, best_moves
from repro.graph.builder import GraphBuilder


def reference_moves(seg, nbr_lab, ws, cur, vol_u, comm_vol, omega, gamma, larger):
    """One dict per node, summed in row order, scored by the paper's gain."""
    moves = {}
    for i in range(cur.size):
        w = {}
        for r in np.flatnonzero(seg == i):
            lab = int(nbr_lab[r])
            w[lab] = w.get(lab, 0.0) + ws[r]
        c = int(cur[i])
        w_cur = w.get(c, 0.0)
        vol_c_wo_u = comm_vol[c] - vol_u[i]
        best = None
        for lab in sorted(w, reverse=larger):
            delta = (w[lab] - w_cur) / omega + (
                gamma
                * vol_u[i]
                * (vol_c_wo_u - comm_vol[lab])
                / (2.0 * omega * omega)
            )
            if delta > GAIN_EPS and (best is None or delta > best[0]):
                best = (delta, lab)
        if best is not None:
            moves[i] = best[1]
    return moves


def run(seg, nbr_lab, ws, cur, vol_u, comm_vol, omega=10.0, gamma=1.0,
        larger=False, width=8, base=0):
    seg = np.asarray(seg, dtype=np.int64)
    out = best_moves(
        (seg + base) * width, np.asarray(nbr_lab, dtype=np.int64),
        np.asarray(ws, dtype=np.float64), np.asarray(cur, dtype=np.int64),
        np.asarray(vol_u, dtype=np.float64), np.asarray(comm_vol, dtype=np.float64),
        omega, gamma, width, base=base, larger_label=larger,
    )
    return {} if out is None else dict(zip(out[0].tolist(), out[1].tolist()))


# (name, seg, nbr_lab, ws, cur, vol_u, comm_vol, larger, expected moves)
CASES = [
    ("empty block", [], [], [], [0, 1], [1, 1], [1, 1, 0, 0], False, {}),
    (
        "isolated node in the middle never moves",
        [0, 2], [1, 1], [1.0, 1.0], [0, 5, 2], [1, 0, 1], [1, 2, 1, 0, 0, 0],
        False, {0: 1, 2: 1},
    ),
    (
        "own community never wins, even with the heaviest row",
        [0, 0, 0], [3, 3, 4], [5.0, 5.0, 1.0], [3, 0], [2, 0], [0, 0, 0, 2, 1],
        False, {},
    ),
    (
        "all neighbors in own community: stays",
        [0, 0], [2, 2], [1.0, 2.0], [2], [3], [0, 0, 6], False, {},
    ),
    (
        "exact tie, smaller label wins",
        [0, 0], [4, 6], [0.5, 0.5], [1], [1], [0, 1, 0, 0, 1, 0, 1], False,
        {0: 4},
    ),
    (
        "exact tie, larger label wins",
        [0, 0], [4, 6], [0.5, 0.5], [1], [1], [0, 1, 0, 0, 1, 0, 1], True,
        {0: 6},
    ),
    (
        "smaller volume breaks a weight tie before the label rule",
        [0, 0, 0], [4, 6, 6], [0.5, 0.25, 0.25], [1], [1], [0, 1, 0, 0, 1, 0, 2],
        True, {0: 4},
    ),
    (
        "a gain at the noise threshold does not move",
        [0], [2], [0.0], [1], [0.0], [0, 1, 1], False, {},
    ),
]


@pytest.mark.parametrize(
    "name,seg,nbr_lab,ws,cur,vol_u,comm_vol,larger,expected",
    CASES, ids=[c[0] for c in CASES],
)
def test_table(name, seg, nbr_lab, ws, cur, vol_u, comm_vol, larger, expected):
    got = run(seg, nbr_lab, ws, cur, vol_u, comm_vol, larger=larger)
    assert got == expected
    ref = reference_moves(
        np.asarray(seg), np.asarray(nbr_lab), np.asarray(ws, dtype=float),
        np.asarray(cur), np.asarray(vol_u, dtype=float),
        np.asarray(comm_vol, dtype=float), 10.0, 1.0, larger,
    )
    assert got == ref


def test_base_offset_matches_local_positions():
    args = ([0, 0, 1], [4, 6, 4], [0.5, 0.5, 1.0], [1, 2], [1, 1],
            [0, 1, 1, 0, 1, 0, 1])
    assert run(*args, base=0) == run(*args, base=5) == {0: 4, 1: 4}


def test_overflowing_width_is_refused():
    with pytest.raises(OverflowError):
        best_moves(
            np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1),
            np.zeros(1, np.int64), np.ones(1), np.ones(1), 1.0, 1.0,
            _MAX_WIDTH + 1,
        )


def _dyadic_graph(n=90, seed=3):
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, 5 * n)
    vs = rng.integers(0, n, 5 * n)
    ws = rng.choice([0.25, 0.5, 1.0, 2.0], size=us.size)
    return GraphBuilder(n).add_edges(us, vs, ws).build()


@pytest.mark.parametrize("larger", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_weighted_graph_matches_reference(larger, seed):
    # Dyadic weights and few communities: many candidate gains tie
    # exactly, so the tie rule decides a good share of the moves.
    graph = _dyadic_graph(seed=seed)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 6, graph.n)
    volumes = graph.volumes()
    comm_vol = np.bincount(labels, weights=volumes, minlength=graph.n)
    nodes = rng.permutation(graph.n)[:40]
    seg, nbrs, ws = neighborhood_cache(graph).gather(nodes)
    omega = graph.total_edge_weight
    state = (labels[nbrs], ws, labels[nodes], volumes[nodes], comm_vol, omega, 1.0)
    out = best_moves(seg * graph.n, *state, graph.n, larger_label=larger)
    got = {} if out is None else dict(zip(out[0].tolist(), out[1].tolist()))
    assert got == reference_moves(seg, *state, larger)
    assert got  # the instance is not trivially quiet


def test_tie_rules_disagree_on_some_weighted_instance():
    # Guards the previous test against instances without any exact tie.
    graph = _dyadic_graph(seed=0)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 6, graph.n)
    volumes = np.zeros(graph.n)  # volume terms vanish: ties on weight alone
    comm_vol = np.zeros(graph.n)
    nodes = np.arange(graph.n)
    seg, nbrs, ws = neighborhood_cache(graph).gather(nodes)
    args = (seg * graph.n, labels[nbrs], ws, labels, volumes, comm_vol,
            graph.total_edge_weight, 1.0, graph.n)
    small = best_moves(*args, larger_label=False)
    large = best_moves(*args, larger_label=True)
    assert np.array_equal(small[0], large[0])
    assert np.any(small[1] < large[1])
