"""The shared move and vote kernels against per-node dict references."""

from __future__ import annotations

import numpy as np
import pytest

from repro.community._kernels import neighborhood_cache
from repro.community._moves import (
    GAIN_EPS,
    _MAX_WIDTH,
    _hash_jitter,
    best_labels,
    best_moves,
)
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


# ----------------------------------------------------------------------
# best_labels: PLP's jittered dominant-label vote
# ----------------------------------------------------------------------
SALT = np.uint64(0x5EED)


def reference_labels(seg, nbr_lab, ws, ids, cur, salt, stay=None):
    """One dict per node, summed in row order in the storage dtype.

    A label scores ``w + 1e-9 * (1 + w) * jitter`` with the scale in the
    storage dtype; the best score wins, ties to the larger label, and a
    node moves only if that strictly beats its current label's score.
    """
    one, eps = ws.dtype.type(1.0), ws.dtype.type(1e-9)
    moves = {}
    for i in range(cur.size):
        w = {}
        for r in np.flatnonzero(seg == i):
            lab = int(nbr_lab[r])
            w[lab] = w.get(lab, ws.dtype.type(0.0)) + ws[r]
        if not w:
            continue

        def jitter(lab):
            return _hash_jitter(np.array([ids[i]]), np.array([lab]), salt)[0]

        best = None
        for lab in sorted(w):  # ascending: ``>=`` keeps the larger label
            score = float(w[lab]) + float(eps * (one + w[lab])) * jitter(lab)
            if best is None or score >= best[0]:
                best = (score, lab)
        c = int(cur[i])
        w_cur = float(w.get(c, 0.0)) + (0.0 if stay is None else stay[i])
        cur_score = w_cur + 1e-9 * (1.0 + w_cur) * jitter(c)
        if best[0] > cur_score and best[1] != c:
            moves[i] = best[1]
    return moves


def run_labels(seg, nbr_lab, ws, cur, stay=None, dtype=np.float64, width=8,
               base=0, salt=SALT):
    seg = np.asarray(seg, dtype=np.int64)
    cur = np.asarray(cur, dtype=np.int64)
    ids = np.arange(100, 100 + cur.size, dtype=np.int64)
    args = (np.asarray(nbr_lab, dtype=np.int64), np.asarray(ws, dtype=dtype),
            ids, cur)
    stay = None if stay is None else np.asarray(stay, dtype=np.float64)
    moved, new = best_labels(
        (seg + base) * width, *args, salt, width, base=base, stay=stay
    )
    got = dict(zip(np.flatnonzero(moved).tolist(), new.tolist()))
    assert got == reference_labels(seg, *args, salt, stay=stay)
    return got


# A weight of -1 zeroes the jitter scale ``1e-9 * (1 + w)``, so scores
# built from it tie exactly and the tie rules decide.
# (name, seg, nbr_lab, ws, cur, stay, dtype, expected moves)
LABEL_CASES = [
    ("empty rows", [], [], [], [0, 1], None, np.float64, {}),
    (
        "dominant label adopted",
        [0, 0, 0], [3, 5, 3], [1.0, 1.5, 1.0], [0], None, np.float64, {0: 3},
    ),
    (
        "exact score tie between labels: larger label wins",
        [0, 0, 0], [2, 6, 4], [-1.0, -1.0, -3.0], [4], None, np.float64,
        {0: 6},
    ),
    (
        "exact score tie with the current label: kept",
        [0, 0], [2, 6], [-1.0, -1.0], [2], None, np.float64, {},
    ),
    (
        "the heaviest row is the current label: kept",
        [0, 0, 0], [1, 4, 1], [1.0, 1.5, 1.0], [1], None, np.float64, {},
    ),
    (
        "stay weight keeps the current label",
        [0, 0], [1, 4], [1.0, 2.0], [1], [3.0], np.float64, {},
    ),
    (
        "too little stay weight does not",
        [0, 0], [1, 4], [1.0, 2.0], [1], [0.5], np.float64, {0: 4},
    ),
    # Weight 1 + stay 1 ties label 4's weight 2, so the jitter decides:
    # label 5 hashes above label 4 for this node and salt, label 2 below.
    (
        "weight tie with the current label plus stay: its jitter keeps it",
        [0, 0], [5, 4], [1.0, 2.0], [5], [1.0], np.float64, {},
    ),
    (
        "weight tie with the current label plus stay: its jitter loses",
        [0, 0], [2, 4], [1.0, 2.0], [2], [1.0], np.float64, {0: 4},
    ),
    (
        "a node without rows (only a self-loop) keeps its label",
        [0, 2], [5, 5], [1.0, 1.0], [0, 1, 2], None, np.float64,
        {0: 5, 2: 5},
    ),
    (
        "float32 weights",
        [0, 0, 0, 1, 1], [3, 5, 3, 2, 7], [0.1, 0.3, 0.1, 0.7, 0.2], [0, 1],
        None, np.float32, {0: 5, 1: 2},
    ),
]


@pytest.mark.parametrize(
    "name,seg,nbr_lab,ws,cur,stay,dtype,expected",
    LABEL_CASES, ids=[c[0] for c in LABEL_CASES],
)
def test_label_table(name, seg, nbr_lab, ws, cur, stay, dtype, expected):
    assert run_labels(seg, nbr_lab, ws, cur, stay=stay, dtype=dtype) == expected


def test_dyadic_weight_ties_go_to_the_jitter_not_the_label():
    # Two labels exactly tied on weight: across salts each one wins
    # sometimes, so the tie is broken per (node, label, salt).
    winners = {
        run_labels([0, 0], [2, 4], [0.5, 0.5], [0], salt=np.uint64(s))[0]
        for s in range(1, 40)
    }
    assert winners == {2, 4}


def test_label_base_offset_matches_local_positions():
    args = ([0, 0, 1], [4, 6, 4], [0.5, 1.0, 1.0], [1, 2])
    assert run_labels(*args, base=0) == run_labels(*args, base=5) == {0: 6, 1: 4}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", range(3))
def test_label_weighted_graph_matches_reference(dtype, seed):
    # Dyadic weights and few labels: many labels tie exactly on weight.
    graph = _dyadic_graph(seed=seed)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 6, graph.n)
    nodes = rng.permutation(graph.n)[:40]
    seg, nbrs, ws = neighborhood_cache(graph).gather(nodes)
    stay = rng.choice([0.0, 0.5, 1.0], size=nodes.size)
    for st in (None, stay):
        args = (labels[nbrs], ws.astype(dtype), nodes, labels[nodes])
        moved, new = best_labels(seg * graph.n, *args, SALT, graph.n, stay=st)
        got = dict(zip(np.flatnonzero(moved).tolist(), new.tolist()))
        assert got == reference_labels(seg, *args, SALT, stay=st)
        assert got  # the instance is not trivially quiet
