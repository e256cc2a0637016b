"""Synthetic network generators.

These provide (a) the synthetic instance classes the paper itself uses —
``G_n_pin_pout`` planted partition and R-MAT/Kronecker graphs with the
paper's parameters — and (b) stand-ins for the real-world graph categories
of Table I (web, social, co-authorship, internet topology, road, power
grid), since the multi-gigabyte DIMACS/SNAP files are not available offline.
Every generator takes an explicit ``seed`` and is deterministic.

Scale path (PR 5)
-----------------
All generators are batched NumPy implementations so fig9-class inputs
(10M+ edges, paper §V-H) are feasible: R-MAT samples one bit-level across
all edges at once, planted partition draws exact binomial counts per block,
and the growth models (preferential attachment, Holme–Kim, copying,
affiliation) process new nodes in geometric *rounds* — each round batches a
block of new nodes against the attachment state frozen at round start, so
the Python-level work is O(log n) round set-ups instead of O(n) per-node
steps. Within a round, per-row duplicate targets are rejected/redrawn
vectorized.

The round-based rewrites consume their RNG streams in a different order
than the original per-node loops (kept in :mod:`repro.graph.reference`),
so same-seed outputs differ from pre-PR-5 graphs; the distributional
contracts (degree moments, clustering, connectivity) are regression-tested
against the loop baselines in ``tests/graph/test_generator_contracts.py``.
``rmat``, ``planted_partition``, ``erdos_renyi``, ``watts_strogatz`` and
``grid2d`` were already vectorized and keep their exact historical streams.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph

__all__ = [
    "erdos_renyi",
    "planted_partition",
    "rmat",
    "barabasi_albert",
    "holme_kim",
    "watts_strogatz",
    "grid2d",
    "affiliation",
    "copying_model",
    "clique_pair",
    "ring",
    "star",
    "complete_graph",
    "PAPER_RMAT",
]

#: R-MAT parameters used for the paper's weak-scaling Kronecker series.
PAPER_RMAT = (0.57, 0.19, 0.19, 0.05)

#: Redraw attempts for per-row distinct-target rejection before falling
#: back to explicit without-replacement sampling for the stragglers.
_REDRAW_TRIES = 50


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _decode_pairs(linear: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode linear indices in [0, C(n,2)) to pairs (i, j) with i < j.

    Uses the row-major triangular enumeration: pair (i, j) has index
    ``i*n - i*(i+1)/2 + (j - i - 1)``.
    """
    linear = linear.astype(np.float64)
    # Invert the quadratic; float error is corrected below.
    i = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * linear)) / 2).astype(
        np.int64
    )
    # Correct potential off-by-one from floating point.
    for _ in range(2):
        base = i * n - (i * (i + 1)) // 2
        too_big = base > linear
        i = np.where(too_big, i - 1, i)
        base = i * n - (i * (i + 1)) // 2
        next_base = (i + 1) * n - ((i + 1) * (i + 2)) // 2
        too_small = linear >= next_base
        i = np.where(too_small, i + 1, i)
    base = i * n - (i * (i + 1)) // 2
    j = (linear - base).astype(np.int64) + i + 1
    return i, j


def _sample_distinct_pairs(
    n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` distinct unordered pairs from an ``n``-node set."""
    total = n * (n - 1) // 2
    count = min(count, total)
    if count <= 0 or n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    chosen: np.ndarray = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        need = count - chosen.size
        draw = rng.integers(0, total, size=max(need * 2, 16))
        chosen = np.unique(np.concatenate([chosen, draw]))
    chosen = rng.permutation(chosen)[:count]
    return _decode_pairs(chosen, n)


def _row_duplicate_mask(t: np.ndarray) -> np.ndarray:
    """Boolean mask marking duplicate entries within each row of ``t``.

    The first occurrence (in the row's original column order) is kept
    unmarked; later repeats of the same value are marked ``True``.
    """
    order = np.argsort(t, axis=1, kind="stable")
    ts = np.take_along_axis(t, order, axis=1)
    dup_sorted = np.zeros(t.shape, dtype=bool)
    dup_sorted[:, 1:] = ts[:, 1:] == ts[:, :-1]
    dup = np.empty(t.shape, dtype=bool)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    return dup


def _rows_with_duplicates(t: np.ndarray) -> np.ndarray:
    """Boolean row mask: rows of ``t`` containing a repeated value."""
    ts = np.sort(t, axis=1)
    return (ts[:, 1:] == ts[:, :-1]).any(axis=1)


def _round_sizes(start: int, stop: int, floor: int = 16):
    """Yield (begin, count) node blocks growing geometrically.

    Each block is at most a quarter of the ids already processed, so the
    frozen-state approximation of the growth models stays close to the
    per-node original while the number of Python-level rounds is O(log n).
    """
    v = start
    while v < stop:
        count = min(stop - v, max(floor, v // 4))
        yield v, count
        v += count


# ----------------------------------------------------------------------
# Classic random graphs
# ----------------------------------------------------------------------
def erdos_renyi(
    n: int, p: float, seed: int = 0, name: str = "", dtype_policy: str = "wide"
) -> Graph:
    """G(n, p) Erdos–Renyi graph (edge count sampled, pairs uniform)."""
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    m = int(rng.binomial(total, p)) if total else 0
    us, vs = _sample_distinct_pairs(n, m, rng)
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    builder.add_edges(us, vs)
    return builder.build(name=name or f"gnp-{n}-{p:g}")


def planted_partition(
    n: int,
    k: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
    name: str = "",
    dtype_policy: str = "wide",
) -> tuple[Graph, np.ndarray]:
    """``G(n, p_in, p_out)`` planted-partition graph (paper's G_n_pin_pout).

    ``k`` equal-size communities; intra-community pairs connect with
    ``p_in``, inter-community pairs with ``p_out``. Returns the graph and
    the ground-truth community assignment.
    """
    if k <= 0 or n < k:
        raise ValueError("need at least one node per community")
    rng = np.random.default_rng(seed)
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    all_us: list[np.ndarray] = []
    all_vs: list[np.ndarray] = []
    # Intra-community edges: exact binomial per block.
    for c in range(k):
        s = int(sizes[c])
        total = s * (s - 1) // 2
        cnt = int(rng.binomial(total, p_in)) if total else 0
        us, vs = _sample_distinct_pairs(s, cnt, rng)
        all_us.append(us + offsets[c])
        all_vs.append(vs + offsets[c])
    # Inter-community edges: binomial over all inter pairs, rejection-sampled.
    total_pairs = n * (n - 1) // 2
    intra_pairs = int(np.sum(sizes * (sizes - 1) // 2))
    inter_pairs = total_pairs - intra_pairs
    cnt = int(rng.binomial(inter_pairs, p_out)) if inter_pairs else 0
    got = 0
    seen: np.ndarray = np.empty(0, dtype=np.int64)
    while got < cnt:
        draw = rng.integers(0, total_pairs, size=max((cnt - got) * 2, 16))
        du, dv = _decode_pairs(draw, n)
        keep = labels[du] != labels[dv]
        draw = draw[keep]
        seen = np.unique(np.concatenate([seen, draw]))
        got = seen.size
    if cnt:
        pick = rng.permutation(seen)[:cnt]
        iu, iv = _decode_pairs(pick, n)
        all_us.append(iu)
        all_vs.append(iv)

    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    builder.add_edges(np.concatenate(all_us), np.concatenate(all_vs))
    graph = builder.build(name=name or f"Gnpinpout-{n}-{k}")
    return graph, labels


def _rmat_luts(
    a: float, b: float, c: float, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Packed inverse-CDF tables for the R-MAT quadrant descent.

    ``lut2[r]`` maps a uint16 draw to *two* consecutive descent levels at
    once: the 16 joint quadrant outcomes (quadrant probabilities are
    independent across levels) quantized onto a 65536-entry table. The
    packed byte holds the two u bits in the high nibble and the two v bits
    in the low nibble. ``lut1`` is the analogous single-level table used
    for the final level of odd scales. Quantization error per outcome is
    below ``2**-16`` absolute (the table is the inverse CDF sampled at
    bin midpoints), far inside the tolerance of the distributional
    contracts in the generator property tests.
    """
    probs = np.array([a, b, c, d], dtype=np.float64)
    grid = (np.arange(65536, dtype=np.float64) + 0.5) / 65536.0

    joint = np.outer(probs, probs).ravel()
    cdf = np.cumsum(joint)
    cdf[-1] = 1.0
    outcome = np.searchsorted(cdf, grid)
    q1, q2 = outcome >> 2, outcome & 3
    # Quadrant bit semantics: a=(0,0), b=(0,1), c=(1,0), d=(1,1).
    ubits = ((q1 >> 1) << 1) | (q2 >> 1)
    vbits = ((q1 & 1) << 1) | (q2 & 1)
    lut2 = ((ubits << 4) | vbits).astype(np.uint8)

    cdf1 = np.cumsum(probs)
    cdf1[-1] = 1.0
    q = np.searchsorted(cdf1, grid)
    lut1 = (((q >> 1) << 4) | (q & 1)).astype(np.uint8)
    return lut2, lut1


def _rmat_sample(
    rng: np.random.Generator,
    scale: int,
    m: int,
    a: float,
    b: float,
    c: float,
    d: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``m`` R-MAT endpoint pairs, all edges descending in lockstep.

    One uint16 draw advances *two* levels of the quadrant descent through
    the packed LUT (one gather per round instead of per-level masking),
    which is what makes fig9-class edge counts feasible: the historical
    ``rmat_gen_ab`` entry of ``BENCH_scale.json`` (2^20 x 12 R-MAT, 1-CPU
    x86-64 VM) has it 125x faster than the scalar descent in
    ``repro.graph.reference.rmat_sample_loop``.
    """
    lut2, lut1 = _rmat_luts(a, b, c, d)
    acc = np.int32 if scale <= 30 else np.int64
    u = np.zeros(m, dtype=acc)
    v = np.zeros(m, dtype=acc)
    tmp = np.empty(m, dtype=np.uint8)
    for _ in range(scale // 2):
        r = rng.integers(0, 65536, size=m, dtype=np.uint16)
        u <<= 2
        v <<= 2
        np.take(lut2, r, out=tmp)
        u += tmp >> 4
        tmp &= 15
        v += tmp
    if scale % 2:
        r = rng.integers(0, 65536, size=m, dtype=np.uint16)
        u <<= 1
        v <<= 1
        np.take(lut1, r, out=tmp)
        u += tmp >> 4
        tmp &= 15
        v += tmp
    return u, v


def rmat(
    scale: int,
    edge_factor: int,
    a: float = PAPER_RMAT[0],
    b: float = PAPER_RMAT[1],
    c: float = PAPER_RMAT[2],
    d: float = PAPER_RMAT[3],
    seed: int = 0,
    name: str = "",
    dtype_policy: str = "wide",
) -> Graph:
    """R-MAT / Kronecker graph: ``n = 2**scale`` nodes, ``n * edge_factor``
    undirected edges sampled by recursive quadrant descent.

    Defaults are the paper's weak-scaling parameters (0.57, 0.19, 0.19, 0.05)
    — the Graph500 parameter set, producing heavy-tailed degree
    distributions, many isolated nodes and weak community structure
    (the kron_g500 instance class of Table I).

    The descent samples two bit-levels per uint16 draw through a packed
    inverse-CDF table (:func:`_rmat_sample`). This consumes the RNG stream
    differently from the earlier one-float-per-level descent, so same-seed
    graphs differ from pre-scale-path releases; the distribution is
    unchanged up to per-outcome quantization below ``2**-16``. Committed
    fig10 results were regenerated accordingly.
    """
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError("R-MAT probabilities must sum to 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * edge_factor
    us, vs = _rmat_sample(rng, scale, m, a, b, c, d)
    keep = us != vs  # drop self-loops, as the Kronecker benchmark inputs do
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    builder.add_edges(us[keep], vs[keep])
    return builder.build(name=name or f"rmat-{scale}-{edge_factor}")


# ----------------------------------------------------------------------
# Category stand-ins (round-batched growth models)
# ----------------------------------------------------------------------
def barabasi_albert(
    n: int, attach: int, seed: int = 0, name: str = "", dtype_policy: str = "wide"
) -> Graph:
    """Preferential-attachment graph (internet-topology stand-in:
    as-22july06 / caidaRouterLevel class — hubs, low clustering).

    Vectorized: new nodes arrive in geometric rounds, each drawing
    ``attach`` distinct targets from the repeated-endpoints array frozen at
    round start; rows with duplicate targets are redrawn in bulk.
    """
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    # Seed: the first new node links to every initial node (as the loop
    # version did via its initial target list).
    first_u = np.full(attach, attach, dtype=np.int64)
    first_v = np.arange(attach, dtype=np.int64)
    builder.add_edges(first_u, first_v)
    rep = np.concatenate([np.arange(attach, dtype=np.int64), first_u, first_v])
    for begin, count in _round_sizes(attach + 1, n):
        ids = np.arange(begin, begin + count, dtype=np.int64)
        t = rep[rng.integers(0, rep.size, size=(count, attach))]
        if attach > 1:
            for _ in range(_REDRAW_TRIES):
                bad = _rows_with_duplicates(t)
                if not bad.any():
                    break
                t[bad] = rep[
                    rng.integers(0, rep.size, size=(int(bad.sum()), attach))
                ]
            else:
                # Stragglers (tiny early rounds): sample the distinct
                # endpoint values without replacement, one row at a time.
                pool = np.unique(rep)
                for i in np.flatnonzero(_rows_with_duplicates(t)):
                    t[i] = rng.choice(pool, size=attach, replace=False)
        eu = np.repeat(ids, attach)
        ev = t.ravel()
        builder.add_edges(eu, ev)
        rep = np.concatenate([rep, eu, ev])
    return builder.build(name=name or f"ba-{n}-{attach}")


def holme_kim(
    n: int,
    attach: int,
    p_triad: float,
    seed: int = 0,
    name: str = "",
    dtype_policy: str = "wide",
) -> Graph:
    """Power-law cluster graph (social-network stand-in: preferential
    attachment plus triad formation gives hubs *and* high clustering).

    Vectorized rounds: the first link per new node is pure preferential
    attachment; each further link closes a triad (random neighbor of the
    previous target, taken from the adjacency frozen at round start) with
    probability ``p_triad``, else falls back to preferential attachment.
    Duplicate targets within a node's row are dropped, mirroring the loop
    version's skipped links.
    """
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = np.random.default_rng(seed)
    us_chunks: list[np.ndarray] = []
    vs_chunks: list[np.ndarray] = []
    rep = np.arange(attach, dtype=np.int64)
    for begin, count in _round_sizes(attach, n):
        # Frozen adjacency of everything generated so far (CSR over both
        # directions), used for the triad steps of this round.
        if us_chunks:
            au = np.concatenate(us_chunks)
            av = np.concatenate(vs_chunks)
            src = np.concatenate([au, av])
            dst = np.concatenate([av, au])
            deg = np.bincount(src, minlength=n)
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=ptr[1:])
            adj = dst[np.argsort(src, kind="stable")]
        else:
            deg = np.zeros(n, dtype=np.int64)
            ptr = np.zeros(n + 1, dtype=np.int64)
            adj = np.empty(0, dtype=np.int64)
        ids = np.arange(begin, begin + count, dtype=np.int64)
        cols = [rep[rng.integers(0, rep.size, size=count)]]
        prev = cols[0]
        for _ in range(attach - 1):
            triad = rng.random(count) < p_triad
            prev_deg = deg[prev]
            can_triad = triad & (prev_deg > 0)
            off = rng.integers(0, np.maximum(prev_deg, 1))
            if adj.size:
                # Lanes with prev_deg == 0 are masked out below; clamp their
                # placeholder index so the gather stays in bounds.
                nb = adj[np.minimum(ptr[prev] + off, adj.size - 1)]
            else:
                nb = prev
            pa = rep[rng.integers(0, rep.size, size=count)]
            t = np.where(can_triad, nb, pa)
            cols.append(t)
            prev = t
        targets = np.stack(cols, axis=1)
        keep = ~_row_duplicate_mask(targets) if attach > 1 else np.ones(
            targets.shape, dtype=bool
        )
        flat_keep = keep.ravel()
        eu = np.repeat(ids, attach)[flat_keep]
        ev = targets.ravel()[flat_keep]
        us_chunks.append(eu)
        vs_chunks.append(ev)
        rep = np.concatenate([rep, eu, ev])
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    builder.add_edges(np.concatenate(us_chunks), np.concatenate(vs_chunks))
    return builder.build(name=name or f"hk-{n}-{attach}-{p_triad:g}")


def watts_strogatz(
    n: int,
    k: int,
    beta: float,
    seed: int = 0,
    name: str = "",
    dtype_policy: str = "wide",
) -> Graph:
    """Small-world ring lattice with rewiring (power-grid stand-in)."""
    if k % 2 or k >= n:
        raise ValueError("k must be even and < n")
    rng = np.random.default_rng(seed)
    half = k // 2
    src = np.repeat(np.arange(n, dtype=np.int64), half)
    offs = np.tile(np.arange(1, half + 1, dtype=np.int64), n)
    dst = (src + offs) % n
    rewire = rng.random(src.size) < beta
    new_dst = rng.integers(0, n, size=src.size)
    ok = rewire & (new_dst != src)
    dst = np.where(ok, new_dst, dst)
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    builder.add_edges(src, dst)
    return builder.build(name=name or f"ws-{n}-{k}-{beta:g}")


def grid2d(
    rows: int, cols: int, seed: int = 0, name: str = "", dtype_policy: str = "wide"
) -> Graph:
    """2-D lattice (road-network stand-in: europe-osm class — near-uniform
    low degree, huge diameter, negligible clustering)."""
    n = rows * cols
    ids = np.arange(n, dtype=np.int64).reshape(rows, cols)
    right_u = ids[:, :-1].ravel()
    right_v = ids[:, 1:].ravel()
    down_u = ids[:-1, :].ravel()
    down_v = ids[1:, :].ravel()
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    builder.add_edges(
        np.concatenate([right_u, down_u]), np.concatenate([right_v, down_v])
    )
    return builder.build(name=name or f"grid-{rows}x{cols}")


def affiliation(
    n: int,
    groups: int,
    group_size_mean: float,
    membership_overlap: float = 0.15,
    seed: int = 0,
    name: str = "",
    dtype_policy: str = "wide",
) -> Graph:
    """Clique-affiliation graph (co-authorship stand-in: coAuthorsCiteseer /
    coPapersDBLP class — papers are cliques of authors, so LCC is very high).

    ``groups`` cliques with geometric sizes around ``group_size_mean`` are
    placed over the node set; a fraction of members are drawn from previous
    groups (overlap), stitching the cliques together. Groups are built in
    geometric rounds, bucketed by clique size so each bucket is a dense
    (groups x size) member matrix with vectorized distinct-member rejection
    and template-indexed clique edges.
    """
    rng = np.random.default_rng(seed)
    p_geom = 1.0 / max(group_size_mean - 1.0, 1.0)
    sizes = np.minimum(2 + rng.geometric(p_geom, size=groups), n).astype(np.int64)
    us_chunks: list[np.ndarray] = []
    vs_chunks: list[np.ndarray] = []
    used = np.empty(0, dtype=np.int64)  # members so far, with multiplicity
    for begin, count in _round_sizes(0, groups, floor=8):
        batch = sizes[begin : begin + count]
        round_members: list[np.ndarray] = []
        for s in np.unique(batch):
            s = int(s)
            rows = int(np.count_nonzero(batch == s))
            n_old = int(round(s * membership_overlap)) if used.size else 0
            n_old = min(n_old, s)
            members = np.empty((rows, s), dtype=np.int64)
            if n_old:
                members[:, :n_old] = used[
                    rng.integers(0, used.size, size=(rows, n_old))
                ]
            members[:, n_old:] = rng.integers(0, n, size=(rows, s - n_old))
            if s > 1:
                for _ in range(_REDRAW_TRIES):
                    bad = _rows_with_duplicates(members)
                    if not bad.any():
                        break
                    nbad = int(bad.sum())
                    redraw = np.empty((nbad, s), dtype=np.int64)
                    if n_old:
                        redraw[:, :n_old] = used[
                            rng.integers(0, used.size, size=(nbad, n_old))
                        ]
                    redraw[:, n_old:] = rng.integers(0, n, size=(nbad, s - n_old))
                    members[bad] = redraw
                else:
                    # Stragglers (cliques nearly as large as the node set):
                    # exact without-replacement sampling row by row.
                    for i in np.flatnonzero(_rows_with_duplicates(members)):
                        members[i] = rng.choice(n, size=s, replace=False)
            members.sort(axis=1)  # the loop version stored sorted members
            iu, iv = np.triu_indices(s, k=1)
            us_chunks.append(members[:, iu].ravel())
            vs_chunks.append(members[:, iv].ravel())
            round_members.append(members.ravel())
        if round_members:
            used = np.concatenate([used] + round_members)
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    if us_chunks:
        builder.add_edges(np.concatenate(us_chunks), np.concatenate(vs_chunks))
    return builder.build(name=name or f"affil-{n}-{groups}")


def copying_model(
    n: int,
    alpha: float = 0.5,
    out_degree: int = 7,
    seed: int = 0,
    name: str = "",
    dtype_policy: str = "wide",
) -> Graph:
    """Web-graph stand-in (uk-2002 / eu-2005 class) via the copying model:
    each new page copies links of a random prototype with probability
    ``alpha``, else links uniformly. Produces hubs, dense local clusters and
    strong community structure, like crawled web graphs.

    Vectorized rounds over a padded ``(n, out_degree)`` out-link table:
    each new node copies slots of a prototype frozen at round start (padding
    ``-1`` marks absent links, which fall back to uniform targets).
    """
    if out_degree < 1 or n <= out_degree + 1:
        raise ValueError("need n > out_degree + 1")
    rng = np.random.default_rng(seed)
    out = np.full((n, out_degree), -1, dtype=np.int64)
    us_chunks: list[np.ndarray] = []
    vs_chunks: list[np.ndarray] = []
    seed_n = out_degree + 1
    for v in range(1, seed_n):  # seed clique
        us_chunks.append(np.full(v, v, dtype=np.int64))
        vs_chunks.append(np.arange(v, dtype=np.int64))
        out[v, :v] = np.arange(v)
    for begin, count in _round_sizes(seed_n, n):
        ids = np.arange(begin, begin + count, dtype=np.int64)
        proto = rng.integers(0, begin, size=count)
        plinks = out[proto]
        copy = (rng.random((count, out_degree)) < alpha) & (plinks >= 0)
        uniform = rng.integers(0, begin, size=(count, out_degree))
        targets = np.where(copy, plinks, uniform)
        keep = ~_row_duplicate_mask(targets)
        out[ids] = np.where(keep, targets, -1)
        flat_keep = keep.ravel()
        us_chunks.append(np.repeat(ids, out_degree)[flat_keep])
        vs_chunks.append(targets.ravel()[flat_keep])
    builder = GraphBuilder(n, dtype_policy=dtype_policy)
    builder.add_edges(np.concatenate(us_chunks), np.concatenate(vs_chunks))
    return builder.build(name=name or f"web-{n}")


# ----------------------------------------------------------------------
# Tiny deterministic fixtures
# ----------------------------------------------------------------------
def clique_pair(size: int = 5, bridges: int = 1, name: str = "clique-pair") -> Graph:
    """Two ``size``-cliques joined by ``bridges`` edges — the canonical
    two-community test fixture."""
    n = 2 * size
    builder = GraphBuilder(n)
    iu, iv = np.triu_indices(size, k=1)
    builder.add_edges(iu, iv)
    builder.add_edges(iu + size, iv + size)
    for b in range(bridges):
        builder.add_edge(b % size, size + (b % size))
    return builder.build(name=name)


def ring(n: int, name: str = "") -> Graph:
    """Cycle graph."""
    src = np.arange(n, dtype=np.int64)
    builder = GraphBuilder(n)
    builder.add_edges(src, (src + 1) % n)
    return builder.build(name=name or f"ring-{n}")


def star(n: int, name: str = "") -> Graph:
    """Star: node 0 is the hub (max-degree load-imbalance fixture)."""
    builder = GraphBuilder(n)
    builder.add_edges(np.zeros(n - 1, np.int64), np.arange(1, n, dtype=np.int64))
    return builder.build(name=name or f"star-{n}")


def complete_graph(n: int, name: str = "") -> Graph:
    """K_n."""
    iu, iv = np.triu_indices(n, k=1)
    builder = GraphBuilder(n)
    builder.add_edges(iu, iv)
    return builder.build(name=name or f"K{n}")
