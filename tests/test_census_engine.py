"""Differential tests of the level census against two former engines.

``search_embeddings`` expands whole blocks of partial assignments one
level at a time over uint64 word domains (``_level_census``) and returns
its members as one read-only (N, t) intp array.  Two earlier engines are
kept here as oracles, and the rows of that array must be their index
tuples, in the same order, with the same node count:

* ``_distance_dfs``, the first census: one (T - t) x N boolean future
  table per node, narrowed by comparing distance-matrix rows;
* ``_bitset_dfs``, the recursive census that came next: one Python-int
  domain per open maximal, one candidate at a time.

The polar-space instances below are checked against the array DFS.
Synthetic distance tables with V in {1, 63, 64, 65, 128, 129} targets,
checked against the bitset DFS (and the array DFS up to 65), put the
word boundaries on both sides; they run once with the default block
budget and once with a budget of a few hundred bytes, so every level is
split into many chunks.  Random pinned prefixes include ones whose later
domains start empty.

The instances are every (polar space, n, k) with a polar space below, n
its form dimension or one more, m <= k <= n and a target of at most 155
vertices, anchored and unanchored, whose census stays under a cap of
about 300,000 oracle nodes.  The micro (W(3,2) in GF(2)^5, k = 3,
anchored; 747,684 nodes) is checked despite the cap.  Over the cap and
left out: W(3,2) in GF(2)^5 with k = 2 and Q(4,2) in GF(2)^5 with k = 2
and k = 3, anchored (747,684 nodes each), and the unanchored census of
both in GF(2)^5 for k = 2 and k = 3 (about 155 times an anchored one).

The search result stores the members, the target, the anchor and the
node count; ``embeddings`` is built from the rows once, on first read.
The members held are bounded by ``_CENSUS_MEMBER_BYTES``, and a census
past it raises TooLarge as soon as the bound is crossed.
"""

import functools
from operator import and_, itemgetter

import numpy as np
import pytest

from qgeom import embed
from qgeom.embed import (
    _distance_words,
    _level_census,
    canonical_embedding,
    search_embeddings,
)
from qgeom.errors import NoValidU, TooLarge
from qgeom.gf import Field
from qgeom.grassmann import grassmann_graph_cached
from qgeom.polar import Form, build_polar_space

GF2, GF3, GF4 = Field(2), Field(3), Field(2, 2)
SYMPLECTIC_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
PARABOLIC_QUAD = [[0, 1, 0, 0, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 1]]

FORMS = {
    "Q+(1,2)": (GF2, Form(GF2, "quadratic", 2, quad=[[0, 1], [0, 0]])),
    "W(1,2)": (GF2, Form(GF2, "alternating", 2, gram=[[0, 1], [1, 0]])),
    "W(1,3)": (GF3, Form(GF3, "alternating", 2, gram=[[0, 1], [2, 0]])),
    "H(1,4)": (GF4, Form(GF4, "hermitian", 2, gram=[[1, 0], [0, 1]])),
    "W(3,2)": (GF2, Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM)),
    "Q(4,2)": (GF2, Form(GF2, "quadratic", 5, quad=PARABOLIC_QUAD)),
}

# (space, n, k, anchor)
RANK_ONE = [(name, n, k, anchor)
            for name in ("Q+(1,2)", "W(1,2)", "W(1,3)", "H(1,4)")
            for n in (2, 3) for k in range(1, n + 1) for anchor in (True, False)]
RANK_TWO = ([("W(3,2)", 4, k, anchor) for k in (2, 3, 4) for anchor in (True, False)]
            + [("W(3,2)", 5, k, True) for k in (3, 4, 5)]
            + [("Q(4,2)", 5, k, True) for k in (4, 5)])
INSTANCES = RANK_ONE + RANK_TWO


KNOWN = {("W(3,2)", 4, 2, False): (20160, 293615),  # the benchmark's full census
         ("W(3,2)", 5, 3, True): (68544, 747684)}   # the micro


@functools.cache
def polar_space(name, n):
    field, form = FORMS[name]
    return build_polar_space(field, n, form)


def rows(members):
    """The member array as the list of index tuples the oracles return."""
    return list(map(tuple, members.tolist()))


# -- the former census, kept as the oracle ------------------------------------------

def _initial_future(DT, DS, prefix, t0):
    T = DS.shape[0]
    N = DT.shape[0]
    fut = np.ones((T - t0, N), dtype=bool)
    for s, v in enumerate(prefix):
        fut &= DT[v][None, :] == DS[s, t0:][:, None]
    return fut


def _distance_dfs(DT, DS, prefix, future, out) -> int:
    T = DS.shape[0]
    t0 = len(prefix)
    nodes = 0
    assign = list(prefix)

    def rec(t, fut):
        nonlocal nodes
        cand = np.flatnonzero(fut[0])
        if t == T - 1:
            nodes += len(cand)
            for v in cand:
                out.append(tuple(assign) + (int(v),))
            return
        for v in cand:
            nodes += 1
            nf = fut[1:] & (DT[v][None, :] == DS[t, t + 1:][:, None])
            if not nf.any(axis=1).all():
                continue
            assign.append(int(v))
            rec(t + 1, nf)
            assign.pop()

    if t0 == T:
        out.append(tuple(assign))
        return 0
    rec(t0, future)
    return nodes


def _distance_masks(DT: np.ndarray, dmax: int) -> list[list[int]]:
    """masks[v][d]: the bitset (a Python int) of the targets w with DT[v, w] == d."""
    per_d = [[int.from_bytes(row.tobytes(), "little")
              for row in np.packbits(DT == d, axis=1, bitorder="little")]
             for d in range(dmax + 1)]
    return [list(row) for row in zip(*per_d)]


def _bitset_dfs(masks, DS, prefix, out) -> int:
    """The recursive bitset census: candidates in ascending order, one
    Python-int domain per unassigned maximal, node count = every
    candidate tried on every level."""
    T = len(DS)
    t0 = len(prefix)
    if t0 == T:
        out.append(tuple(prefix))
        return 0
    domains = []
    for t in range(t0, T):
        dom = (1 << len(masks)) - 1
        for s, v in enumerate(prefix):
            dom &= masks[v][DS[s][t]]
        domains.append(dom)
    pick = [itemgetter(*DS[t][t + 1:], 0) for t in range(T - 1)]
    nodes = 0
    assign = list(prefix)

    def rec(t, doms):
        nonlocal nodes
        cand, rest = doms[0], doms[1:]
        nodes += cand.bit_count()
        if t == T - 1:
            while cand:
                low = cand & -cand
                out.append((*assign, low.bit_length() - 1))
                cand ^= low
            return
        get = pick[t]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            nxt = list(map(and_, rest, get(masks[v])))
            if 0 in nxt:
                continue
            assign.append(v)
            rec(t + 1, nxt)
            assign.pop()

    rec(t0, domains)
    return nodes


def old_search(ps, n, k, anchor):
    """(index tuples, node count, anchored) of the former serial census."""
    target = grassmann_graph_cached(ps.field, n, k)
    DT = target.distance_matrix
    DS = ps.source_distance_matrix()
    prefix = []
    if anchor:
        try:
            prefix = [target.index_of(canonical_embedding(ps, k).images[0])]
        except NoValidU:
            pass
    out = []
    nodes = _distance_dfs(DT, DS, prefix, _initial_future(DT, DS, prefix, len(prefix)), out)
    return out, nodes, bool(prefix)


# -- the differential tests ------------------------------------------------------------

@pytest.mark.parametrize("name,n,k,anchor", INSTANCES,
                         ids=[f"{s}-n{n}-k{k}-{'anchored' if a else 'full'}"
                              for s, n, k, a in INSTANCES])
def test_bitset_census_matches_the_array_dfs(name, n, k, anchor):
    ps = polar_space(name, n)
    res = search_embeddings(ps, n, k, anchor=anchor)
    tuples, nodes, anchored = old_search(ps, n, k, anchor)
    assert res.anchored == anchored
    assert rows(res.members) == tuples
    assert res.nodes == nodes
    vertices = grassmann_graph_cached(ps.field, n, k).vertices
    assert [e.images for e in res.embeddings] == [
        tuple(vertices[v] for v in t) for t in tuples]
    if (name, n, k, anchor) in KNOWN:
        assert (len(tuples), nodes) == KNOWN[name, n, k, anchor]


def test_prefixes_with_empty_later_domains_are_still_searched():
    """A pinned prefix can leave some later domain empty from the start.
    The first open maximal's candidates are still tried and counted, as
    the array DFS did; only a candidate's own narrowing prunes."""
    ps = polar_space("W(3,2)", 4)
    DT = grassmann_graph_cached(GF2, 4, 2).distance_matrix
    DS = ps.source_distance_matrix()
    table = _distance_words(DT, int(DS.max()))
    rng = np.random.default_rng(5)
    empty_start = []
    for size in (2, 3, 4, 5, 6):
        for _ in range(12):
            prefix = [int(v) for v in rng.choice(DT.shape[0], size=size, replace=False)]
            future = _initial_future(DT, DS, prefix, size)
            want = []
            want_nodes = _distance_dfs(DT, DS, prefix, future, want)
            members, nodes = _level_census(table, DS, prefix)
            assert nodes == want_nodes
            assert rows(members) == want
            if future[0].any() and not future.any(axis=1).all():
                empty_start.append(want_nodes)
    assert empty_start and min(empty_start) > 0



# -- synthetic tables across word boundaries ---------------------------------------

def synthetic_tables(V, T, seed):
    """A symmetric V x V target table and a T x T source table, zero on the
    diagonals and uniform on 1..4 elsewhere: sparse enough that the census
    reaches the last level with a few thousand tuples."""
    rng = np.random.default_rng(seed)
    DT = np.triu(rng.integers(1, 5, size=(V, V)), 1).astype(np.int16)
    DS = np.triu(rng.integers(1, 5, size=(T, T)), 1).astype(np.int16)
    return DT + DT.T, DS + DS.T


def both_oracles(DT, DS, prefix):
    want = []
    nodes = _bitset_dfs(_distance_masks(DT, int(DS.max())), DS.tolist(), prefix, want)
    members, level_nodes = _level_census(_distance_words(DT, int(DS.max())), DS, prefix)
    assert level_nodes == nodes
    assert members.dtype == np.intp and members.shape == (len(want), len(DS))
    assert not members.flags.writeable
    got = rows(members)
    array = []
    if len(DT) <= 65:
        fut = _initial_future(DT, DS, prefix, len(prefix))
        assert _distance_dfs(DT, DS, prefix, fut, array) == nodes
        assert array == want
    return got, want, nodes


WORD_SIZES = [1, 63, 64, 65, 128, 129]


@pytest.mark.parametrize("budget", [None, 300], ids=["default-budget", "300-bytes"])
@pytest.mark.parametrize("V", WORD_SIZES)
def test_level_census_matches_the_bitset_dfs_across_word_boundaries(V, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(embed, "_CENSUS_BLOCK_BYTES", budget)
    DT, DS = synthetic_tables(V, 5, seed=V)
    got, want, nodes = both_oracles(DT, DS, [])
    assert got == want
    assert nodes >= V
    if V > 1:
        # the census reaches the last level and the vertices on either
        # side of a word boundary
        assert want and {v for t in want for v in t} >= {0, V - 1}


@pytest.mark.parametrize("budget", [None, 300], ids=["default-budget", "300-bytes"])
@pytest.mark.parametrize("V", WORD_SIZES[1:])
def test_random_prefixes_match_the_bitset_dfs(V, budget, monkeypatch):
    """Pinned prefixes of one to four vertices, repeats allowed, including
    ones whose later domains start empty: the first open maximal's
    candidates are still tried and counted."""
    if budget is not None:
        monkeypatch.setattr(embed, "_CENSUS_BLOCK_BYTES", budget)
    DT, DS = synthetic_tables(V, 6, seed=100 + V)
    rng = np.random.default_rng(V)
    table = _distance_words(DT, int(DS.max()))
    empty_start = 0
    for size in (1, 2, 3, 4, 6):
        for _ in range(12):
            prefix = rng.integers(0, V, size=size).tolist()
            got, want, nodes = both_oracles(DT, DS, prefix)
            assert got == want
            if size < 6:
                future = _initial_future(DT, DS, prefix, size)
                if future[0].any() and not future.any(axis=1).all():
                    empty_start += 1
                    assert nodes == int(future[0].sum())
                    assert not want
            else:
                assert (got, nodes) == ([tuple(prefix)], 0)
    assert empty_start
    members, nodes = _level_census(table, DS, list(range(min(V, 6))))
    assert (rows(members), nodes) == ([tuple(range(min(V, 6)))], 0)


def test_word_table_layout():
    """Bit w % 64 of word w // 64 in row [v, d] is DT[v, w] == d, padding clear."""
    for V in WORD_SIZES:
        DT, _ = synthetic_tables(V, 2, seed=V)
        table = _distance_words(DT, 4)
        assert table.shape == (V, 5, -(-V // 64)) and table.dtype == np.dtype("<u8")
        bits = np.unpackbits(table.view(np.uint8), axis=2, bitorder="little")
        assert (bits[:, :, :V] == (DT[:, None, :] == np.arange(5)[:, None])).all()
        assert not bits[:, :, V:].any()


# -- the search result -----------------------------------------------------------------

def test_search_result_stores_members_and_builds_embeddings_once():
    """The result stores one read-only member array; ``embeddings`` is built
    from its rows on first read and the same list is returned after."""
    ps = polar_space("W(3,2)", 4)
    res = search_embeddings(ps, 4, 2, anchor=True)
    assert set(vars(res)) == {"source", "target", "members", "anchor_index", "nodes"}
    assert res.members.dtype == np.intp and res.members.shape == (576, len(ps.maximals))
    assert not res.members.flags.writeable
    assert res.anchored and res.anchored == (res.anchor_index is not None)
    assert len(res) == 576
    assert "embeddings" not in vars(res)
    embeddings = res.embeddings
    assert res.embeddings is embeddings
    assert [e.images for e in embeddings] == [
        tuple(res.target.vertices[v] for v in row) for row in res.members.tolist()]
    assert all(e.source is ps and e.target_k == 2 for e in embeddings)
    full = search_embeddings(ps, 4, 2, anchor=False)
    assert not full.anchored and full.anchor_index is None
    assert res != full and res == res
    assert not hasattr(res, "index_tuples")


@pytest.mark.parametrize("slack,raises", [(0, False), (-1, True)])
def test_members_past_the_byte_budget_raise_too_large(slack, raises, monkeypatch):
    """The census holds at most ``_CENSUS_MEMBER_BYTES`` of members: the
    576 x 15 intp members of W(3,2) in Gamma_2(GF(2)^4) fit a budget of
    their own size and not one byte less."""
    ps = polar_space("W(3,2)", 4)
    size = 576 * len(ps.maximals) * np.dtype(np.intp).itemsize
    monkeypatch.setattr(embed, "_CENSUS_MEMBER_BYTES", size + slack)
    if raises:
        with pytest.raises(TooLarge, match="census members pass"):
            search_embeddings(ps, 4, 2, anchor=True)
    else:
        assert search_embeddings(ps, 4, 2, anchor=True).members.nbytes == size


def test_the_member_budget_stops_the_search_early(monkeypatch):
    """With a budget below the first block of members, the search stops at
    that block instead of finishing the census."""
    ps = polar_space("W(3,2)", 4)
    DT = grassmann_graph_cached(GF2, 4, 2).distance_matrix
    DS = ps.certified_distances
    table = _distance_words(DT, int(DS.max()))
    visited = []
    real = embed._unpack_rows

    def counting(words, V):
        visited.append(len(words))
        return real(words, V)

    monkeypatch.setattr(embed, "_unpack_rows", counting)
    _level_census(table, DS, [])
    full = len(visited)
    visited.clear()
    monkeypatch.setattr(embed, "_CENSUS_MEMBER_BYTES", 0)
    with pytest.raises(TooLarge):
        _level_census(table, DS, [])
    assert 0 < len(visited) < full
