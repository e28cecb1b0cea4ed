"""Differential test of the bitset census against the former array DFS.

``old_search`` below is the census as it ran before the bitset engine:
one (T - t) x N boolean future table per node, narrowed by comparing
distance-matrix rows.  It is the oracle: the bitset search must return
the same index tuples, in the same order, and the same node count.

The instances are every (polar space, n, k) with a polar space below, n
its form dimension or one more, m <= k <= n and a target of at most 155
vertices, anchored and unanchored, whose census stays under a cap of
about 300,000 oracle nodes.  The micro (W(3,2) in GF(2)^5, k = 3,
anchored; 747,684 nodes) is checked despite the cap.  Over the cap and
left out: W(3,2) in GF(2)^5 with k = 2 and Q(4,2) in GF(2)^5 with k = 2
and k = 3, anchored (747,684 nodes each), and the unanchored census of
both in GF(2)^5 for k = 2 and k = 3 (about 155 times an anchored one).
"""

import functools

import numpy as np
import pytest

from qgeom.embed import (
    _bitset_dfs,
    _distance_masks,
    canonical_embedding,
    search_embeddings,
)
from qgeom.errors import NoValidU
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
    assert res.index_tuples == tuples
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
    masks = _distance_masks(DT, int(DS.max()))
    rng = np.random.default_rng(5)
    empty_start = []
    for size in (2, 3, 4, 5, 6):
        for _ in range(12):
            prefix = [int(v) for v in rng.choice(DT.shape[0], size=size, replace=False)]
            future = _initial_future(DT, DS, prefix, size)
            want = []
            want_nodes = _distance_dfs(DT, DS, prefix, future, want)
            got = []
            assert _bitset_dfs(masks, DS.tolist(), prefix, got) == want_nodes
            assert got == want
            if future[0].any() and not future.any(axis=1).all():
                empty_start.append(want_nodes)
    assert empty_start and min(empty_start) > 0

