"""Differential tests of the member-bitset kernel and the word-row BFS.

The RREF path (``Subspace.intersection_dim``, ``rank``) is the oracle for
the bitset kernel; ``FiniteGraph._bfs_row`` (plain queue BFS) is the
oracle for the level-synchronous distance matrix, and a per-pair count
over the adjacency lists is the oracle for the popcount neighbour counts
of ``intersection_numbers``.
"""

import warnings

import numpy as np
import pytest

from qgeom import grassmann, subspace
from qgeom.errors import AmbientMismatch, FieldMismatch, NotDistanceRegular, TooLarge
from qgeom.gf import Field
from qgeom.grassmann import (
    FiniteGraph,
    GrassmannGraph,
    enum_grassmannian,
    gaussian_binomial,
    intersection_numbers,
)
from qgeom.polar import Form, build_polar_space, dual_polar_graph
from qgeom.subspace import Subspace, pairwise_intersection_dims, rank

FIELDS = [Field(2), Field(3), Field(2, 2), Field(5), Field(2, 3), Field(3, 2)]
VERTEX_CAP = 60

SYMPLECTIC_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
PARABOLIC_QUAD = [[0, 1, 0, 0, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 1]]


def rref_table(spaces):
    t = len(spaces)
    out = np.zeros((t, t), dtype=np.int64)
    for i in range(t):
        for j in range(t):
            out[i, j] = spaces[i].intersection_dim(spaces[j])
    return out


def small_cases():
    """Every (field, n, k) whose Grassmannian has at most VERTEX_CAP members."""
    for f in FIELDS:
        for n in range(0, 6):
            for k in range(0, n + 1):
                if gaussian_binomial(n, k, f.q) <= VERTEX_CAP:
                    yield f, n, k


def mixed_list(f, n):
    """Subspaces of every dimension of GF(q)^n, thinned to about VERTEX_CAP."""
    spaces = []
    for k in range(n + 1):
        spaces.extend(enum_grassmannian(f, n, k))
    stride = max(1, len(spaces) // VERTEX_CAP)
    return spaces[::stride][:VERTEX_CAP] + [Subspace.zero(f, n), Subspace.full(f, n)]


def polar_spaces():
    gf2, gf3, gf4 = Field(2), Field(3), Field(2, 2)
    yield build_polar_space(gf2, 4, Form(gf2, "alternating", 4, gram=SYMPLECTIC_GRAM))
    yield build_polar_space(gf2, 5, Form(gf2, "alternating", 4, gram=SYMPLECTIC_GRAM))
    yield build_polar_space(gf2, 5, Form(gf2, "quadratic", 5, quad=PARABOLIC_QUAD))
    yield build_polar_space(gf4, 4, Form(gf4, "hermitian", 4,
                                         gram=np.eye(4, dtype=np.uint8)))
    yield build_polar_space(gf3, 4, Form(gf3, "alternating", 4,
                                         gram=[[0, 1, 0, 0], [2, 0, 0, 0],
                                               [0, 0, 0, 1], [0, 0, 2, 0]]))


def grassmann_graph(f, n, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GrassmannGraph(f, n, k)


def path(n):
    return FiniteGraph(range(n), [[j for j in (i - 1, i + 1) if 0 <= j < n]
                                  for i in range(n)])


def bfs_rows(g):
    return np.vstack([g._bfs_row(s) for s in range(g.n_vertices)])


# ---------------------------------------------------------------------------
# pairwise_intersection_dims against the RREF oracle
# ---------------------------------------------------------------------------

def test_kernel_matches_rref_on_every_small_grassmannian():
    seen = set()
    for f, n, k in small_cases():
        spaces = enum_grassmannian(f, n, k)
        got = pairwise_intersection_dims(spaces)
        assert got.shape == (len(spaces), len(spaces))
        assert np.array_equal(got, rref_table(spaces)), (f, n, k)
        seen.add((f.q, k == 0, k == 1, k == n))
    # every field, with k = 0, k = 1 and k = n all covered
    assert {q for q, *_ in seen} == {2, 3, 4, 5, 8, 9}
    assert any(s[1] for s in seen) and any(s[2] for s in seen) and any(s[3] for s in seen)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_kernel_matches_rref_on_mixed_dimensions(f):
    for n in (2, 3):
        spaces = mixed_list(f, n)
        assert len({s.dim for s in spaces}) == n + 1
        assert np.array_equal(pairwise_intersection_dims(spaces), rref_table(spaces))


def test_kernel_edge_inputs():
    f = Field(3)
    assert pairwise_intersection_dims([]).shape == (0, 0)
    assert pairwise_intersection_dims([Subspace.zero(f, 0)]).tolist() == [[0]]
    with pytest.raises(AmbientMismatch):
        pairwise_intersection_dims([Subspace.full(f, 2), Subspace.full(f, 3)])
    with pytest.raises(FieldMismatch):
        pairwise_intersection_dims([Subspace.full(f, 2), Subspace.full(Field(2), 2)])


# ---------------------------------------------------------------------------
# adjacency against the old rank rule
# ---------------------------------------------------------------------------

def rank_rule_adjacency(field, vertices, k):
    """Adjacent iff the stacked bases have rank k + 1, i.e. dim(A ∩ B) = k - 1."""
    adj = [[] for _ in vertices]
    for i, a in enumerate(vertices):
        for j, b in enumerate(vertices):
            if i != j and rank(field, np.vstack([a.basis, b.basis])) == k + 1:
                adj[i].append(j)
    return adj


def test_grassmann_adjacency_matches_rank_rule():
    for f, n, k in list(small_cases()) + [(Field(2), 5, 2), (Field(3), 4, 2)]:
        g = grassmann_graph(f, n, k)
        expected = rank_rule_adjacency(f, g.vertices, k)
        assert [a.tolist() for a in g.adj] == expected, (f, n, k)


def test_dual_polar_adjacency_matches_rank_rule():
    for ps in polar_spaces():
        g = dual_polar_graph(ps)
        expected = rank_rule_adjacency(ps.field, ps.maximals, ps.rank)
        assert [a.tolist() for a in g.adj] == expected


# ---------------------------------------------------------------------------
# word-row BFS against the queue BFS
# ---------------------------------------------------------------------------

def test_distance_matrix_matches_bfs_rows():
    graphs = [grassmann_graph(f, n, k)
              for f, n, k in [(Field(2), 4, 2), (Field(2), 5, 2), (Field(3), 4, 2),
                              (Field(2, 2), 4, 2), (Field(2), 4, 1)]]
    graphs += [dual_polar_graph(ps) for ps in polar_spaces()]
    graphs += [path(1), path(2), path(7)]
    for g in graphs:
        assert np.array_equal(g.distance_matrix, bfs_rows(g))
        assert g.distance_matrix.dtype == np.int16


def test_distance_matrix_disconnected_has_minus_one():
    # a triangle, an isolated vertex and an edge
    g = FiniteGraph(range(6), [[1, 2], [0, 2], [0, 1], [], [5], [4]])
    D = g.distance_matrix
    assert np.array_equal(D, bfs_rows(g))
    assert D[0, 3] == -1 and D[3, 3] == 0 and D[4, 5] == 1 and D[0, 4] == -1
    assert not g.is_connected()
    assert g.bfs_distance(0, 5) is None


def test_intersection_numbers_path_p4_message():
    with pytest.raises(NotDistanceRegular) as exc:
        intersection_numbers(path(4))
    assert str(exc.value.args[0]) == (
        "distance-1 counts differ: pair (0, 1) gives (1, 0, 1), "
        "pair (1, 0) gives (1, 0, 0)")
    assert exc.value.args[1] == (1, (0, 1, 1, 0, 1), (1, 0, (1, 0, 0)))


def test_intersection_numbers_count_repeated_neighbors():
    # the 4-cycle with every edge listed twice: each count doubles
    g = FiniteGraph(range(4), [[1, 1, 3, 3], [0, 0, 2, 2], [1, 1, 3, 3], [0, 0, 2, 2]])
    assert intersection_numbers(g) == {1: (2, 0, 2), 2: (4, 0, 0)}


def random_graph(V, seed, symmetric=True):
    """Sparse random adjacency lists; unsymmetric ones may list a
    neighbour twice and leave vertices unreachable."""
    rng = np.random.default_rng(seed)
    adj = [[] for _ in range(V)]
    for u in range(V):
        for v in rng.choice(V, size=min(V, 3), replace=False).tolist():
            if v != u:
                adj[u].append(v)
                if symmetric:
                    adj[v].append(u)
    return FiniteGraph(range(V), adj)


def direct_intersection_numbers(g):
    """The intersection array, or the NotDistanceRegular args, from a
    per-pair count over the adjacency lists in row-major order."""
    D = bfs_rows(g)
    n = g.n_vertices
    table, witness = {}, {}
    for lo in range(n):
        cab = {}
        for v in range(n):
            i = int(D[lo, v])
            counts = [0, 0, 0]
            for w in g.adj[v].tolist():
                if D[lo, w] in (i - 1, i, i + 1):
                    counts[int(D[lo, w]) - i + 1] += 1
            cab[v] = tuple(counts)
            if i != 0 and i not in table:
                table[i], witness[i] = cab[v], (lo, v)
        for v in range(n):
            i = int(D[lo, v])
            if i in table and cab[v] != table[i]:
                return (f"distance-{i} counts differ: pair {witness[i]} gives "
                        f"{table[i]}, pair {(lo, v)} gives {cab[v]}",
                        (i, witness[i] + table[i], (lo, v, cab[v])))
    return {i: table[i] for i in sorted(table)}


@pytest.mark.parametrize("budget", [None, 64], ids=["default-budget", "64-bytes"])
@pytest.mark.parametrize("V", [1, 63, 64, 65, 128, 129])
def test_word_rows_across_word_boundaries(V, budget, monkeypatch):
    """BFS and neighbour counts on random graphs whose vertex counts sit on
    both sides of a 64-bit word boundary, the counts one row per block
    when the budget is 64 bytes."""
    if budget is not None:
        monkeypatch.setattr(grassmann, "_SOURCE_BLOCK_BYTES", budget)
    for seed in range(3):
        g = random_graph(V, seed)
        assert np.array_equal(g.distance_matrix, bfs_rows(g))
        if g.is_connected():
            want = direct_intersection_numbers(g)
            try:
                got = intersection_numbers(g)
            except NotDistanceRegular as exc:
                got = exc.args
            assert got == want
        directed = random_graph(V, seed, symmetric=False)
        assert np.array_equal(directed.distance_matrix, bfs_rows(directed))


def test_intersection_numbers_match_a_direct_count():
    """Distance-regular graphs (with and without doubled edges) and
    non-regular ones: the same array, or the same first failing pair."""
    graphs = [grassmann_graph(Field(2), 4, 2), grassmann_graph(Field(3), 4, 2),
              path(5), FiniteGraph(range(5), [[1, 1, 4], [0, 0, 2], [1, 3], [2, 4], [3, 0]])]
    graphs += [dual_polar_graph(ps) for ps in polar_spaces()]
    for g in graphs:
        want = direct_intersection_numbers(g)
        try:
            got = intersection_numbers(g)
        except NotDistanceRegular as exc:
            got = exc.args
        assert got == want


# ---------------------------------------------------------------------------
# shrunken block budgets: many blocks, same answers
# ---------------------------------------------------------------------------

def test_small_budgets_give_identical_results(monkeypatch):
    f = Field(2, 2)
    spaces = mixed_list(f, 3)
    kernel = pairwise_intersection_dims(spaces)
    g = grassmann_graph(Field(3), 4, 2)
    D, ia = g.distance_matrix, intersection_numbers(g)
    p4 = pytest.raises(NotDistanceRegular, intersection_numbers, path(4)).value.args

    # three rows of the GF(3)^4 table (130 two-word bitsets) per block; the
    # mixed list and the member products split into several blocks too
    monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", 3 * 130 * 2 * 8)
    monkeypatch.setattr(grassmann, "_SOURCE_BLOCK_BYTES", 64)
    assert np.array_equal(pairwise_intersection_dims(spaces), kernel)
    g2 = grassmann_graph(Field(3), 4, 2)
    assert [a.tolist() for a in g2.adj] == [a.tolist() for a in g.adj]
    assert np.array_equal(g2.distance_matrix, D)
    assert intersection_numbers(g2) == ia
    assert pytest.raises(NotDistanceRegular, intersection_numbers, path(4)).value.args == p4


def test_bitset_table_over_budget_is_too_large(monkeypatch):
    spaces = enum_grassmannian(Field(2), 4, 2)  # 35 one-word bitsets: 280 bytes
    monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", 35 * 8)
    assert pairwise_intersection_dims(spaces).shape == (35, 35)
    monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", 35 * 8 - 1)
    with pytest.raises(TooLarge):
        pairwise_intersection_dims(spaces)
