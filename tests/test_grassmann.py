import warnings
from itertools import combinations

import numpy as np
import pytest

from qgeom.errors import (
    BadIndex,
    DimensionMismatch,
    Disconnected,
    NotDistanceRegular,
    TooLarge,
)
from qgeom.gf import Field
from qgeom.grassmann import (
    FiniteGraph,
    GrassmannGraph,
    count_by_enumeration,
    duality_map,
    duality_permutation,
    enum_grassmannian,
    gaussian_binomial,
    grassmann_distance,
    intersection_numbers,
    star,
)
from qgeom.subspace import Subspace, projective_point_reps

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)


def naive_grassmannian(field, n, k):
    """Oracle: spans of all k-tuples of nonzero vectors, deduplicated."""
    vectors = [v for v in Subspace.full(field, n).all_vectors() if v.any()]
    seen = set()
    for tup in combinations(range(len(vectors)), k):
        S = Subspace.span(field, np.array([vectors[i] for i in tup]))
        if S.dim == k:
            seen.add(S)
    return seen


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 3, 2) == 155
    assert gaussian_binomial(6, 3, 2) == 1395
    for n in range(7):
        assert gaussian_binomial(n, 0, 3) == 1
        assert gaussian_binomial(n, n, 5) == 1


def test_gaussian_binomial_symmetry_and_bounds():
    for q in (2, 3, 4):
        for n in range(7):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
    assert gaussian_binomial(3, 5, 2) == 0


def test_enumeration_counts_match_formula():
    for q, f in ((2, GF2), (3, GF3), (4, GF4)):
        for n in range(5):
            for k in range(n + 1):
                assert count_by_enumeration(f, n, k) == gaussian_binomial(n, k, q)


def test_enumeration_against_naive_span_oracle():
    got = set(enum_grassmannian(GF2, 4, 2))
    assert got == naive_grassmannian(GF2, 4, 2)
    got53 = set(enum_grassmannian(GF2, 5, 3))
    assert len(got53) == 155
    assert got53 == naive_grassmannian(GF2, 5, 3)


def test_enumeration_full_space():
    vs = enum_grassmannian(GF3, 4, 4)
    assert len(vs) == 1
    assert vs[0] == Subspace.full(GF3, 4)


def test_enumeration_sorted_unique_rref():
    vs = enum_grassmannian(GF3, 4, 2)
    assert len(vs) == 130
    assert all(vs[i] < vs[i + 1] for i in range(len(vs) - 1))
    for S in vs:
        R = Subspace.span(GF3, S.basis)
        assert R == S


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enum_grassmannian(GF2, 6, 3, cap=1000)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_grassmann_distance_basics():
    A = Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    B = Subspace.span(GF2, [[0, 1, 0, 0], [0, 0, 1, 0]])
    C = Subspace.span(GF2, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert grassmann_distance(A, A) == 0
    assert grassmann_distance(A, B) == 1
    assert grassmann_distance(A, C) == 2
    with pytest.raises(DimensionMismatch):
        grassmann_distance(A, Subspace.span(GF2, [[1, 0, 0, 0]]))


def test_bfs_equals_formula_exhaustive():
    """BFS and k - dim(A ∩ B) agree on every pair of three graphs."""
    for f, n, k in [(GF2, 4, 2), (GF2, 5, 3), (GF3, 4, 2)]:
        g = GrassmannGraph(f, n, k)
        D = g.distance_matrix
        for i in range(g.n_vertices):
            for j in range(g.n_vertices):
                assert int(D[i, j]) == grassmann_distance(g.vertices[i], g.vertices[j])
        assert g.diameter() == min(k, n - k)


def test_bfs_distance_api():
    g = GrassmannGraph(GF2, 4, 2)
    assert g.bfs_distance(0, 0) == 0
    v = int(g.adj[0][0])
    assert g.bfs_distance(0, v) == 1
    with pytest.raises(BadIndex):
        g.bfs_distance(0, 99)


def test_bfs_unreachable_is_distinct():
    g = FiniteGraph(["a", "b", "c"], [[1], [0], []])
    assert g.bfs_distance(0, 2) is None
    assert g.bfs_distance(0, 1) == 1
    assert not g.is_connected()


@pytest.mark.parametrize("adj", [
    [[-1], [], []],
    [[1], [0, 3], []],
    [np.array([2, 5]), [], [0]],
    [[], [], [0, 1, 0x7fffffff]],
])
def test_out_of_range_neighbours_are_a_bad_index(adj):
    """-1 used to wrap to the last vertex (D[0, 2] = 1 but D[2, 0] = -1)
    and an index past the end was a raw numpy IndexError at the first
    distance."""
    with pytest.raises(BadIndex, match="out of range"):
        FiniteGraph(["a", "b", "c"], adj)


def test_repeated_neighbours_are_still_allowed():
    g = FiniteGraph(["a", "b", "c"], [[1, 1], [0, 0, 2], [1]])
    assert [a.tolist() for a in g.adj] == [[1, 1], [0, 0, 2], [1]]
    assert g.distance_matrix.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


@pytest.mark.parametrize("indices", [[-1, 1], [1, 1], [0, 3], [2, 0, 2]])
def test_subgraph_takes_distinct_indices_in_range(indices):
    """On the path a-b-c, [-1, 1] gave an asymmetric graph and [1, 1]
    repeated the label b."""
    g = FiniteGraph(["a", "b", "c"], [[1], [0, 2], [1]])
    with pytest.raises(BadIndex):
        g.subgraph(indices)
    h = g.subgraph([2, 1])
    assert h.vertices == ("c", "b")
    assert h.distance_matrix.tolist() == [[0, 1], [1, 0]]


# ---------------------------------------------------------------------------
# stars
# ---------------------------------------------------------------------------

def test_star_point_in_gf2_4():
    U = Subspace.span(GF2, [[0, 0, 0, 1]])
    got = star(U, 2)
    assert len(got) == gaussian_binomial(3, 1, 2) == 7
    # filter oracle
    want = [S for S in enum_grassmannian(GF2, 4, 2) if S.contains(U)]
    assert got == want


def test_star_zero_subspace_is_whole_grassmannian():
    U = Subspace.zero(GF2, 4)
    assert star(U, 2) == enum_grassmannian(GF2, 4, 2)


def test_star_dimension_errors():
    U = Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        star(U, 2)
    with pytest.raises(DimensionMismatch):
        star(U, 5)


def test_star_filter_oracle_gf3():
    U = Subspace.span(GF3, [[1, 1, 0, 2]])
    got = star(U, 2)
    want = [S for S in enum_grassmannian(GF3, 4, 2) if S.contains(U)]
    assert got == want
    assert len(got) == gaussian_binomial(3, 1, 3)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_duality_zero_and_full():
    assert duality_map(Subspace.zero(GF2, 4)) == Subspace.full(GF2, 4)


def test_duality_involution_and_isomorphism_n4():
    g = GrassmannGraph(GF2, 4, 2)
    perm = duality_permutation(g, g)  # n = 2k: the dual graph is the same object
    assert sorted(int(x) for x in perm) == list(range(35))
    assert (perm[perm] == np.arange(35)).all()  # involution
    A = np.zeros((35, 35), dtype=bool)
    for i, nbrs in enumerate(g.adj):
        A[i, nbrs] = True
    assert np.array_equal(A, A[np.ix_(perm, perm)])


def test_duality_isomorphism_n5():
    g = GrassmannGraph(GF2, 5, 2)
    g_dual = GrassmannGraph(GF2, 5, 3)
    perm = duality_permutation(g, g_dual)
    for i in range(g.n_vertices):
        mapped = sorted(int(perm[v]) for v in g.adj[i])
        assert mapped == list(g_dual.adj[perm[i]])


# ---------------------------------------------------------------------------
# distance regularity, empirically
# ---------------------------------------------------------------------------

def test_intersection_numbers_complete_graph():
    k4 = FiniteGraph(range(4), [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    assert intersection_numbers(k4) == {1: (1, 2, 0)}


def test_intersection_numbers_path_not_dr():
    p4 = FiniteGraph(range(4), [[1], [0, 2], [1, 3], [2]])
    with pytest.raises(NotDistanceRegular):
        intersection_numbers(p4)


def test_intersection_numbers_disconnected():
    g = FiniteGraph(range(4), [[1], [0], [3], [2]])
    with pytest.raises(Disconnected):
        intersection_numbers(g)


def test_intersection_numbers_grassmann():
    g = GrassmannGraph(GF2, 4, 2)
    table = intersection_numbers(g)
    assert sorted(table) == [1, 2]
    c1, a1, b1 = table[1]
    assert c1 == 1
    # counts are consistent with regularity: c_i + a_i + b_i = degree
    deg = set(g.degree_sequence())
    assert deg == {sum(table[1])}
    assert sum(table[2]) == sum(table[1])


# ---------------------------------------------------------------------------
# graph construction details
# ---------------------------------------------------------------------------

def test_trivial_k_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GrassmannGraph(GF2, 3, 1)
    assert any("complete or trivial" in str(w.message) for w in caught)


def test_adjacency_symmetric_irreflexive():
    g = GrassmannGraph(GF3, 4, 2)
    for i, nbrs in enumerate(g.adj):
        assert i not in set(int(x) for x in nbrs)
        for j in nbrs:
            assert i in set(int(x) for x in g.adj[int(j)])


def test_vertex_count_is_gaussian_binomial():
    for f, n, k in [(GF2, 4, 2), (GF3, 4, 2), (GF4, 3, 2)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GrassmannGraph(f, n, k)
        assert g.n_vertices == gaussian_binomial(n, k, f.q)


def test_projective_reps_count_matches_star_counts():
    reps = projective_point_reps(GF2, 4)
    assert reps.shape[0] == gaussian_binomial(4, 1, 2) == 15
