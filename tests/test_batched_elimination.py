"""Tests of the batched elimination kernel and the formula sides built on it.

``rank`` (one matrix at a time) is the oracle for ``rank_stack``.  The
error-parity cases pin the exception type, message and payload that the
former per-pair loops of ``verify_isometric`` and ``check_line_images``
raised, so the batched versions must report the same first failure.  The
independence guard shows that the formula sides never read the
member-bitset kernel, which the graph side uses.
"""

import numpy as np
import pytest

from qgeom import grassmann, polar, subspace
from qgeom.embed import (
    Embedding,
    analyze_embedding,
    canonical_embedding,
    check_line_images,
    extract_star_subspace,
    induce_point_map,
    reduce_to_quotient,
    verify_isometric,
)
from qgeom.errors import (
    ContainmentViolation,
    DimensionMismatch,
    DistanceViolation,
    PartialLine,
    QGeomError,
)
from qgeom.gf import Field
from qgeom.grassmann import FiniteGraph, grassmann_graph_cached
from qgeom.polar import Form, build_polar_space, dual_polar_graph
from qgeom.subspace import Subspace, rank, rank_stack

GF2, GF3, GF4 = Field(2), Field(3), Field(2, 2)
FIELDS = {2: Field(2), 3: Field(3), 4: Field(2, 2), 5: Field(5), 7: Field(7),
          8: Field(2, 3), 9: Field(3, 2), 16: Field(2, 4)}
SYMPLECTIC_2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
SYMPLECTIC_3 = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]


def w32(n):
    return build_polar_space(GF2, n, Form(GF2, "alternating", 4, gram=SYMPLECTIC_2))


def w33(n):
    return build_polar_space(GF3, n, Form(GF3, "alternating", 4, gram=SYMPLECTIC_3))


def h34(n):
    return build_polar_space(GF4, n, Form(GF4, "hermitian", 4,
                                          gram=np.eye(4, dtype=np.uint8)))


@pytest.fixture(scope="module")
def spaces():
    return {"w32_4": w32(4), "w32_5": w32(5), "w33_4": w33(4),
            "w33_5": w33(5), "h34_4": h34(4), "h34_5": h34(5)}


# ---------------------------------------------------------------------------
# rank_stack against rank
# ---------------------------------------------------------------------------

def random_stack(rng, q, B, r, n):
    """Random matrices, with all-zero, duplicate-row and rank-one members."""
    S = rng.integers(0, q, size=(B, r, n)).astype(np.uint8)
    if B and r and n:
        S[::4] = 0
        if r > 1:
            S[1::4, -1] = S[1::4, 0]
        scale = rng.integers(0, q, size=(B, r, 1)).astype(np.uint8)
        S[2::4] = FIELDS[q].mul_table[scale[2::4], S[2::4, :1, :]]
    return S


def oracle(field, S):
    return np.array([rank(field, m) for m in S], dtype=np.int64)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_rank_stack_matches_rank(q):
    field = FIELDS[q]
    rng = np.random.default_rng(q)
    for B, r, n in [(0, 3, 4), (5, 0, 4), (40, 6, 5), (40, 4, 4), (30, 8, 3),
                    (30, 3, 8), (10, 1, 1), (20, 5, 1), (20, 1, 6)]:
        S = random_stack(rng, q, B, r, n)
        got = rank_stack(field, S)
        assert got.dtype == np.int64 and got.shape == (B,)
        assert np.array_equal(got, oracle(field, S)), (B, r, n)


def test_rank_stack_edge_inputs():
    assert rank_stack(GF3, np.zeros((0, 0, 0), dtype=np.uint8)).shape == (0,)
    assert rank_stack(GF3, np.zeros((3, 2, 0), dtype=np.uint8)).tolist() == [0, 0, 0]
    assert rank_stack(GF3, [[[1, 2], [2, 1]], [[1, 2], [1, 1]]]).tolist() == [1, 2]
    with pytest.raises(DimensionMismatch):
        rank_stack(GF3, np.zeros((2, 2), dtype=np.uint8))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rank_stack_over_several_blocks(monkeypatch, q):
    field = FIELDS[q]
    S = random_stack(np.random.default_rng(100 + q), q, 101, 6, 5)
    expected = oracle(field, S)
    # 4 * r * n = 120 bytes per matrix: blocks of 3 matrices, then of 1
    for budget in (360, 1):
        monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", budget)
        assert np.array_equal(rank_stack(field, S), expected)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_stack_range_check_matches_rank(q):
    field = FIELDS[q]
    S = random_stack(np.random.default_rng(q), q, 6, 3, 4)
    S[4, 1, 2] = q
    with pytest.raises(ValueError) as single:
        rank(field, S[4])
    with pytest.raises(ValueError) as stacked:
        rank_stack(field, S)
    assert str(stacked.value) == str(single.value)


# ---------------------------------------------------------------------------
# the batched formula sides against the per-pair rules they replace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["w32_5", "w33_5", "h34_5"])
def test_incidence_and_source_distances_match_pair_rules(spaces, name):
    ps = build_polar_space(spaces[name].field, 5, spaces[name].form)
    for i, P in enumerate(ps.points):
        assert ps.maximals_through_point(i) == tuple(
            t for t, M in enumerate(ps.maximals) if M.contains(P))
    for l, L in enumerate(ps.lines):
        assert ps.maximals_through_line(l) == tuple(
            t for t, M in enumerate(ps.maximals) if M.contains(L))
    assert all(type(t) is int for t in ps.maximals_through_point(0))
    with pytest.raises(IndexError):
        ps.maximals_through_point(len(ps.points))
    D = ps.source_distance_matrix()
    assert D.dtype == np.int16 and not D.flags.writeable
    t = len(ps.maximals)
    expected = np.array([[ps.rank - ps.maximals[i].intersection_dim(ps.maximals[j])
                          if i != j else 0 for j in range(t)] for i in range(t)])
    assert np.array_equal(D, expected)


# ---------------------------------------------------------------------------
# error parity: the first failing pair or triple, as the per-pair loops had it
# ---------------------------------------------------------------------------

def swapped(ps, k, a, b):
    images = list(canonical_embedding(ps, k).images)
    images[a], images[b] = images[b], images[a]
    return Embedding(ps, k, images)


@pytest.mark.parametrize("name, k, a, b, payload", [
    ("w32_5", 3, 0, 1, (0, 3, 1, 2)),
    ("w33_5", 3, 7, 23, (0, 7, 2, 1)),
    ("w33_4", 2, 2, 30, (0, 2, 1, 2)),
    ("h34_5", 3, 11, 20, (1, 11, 2, 1)),
])
def test_distance_violation_parity(spaces, name, k, a, b, payload):
    with pytest.raises(DistanceViolation) as exc:
        verify_isometric(swapped(spaces[name], k, a, b))
    i, j, expected, got = payload
    assert exc.value.args == (
        f"pair ({i}, {j}): source distance {expected}, image distance {got}", payload)
    assert all(type(x) is int for x in exc.value.args[1])


@pytest.mark.parametrize("name, pairs, swap, first", [
    ("w32_4", [(5, 9), (2, 11)], None, (2, 11)),
    ("w32_4", [(0, 2)], (6, 7), (0, 2)),
    ("w32_4", [(10, 12)], (0, 1), None),
    ("w33_4", [(30, 31), (4, 38)], None, (4, 38)),
])
def test_grassmann_crosscheck_parity(spaces, monkeypatch, name, pairs, swap, first):
    ps = spaces[name]
    images = list(canonical_embedding(ps, 2).images)
    if swap:
        images[swap[0]], images[swap[1]] = images[swap[1]], images[swap[0]]
    G = grassmann_graph_cached(ps.field, 4, 2)
    bad = G.distance_matrix.copy()
    for i, j in pairs:
        u, v = G.index_of(images[i]), G.index_of(images[j])
        bad[u, v] = bad[v, u] = bad[u, v] + 1
    monkeypatch.setattr(G, "_dist", bad)
    with pytest.raises(QGeomError) as exc:
        verify_isometric(Embedding(ps, 2, images))
    if first is None:
        # a distance violation at an earlier pair comes first
        assert type(exc.value) is DistanceViolation
        assert exc.value.args[1] == (0, 3, 1, 2)
    else:
        assert type(exc.value) is QGeomError
        assert exc.value.args == (
            "Grassmann BFS distance disagrees with k - dim intersection at "
            f"image pair {first}",)


@pytest.mark.parametrize("name, report", [
    ("w32_5", {"pairs_checked": 105, "bfs_crosschecked": True}),
    ("w33_5", {"pairs_checked": 780, "bfs_crosschecked": False}),
    ("h34_5", {"pairs_checked": 351, "bfs_crosschecked": False}),
])
def test_verify_report_parity(spaces, name, report):
    assert verify_isometric(canonical_embedding(spaces[name], 3)) == report


def reduced(ps):
    e = canonical_embedding(ps, 3)
    g = reduce_to_quotient(e, extract_star_subspace(e))
    return g, list(induce_point_map(g))


@pytest.mark.parametrize("name, point, vector, payload", [
    ("w32_5", 0, [1, 1, 1, 1], (0, 3, 0)),
    ("w33_5", 17, [1, 2, 0, 1], (2, 17, 6)),
    ("w33_5", 25, 3, (9, 25, 10)),
    ("h34_5", 20, [1, 3, 2, 1], (7, 20, 4)),
])
def test_containment_violation_parity(spaces, name, point, vector, payload):
    ps = spaces[name]
    g, q_map = reduced(ps)
    q_map[point] = (q_map[vector] if isinstance(vector, int)
                    else Subspace.span(ps.field, [vector]))
    with pytest.raises(ContainmentViolation) as exc:
        check_line_images(ps, g, tuple(q_map))
    P, Q, t = payload
    assert exc.value.args == (
        f"image of maximal {t} misses q(P) + q(Q) for points ({P}, {Q})", payload)


@pytest.mark.parametrize("name, lines, containments", [
    ("w32_5", 15, 45), ("w33_5", 40, 240), ("h34_5", 27, 270)])
def test_line_report_parity(spaces, name, lines, containments):
    ps = spaces[name]
    g, q_map = reduced(ps)
    assert check_line_images(ps, g, tuple(q_map)) == {
        "lines_checked": lines, "full_lines": lines,
        "containments_checked": containments, "lines_ok": True}


def full_target_case(ps, edit):
    """Every image is the whole space, so only the line test can fail."""
    n = ps.ambient_dim
    g = Embedding(ps, n, [Subspace.full(ps.field, n)] * len(ps.maximals))
    q_map = list(ps.points)
    edit(ps, q_map)
    with pytest.raises(PartialLine) as exc:
        check_line_images(ps, g, tuple(q_map))
    return exc.value.args


def copy_point(i, j):
    def edit(ps, q):
        q[i] = q[j]
    return edit


def thicken_point_0(ps, q):
    # q(0) becomes the first line through point 0, a 2-dim subspace
    q[0] = ps.lines[next(l for l in range(len(ps.lines))
                         if 0 in ps.line_point_indices(l))]


def collapse(ps, q):
    q[:] = [q[0]] * len(q)


def off_line(ps, q):
    q[9] = Subspace.span(ps.field, [[1, 1, 1, 0]])


@pytest.mark.parametrize("name, edit, message", [
    ("w32_4", copy_point(5, 6), "line 1 maps to 3 points spanning dimension 3; "
     "a full line has 3 points in dimension 2"),
    ("w33_4", off_line, "line 3 maps to 4 points spanning dimension 3; "
     "a full line has 4 points in dimension 2"),
    ("w33_4", collapse, "line 0 maps to 1 points spanning dimension 1; "
     "a full line has 4 points in dimension 2"),
    ("h34_4", copy_point(30, 2), "line 3 maps to 5 points spanning dimension 3; "
     "a full line has 5 points in dimension 2"),
    ("w32_4", thicken_point_0, "line 0 image is a proper subset of a line"),
    ("w33_4", thicken_point_0, "line 0 image is a proper subset of a line"),
])
def test_partial_line_parity(spaces, name, edit, message):
    assert full_target_case(spaces[name], edit) == (message,)


# ---------------------------------------------------------------------------
# independence: the formula sides never read the member-bitset kernel
# ---------------------------------------------------------------------------

def test_formula_sides_do_not_use_the_bitset_kernel(monkeypatch):
    cases = [(w32(5), 3, [(GF2, 5, 3), (GF2, 4, 2)]),
             (w33(4), 2, [(GF3, 4, 2)])]
    for ps, _, targets in cases:
        dual_polar_graph(ps).distance_matrix
        for target in targets:
            grassmann_graph_cached(*target).distance_matrix

    def refuse(*args, **kwargs):
        raise AssertionError("the formula side read the bitset kernel")

    for module in (subspace, grassmann, polar):
        if hasattr(module, "pairwise_intersection_dims"):
            monkeypatch.setattr(module, "pairwise_intersection_dims", refuse)
    for ps, k, _ in cases:
        D = ps.source_distance_matrix()
        assert np.array_equal(D, dual_polar_graph(ps).distance_matrix)
        U = (Subspace.span(ps.field, [[0, 0, 0, 0, 1]]) if k > ps.rank
             else Subspace.zero(ps.field, ps.ambient_dim))
        e = Embedding(ps, k, [M + U for M in ps.maximals])
        report = verify_isometric(e)
        assert report["bfs_crosschecked"]
        assert analyze_embedding(e).lines_ok


# ---------------------------------------------------------------------------
# FiniteGraph adjacency normalization
# ---------------------------------------------------------------------------

def old_rule(nbrs):
    return np.array(sorted(int(x) for x in nbrs), dtype=np.int32)


@pytest.mark.parametrize("make", [
    lambda: [[2, 1], [0], [1, 0], []],
    lambda: [np.array([3, 1, 2], dtype=np.int64), np.array([0], dtype=np.int32),
             np.array([], dtype=np.int64), np.flatnonzero([1, 1, 0, 1])],
    lambda: [[1, 1, 3, 3, 1], (0, 0, 2), range(3, 0, -1), (x for x in [2, 0, 2])],
    lambda: [np.array([2, 2, 1, 2], dtype=np.int16), [3, 0, 3], [], {1, 0}],
])
def test_adjacency_lists_sort_like_the_old_rule(make):
    expected = [old_rule(nbrs) for nbrs in make()]
    g = FiniteGraph(range(4), make())
    for got, want in zip(g.adj, expected, strict=True):
        assert got.dtype == np.int32 and np.array_equal(got, want)
