"""Tests of the benchmark's own oracle: hand-computed cases and corrupted inputs.

    python3 -m pytest perfbench -q
"""

import copy
import itertools

import numpy as np
import pytest

import oracle as orc
from oracle import CheckFailed

GF2, GF3, GF4 = orc.OwnField(2), orc.OwnField(3), orc.OwnField(4)


# -- field tables -------------------------------------------------------------------

def test_gf4_tables_by_hand():
    # 2 = x, 3 = x + 1, x^2 = x + 1
    assert GF4.mul[2, 2] == 3
    assert GF4.mul[2, 3] == 1
    assert GF4.mul[3, 3] == 2
    assert GF4.add[2, 3] == 1
    assert GF4.add[3, 3] == 0
    assert GF4.frob.tolist() == [0, 1, 3, 2]
    assert GF4.neg.tolist() == [0, 1, 2, 3]


def test_gf3_tables_by_hand():
    assert GF3.mul[2, 2] == 1
    assert GF3.add[2, 2] == 1
    assert GF3.neg.tolist() == [0, 2, 1]
    assert GF3.frob.tolist() == [0, 1, 2]


def test_rank_and_matmul_by_hand():
    assert GF2.rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert GF3.rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 3
    assert GF4.rank([[1, 2], [2, 3]]) == 1  # second row is x times the first
    assert GF4.matmul([[2, 1]], [[2], [1]]).tolist() == [[2]]  # x*x + 1 = x


# -- closed forms -------------------------------------------------------------------

def test_gaussian_binomials_by_hand():
    assert orc.gaussian_binomial(4, 2, 2) == 35
    assert orc.gaussian_binomial(5, 3, 2) == 155
    assert orc.gaussian_binomial(6, 2, 2) == 651
    assert orc.gaussian_binomial(4, 2, 3) == 130
    assert orc.gaussian_binomial(4, 2, 4) == 357
    assert orc.gl_order(2, 2) == 6
    assert orc.gl_order(5, 2) == 9999360


def test_grassmann_closed_forms_by_hand():
    assert orc.grassmann_intersection_array(4, 2, 2) == {1: (1, 9, 8), 2: (9, 9, 0)}
    assert orc.grassmann_intersection_array(6, 2, 2) == {1: (1, 33, 56), 2: (9, 81, 0)}
    assert [orc.grassmann_sphere_size(6, 2, 2, i) for i in range(3)] == [1, 90, 560]
    assert orc.vertex_count_from_array(orc.grassmann_intersection_array(6, 2, 2)) == 651


def test_dual_polar_closed_forms_by_hand():
    assert orc.dual_polar_intersection_array(2, 2, 2) == {1: (1, 1, 4), 2: (3, 3, 0)}
    assert orc.dual_polar_intersection_array(2, 4, 2) == {1: (1, 1, 8), 2: (5, 5, 0)}
    assert orc.dual_polar_intersection_array(2, 3, 3) == {1: (1, 2, 9), 2: (4, 8, 0)}
    assert orc.dual_polar_intersection_array(3, 2, 2) == {
        1: (1, 1, 12), 2: (3, 3, 8), 3: (7, 7, 0)}
    assert orc.symplectic_maximal_count(2, 2) == 15
    assert orc.symplectic_maximal_count(3, 2) == 135
    assert orc.symplectic_maximal_count(2, 3) == 40


def test_census_counts_by_hand():
    assert orc.sp_order(1, 2) == 6
    assert orc.sp_order(2, 2) == 720
    # W(1,2) in Gamma_1(GF(2)^2): both graphs are K_3, so every one of
    # the 3! bijections is an isometric embedding, all onto one image set
    assert orc.symplectic_image_set_count(1, 2) == 1
    assert orc.symplectic_census_size(1, 2) == 6
    # PG(3,2) carries 28 symplectic polarities
    assert orc.symplectic_image_set_count(2, 2) == 28
    assert orc.symplectic_census_size(2, 2) == 20160
    with pytest.raises(CheckFailed):
        orc.symplectic_census_size(2, 3)


def test_intersection_array_check_rejects_off_by_one():
    want = orc.dual_polar_intersection_array(2, 2, 2)
    orc.check_intersection_array({1: [1, 1, 4], 2: [3, 3, 0]}, want, "W(3,2)")
    with pytest.raises(CheckFailed):
        orc.check_intersection_array({1: [1, 1, 4], 2: [3, 2, 0]}, want, "W(3,2)")


def test_graph6_decoder_on_the_format_example():
    # the example of the graph6 description: 5 vertices, edges 0-2 0-4 1-3 3-4
    assert orc.decode_graph6(b"DQc\n") == (5, {(0, 2), (0, 4), (1, 3), (3, 4)})


def _points_json(F, n):
    """JSON export of Gamma_1(GF(2)^n): every point, all pairs adjacent."""
    X = F.all_vectors(n)[1:]
    nv = len(X)
    obj = {"n_vertices": nv,
           "vertices": [{"index": i, "basis": [x.tolist()]} for i, x in enumerate(X)],
           "adjacency": [[j for j in range(nv) if j != i] for i in range(nv)]}
    masks = np.stack([orc.member_mask(F, x[None, :], n) for x in X])
    return obj, ~np.eye(nv, dtype=bool), masks


def test_json_export_check_rejects_missing_or_swapped_vertices():
    obj, adj, masks = _points_json(GF2, 3)
    orc.check_graph_json(GF2, 3, obj, adj, masks)
    for corrupt in (lambda o: o["vertices"].pop(),
                    lambda o: o["vertices"].clear(),
                    lambda o: o["vertices"].__setitem__(slice(0, 2), o["vertices"][1::-1]),
                    lambda o: o["adjacency"][0].pop()):
        bad = copy.deepcopy(obj)
        corrupt(bad)
        with pytest.raises(CheckFailed):
            orc.check_graph_json(GF2, 3, bad, adj, masks)


# -- embedding checks ---------------------------------------------------------------

def _planes(F, n):
    """Member masks of every 2-dim subspace of GF(q)^n (brute force)."""
    X = F.all_vectors(n)
    seen = {}
    for a, b in itertools.combinations(range(1, len(X)), 2):
        rows = X[[a, b]]
        if F.rank(rows) == 2:
            mask = orc.member_mask(F, rows, n)
            seen.setdefault(mask.tobytes(), rows)
    return list(seen.values())


def _plus_u(F, planes, n):
    """M -> M + <e_n> from GF(q)^(n-1) into GF(q)^n: an isometric embedding."""
    src, img = [], []
    u = np.zeros((1, n), dtype=np.uint8)
    u[0, -1] = 1
    for rows in planes:
        lifted = np.hstack([rows, np.zeros((2, 1), dtype=np.uint8)])
        src.append(orc.member_mask(F, lifted, n))
        img.append(orc.member_mask(F, np.vstack([lifted, u]), n))
    return np.array(src), np.array(img)


def test_isometry_check_rejects_two_swapped_images():
    src, img = _plus_u(GF2, _planes(GF2, 4), 5)
    orc.check_isometric(2, src, 2, img, 3, "M + U")
    img[[0, 1]] = img[[1, 0]]
    with pytest.raises(CheckFailed):
        orc.check_isometric(2, src, 2, img, 3, "M + U")


def _witness_case(F, n, t, seed):
    rng = np.random.default_rng(seed)
    while True:
        S = rng.integers(0, F.q, size=(n, n)).astype(np.uint8)
        if F.rank(S) == n:
            break
    planes = []
    while len(planes) < 12:
        rows = rng.integers(0, F.q, size=(2, n)).astype(np.uint8)
        if F.rank(rows) == 2:
            planes.append(rows)
    members, masks = [], []
    for table in (planes, [orc.apply_semilinear(F, S, t, p) for p in planes]):
        members.append(np.stack([orc.member_indices(F, p) for p in table]))
        masks.append(np.stack([orc.member_mask(F, p, n) for p in table]))
    return S, np.stack(members), np.stack(masks)


@pytest.mark.parametrize("F,t", [(GF2, 0), (GF3, 0), (GF4, 0), (GF4, 1)])
def test_witness_check_rejects_a_flipped_entry(F, t):
    n = 4
    S, members, masks = _witness_case(F, n, t, seed=7)
    orc.check_witnesses(F, n, S[None], [t], members, masks, [0], [1], "witness")
    for i, j in itertools.product(range(n), range(n)):
        bad = S.copy()
        bad[i, j] = F.add[bad[i, j], 1]
        with pytest.raises(CheckFailed):
            orc.check_witnesses(F, n, bad[None], [t], members, masks, [0], [1], "witness")


def test_witness_check_rejects_the_wrong_frobenius_power():
    S, members, masks = _witness_case(GF4, 4, 1, seed=3)
    with pytest.raises(CheckFailed):
        orc.check_witnesses(GF4, 4, S[None], [0], members, masks, [0], [1], "witness")


def test_witness_check_rejects_two_swapped_images():
    S, members, masks = _witness_case(GF3, 4, 0, seed=5)
    masks[1, [0, 1]] = masks[1, [1, 0]]
    with pytest.raises(CheckFailed):
        orc.check_witnesses(GF3, 4, S[None], [0], members, masks, [0], [1], "witness")
