import numpy as np
import pytest

from qgeom.errors import (
    Anomaly,
    ContainmentViolation,
    DimensionMismatch,
    DistanceViolation,
    LemmaViolation,
    NoValidU,
    NotEquivalent,
    NotInjective,
    RankTooSmall,
    StarViolation,
)
from qgeom.gf import Field
from qgeom.grassmann import GrassmannGraph, grassmann_graph_cached
from qgeom.polar import Form, build_polar_space
from qgeom.embed import (
    Embedding,
    EquivalenceWitness,
    analyze_embedding,
    canonical_embedding,
    check_line_images,
    classify_embeddings,
    connecting_automorphism,
    embedding_from_json_obj,
    extract_star_subspace,
    find_star_subspaces,
    induce_point_map,
    polar_span,
    reduce_to_quotient,
    search_embeddings,
    verify_isometric,
    witness_kind,
)
from qgeom.subspace import Subspace, mat_mul, multi_intersection, rank

GF2 = Field(2)
GF4 = Field(2, 2)

SYMPLECTIC_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


@pytest.fixture(scope="module")
def w32_in_5():
    """Rank-2 symplectic space over GF(2) inside a 5-dim ambient space."""
    return build_polar_space(GF2, 5, Form(GF2, "alternating", 4,
                                          gram=SYMPLECTIC_GRAM))


@pytest.fixture(scope="module")
def w32_in_4():
    return build_polar_space(GF2, 4, Form(GF2, "alternating", 4,
                                          gram=SYMPLECTIC_GRAM))


@pytest.fixture(scope="module")
def hermitian_4():
    return build_polar_space(GF4, 4, Form(GF4, "hermitian", 4,
                                          gram=np.eye(4, dtype=np.uint8)))


@pytest.fixture(scope="module")
def micro_census(w32_in_5):
    return search_embeddings(w32_in_5, 5, 3, anchor=True)


def identity_inclusion(ps):
    return canonical_embedding(ps, ps.rank)


# ---------------------------------------------------------------------------
# verify_isometric
# ---------------------------------------------------------------------------

def test_identity_inclusion_is_isometric(w32_in_4):
    e = identity_inclusion(w32_in_4)
    assert tuple(e.images) == w32_in_4.maximals
    report = verify_isometric(e)
    assert report["pairs_checked"] == 15 * 14 // 2
    assert report["bfs_crosschecked"]


def test_repeated_image_not_injective(w32_in_4):
    ps = w32_in_4
    images = list(ps.maximals)
    images[1] = images[0]
    with pytest.raises(NotInjective):
        verify_isometric(Embedding(ps, 2, images))


def test_corrupted_table_distance_violation(w32_in_5):
    ps = w32_in_5
    e = canonical_embedding(ps, 3)
    images = list(e.images)
    # swap two images: distances to third parties break
    images[0], images[1] = images[1], images[0]
    bad = Embedding(ps, 3, images)
    with pytest.raises(DistanceViolation) as exc:
        verify_isometric(bad)
    i, j, expected, got = exc.value.args[1]
    assert expected != got


# ---------------------------------------------------------------------------
# canonical embedding and the star-subspace search
# ---------------------------------------------------------------------------

def test_canonical_k_equals_m_is_identity(w32_in_4):
    e = identity_inclusion(w32_in_4)
    assert extract_star_subspace(e).dim == 0


def test_canonical_micro_instance(w32_in_5):
    e = canonical_embedding(w32_in_5, 3)
    assert e.meta["u_basis"] == [[0, 0, 0, 0, 1]]
    U = extract_star_subspace(e)
    assert U == Subspace.span(GF2, [[0, 0, 0, 0, 1]])
    for M, img in zip(w32_in_5.maximals, e.images):
        assert img == M + U


def test_canonical_no_valid_u(w32_in_4):
    with pytest.raises(NoValidU):
        canonical_embedding(w32_in_4, 3)


def test_canonical_rank_too_small(w32_in_5):
    with pytest.raises(RankTooSmall):
        canonical_embedding(w32_in_5, 1)


def test_star_subspace_full_enumeration(w32_in_5):
    """Every valid 1-dim U avoids all pairwise sums; the census agrees with
    a brute-force filter over all 31 projective points."""
    ps = w32_in_5
    found = find_star_subspaces(ps, 3, limit=None)
    sums = [ps.maximals[i] + ps.maximals[j]
            for i in range(15) for j in range(i, 15)]
    from qgeom.subspace import projective_point_reps
    brute = []
    for v in projective_point_reps(GF2, 5):
        P = Subspace.span(GF2, v)
        if all(P.intersection_dim(s) == 0 for s in sums):
            brute.append(P)
    assert sorted(found) == sorted(brute)
    assert found[0] == Subspace.span(GF2, [[0, 0, 0, 0, 1]])  # lex-first


# ---------------------------------------------------------------------------
# the structural pipeline
# ---------------------------------------------------------------------------

def test_extract_reduce_roundtrip(w32_in_5):
    ps = w32_in_5
    e = canonical_embedding(ps, 3)
    U = extract_star_subspace(e)
    g = reduce_to_quotient(e, U)
    assert g.target_n == 4 and g.target_k == 2
    qs = g.meta["quotient"]
    # the reduced table is exactly the quotient projection of the original
    for img, gimg in zip(e.images, g.images):
        assert qs.project(img) == gimg
    # and it reproduces the inclusion of the maximals into the W-model
    for M, gimg in zip(ps.maximals, g.images):
        assert qs.project(M) == gimg


def test_reduce_wrong_u_star_violation(w32_in_5):
    e = canonical_embedding(w32_in_5, 3)
    wrong = Subspace.span(GF2, [[1, 0, 0, 0, 0]])
    with pytest.raises(StarViolation):
        reduce_to_quotient(e, wrong)


def test_reduce_identity_when_u_zero(w32_in_4):
    e = identity_inclusion(w32_in_4)
    g = reduce_to_quotient(e, Subspace.zero(GF2, 4))
    assert tuple(g.images) == tuple(e.images)


def test_point_map_identity_case(w32_in_4):
    ps = w32_in_4
    g = identity_inclusion(ps)
    q_map = induce_point_map(g)
    assert q_map == ps.points


def test_point_map_micro_is_quotient_of_points(w32_in_5):
    ps = w32_in_5
    e = canonical_embedding(ps, 3)
    g = reduce_to_quotient(e, extract_star_subspace(e))
    qs = g.meta["quotient"]
    q_map = induce_point_map(g)
    assert len(q_map) == 15
    for P, qP in zip(ps.points, q_map):
        assert qP.dim == 1
        assert qP == qs.project(P)
    # three maximals through each point, images meeting in exactly q(P)
    for i in range(15):
        assert len(ps.maximals_through_point(i)) == 3


def test_line_images_identity_case(w32_in_4):
    ps = w32_in_4
    g = identity_inclusion(ps)
    q_map = induce_point_map(g)
    report = check_line_images(ps, g, q_map)
    assert report["lines_ok"] and report["full_lines"] == 15


def test_line_images_micro(w32_in_5):
    ps = w32_in_5
    e = canonical_embedding(ps, 3)
    g = reduce_to_quotient(e, extract_star_subspace(e))
    q_map = induce_point_map(g)
    report = check_line_images(ps, g, q_map)
    assert report["full_lines"] == 15
    assert report["containments_checked"] > 0


def test_line_images_corrupted_point(w32_in_5):
    ps = w32_in_5
    e = canonical_embedding(ps, 3)
    g = reduce_to_quotient(e, extract_star_subspace(e))
    q_map = list(induce_point_map(g))
    # send one point somewhere unrelated
    q_map[0] = Subspace.span(GF2, [[1, 1, 1, 1]])
    with pytest.raises(ContainmentViolation) as exc:
        check_line_images(ps, g, tuple(q_map))
    P, Q, M = exc.value.args[1]
    assert 0 in (P, Q)


def test_analyze_full_report(w32_in_5):
    ps = w32_in_5
    sr = analyze_embedding(canonical_embedding(ps, 3))
    assert sr.star_subspace.dim == 1
    assert sr.quotient.dim == 4
    assert sr.lines_ok
    assert sr.w_prime.dim == 4
    assert sr.v_prime == ps.v_prime
    obj = sr.as_json_obj()
    assert obj["lines_ok"] and len(obj["q_map"]) == 15


def test_polar_span(w32_in_5, hermitian_4):
    assert polar_span(w32_in_5) == w32_in_5.v_prime
    assert polar_span(w32_in_5).dim == 4
    assert polar_span(hermitian_4).dim == 4


# ---------------------------------------------------------------------------
# witness algebra
# ---------------------------------------------------------------------------

def random_invertible(field, n, rng):
    while True:
        M = rng.integers(0, field.q, size=(n, n)).astype(np.uint8)
        if rank(field, M) == n:
            return M


def random_witness(field, n, rng, allow_dual):
    return EquivalenceWitness(
        field,
        random_invertible(field, n, rng),
        int(rng.integers(0, field.e)),
        bool(rng.integers(0, 2)) if allow_dual else False,
    )


@pytest.mark.parametrize("field", [GF2, GF4], ids=["gf2", "gf4"])
def test_witness_compose_and_inverse(field):
    """compose and inverse agree with pointwise application, including
    Frobenius twists and duality factors (n = 2k so duality closes)."""
    rng = np.random.default_rng(23)
    n, k = 4, 2
    subspaces = [
        Subspace.span(field, rng.integers(0, field.q, size=(k, n)).astype(np.uint8))
        for _ in range(40)
    ]
    subspaces = [S for S in subspaces if S.dim == k][:15]
    for _ in range(25):
        w1 = random_witness(field, n, rng, allow_dual=True)
        w2 = random_witness(field, n, rng, allow_dual=True)
        w21 = w2.compose(w1)
        w1_inv = w1.inverse()
        for S in subspaces:
            assert w21.apply_to_subspace(S) == w2.apply_to_subspace(
                w1.apply_to_subspace(S))
            assert w1_inv.apply_to_subspace(w1.apply_to_subspace(S)) == S


def test_witness_identity(w32_in_4):
    e = identity_inclusion(w32_in_4)
    w = connecting_automorphism(e, e)
    assert witness_kind(w) == "identity"
    assert w.verify_on(e, e)


# ---------------------------------------------------------------------------
# connecting automorphisms
# ---------------------------------------------------------------------------

def transformed_copy(e, witness):
    return Embedding(e.source, e.target_k,
                     [witness.apply_to_subspace(img) for img in e.images],
                     target_n=e.target_n)


def test_reconnect_linear_transform(w32_in_5):
    ps = w32_in_5
    e = canonical_embedding(ps, 3)
    rng = np.random.default_rng(41)
    for _ in range(5):
        s0 = EquivalenceWitness(GF2, random_invertible(GF2, 5, rng))
        f2 = transformed_copy(e, s0)
        verify_isometric(f2)
        w = connecting_automorphism(e, f2)
        # the witness need not equal s0 entrywise, only in action
        assert w.verify_on(e, f2)


def test_reconnect_semilinear_transform(hermitian_4):
    ps = hermitian_4
    e = identity_inclusion(ps)
    rng = np.random.default_rng(43)
    s0 = EquivalenceWitness(GF4, random_invertible(GF4, 4, rng), frob_power=1)
    f2 = transformed_copy(e, s0)
    verify_isometric(f2)
    w = connecting_automorphism(e, f2)
    assert w.verify_on(e, f2)


def test_reconnect_duality_composed_transform(w32_in_4):
    """n = 2k: a duality-composed copy must reconnect through some witness."""
    ps = w32_in_4
    e = identity_inclusion(ps)
    rng = np.random.default_rng(47)
    s0 = EquivalenceWitness(GF2, random_invertible(GF2, 4, rng), dual=True)
    f2 = transformed_copy(e, s0)
    verify_isometric(f2)
    w = connecting_automorphism(e, f2)
    assert w.verify_on(e, f2)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_rank_too_small(w32_in_4):
    with pytest.raises(RankTooSmall):
        search_embeddings(w32_in_4, 4, 1)


def test_low_k_cannot_host_an_embedding(w32_in_4):
    """Necessity of m <= k, concretely: opposite maximals sit at distance
    m = 2, but the diameter of the k = 1 target is 1."""
    ps = w32_in_4
    g1 = grassmann_graph_cached(GF2, 4, 1)
    assert g1.distance_matrix.max() == 1
    DS = ps.source_distance_matrix()
    assert int(DS.max()) == 2


def test_search_no_valid_u_comes_back_empty(w32_in_4):
    res = search_embeddings(w32_in_4, 4, 3, anchor=True)
    assert not res.anchored
    assert len(res.embeddings) == 0


def test_search_tiny_rank_one():
    """Hyperbolic-line instance: embeddings of K2 into the Grassmann graph
    are exactly the ordered pairs (anchor, neighbor)."""
    ps = build_polar_space(GF2, 4, Form(GF2, "quadratic", 2, quad=[[0, 1], [0, 0]]))
    res = search_embeddings(ps, 4, 2, anchor=True)
    g = grassmann_graph_cached(GF2, 4, 2)
    anchor_degree = len(g.adj[res.anchor_index])
    assert len(res.embeddings) == anchor_degree == 18
    for e in res.embeddings:
        verify_isometric(e)
        sr = analyze_embedding(e)
        assert sr.star_subspace.dim == 1
    report = classify_embeddings(res.embeddings)
    assert report["equivalence_classes"] == 1


def test_search_workers_deterministic(w32_in_4):
    ps = build_polar_space(GF2, 4, Form(GF2, "quadratic", 2, quad=[[0, 1], [0, 0]]))
    r1 = search_embeddings(ps, 4, 2, anchor=True, workers=1)
    r2 = search_embeddings(ps, 4, 2, anchor=True, workers=3)
    assert np.array_equal(r1.members, r2.members)
    assert r1.nodes == r2.nodes


def test_anchor_vertex_transitivity(w32_in_5):
    """Anchoring is sound because explicit matrices carry the anchor to any
    vertex: spot-check ten targets."""
    ps = w32_in_5
    g = grassmann_graph_cached(GF2, 5, 3)
    anchor = canonical_embedding(ps, 3).images[0]
    rng = np.random.default_rng(29)
    from qgeom.subspace import QuotientSpace, invert_matrix
    for t in rng.integers(0, g.n_vertices, size=10):
        target = g.vertices[int(t)]
        # build an invertible map sending anchor to target by completing bases
        dom = np.vstack([anchor.basis, QuotientSpace(5, anchor).lift_matrix()])
        img = np.vstack([target.basis, QuotientSpace(5, target).lift_matrix()])
        M = mat_mul(GF2, img.T, invert_matrix(GF2, dom.T))
        w = EquivalenceWitness(GF2, M)
        assert w.apply_to_subspace(anchor) == target
        # adjacency is preserved on a sample of edges
        for i in rng.integers(0, g.n_vertices, size=5):
            i = int(i)
            j = int(g.adj[i][0])
            wi = w.apply_to_subspace(g.vertices[i])
            wj = w.apply_to_subspace(g.vertices[j])
            assert wi.intersection_dim(wj) == 2


def test_search_k_equals_m_census(w32_in_4):
    """Full anchored census for the in-convention instance n = 2k = 4:
    576 embeddings, all one class under graph automorphisms."""
    ps = w32_in_4
    res = search_embeddings(ps, 4, 2, anchor=True)
    assert len(res.embeddings) == 576
    canonical = canonical_embedding(ps, 2)
    assert any(e.key == canonical.key for e in res.embeddings)
    report = classify_embeddings(res.embeddings)
    assert report["equivalence_classes"] == 1
    assert report["classes"][0]["size"] == 576


# ---------------------------------------------------------------------------
# the two-realization phenomenon on the 2k > n micro instance
# ---------------------------------------------------------------------------

def test_micro_census_splits_into_two_families(w32_in_5, micro_census):
    """The distance census over Gamma_3(GF(2)^5) contains, besides the
    4032 star-family embeddings below a common 1-dim subspace, a second,
    larger family with trivial common intersection: the annihilator duals
    of parabolic-quadric line families.  No linear or semilinear map of
    the 5-space connects the two (the common-intersection dimension is an
    invariant), so the census holds exactly two equivalence classes."""
    ps = w32_in_5
    res = micro_census
    assert len(res.embeddings) == 68544
    dims = {}
    for e in res.embeddings:
        d = multi_intersection(list(e.images)).dim
        dims[d] = dims.get(d, 0) + 1
    assert dims == {1: 4032, 0: 64512}

    flat = next(e for e in res.embeddings
                if multi_intersection(list(e.images)).dim == 0)
    assert verify_isometric(flat)["bfs_crosschecked"]
    with pytest.raises(LemmaViolation):
        extract_star_subspace(flat)

    # the dualized image family carries a unique nondegenerate quadratic form
    duals = [img.annihilator() for img in flat.images]
    cells = [(i, j) for i in range(5) for j in range(i, 5)]
    rows = []
    for D in duals:
        for v in D.all_vectors():
            rows.append([int(v[i]) & int(v[j]) for (i, j) in cells])
    from qgeom.subspace import nullspace
    ker = nullspace(GF2, np.array(rows, dtype=np.uint8))
    assert ker.shape[0] == 1
    quad = np.zeros((5, 5), dtype=np.uint8)
    for c, (i, j) in zip(ker[0], cells):
        quad[i, j] = c
    ps_q = build_polar_space(GF2, 5, Form(GF2, "quadratic", 5, quad=quad))
    assert ps_q.rank == 2
    assert set(duals) == set(ps_q.maximals)

    # and the two families really are inequivalent
    star = canonical_embedding(ps, 3)
    with pytest.raises(NotEquivalent):
        connecting_automorphism(star, flat)

    # within the second family, the dual-conjugated fit still connects
    flats = [e for e in res.embeddings
             if multi_intersection(list(e.images)).dim == 0]
    for other in (flats[1], flats[5000], flats[-1]):
        w = connecting_automorphism(flat, other)
        assert w.verify_on(flat, other)
        assert not w.dual


def test_micro_star_family_members_pass_pipeline(w32_in_5, micro_census):
    ps = w32_in_5
    star = [e for e in micro_census.embeddings
            if multi_intersection(list(e.images)).dim == 1]
    rng = np.random.default_rng(31)
    base = canonical_embedding(ps, 3)
    for idx in rng.integers(0, len(star), size=25):
        e = star[int(idx)]
        sr = analyze_embedding(e)
        assert sr.star_subspace.dim == 1
        assert sr.lines_ok
        w = connecting_automorphism(base, e)
        assert w.verify_on(base, e)


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_embedding_json_roundtrip(w32_in_5):
    e = canonical_embedding(w32_in_5, 3)
    rebuilt = embedding_from_json_obj(w32_in_5, 3, e.as_json_obj())
    assert rebuilt.key == e.key


def test_embedding_json_repeated_entry_rejected(w32_in_5):
    table = canonical_embedding(w32_in_5, 3).as_json_obj()
    twice = table + [dict(table[0], image_basis=table[1]["image_basis"])]
    with pytest.raises(DimensionMismatch, match="entry 0 appears more than once"):
        embedding_from_json_obj(w32_in_5, 3, twice)


@pytest.mark.parametrize("value", [0.7, "0", True])
def test_embedding_json_source_index_must_be_an_integer(w32_in_5, value):
    """A fractional, string or bool index is a ValueError naming
    source_index, not truncated to an entry that happens to match."""
    table = canonical_embedding(w32_in_5, 3).as_json_obj()
    table[0]["source_index"] = value
    with pytest.raises(ValueError, match=f"^source_index {value!r} is not an integer$"):
        embedding_from_json_obj(w32_in_5, 3, table)


@pytest.mark.parametrize("key", ["source_basis", "image_basis"])
@pytest.mark.parametrize("value", [300, -1, 1.5, "1"])
def test_embedding_json_entries_must_be_field_elements(w32_in_5, key, value):
    """An entry outside 0..q-1, or not an integer, is a ValueError rather
    than an OverflowError or a silently truncated value."""
    table = canonical_embedding(w32_in_5, 3).as_json_obj()
    table[2][key][0][1] = value
    with pytest.raises(ValueError, match=f"^entry {value!r} out of range for GF\\(2\\)$"):
        embedding_from_json_obj(w32_in_5, 3, table)
