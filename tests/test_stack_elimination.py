"""Differential tests of the full batched elimination and what runs on it.

``rref_stack`` and the single-pass ``nullspace``/``nullspace_stack`` are
checked against the former two-pass ``nullspace`` and the table-driven
``rref``, both copied below as the oracle.  The structural pipeline is
checked against the per-point and per-candidate loops it replaced (also
copied below), against digests of its outputs recorded before the
batching, and for the type, message and payload of the first failure.
The fused analysis (quotient, point map and line checks in four stacked
eliminations) is checked the same way against the six-elimination path
it replaced, copied below as well.
"""

import gc
import hashlib
import json

import numpy as np
import pytest

from qgeom import embed, subspace
from qgeom.embed import (
    Embedding,
    _base_witness_pair,
    _dualized,
    analyze_embedding,
    canonical_embedding,
    check_line_images,
    extract_star_subspace,
    find_star_subspaces,
    induce_point_map,
    reduce_to_quotient,
    search_embeddings,
    verify_isometric,
)
from qgeom.errors import (
    Anomaly,
    ContainmentViolation,
    DimensionMismatch,
    EmptyIntersection,
    LemmaViolation,
    NotInjective,
    PartialLine,
    QGeomError,
    StarViolation,
)
from qgeom.gf import Field
from qgeom.polar import Form, build_polar_space
from qgeom.subspace import (
    QuotientSpace,
    Subspace,
    annihilators,
    mat_mul,
    multi_intersection,
    nullspace,
    nullspace_stack,
    projective_point_reps,
    rank_stack,
    rref_stack,
    span_stack,
    stack_bases,
)

FIELDS = {2: Field(2), 3: Field(3), 4: Field(2, 2), 5: Field(5), 7: Field(7),
          8: Field(2, 3), 9: Field(3, 2), 16: Field(2, 4)}
GF2, GF3, GF4 = FIELDS[2], FIELDS[3], FIELDS[4]
SYMPLECTIC_2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
SYMPLECTIC_3 = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]
QUAD_5 = [[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0],
          [0, 0, 0, 0, 1]]


# ---------------------------------------------------------------------------
# the oracle: the table-driven rref and the two-pass nullspace
# ---------------------------------------------------------------------------

def oracle_rref(field, mat):
    A = np.array(mat, dtype=np.uint8)
    rows, cols = A.shape
    mulT, addT = field.mul_table, field.add_table
    negT, invT = field.neg_table, field.inv_table
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r] = mulT[invT[pv], A[r]]
        colvals = A[:, c].copy()
        colvals[r] = 0
        sel = np.flatnonzero(colvals)
        if sel.size:
            factors = negT[colvals[sel]]
            A[sel] = addT[A[sel], mulT[factors[:, None], A[r][None, :]]]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def oracle_nullspace(field, mat):
    A, pivots = oracle_rref(field, mat)
    rows, cols = A.shape
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.uint8)
    out = np.zeros((len(free), cols), dtype=np.uint8)
    negT = field.neg_table
    for t, f in enumerate(free):
        out[t, f] = 1
        for i, pcol in enumerate(pivots):
            out[t, pcol] = negT[A[i, f]]
    R, _ = oracle_rref(field, out)
    return R


def random_stack(rng, q, B, r, n):
    """Random members plus all-zero, rank-one, full-rank and duplicate-row ones."""
    S = rng.integers(0, q, size=(B, r, n)).astype(np.uint8)
    if B and r and n:
        S[::5] = 0
        scale = rng.integers(0, q, size=(B, r, 1)).astype(np.uint8)
        S[1::5] = FIELDS[q].mul_table[scale[1::5], S[1::5, :1, :]]
        k = min(r, n)
        S[2::5] = 0
        S[2::5, np.arange(k), np.arange(n - k, n)] = 1
        if r > 1:
            S[3::5, -1] = S[3::5, 0]
    return S


SHAPES = [(0, 3, 4), (4, 0, 5), (4, 3, 0), (0, 0, 0), (40, 6, 5), (40, 4, 4),
          (30, 8, 3), (30, 3, 8), (10, 1, 1), (20, 5, 1), (20, 1, 6), (12, 7, 7)]


def check_rref_stack(field, S):
    R, ranks = rref_stack(field, S)
    B, r, n = S.shape
    assert R.shape == (B, r, n) and R.dtype == np.uint8
    assert ranks.shape == (B,) and ranks.dtype == np.int64
    for b in range(B):
        want, pcols = oracle_rref(field, S[b])
        d = len(pcols)
        assert ranks[b] == d
        assert np.array_equal(R[b, :d], want)
        assert not R[b, d:].any()
    assert np.array_equal(rank_stack(field, S), ranks)


def check_nullspace_stack(field, S):
    K, dims = nullspace_stack(field, S)
    B, r, n = S.shape
    assert K.shape == (B, n, n) and K.dtype == np.uint8
    assert dims.shape == (B,)
    for b in range(B):
        want = oracle_nullspace(field, S[b])
        assert dims[b] == want.shape[0]
        assert np.array_equal(K[b, :dims[b]], want)
        assert not K[b, dims[b]:].any()


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_rref_stack_matches_the_oracle(q):
    rng = np.random.default_rng(q)
    for B, r, n in SHAPES:
        check_rref_stack(FIELDS[q], random_stack(rng, q, B, r, n))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_nullspace_and_nullspace_stack_match_the_two_pass_oracle(q):
    field = FIELDS[q]
    rng = np.random.default_rng(50 + q)
    for B, r, n in SHAPES:
        S = random_stack(rng, q, B, r, n)
        check_nullspace_stack(field, S)
        for A in S:
            got, want = nullspace(field, A), oracle_nullspace(field, A)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)


def test_mixed_ranks_in_one_stack():
    S = np.zeros((4, 3, 4), dtype=np.uint8)
    S[1, 0] = [0, 2, 1, 0]
    S[2, :2] = [[1, 2, 0, 1], [2, 1, 0, 2]]
    S[3] = [[0, 0, 1, 1], [1, 0, 0, 2], [0, 1, 2, 0]]
    _, ranks = rref_stack(GF3, S)
    assert ranks.tolist() == [0, 1, 1, 3]
    check_rref_stack(GF3, S)
    check_nullspace_stack(GF3, S)


@pytest.mark.parametrize("cols", [61, 62, 63, 64])
def test_packed_boundary(cols):
    """nullspace packs GF(2) rows up to 62 columns and is table-driven past it."""
    rng = np.random.default_rng(cols)
    for rows in (0, 1, 5, cols - 3, cols, cols + 4):
        A = (rng.random((rows, cols)) < 0.3).astype(np.uint8)
        assert np.array_equal(nullspace(GF2, A), oracle_nullspace(GF2, A))
    check_nullspace_stack(GF2, (rng.random((3, 5, cols)) < 0.5).astype(np.uint8))
    check_rref_stack(GF2, (rng.random((3, 5, cols)) < 0.5).astype(np.uint8))
    eye = np.eye(cols, dtype=np.uint8)[::-1]
    assert nullspace(GF2, eye).shape == (0, cols)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rref_stack_over_several_blocks(monkeypatch, q):
    field = FIELDS[q]
    S = random_stack(np.random.default_rng(200 + q), q, 61, 5, 6)
    expected = rref_stack(field, S)
    kernels = nullspace_stack(field, S)
    # 32 * r * n = 960 bytes per matrix: blocks of 3 matrices, then of 1
    for budget in (3 * 960, 1):
        monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", budget)
        for got, want in zip(rref_stack(field, S), expected):
            assert np.array_equal(got, want)
        for got, want in zip(nullspace_stack(field, S), kernels):
            assert np.array_equal(got, want)


def test_stack_errors_match_the_single_matrix_ones():
    S = np.zeros((3, 2, 4), dtype=np.uint8)
    S[2, 1, 3] = 3
    with pytest.raises(ValueError) as single:
        subspace.rref(GF3, S[2])
    for fn in (rref_stack, nullspace_stack, rank_stack):
        with pytest.raises(ValueError) as stacked:
            fn(GF3, S)
        assert str(stacked.value) == str(single.value)
        with pytest.raises(DimensionMismatch):
            fn(GF3, np.zeros((2, 2), dtype=np.uint8))
    assert rref_stack(GF3, [[[1, 2], [2, 1]]])[1].tolist() == [1]


def test_the_input_stack_is_left_alone():
    S = random_stack(np.random.default_rng(3), 3, 10, 3, 4)
    before = S.copy()
    rref_stack(GF3, S)
    nullspace_stack(GF3, S)
    assert np.array_equal(S, before)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_span_stack_annihilators_and_containment(q):
    field = FIELDS[q]
    rng = np.random.default_rng(300 + q)
    S = random_stack(rng, q, 25, 3, 5)
    spaces = span_stack(field, S)
    assert spaces == [Subspace.span(field, A, 5) for A in S]
    fresh = [Subspace.span(field, A, 5) for A in S]
    anns = annihilators(fresh)
    assert all(s._ann is a for s, a in zip(fresh, anns))
    for s, a in zip(fresh, anns):
        assert np.array_equal(a.basis, oracle_nullspace(field, s.basis))
    vectors = rng.integers(0, q, size=(40, 5)).astype(np.uint8)
    for s in spaces:
        members = {v.tobytes() for v in s.all_vectors()}
        for v in vectors:
            assert s.contains_vector(v) == (v.tobytes() in members)
        for other in spaces[:8]:
            inside = all(v.tobytes() in members for v in other.all_vectors())
            assert s.contains(other) == inside


# ---------------------------------------------------------------------------
# the structural pipeline against the loops it replaced
# ---------------------------------------------------------------------------

def w32(n):
    return build_polar_space(GF2, n, Form(GF2, "alternating", 4, gram=SYMPLECTIC_2))


def w33(n):
    return build_polar_space(GF3, n, Form(GF3, "alternating", 4, gram=SYMPLECTIC_3))


def h34(n):
    return build_polar_space(GF4, n, Form(GF4, "hermitian", 4,
                                          gram=np.eye(4, dtype=np.uint8)))


def q42(n):
    return build_polar_space(GF2, n, Form(GF2, "quadratic", 5, quad=QUAD_5))


@pytest.fixture(scope="module")
def spaces():
    return {"W(3,2)": w32(5), "W(3,3)": w33(5), "H(3,4)": h34(5), "Q(4,2)": q42(6)}


def oracle_intersection(field, n, spaces):
    anns = [oracle_nullspace(field, s.basis) for s in spaces]
    return oracle_nullspace(field, np.vstack(anns))


def oracle_induce_point_map(g):
    """The former per-point loop, on the oracle nullspace."""
    ps = g.source
    out = []
    for i in range(len(ps.points)):
        through = ps.maximals_through_point(i)
        inter = oracle_intersection(g.field, g.target_n,
                                    [g.images[t] for t in through])
        if inter.shape[0] == 0:
            raise EmptyIntersection(
                f"images over the star of point {i} intersect only in zero")
        if inter.shape[0] > 1:
            raise Anomaly(
                f"images over the star of point {i} intersect in dimension "
                f"{inter.shape[0]}", {"point": i, "dim": inter.shape[0]})
        out.append(inter.tobytes())
    if len(set(out)) != len(out):
        raise NotInjective("the induced point map collides")
    return out


def outcome(fn, g):
    try:
        return [s if isinstance(s, bytes) else s._bytes for s in fn(g)]
    except (EmptyIntersection, Anomaly, NotInjective) as exc:
        return type(exc), exc.args


def edited_tables(ps, g, rng):
    """Reduced tables with images replaced: random, thick, repeated, collapsed."""
    field, n, k = g.field, g.target_n, g.target_k
    T = len(g.images)
    for kind in range(10):
        imgs = list(g.images)
        j = int(rng.integers(T))
        if kind < 3:
            rows = rng.integers(0, field.q, size=(k, n)).astype(np.uint8)
            imgs[j] = Subspace.span(field, rows, n)
        elif kind < 5:
            imgs[j] = imgs[(j + 1) % T] = Subspace.full(field, n)
        elif kind < 7:
            imgs[j] = imgs[(j + 3 + kind) % T]
        elif kind == 7:
            imgs = [imgs[0]] * T
        elif kind == 8:
            v = rng.integers(0, field.q, size=(1, n)).astype(np.uint8)
            v[0, 0] = 1
            imgs = [Subspace.span(field, v, n)] * T
        else:
            kk = int(rng.integers(1, n))
            imgs = [Subspace.span(field, rng.integers(0, field.q, size=(kk, n))
                                  .astype(np.uint8), n) for _ in range(T)]
        yield Embedding(ps, k, imgs, target_n=n)


@pytest.mark.parametrize("name", ["W(3,2)", "W(3,3)", "H(3,4)", "Q(4,2)"])
def test_induce_point_map_matches_the_per_point_loop(spaces, name):
    ps = spaces[name]
    g = analyze_embedding(canonical_embedding(ps, 3)).reduced
    assert outcome(induce_point_map, g) == outcome(oracle_induce_point_map, g)
    rng = np.random.default_rng(len(name))
    kinds = set()
    for g2 in edited_tables(ps, g, rng):
        got = outcome(induce_point_map, g2)
        assert got == outcome(oracle_induce_point_map, g2)
        kinds.add(got[0] if isinstance(got, tuple) else "ok")
    assert {EmptyIntersection, Anomaly, NotInjective} <= kinds


def oracle_find_star_subspaces(ps, k, limit):
    """The former per-candidate backtracking, on the oracle rref."""
    field, n, d = ps.field, ps.ambient_dim, k - ps.rank
    maxls = ps.maximals
    states = [oracle_rref(field, np.vstack([maxls[i].basis, maxls[j].basis]))[0]
              for i in range(len(maxls)) for j in range(i, len(maxls))]
    reps = projective_point_reps(field, n)
    found, seen = [], set()

    def inside(R, v):
        return oracle_rref(field, np.vstack([R, v[None]]))[0].shape[0] == R.shape[0]

    def grow(states, start, rows):
        if len(rows) == d:
            U = Subspace.span(field, np.array(rows, dtype=np.uint8), n)
            if U not in seen:
                seen.add(U)
                found.append(U)
            return limit is not None and len(found) >= limit
        for t in range(start, reps.shape[0]):
            v = reps[t]
            if any(inside(R, v) for R in states):
                continue
            nxt = [oracle_rref(field, np.vstack([R, v[None]]))[0] for R in states]
            if grow(nxt, t + 1, rows + [v]):
                return True
        return False

    grow(states, 0, [])
    return found


@pytest.mark.parametrize("make, n, k, limit", [
    (w32, 5, 3, None), (w32, 6, 4, 30), (w32, 6, 3, None), (w33, 5, 3, 10),
    (h34, 5, 3, 4), (q42, 6, 4, 6),
])
def test_find_star_subspaces_matches_the_candidate_loop(make, n, k, limit):
    ps = make(n)
    got = find_star_subspaces(ps, k, limit=limit)
    assert got == oracle_find_star_subspaces(ps, k, limit)
    assert got


def test_star_search_runs_on_distinct_pair_sums():
    """W(5,3) in GF(3)^7 with k = 4: 627,760 pairs of maximals, 5,125
    distinct sums; the first star subspace is <e_7>."""
    gram = np.zeros((6, 6), dtype=np.uint8)
    gram[[0, 2, 4], [1, 3, 5]], gram[[1, 3, 5], [0, 2, 4]] = 1, 2
    ps = build_polar_space(GF3, 7, Form(GF3, "alternating", 6, gram=gram))
    assert len(ps.maximals) == 1120
    assert find_star_subspaces(ps, 4) == [Subspace.span(GF3, [[0] * 6 + [1]], 7)]


def test_star_search_with_no_candidates():
    # in GF(2)^4 the pair sums of W(3,2) cover every point
    assert find_star_subspaces(w32(4), 3, limit=None) == []


def test_reduce_to_quotient_reports_the_first_image_without_u(spaces):
    ps = spaces["W(3,3)"]
    e = canonical_embedding(ps, 3)
    U = extract_star_subspace(e)
    other = Subspace.span(ps.field, [[0, 0, 0, 1, 1]], 5)
    misses = [i for i, img in enumerate(e.images) if not img.contains(other)]
    assert misses
    with pytest.raises(StarViolation) as exc:
        reduce_to_quotient(e, other)
    assert exc.value.args == (f"image {misses[0]} does not contain U",)
    assert reduce_to_quotient(e, U).images == analyze_embedding(e).reduced.images


def test_derived_embeddings_hold_no_reference_back(spaces):
    """The dual and the quotient embedding do not point back at their
    source, so no reference cycle keeps either alive: neither through
    their meta nor through their memo slots, filled here."""
    e = canonical_embedding(spaces["W(3,2)"], 3)
    dual = _dualized(e)
    g = reduce_to_quotient(e, extract_star_subspace(e))
    for derived in (dual, g):
        derived.stacked()
        _dualized(derived)
        _base_witness_pair(derived, derived, 10)
        slots = [derived.meta, *derived.meta.values(), derived._stack,
                 *derived._stack, derived._dual, derived._base_witness,
                 *derived._base_witness]
        assert not any(obj is e for obj in slots)
        assert not any(obj is e for obj in gc.get_referents(*slots))
        assert not any(obj is e for obj in gc.get_referents(derived))


# Digests of the outputs of the per-point and per-candidate loops, recorded
# before they were batched: every star subspace (limit=None), the
# canonical table and its analysis, for k = 3.
DIGESTS = {
    "W(3,2)": "a77921fe08178f8efacc1dee083bbaf835b119e542990c908286fbfa7f5d4733",
    "W(3,3)": "ac3a82a31cf7bd0b8dee9b6c1e45722c3869b7be80c2d855eb3b247592a136b2",
    "H(3,4)": "b9d096ce02fcffa030783596dd266c80381b141a3703514b423c63e9947e8e6f",
    "Q(4,2)": "edf362f68dab403e7a22c718f8e709b7ce41da2b7926314eea90e864f52cf368",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_structural_outputs_are_byte_identical(spaces, name):
    ps = spaces[name]
    e = canonical_embedding(ps, 3)
    obj = {"stars": [U.to_rows() for U in find_star_subspaces(ps, 3, limit=None)],
           "canonical": e.as_json_obj(), "u": e.meta["u_basis"],
           "analysis": analyze_embedding(e).as_json_obj()}
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS[name]


# ---------------------------------------------------------------------------
# the line table of a polar space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, n", [(w32, 4), (w33, 5), (h34, 4), (q42, 5)])
def test_line_point_table_matches_the_per_point_rule(make, n):
    ps = make(n)
    reps = projective_point_reps(ps.field, 2)
    for l, L in enumerate(ps.lines):
        want = sorted(ps.point_index(Subspace.span(ps.field, r))
                      for r in mat_mul(ps.field, reps, L.basis))
        got = ps.line_point_indices(l)
        assert got == tuple(want)
        assert all(type(i) is int for i in got)
    with pytest.raises(IndexError):
        ps.line_point_indices(len(ps.lines))


# ---------------------------------------------------------------------------
# the fused analysis against the six-elimination path it replaced
# ---------------------------------------------------------------------------

def parent_stacked(e):
    """The former ``Embedding.stacked``: bases, residual maps, dimensions."""
    B = stack_bases(e.field, e.images, e.target_n)
    # the residuals W - W[..., pivots] B of the rows W of the identity
    f = e.field
    W = np.eye(e.target_n, dtype=np.uint8)[None]
    coeffs = np.take_along_axis(W, (B != 0).argmax(axis=2)[..., None, :], axis=-1)
    R = f.add_table[W, f.neg_table[mat_mul(f, coeffs, B)]]
    return B, R, tuple(B.any(axis=2).sum(axis=1).tolist())


def fresh_copy(e):
    """e on fresh copies of its images, so no memo of theirs is shared."""
    return Embedding(e.source, e.target_k,
                     [Subspace(s.field, s.ambient_dim, s.basis) for s in e.images],
                     target_n=e.target_n)


def parent_reduce_to_quotient(e, U):
    """The former quotient: a span_stack of the projected bases."""
    ps = e.source
    d = e.target_k - ps.rank
    if U.dim != d:
        raise DimensionMismatch(f"U has dimension {U.dim}, expected k - m = {d}")
    qs = QuotientSpace(e.target_n, U)
    images = span_stack(e.field, mat_mul(e.field, parent_stacked(e)[0], qs.coordinate_map.T))
    for i, (img, S) in enumerate(zip(e.images, images)):
        if S.dim != img.dim - d:
            raise StarViolation(f"image {i} does not contain U")
    g = Embedding(ps, ps.rank, images, target_n=qs.dim, meta={"quotient": qs})
    verify_isometric(g)
    return g


def parent_induce_point_map(g):
    """The former point map: annihilators() of the images, then one
    nullspace_stack over the stars."""
    ps = g.source
    fieldq, n = g.field, g.target_n
    anns = stack_bases(fieldq, annihilators(fresh_copy(g).images), n)
    anns = np.concatenate([anns, np.zeros((1,) + anns.shape[1:], dtype=np.uint8)])
    idx = ps.point_stars
    K, dims = nullspace_stack(fieldq, anns[idx].reshape(len(idx), -1, n))
    bad = np.flatnonzero(dims != 1)
    if bad.size:
        i, dim = int(bad[0]), int(dims[bad[0]])
        if dim == 0:
            raise EmptyIntersection(
                f"images over the star of point {i} intersect only in zero")
        raise Anomaly(
            f"images over the star of point {i} intersect in dimension "
            f"{dim}", {"point": i, "dim": dim})
    out = tuple(Subspace(fieldq, n, basis[:1]) for basis in K)
    if len({s._bytes for s in out}) != len(out):
        raise NotInjective("the induced point map collides")
    return out


def parent_check_line_images(ps, g, q_map):
    """The former line checks: the pair ranks, here by a rank_stack of the
    concatenated pairs, then a rank_stack."""
    fieldq, n = ps.field, g.target_n
    q_bases = stack_bases(fieldq, q_map, n)
    lines, pairs = ps.line_points, ps.collinear_pairs
    C, T = ps.collinear_triples.T
    PQ = q_bases[pairs].reshape(len(pairs), 2 * q_bases.shape[1], n)
    B, _, dims = parent_stacked(g)
    pair_ranks = rank_stack(fieldq, np.concatenate([B[T], PQ[C]], axis=1))
    bad = np.flatnonzero(pair_ranks != np.array(dims)[T])
    if bad.size:
        (a, b), t = pairs[C[bad[0]]].tolist(), int(T[bad[0]])
        raise ContainmentViolation(
            f"image of maximal {t} misses q(P) + q(Q) for points ({a}, {b})",
            (a, b, t))
    spans = rank_stack(fieldq, q_bases[lines].reshape(
        len(lines), lines.shape[1] * q_bases.shape[1], n))
    for l, pts in enumerate(lines.tolist()):
        image_points = {q_map[i]._bytes for i in pts}
        if spans[l] != 2 or len(image_points) != fieldq.q + 1:
            raise PartialLine(
                f"line {l} maps to {len(image_points)} points spanning "
                f"dimension {spans[l]}; a full line has {fieldq.q + 1} "
                "points in dimension 2")
        if any(q_map[i].dim != 1 for i in pts):
            raise PartialLine(f"line {l} image is a proper subset of a line")
    return {"lines_checked": len(ps.lines), "full_lines": len(lines),
            "containments_checked": len(T), "lines_ok": True}


def failure(fn, *args):
    """fn(*args), or its failure as (type, args)."""
    try:
        return fn(*args)
    except QGeomError as exc:
        return type(exc), exc.args


def failed(out):
    return isinstance(out, tuple) and isinstance(out[0], type)


def fused_structure(e):
    U = extract_star_subspace(e)
    g = reduce_to_quotient(e, U)
    memo = g._bases
    q = induce_point_map(g)
    return U, g, memo, q, check_line_images(e.source, g, q)


def parent_structure(e):
    U = extract_star_subspace(e)
    g = parent_reduce_to_quotient(e, U)
    memo = parent_stacked(g)[0::2]
    q = parent_induce_point_map(g)
    return U, g, memo, q, parent_check_line_images(e.source, g, q)


def structure_record(out):
    """Everything the analysis recovers, as comparable values."""
    if failed(out):
        return out
    U, g, (B, dims), q, stats = out
    return (U.key, [s.key for s in g.images], B.shape, B.tobytes(), dims,
            [s.key for s in q], stats)


@pytest.fixture(scope="module")
def micro_families(spaces):
    """One member other than the canonical embedding from each family of
    the anchored micro census: the star family (a common point) and the
    flat family (none)."""
    ps = spaces["W(3,2)"]
    res = search_embeddings(ps, 5, 3)
    verts, skip = res.target.vertices, canonical_embedding(ps, 3).key
    found = {}
    for row in res.members.tolist():
        e = Embedding(ps, 3, [verts[i] for i in row])
        d = multi_intersection(list(e.images)).dim
        if d not in found and e.key != skip:
            found[d] = e
            if len(found) == 2:
                return found[1], found[0]
    raise AssertionError("the micro census lacks a family")


def analysis_cases(spaces, micro_families):
    star, flat = micro_families
    cases = {name: canonical_embedding(ps, 3) for name, ps in spaces.items()}
    cases.update({"micro star": star, "micro flat": flat,
                  "micro star dual": _dualized(star), "micro flat dual": _dualized(flat)})
    return cases


def test_fused_analysis_matches_the_six_elimination_path(spaces, micro_families):
    kinds = set()
    for name, e in analysis_cases(spaces, micro_families).items():
        got = structure_record(failure(fused_structure, fresh_copy(e)))
        want = structure_record(failure(parent_structure, fresh_copy(e)))
        assert got == want, name
        kinds.add(got[0] if failed(got) else "ok")
    # the flat family has no common point, so its analysis stops at U
    assert kinds == {"ok", LemmaViolation}


def test_the_reduced_bases_memo_is_the_reduced_stack(spaces, micro_families):
    for name, e in analysis_cases(spaces, micro_families).items():
        try:
            g = analyze_embedding(fresh_copy(e)).reduced
        except LemmaViolation:
            continue
        B, dims = g._stacked_bases()
        assert not B.flags.writeable
        assert all(not s.basis.flags.writeable for s in g.images)
        # verified, but the residual maps are not built until asked for
        assert g._verified and g._stack is None
        got, want = g.stacked(), parent_stacked(g)
        assert got[0] is B and got[2] == want[2] == dims
        assert all(np.array_equal(a, b) and a.shape == b.shape
                   for a, b in zip(got[:2], want[:2])), name


def plant_image_without(e, U, j, rng):
    """e with image j replaced by a k-dim subspace through M_j missing U."""
    ps, field, n, k = e.source, e.field, e.target_n, e.target_k
    M = ps.maximals[j].basis
    reps = projective_point_reps(field, n)
    for t in rng.permutation(len(reps)).tolist():
        rows = [M] + [reps[(t + s) % len(reps)][None] for s in range(k - ps.rank)]
        W = Subspace.span(field, np.vstack(rows), n)
        if W.dim == k and not W.contains(U):
            imgs = list(e.images)
            imgs[j] = W
            return Embedding(ps, k, imgs, target_n=n)
    raise AssertionError("no subspace through M_j misses U")


@pytest.mark.parametrize("name", ["W(3,2)", "W(3,3)", "H(3,4)", "Q(4,2)"])
def test_planted_faults_fail_as_before(spaces, name):
    """The same exception, message and first index on both paths."""
    ps = spaces[name]
    e = canonical_embedding(ps, 3)
    U = extract_star_subspace(e)
    rng = np.random.default_rng(len(name) + 40)
    t = len(ps.maximals)
    # an image without U; with two, the first is reported
    for j in sorted(rng.choice(t, size=3, replace=False).tolist()):
        bad = plant_image_without(e, U, j, rng)
        got = failure(reduce_to_quotient, fresh_copy(bad), U)
        assert got == failure(parent_reduce_to_quotient, fresh_copy(bad), U)
        assert got == (StarViolation, (f"image {j} does not contain U",))
        two = plant_image_without(bad, U, (j + 5) % t, rng)
        got = failure(reduce_to_quotient, fresh_copy(two), U)
        assert got == failure(parent_reduce_to_quotient, fresh_copy(two), U)
        assert got == (StarViolation, (f"image {min(j, (j + 5) % t)} does not contain U",))
    # a missed containment: one reduced image swapped for another's
    report = analyze_embedding(e)
    g, q = report.reduced, report.point_map
    seen = set()
    for j in rng.choice(t, size=4, replace=False).tolist():
        imgs = list(g.images)
        imgs[j] = imgs[(j + 1) % t]
        g2 = Embedding(ps, ps.rank, imgs, target_n=g.target_n)
        got = failure(check_line_images, ps, g2, q)
        assert got == failure(parent_check_line_images, ps, fresh_copy(g2), q)
        assert got[0] is ContainmentViolation and got[1][1][2] in (j, (j + 1) % t)
        seen.add(got[1])
    assert len(seen) > 1
    # a colliding point map: in the line checks, and from the point map
    for i in rng.choice(len(q), size=4, replace=False).tolist():
        q2 = list(q)
        q2[i] = q2[(i + 1) % len(q)]
        got = failure(check_line_images, ps, g, q2)
        assert got == failure(parent_check_line_images, ps, fresh_copy(g), q2)
        assert got[0] in (ContainmentViolation, PartialLine)
    # point images that are no points: all containments hold, lines fail
    zero = Subspace.zero(ps.field, g.target_n)
    first, second = ps.line_points[0, :2].tolist()
    q2 = list(q)
    q2[first] = zero
    got = failure(check_line_images, ps, g, q2)
    assert got == failure(parent_check_line_images, ps, fresh_copy(g), q2)
    assert got == (PartialLine, ("line 0 image is a proper subset of a line",))
    q2[second] = zero
    got = failure(check_line_images, ps, g, q2)
    assert got == failure(parent_check_line_images, ps, fresh_copy(g), q2)
    assert got[0] is PartialLine and got[1][0].startswith(f"line 0 maps to {ps.field.q} points")
    kinds = set()
    for g2 in edited_tables(ps, g, rng):
        got = failure(induce_point_map, g2)
        want = failure(parent_induce_point_map, fresh_copy(g2))
        if failed(got):
            assert got == want
            kinds.add(got[0])
        else:
            assert [s.key for s in got] == [s.key for s in want]
    assert NotInjective in kinds


def test_verify_leaves_the_residual_maps_unbuilt(spaces):
    for ps in spaces.values():
        e = fresh_copy(canonical_embedding(ps, 3))
        verify_isometric(e)
        assert e._stack is None and e._bases is not None
        got = e.stacked()
        assert e.stacked() is got and got[0] is e._stacked_bases()[0]
        want = parent_stacked(e)
        assert all(np.array_equal(a, b) and a.shape == b.shape
                   for a, b in zip(got[:2], want[:2]))
        assert got[2] == want[2]
        assert not got[0].flags.writeable and not got[1].flags.writeable


def test_the_maximal_pairs_table(spaces):
    for ps in spaces.values():
        I, J = ps.maximal_pairs
        want = np.triu_indices(len(ps.maximals), 1)
        assert np.array_equal(I, want[0]) and np.array_equal(J, want[1])
        assert ps.maximal_pairs is ps.maximal_pairs
        assert not ps.maximal_pairs.flags.writeable


def test_an_analysis_makes_four_stacked_eliminations(monkeypatch, spaces):
    """Once the embedding is verified and its images' annihilators are
    known: the quotient, the reduced embedding's verification, the point
    map and the line checks."""
    calls = []

    def counted(field, stack):
        calls.append(np.shape(stack))
        return rref_stack(field, stack)

    for name in ("W(3,2)", "W(3,3)"):
        e = fresh_copy(canonical_embedding(spaces[name], 3))
        verify_isometric(e)
        multi_intersection(list(e.images))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(subspace, "rref_stack", counted)
            m.setattr(embed, "rref_stack", counted)
            analyze_embedding(e)
        assert len(calls) == 4, (name, calls)
