"""The level-by-level polar build and the stacked table builders around it.

``build_polar_space`` grows each level by one stacked elimination over the
(subspace, orthogonal point) pairs.  The former candidate loop (one
``S.contains(P)`` and one ``S + P`` per candidate) is copied below as the
oracle: points, lines, maximals and rank must match it byte for byte and
in order, at the form's own dimension and padded by one coordinate, and in
one block or many.  The stacked ``duality_permutation``, ``point_star`` and
``source_distance_matrix`` are held to the per-subspace rules they
replaced, with a block budget small enough to split every stack.
"""

import numpy as np
import pytest

from qgeom import polar, subspace
from qgeom.embed import (
    Embedding,
    EquivalenceWitness,
    _construct_witness,
    _dualized,
    canonical_embedding,
)
from qgeom.errors import (
    AmbientMismatch,
    DegenerateForm,
    NonUniformMaximals,
    QGeomError,
    RankZero,
    TooLarge,
)
from qgeom.gf import Field
from qgeom.grassmann import GrassmannGraph, duality_permutation
from qgeom.polar import Form, build_polar_space, point_star, radical
from qgeom.subspace import (
    Subspace,
    mat_mul,
    nullspace,
    pair_rank_stack,
    projective_point_reps,
    rank,
    rank_stack,
    rref_stack,
)

FIELDS = {2: Field(2), 3: Field(3), 4: Field(2, 2), 5: Field(5), 8: Field(2, 3), 9: Field(3, 2),
          16: Field(2, 4)}


# ---------------------------------------------------------------------------
# the oracle: the former candidate loop
# ---------------------------------------------------------------------------

def oracle_build(field, ambient_dim, form, cap=10**6):
    """The former build_polar_space: (points, lines, rank, maximals)."""
    if form.form_dim > ambient_dim:
        raise AmbientMismatch(
            f"form_dim {form.form_dim} exceeds ambient {ambient_dim}")
    if radical(form).dim != 0:
        raise DegenerateForm(f"{form.kind} form on {form.form_dim} coords "
                             "has a nonzero radical")
    q = field.q
    npr = form.form_dim
    n_points_projected = (q**npr - 1) // (q - 1)
    if n_points_projected > cap:
        raise TooLarge(f"{n_points_projected} candidate points exceed cap {cap}")
    reps = projective_point_reps(field, npr)
    sing_mask = np.array([form.singular_vector(r) for r in reps], dtype=bool)
    point_vecs = reps[sing_mask]
    if point_vecs.shape[0] == 0:
        raise RankZero("the form has no singular points")
    padded = np.zeros((point_vecs.shape[0], ambient_dim), dtype=np.uint8)
    padded[:, :npr] = point_vecs
    points = [Subspace(field, ambient_dim, v[None, :]) for v in padded]
    order = sorted(range(len(points)), key=lambda i: points[i].key)
    points = [points[i] for i in order]
    padded = padded[order]
    profile = form.orthogonal_profile(padded)
    levels = [[Subspace.zero(field, ambient_dim)], points]
    extended_all = True
    while True:
        current = levels[-1]
        seen = set()
        nxt = []
        any_unextended = False
        for S in current:
            grew = False
            vals = mat_mul(field, S.basis[:, :npr], profile.T)
            ok = ~(vals != 0).any(axis=0)
            for pi in np.flatnonzero(ok):
                P = points[pi]
                if S.contains(P):
                    continue
                T = S + P
                if T.key in seen:
                    grew = True
                    continue
                seen.add(T.key)
                nxt.append(T)
                grew = True
            if not grew:
                any_unextended = True
        if not nxt:
            break
        if any_unextended:
            extended_all = False
        levels.append(sorted(nxt))
    m = len(levels) - 1
    if not extended_all:
        raise NonUniformMaximals(
            "a totally singular subspace below the top rank cannot be extended")
    if 2 * m > npr:
        raise QGeomError(f"rank {m} exceeds form_dim/2 = {npr / 2}; "
                         "not a polar space")
    return points, (levels[2] if m >= 2 else []), m, levels[m]


# ---------------------------------------------------------------------------
# the forms
# ---------------------------------------------------------------------------

def symplectic(q, m):
    F = FIELDS[q]
    G = np.zeros((2 * m, 2 * m), dtype=np.uint8)
    for i in range(m):
        G[2 * i, 2 * i + 1] = 1
        G[2 * i + 1, 2 * i] = F.neg_table[1]
    return F, Form(F, "alternating", 2 * m, gram=G)


def quadric(q, d, terms):
    F = FIELDS[q]
    Q = np.zeros((d, d), dtype=np.uint8)
    for i, j in terms:
        Q[i, j] = 1
    return F, Form(F, "quadratic", d, quad=Q)


def hermitian(d):
    return FIELDS[4], Form(FIELDS[4], "hermitian", d, gram=np.eye(d, dtype=np.uint8))


FORMS = {f"W(1,{q})": (symplectic, q, 1) for q in (2, 3, 4, 5)}
FORMS.update({f"W(3,{q})": (symplectic, q, 2) for q in (2, 3, 4, 5)})
FORMS.update({
    "W(5,2)": (symplectic, 2, 3),
    "H(2,4)": (hermitian, 3),
    "H(3,4)": (hermitian, 4),
    "Q(4,2)": (quadric, 2, 5, [(0, 1), (2, 3), (4, 4)]),
    "Q(4,3)": (quadric, 3, 5, [(0, 1), (2, 3), (4, 4)]),
    "Q+(3,2)": (quadric, 2, 4, [(0, 1), (2, 3)]),
    # x4^2 + x4 x5 + x5^2 is anisotropic over GF(2)
    "Q-(5,2)": (quadric, 2, 6, [(0, 1), (2, 3), (4, 4), (4, 5), (5, 5)]),
    "Q+(5,2)": (quadric, 2, 6, [(0, 1), (2, 3), (4, 5)]),
})


def make(name):
    build, *args = FORMS[name]
    return build(*args)


def keys(spaces):
    return [(S.key, S.basis.tobytes()) for S in spaces]


def assert_matches_oracle(field, n, form):
    ps = build_polar_space(field, n, form)
    points, lines, m, maximals = oracle_build(field, n, form)
    assert ps.rank == m
    assert keys(ps.points) == keys(points)
    assert keys(ps.lines) == keys(lines)
    assert keys(ps.maximals) == keys(maximals)
    return ps


@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("name", sorted(FORMS))
def test_build_matches_the_candidate_loop(name, pad):
    field, form = make(name)
    assert_matches_oracle(field, form.form_dim + pad, form)


@pytest.mark.parametrize("budget", [1, 40_000, 400_000])
@pytest.mark.parametrize("name", ["W(3,3)", "H(3,4)", "Q-(5,2)", "W(5,2)"])
def test_build_over_several_blocks(monkeypatch, name, budget):
    """A budget of 1 puts every subspace in its own block; the larger ones
    put a few in each, so block offsets matter."""
    monkeypatch.setattr(polar, "_PAIR_BLOCK_BYTES", budget)
    field, form = make(name)
    assert_matches_oracle(field, form.form_dim + 1, form)


ERROR_FORMS = {
    "degenerate alternating": lambda: (
        FIELDS[2], Form(FIELDS[2], "alternating", 4, gram=np.zeros((4, 4), dtype=np.uint8))),
    "degenerate quadric": lambda: quadric(2, 3, [(0, 1)]),
    "anisotropic quadric": lambda: quadric(2, 2, [(0, 0), (0, 1), (1, 1)]),
    "hermitian on one coordinate": lambda: hermitian(1),
}


@pytest.mark.parametrize("name", sorted(ERROR_FORMS))
def test_errors_match_the_candidate_loop(name):
    field, form = ERROR_FORMS[name]()
    with pytest.raises(QGeomError) as want:
        oracle_build(field, form.form_dim + 1, form)
    with pytest.raises(QGeomError) as got:
        build_polar_space(field, form.form_dim + 1, form)
    assert type(got.value) is type(want.value)
    assert type(got.value) in (DegenerateForm, RankZero)
    assert str(got.value) == str(want.value)


def test_a_level_that_grows_in_part_is_non_uniform():
    """No form gives maximals of two dimensions, so the singular points are
    cut down by hand in W(5,2): the plane <e0, e2, e4> without e4 and
    e2 + e4, and e1, which is orthogonal to e2 and nothing else kept.  At
    the line level the lines of the plane grow and <e1, e2> cannot."""
    field, form = symplectic(2, 3)
    plane = Subspace.span(field, np.eye(6, dtype=np.uint8)[[0, 2, 4]])
    keep = {v.tobytes() for v in plane.all_vectors()[1:]} - {
        bytes([0, 0, 0, 0, 1, 0]), bytes([0, 0, 1, 0, 1, 0])}
    keep.add(bytes([0, 1, 0, 0, 0, 0]))
    form.singular_vector = lambda x: np.asarray(x, dtype=np.uint8).tobytes() in keep
    with pytest.raises(NonUniformMaximals) as want:
        oracle_build(field, 6, form)
    with pytest.raises(NonUniformMaximals) as got:
        build_polar_space(field, 6, form)
    assert str(got.value) == str(want.value)


def test_w53_maximal_count():
    """W(5,3) has prod_{i=1..3} (3^i + 1) = 1,120 maximals; the candidate
    loop takes too long here to serve as the oracle."""
    field, form = symplectic(3, 3)
    ps = build_polar_space(field, 6, form)
    assert ps.rank == 3 and len(ps.points) == 364
    assert len(ps.maximals) == (3 + 1) * (9 + 1) * (27 + 1)
    assert keys(ps.maximals) == sorted(set(keys(ps.maximals)))
    assert all(M.dim == 3 for M in ps.maximals)


# ---------------------------------------------------------------------------
# the other stacked table builders, split into many blocks
# ---------------------------------------------------------------------------

@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", 64)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 1), (4, 3, 1), (2, 3, 0)])
def test_duality_permutation_matches_the_vertex_loop(monkeypatch, q, n, k):
    field = FIELDS[q]
    g, g_dual = GrassmannGraph(field, n, k), GrassmannGraph(field, n, n - k)
    # after the graphs: their adjacency kernel needs the whole budget
    monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", 64)
    perm = duality_permutation(g, g_dual)
    assert perm.dtype == np.int64
    assert perm.tolist() == [
        g_dual.index_of(Subspace(field, n, nullspace(field, v.basis)))
        for v in g.vertices]


@pytest.mark.parametrize("name", ["W(3,3)", "H(3,4)", "Q(4,2)"])
def test_point_star_matches_the_containment_loop(small_blocks, name):
    field, form = make(name)
    ps = build_polar_space(field, form.form_dim + 1, form)
    for S in (list(ps.points[:7]) + list(ps.lines[:7]) + list(ps.maximals[:3])
              + [Subspace.zero(field, ps.ambient_dim)]):
        assert point_star(ps, S) == [M for M in ps.maximals if M.contains(S)]


@pytest.mark.parametrize("name", ["W(3,3)", "H(3,4)", "Q-(5,2)"])
def test_source_distances_match_the_pair_rule(small_blocks, name):
    field, form = make(name)
    ps = build_polar_space(field, form.form_dim + 1, form)
    D = ps.source_distance_matrix()
    M = ps.maximals
    assert D.dtype == np.int16 and not D.flags.writeable
    assert D.tolist() == [[ps.rank - A.intersection_dim(B) if i != j else 0
                           for j, B in enumerate(M)] for i, A in enumerate(M)]


def invertible(field, rng, n):
    """A random invertible n x n matrix: unit lower times upper triangular
    with a nonzero diagonal."""
    L = np.tril(rng.integers(0, field.q, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(0, field.q, size=(n, n)), 1)
    U[np.arange(n), np.arange(n)] = rng.integers(1, field.q, size=n)
    return mat_mul(field, L.astype(np.uint8), U.astype(np.uint8))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_pair_rank_stack_matches_rank_stack(monkeypatch, q):
    """Pair ranks by kernel rows (``_pair_ranks`` on an RREF stack, and
    ``pair_rank_stack`` on any stack) against the rank of each stacked
    pair: A has a zero member, a full-rank member and members of rank at
    most 2, A without its zero member leaves the full-rank member fewer
    free columns than the widest, a third A has only full-rank members (no
    free column at all), and B has a zero member.  Over GF(2), 62 and 63
    columns sit on the two sides of the packed width."""
    field = FIELDS[q]
    rng = np.random.default_rng(q)
    for n in (5, 62, 63) if q == 2 else (5,):
        A = np.zeros((9, n, n), dtype=np.uint8)
        A[2:, :2] = rng.integers(0, q, size=(7, 2, n))
        A[1] = invertible(field, rng, n)
        full = np.stack([invertible(field, rng, n) for _ in range(3)])
        B = rng.integers(0, q, size=(7, 3, n)).astype(np.uint8)
        B[0] = 0
        I, J = rng.integers(0, 9, size=50), rng.integers(0, 7, size=50)
        I[:3] = 0, 1, 1
        J[:3] = 3, 0, 5
        for stack, rows in ((A, I), (A[1:], I % 8), (full, I % 3)):
            want = [rank(field, np.vstack([stack[i], B[j]])) for i, j in zip(rows, J)]
            R = rref_stack(field, stack)[0]
            for budget in (1, 32 * 5 * 5 * 3, 1 << 22):
                monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", budget)
                got = pair_rank_stack(field, stack, B, rows, J)
                assert got.dtype == np.int64 and got.tolist() == want, (n, budget)
                got = subspace._pair_ranks(field, R, B, rows, J)
                assert got.dtype == np.int64 and got.tolist() == want, (n, budget)
                assert rank_stack(field, np.concatenate([R[rows], B[J]], axis=1)).tolist() == want
            assert pair_rank_stack(field, stack, B, rows[:0], J[:0]).shape == (0,)
            assert np.array_equal(rank_stack(field, np.concatenate([stack[rows], B[J]], axis=1)),
                                  want)


# ---------------------------------------------------------------------------
# each witness candidate is checked once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,n,k", [("W(3,2)", 5, 3), ("W(3,2)", 4, 2),
                                      ("H(3,4)", 5, 3), ("W(3,3)", 4, 2)])
def test_each_witness_candidate_is_checked_once(monkeypatch, name, n, k):
    field, form = make(name)
    e = canonical_embedding(build_polar_space(field, n, form), k)
    rng = np.random.default_rng(n + field.q)
    checks = []
    verify_on = EquivalenceWitness.verify_on

    def counted(self, f1, f2):
        # a duality witness on (f1, f2) is the same check as its plain
        # matrix on (dual of f1, f2)
        checks.append((self.matrix.tobytes(), self.frob_power,
                       id(_dualized(f1) if self.dual else f1), id(f2)))
        return verify_on(self, f1, f2)

    monkeypatch.setattr(EquivalenceWitness, "verify_on", counted)
    for trial in range(3):
        while True:
            M = rng.integers(0, field.q, size=(n, n)).astype(np.uint8)
            if rank(field, M) == n:
                break
        s = EquivalenceWitness(field, M, trial % field.e, dual=n == 2 * k and trial == 1)
        f = Embedding(e.source, k, [s.apply_to_subspace(img) for img in e.images],
                      target_n=n)
        checks.clear()
        w = _construct_witness(e, f, 10_000)
        assert verify_on(w, e, f)
        assert checks and len(checks) == len(set(checks))
