"""The whole-table witness check and the stacked product under it.

``mat_mul`` on stacks is checked against the former 2-d product, copied
below as the oracle, member by member; ``reduce_rows_against`` against
the former loop over pivots; ``EquivalenceWitness.verify_on`` against
the former one-image check ``maps_onto`` applied to every image.  A
composite witness that is right on the first image only must not get
past ``connecting_automorphism``, and the witnesses themselves are held
to SHA-256 digests recorded before the whole-table check came in.  The
witness fit, which solves for the collineation A alone, is checked
against the former system in A and one scalar per point, copied below.
"""

import hashlib
import json

import numpy as np
import pytest

from qgeom import embed
from qgeom.embed import (
    _STRUCTURE_FAILURES,
    Embedding,
    EquivalenceWitness,
    _dualized,
    _fit_semilinear,
    analyze_embedding,
    canonical_embedding,
    classify_embeddings,
    connecting_automorphism,
    search_embeddings,
)
from qgeom.errors import DimensionMismatch, QGeomError, SearchBudgetExceeded
from qgeom.gf import Field
from qgeom.polar import Form, build_polar_space
from qgeom.subspace import (
    Subspace,
    invert_matrix,
    mat_frobenius,
    mat_mul,
    multi_intersection,
    nullspace,
    rank,
    reduce_rows_against,
)

FIELDS = {2: Field(2), 3: Field(3), 4: Field(2, 2), 5: Field(5), 7: Field(7),
          8: Field(2, 3), 9: Field(3, 2), 16: Field(2, 4)}
GF2, GF3, GF4 = FIELDS[2], FIELDS[3], FIELDS[4]
SYMPLECTIC_2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
SYMPLECTIC_3 = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]


# ---------------------------------------------------------------------------
# the oracle: the 2-d product, the pivot loop and the one-image check
# ---------------------------------------------------------------------------

def oracle_mat_mul(field, A, B):
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    assert A.ndim == B.ndim == 2 and A.shape[1] == B.shape[0]
    if field.p == 2 and field.e == 1:
        return (A @ B) & 1
    if field.e == 1:
        return ((A.astype(np.int32) @ B.astype(np.int32)) % field.p).astype(np.uint8)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    mulT, addT = field.mul_table, field.add_table
    for t in range(A.shape[1]):
        prod = mulT[A[:, t]][:, B[t]]
        out = out ^ prod if field.p == 2 else addT[out, prod]
    return out


def oracle_reduce(field, basis, pivots, rows):
    W = np.asarray(rows, dtype=np.uint8).copy()
    mulT, addT, negT = field.mul_table, field.add_table, field.neg_table
    for i, c in enumerate(pivots):
        W = addT[W, mulT[negT[W[:, c]][:, None], basis[i][None, :]]]
    return W


def oracle_maps_onto(w, S, T):
    field = w.field
    B = S.annihilator().basis if w.dual else S.basis
    if B.shape[0] != T.dim:
        return False
    B = field.frob_table[w.frob_power][B]
    rows = oracle_mat_mul(field, B, w.matrix.T)
    return not oracle_reduce(field, T.basis, T.pivots, rows).any()


def oracle_verify_on(w, f1, f2):
    return all(oracle_maps_onto(w, a, b) for a, b in zip(f1.images, f2.images))


# ---------------------------------------------------------------------------
# stacked mat_mul
# ---------------------------------------------------------------------------

# (A shape, B shape): broadcast leading axes, zero rows, zero columns,
# a zero inner dimension and an empty stack
STACK_SHAPES = [
    ((3, 4, 5), (5, 6)),
    ((4, 5), (3, 5, 6)),
    ((3, 4, 5), (3, 5, 2)),
    ((2, 1, 4, 3), (5, 3, 6)),
    ((1, 2, 3), (4, 3, 3)),
    ((3, 0, 5), (5, 6)),
    ((3, 4, 5), (3, 5, 0)),
    ((3, 4, 0), (0, 6)),
    ((2, 4, 0), (2, 0, 6)),
    ((4, 0), (3, 0, 2)),
    ((0, 4, 5), (5, 6)),
    ((0, 4), (4, 0)),
]


def per_member(field, A, B, product):
    """The stacked product by one 2-d ``product`` call per member."""
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, lead + A.shape[-2:])
    B = np.broadcast_to(B, lead + B.shape[-2:])
    out = np.zeros(lead + (A.shape[-2], B.shape[-1]), dtype=np.uint8)
    for idx in np.ndindex(*lead):
        out[idx] = product(field, A[idx], B[idx])
    return out


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("shapes", STACK_SHAPES, ids=str)
def test_stacked_mat_mul_matches_members(q, shapes):
    field = FIELDS[q]
    rng = np.random.default_rng(q * 100 + len(shapes[0]))
    A = rng.integers(0, q, size=shapes[0]).astype(np.uint8)
    B = rng.integers(0, q, size=shapes[1]).astype(np.uint8)
    got = mat_mul(field, A, B)
    assert got.dtype == np.uint8
    assert np.array_equal(got, per_member(field, A, B, oracle_mat_mul))
    assert np.array_equal(got, per_member(field, A, B, mat_mul))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_mat_mul_2d_matches_oracle(q):
    field = FIELDS[q]
    rng = np.random.default_rng(q)
    for m, k, n in [(1, 1, 1), (7, 5, 9), (40, 6, 3), (3, 12, 30)]:
        A = rng.integers(0, q, size=(m, k)).astype(np.uint8)
        B = rng.integers(0, q, size=(k, n)).astype(np.uint8)
        assert np.array_equal(mat_mul(field, A, B), oracle_mat_mul(field, A, B))
    v = rng.integers(0, q, size=5).astype(np.uint8)
    M = rng.integers(0, q, size=(5, 4)).astype(np.uint8)
    assert np.array_equal(mat_mul(field, v, M), oracle_mat_mul(field, v[None, :], M))


def test_mat_mul_checks_stacks():
    with pytest.raises(ValueError):
        mat_mul(GF3, np.full((2, 2, 2), 3, dtype=np.uint8), np.eye(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        mat_mul(GF4, np.eye(2, dtype=np.uint8), np.full((3, 2, 2), 4, dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        mat_mul(GF2, np.zeros((2, 3, 4), dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        mat_mul(GF2, np.uint8(1), np.eye(2, dtype=np.uint8))


@pytest.mark.parametrize("field,bad", [(GF2, 2), (GF4, 4), (GF3, 3)])
def test_witness_matrix_is_range_checked_when_built(field, bad):
    """A witness checks its matrix once, when it is built, with the message
    the public mat_mul gives for the same matrix; its own products then
    skip that check, and mat_mul keeps it."""
    M = np.eye(3, dtype=np.uint8)
    M[1, 2] = bad
    with pytest.raises(ValueError) as built:
        EquivalenceWitness(field, M)
    with pytest.raises(ValueError) as public:
        mat_mul(field, M, np.eye(3, dtype=np.uint8))
    assert str(built.value) == str(public.value) == f"entry {bad} out of range for {field}"
    with pytest.raises(DimensionMismatch, match="cannot multiply"):
        mat_mul(field, np.eye(3, dtype=np.uint8), np.eye(2, dtype=np.uint8))


# ---------------------------------------------------------------------------
# reduce_rows_against
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", sorted(FIELDS))
def test_reduce_rows_against_matches_pivot_loop(q):
    field = FIELDS[q]
    rng = np.random.default_rng(7 * q)
    n = 6
    for d in range(n + 1):
        S = Subspace.span(field, rng.integers(0, q, size=(d, n)).astype(np.uint8), n)
        members = mat_mul(field, rng.integers(0, q, size=(4, S.dim)).astype(np.uint8),
                          S.basis)
        rows = np.vstack([rng.integers(0, q, size=(5, n)).astype(np.uint8), members,
                          np.zeros((1, n), dtype=np.uint8)])
        for W in (rows, rows[:0]):
            got = reduce_rows_against(field, S.basis, S.pivots, W)
            assert np.array_equal(got, oracle_reduce(field, S.basis, S.pivots, W))
        # members of S reduce to zero
        assert not reduce_rows_against(field, S.basis, S.pivots, members).any()


def test_reduce_rows_against_range_checks_its_rows():
    """A float is not truncated and an int64 past 255 does not wrap (they
    reduced to [0, 2, 0] and [0, 1, 0]); an in-range int64 array gives
    what the same uint8 array gives."""
    basis, pivots = np.array([[1, 0, 0]], dtype=np.uint8), [0]
    for bad, rows in ((1.7, [[1.7, 2.9, 0]]), (257, np.array([[0, 257, 0]]))):
        with pytest.raises(ValueError, match=f"^entry {bad} out of range for GF\\(3\\)$"):
            reduce_rows_against(GF3, basis, pivots, rows)
    rows = np.array([[2, 1, 2], [1, 0, 0]])
    got = reduce_rows_against(GF3, basis, pivots, rows)
    assert got.tolist() == [[0, 1, 2], [0, 0, 0]]
    assert np.array_equal(got, reduce_rows_against(GF3, basis, pivots, rows.astype(np.uint8)))


# ---------------------------------------------------------------------------
# verify_on, against the one-image check on every image
# ---------------------------------------------------------------------------

def random_invertible(field, n, rng):
    while True:
        M = rng.integers(0, field.q, size=(n, n)).astype(np.uint8)
        if rank(field, M) == n:
            return M


def random_witness(field, n, rng, dual):
    return EquivalenceWitness(field, random_invertible(field, n, rng),
                              int(rng.integers(0, field.e)), dual)


def transformed_copy(e, witness):
    return Embedding(e.source, e.target_k,
                     [witness.apply_to_subspace(img) for img in e.images],
                     target_n=e.target_n)


def replaced(e, i, S):
    images = list(e.images)
    images[i] = S
    return Embedding(e.source, e.target_k, images, target_n=e.target_n)


def other_subspace(field, n, dim, avoid, rng):
    while True:
        S = Subspace.span(field, rng.integers(0, field.q, size=(dim, n)).astype(np.uint8), n)
        if S.dim == dim and S != avoid:
            return S


POLAR = {
    "W(3,2)": (GF2, Form(GF2, "alternating", 4, gram=SYMPLECTIC_2)),
    "W(3,3)": (GF3, Form(GF3, "alternating", 4, gram=SYMPLECTIC_3)),
    "H(3,4)": (GF4, Form(GF4, "hermitian", 4, gram=np.eye(4, dtype=np.uint8))),
}

# (polar space, ambient n, target k): n = 2k admits duality witnesses
CASES = [(name, n, k) for name in POLAR for n, k in ((4, 2), (5, 3))]


@pytest.fixture(scope="module")
def spaces():
    return {(name, n): build_polar_space(POLAR[name][0], n, POLAR[name][1])
            for name, n, _ in CASES}


@pytest.mark.parametrize("name,n,k", CASES)
def test_verify_on_matches_one_image_checks(spaces, name, n, k):
    field = POLAR[name][0]
    e = canonical_embedding(spaces[(name, n)], k)
    rng = np.random.default_rng(n * 31 + field.q)
    kinds = set()
    for trial in range(6):
        s = random_witness(field, n, rng, dual=n == 2 * k and trial % 2 == 1)
        kinds.add((s.frob_power, s.dual))
        f2 = transformed_copy(e, s)
        assert s.verify_on(e, f2) and oracle_verify_on(s, e, f2)
        # only the last image wrong
        last = len(e.images) - 1
        bad = replaced(f2, last, other_subspace(field, n, k, f2.images[last], rng))
        assert not s.verify_on(e, bad) and not oracle_verify_on(s, e, bad)
        # two images swapped
        swapped = replaced(replaced(f2, 0, f2.images[1]), 1, f2.images[0])
        assert not s.verify_on(e, swapped) and not oracle_verify_on(s, e, swapped)
        # one image of the wrong dimension, inside the right one
        low = replaced(e, last, Subspace.span(field, e.images[last].basis[:-1], n))
        assert not s.verify_on(low, f2) and not oracle_verify_on(s, low, f2)
        low = replaced(f2, last, Subspace.span(field, f2.images[last].basis[:-1], n))
        assert not s.verify_on(e, low) and not oracle_verify_on(s, e, low)
        # an unrelated witness: the two checks agree
        t = random_witness(field, n, rng, dual=n == 2 * k and trial % 3 == 0)
        assert t.verify_on(e, f2) == oracle_verify_on(t, e, f2)
    if field.e > 1:
        assert {t for t, _ in kinds} == {0, 1}
    if n == 2 * k:
        assert {d for _, d in kinds} == {False, True}


def test_verify_on_rejects_a_shorter_table(spaces):
    e = canonical_embedding(spaces[("W(3,2)", 5)], 3)
    cut = Embedding(e.source, e.target_k, e.images[:-1], target_n=e.target_n)
    w = EquivalenceWitness.identity(GF2, 5)
    assert w.verify_on(e, e)
    assert not w.verify_on(e, cut) and not w.verify_on(cut, e)


def test_stacked_table_is_read_only_and_aligned(spaces):
    e = canonical_embedding(spaces[("H(3,4)", 5)], 3)
    bases, residual, dims = e.stacked()
    assert e.stacked() is e.stacked()
    assert not bases.flags.writeable and not residual.flags.writeable
    assert bases.dtype == residual.dtype == np.uint8
    assert dims == tuple(S.dim for S in e.images)
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(20, 5)).astype(np.uint8)
    for S, B, R in zip(e.images, bases, residual):
        assert np.array_equal(B[:S.dim], S.basis) and not B[S.dim:].any()
        # the residual map is the elimination by the RREF basis
        assert np.array_equal(mat_mul(GF4, X, R), oracle_reduce(GF4, S.basis, S.pivots, X))
        assert not mat_mul(GF4, S.all_vectors(), R).any()


# ---------------------------------------------------------------------------
# connecting_automorphism checks every composite on the whole table
# ---------------------------------------------------------------------------

def stabilizer_of(field, S):
    """An invertible G whose action x -> x G^T fixes the subspace S: in a
    basis that starts with S's, it is [[I, 0], [X, I]] with X random."""
    n = S.ambient_dim
    free = sorted(set(range(n)) - set(S.pivots))
    C = np.vstack([S.basis, np.eye(n, dtype=np.uint8)[free]])
    D = np.eye(n, dtype=np.uint8)
    D[S.dim:, :S.dim] = 1
    return mat_mul(field, mat_mul(field, invert_matrix(field, C), D), C).T


def test_composite_wrong_off_the_first_image_is_caught(spaces, monkeypatch):
    ps = spaces[("W(3,2)", 5)]
    e = canonical_embedding(ps, 3)
    rng = np.random.default_rng(5)
    f1, f2 = (transformed_copy(e, random_witness(GF2, 5, rng, False)) for _ in range(2))
    G = stabilizer_of(GF2, f1.images[0])
    real_compose = EquivalenceWitness.compose

    def compose_then_g(self, other):
        s = real_compose(self, other)
        return EquivalenceWitness(s.field, mat_mul(s.field, s.matrix, G),
                                  s.frob_power, s.dual)

    good = connecting_automorphism(f1, f2)
    bad = compose_then_g(good, EquivalenceWitness.identity(GF2, 5))
    # right on image 0, wrong on some later image
    assert oracle_maps_onto(bad, f1.images[0], f2.images[0])
    assert not oracle_verify_on(bad, f1, f2)
    monkeypatch.setattr(EquivalenceWitness, "compose", compose_then_g)
    with pytest.raises(QGeomError, match="verification"):
        connecting_automorphism(f1, f2)


# ---------------------------------------------------------------------------
# the witnesses themselves: digests recorded before the whole-table check
# ---------------------------------------------------------------------------

def witness_digest(witnesses):
    h = hashlib.sha256()
    for w in witnesses:
        h.update(w.matrix.tobytes())
        h.update(bytes([w.frob_power, w.dual]))
    return h.hexdigest()


WITNESS_DIGESTS = {
    ("W(3,2)", 4, 2):
        "26428b2281dcbbfa8286e53192d479b76262a43d1a820807b6eb2c291139345c",
    ("W(3,2)", 5, 3):
        "f8f0409b3c20189ec19ad32d283337e0dc812aff4292c1631edeb9d4eec9cec0",
    ("W(3,3)", 4, 2):
        "d20e17136d8a724884b106de20832b8baa013a8ba3e2b79bb2940e63faea778f",
    ("W(3,3)", 5, 3):
        "9aa9b0520e422012c4ce054d68a05a7667f93d61044e93265f77cdf9fa016494",
    ("H(3,4)", 4, 2):
        "d2a3a47e78a1c144ad5094336d020553e6f7c59e60a0454996ce60a4842e06d0",
    ("H(3,4)", 5, 3):
        "a0846a41ffea60bb1b55db9cf5fcfad8ccd0862bc02b066422399fd1fac118de",
}


@pytest.mark.parametrize("name,n,k", CASES)
def test_witness_digests(spaces, name, n, k):
    """Base witnesses from the canonical embedding to six seeded images
    of it, then every pair between the images."""
    field = POLAR[name][0]
    e = canonical_embedding(spaces[(name, n)], k)
    rng = np.random.default_rng(1000 + n * 10 + field.q)
    images = [transformed_copy(e, random_witness(field, n, rng, n == 2 * k and i % 2))
              for i in range(6)]
    ws = [connecting_automorphism(e, f) for f in images]
    ws += [connecting_automorphism(a, b) for i, a in enumerate(images)
           for b in images[i + 1:]]
    for w, (a, b) in zip(ws, [(e, f) for f in images]
                         + [(a, b) for i, a in enumerate(images) for b in images[i + 1:]]):
        assert oracle_verify_on(w, a, b)
    assert witness_digest(ws) == WITNESS_DIGESTS[(name, n, k)]


CLASSIFY_DIGEST = "ec6c24e99ac3b4a4fd3f3b6804b2e91862ea4a13b3de76cc0a90bb85b4bb7d32"


def test_classify_anchored_census_digest(spaces):
    """classify_embeddings on the anchored census of W(3,2) in
    Gamma_2(GF(2)^4), and the witness from the representative to each
    member."""
    res = search_embeddings(spaces[("W(3,2)", 4)], 4, 2, anchor=True)
    cl = classify_embeddings(res.embeddings)
    rep = res.embeddings[cl["classes"][0]["representative_index"]]
    h = hashlib.sha256(json.dumps(cl, sort_keys=True).encode())
    h.update(witness_digest(connecting_automorphism(rep, e)
                            for e in res.embeddings).encode())
    assert (len(res), cl["equivalence_classes"]) == (576, 1)
    assert h.hexdigest() == CLASSIFY_DIGEST


def test_witness_search_stops_at_its_budget(spaces):
    """With budget 0 the witness search to a fresh census member tries no
    candidate: SearchBudgetExceeded, and nothing is memoized, so the
    default budget then finds the witness."""
    ps = spaces[("W(3,2)", 4)]
    f0 = canonical_embedding(ps, 2)
    e = next(e for e in search_embeddings(ps, 4, 2).embeddings if e.key != f0.key)
    with pytest.raises(SearchBudgetExceeded, match="^witness search passed 0 candidates$"):
        connecting_automorphism(f0, e, budget=0)
    assert e._base_witness is None
    assert connecting_automorphism(f0, e).verify_on(f0, e)


# ---------------------------------------------------------------------------
# the witness fit against the former system in A and one lambda per point
# ---------------------------------------------------------------------------

def lambda_fit(fa, fb, budget_state, kernels):
    """The former fit: A x_P^(p^t) = lambda_P y_P as one linear system in
    vec(A) and the lambdas, and sigma built on W before it is lifted to V.
    Appends each tau's kernel RREF to kernels."""
    f = fa.field
    Ra = analyze_embedding(fa)
    Rb = analyze_embedding(fb)
    w = Ra.quotient.dim
    r = Ra.w_prime.dim
    if r != Rb.w_prime.dim:
        return
    npts = len(Ra.point_map)
    Ba, piv_a = Ra.w_prime.basis, Ra.w_prime.pivots
    Bb, piv_b = Rb.w_prime.basis, Rb.w_prime.pivots
    xs = np.stack([s.basis[0][piv_a] for s in Ra.point_map])
    ys = np.stack([s.basis[0][piv_b] for s in Rb.point_map])
    unit = np.eye(w, dtype=np.uint8)
    lift_wb = np.delete(unit, piv_b, axis=0)
    lift_vb = Rb.quotient.lift_matrix()
    D_W = np.vstack([Ba, np.delete(unit, piv_a, axis=0)])
    D_V = np.vstack([Ra.quotient.lift_matrix(), Ra.star_subspace.basis])
    eq = np.arange(npts * r)
    P, i = np.divmod(eq, r)
    cols = np.column_stack([i[:, None] * r + np.arange(r), r * r + P])
    neg_ys = f.neg_table[ys[P, i]]
    for tau in range(f.e):
        system = np.zeros((npts * r, r * r + npts), dtype=np.uint8)
        system[eq[:, None], cols] = np.column_stack([f.frob_table[tau][xs][P], neg_ys])
        kernel = nullspace(f, system)
        kernels.append(kernel)
        if kernel.shape[0] == 0:
            continue
        K = Subspace(f, kernel.shape[1], kernel)
        inv_W = invert_matrix(f, mat_frobenius(f, D_W, tau).T)
        inv_V = invert_matrix(f, mat_frobenius(f, D_V, tau).T)
        for u in K.all_vectors():
            if not u.any():
                continue
            budget_state[0] += 1
            lam = u[r * r:]
            if (lam == 0).any():
                continue
            A = u[: r * r].reshape(r, r)
            if rank(f, A) < r:
                continue
            T_W = np.vstack([mat_mul(f, A.T, Bb), lift_wb])
            M_W = mat_mul(f, T_W.T, inv_W)
            T_V = np.vstack([mat_mul(f, M_W.T, lift_vb), Rb.star_subspace.basis])
            M_V = mat_mul(f, T_V.T, inv_V)
            yield EquivalenceWitness(f, M_V, tau, dual=False)


def fit_sides(spaces):
    """The sides of the fits behind WITNESS_DIGESTS (the canonical
    embedding against each seeded image) and the micro's flat family on
    the dual strategy (its first member's dual against three others')."""
    for name, n, k in CASES:
        field = POLAR[name][0]
        e = canonical_embedding(spaces[(name, n)], k)
        rng = np.random.default_rng(1000 + n * 10 + field.q)
        for i in range(6):
            w = random_witness(field, n, rng, n == 2 * k and i % 2)
            yield f"{name} {n} {k} #{i}", e, transformed_copy(e, w)
    ps = spaces[("W(3,2)", 5)]
    res = search_embeddings(ps, 5, 3)
    verts, flats = res.target.vertices, []
    for row in res.members.tolist():
        e = Embedding(ps, 3, [verts[i] for i in row])
        if multi_intersection(list(e.images)).dim == 0:
            flats.append(e)
            if len(flats) == 4:
                break
    for i, other in enumerate(flats[1:]):
        yield f"micro flat dual #{i}", _dualized(flats[0]), _dualized(other)


def run_fit(fit, fa, fb, *args):
    """(witnesses as (matrix bytes, frobenius power), budget used), or the
    type of the structure failure that stopped the fit."""
    budget_state = [0]
    try:
        out = [(w.matrix.tobytes(), w.frob_power) for w in fit(fa, fb, budget_state, *args)]
    except _STRUCTURE_FAILURES as exc:
        return type(exc)
    return out, budget_state[0]


def test_fit_for_a_alone_matches_the_lambda_system(spaces, monkeypatch):
    """For every tau, the kernel of the system in A alone is the first r^2
    columns of the former kernel's RREF, so the fit spends the same budget
    on the same candidates and yields the same witnesses."""
    fitted = 0
    for name, fa, fb in fit_sides(spaces):
        want_kernels, got_kernels = [], []
        want = run_fit(lambda_fit, fa, fb, want_kernels)

        def recording(field, system):
            got_kernels.append(nullspace(field, system))
            return got_kernels[-1]

        with monkeypatch.context() as m:
            m.setattr(embed, "nullspace", recording)
            got = run_fit(_fit_semilinear, fa, fb, 10**9)
        assert got == want, name
        assert len(got_kernels) == len(want_kernels), name
        if not want_kernels:
            continue
        r = analyze_embedding(fa).w_prime.dim
        for tau, (k_got, k_want) in enumerate(zip(got_kernels, want_kernels)):
            assert k_got.shape[1] == r * r, (name, tau)
            assert np.array_equal(k_got, k_want[:, :r * r]), (name, tau)
        fitted += 1
    # no side stops at a structure failure, the duality images included
    assert fitted == 6 * len(CASES) + 3
