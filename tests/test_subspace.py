import numpy as np
import pytest

from qgeom.errors import AmbientMismatch, DimensionMismatch, FieldMismatch
from qgeom.gf import Field
from qgeom import grassmann
from qgeom.grassmann import enum_grassmannian
from qgeom.polar import Form
from qgeom.subspace import (
    QuotientSpace,
    Subspace,
    as_stack,
    invert_matrix,
    iter_rref_batches,
    mat_frobenius,
    mat_mul,
    multi_intersection,
    nullspace,
    nullspace_stack,
    projective_point_reps,
    rank,
    rref,
)

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)


def all_subspaces(field, n):
    out = []
    for k in range(n + 1):
        out.extend(enum_grassmannian(field, n, k))
    return out


# ---------------------------------------------------------------------------
# rref and rank
# ---------------------------------------------------------------------------

def test_rref_basic():
    R, piv = rref(GF2, [[1, 1], [0, 1]])
    assert R.tolist() == [[1, 0], [0, 1]]
    assert piv == [0, 1]


def test_rref_zero_matrix():
    R, piv = rref(GF2, np.zeros((3, 4), dtype=np.uint8))
    assert R.shape == (0, 4)
    assert piv == []


def test_rref_dependent_rows_gf3():
    # second row is 2 * first (checked by field multiplication)
    row = np.array([1, 2], dtype=np.uint8)
    double = np.array([GF3.mul(2, int(x)) for x in row], dtype=np.uint8)
    R, piv = rref(GF3, np.vstack([row, double]))
    assert R.tolist() == [[1, 2]]
    assert piv == [0]


def test_rref_idempotent():
    rng = np.random.default_rng(7)
    for f in (GF2, GF3, GF4):
        for _ in range(50):
            A = rng.integers(0, f.q, size=(3, 5)).astype(np.uint8)
            R1, _ = rref(f, A)
            R2, _ = rref(f, R1)
            assert np.array_equal(R1, R2)


def test_rank_matches_rref():
    rng = np.random.default_rng(11)
    for f in (GF2, GF3, GF4):
        for _ in range(100):
            A = rng.integers(0, f.q, size=(rng.integers(1, 6), rng.integers(1, 7)))
            A = A.astype(np.uint8)
            assert rank(f, A) == rref(f, A)[0].shape[0]


def test_rank_gf2_fast_path_range_check():
    bad = [[2, 0], [0, 2]]
    with pytest.raises(ValueError) as from_rref:
        rref(GF2, bad)
    with pytest.raises(ValueError) as from_rank:
        rank(GF2, bad)
    assert str(from_rank.value) == str(from_rref.value) == "entry 2 out of range for GF(2)"


@pytest.mark.parametrize("value", [300, -1])
def test_entries_beyond_uint8_are_out_of_range(value):
    """An integer outside uint8 is the usual out-of-range ValueError, not
    numpy's OverflowError and never a wrapped value."""
    for make in (lambda A: rank(GF2, A), lambda A: Subspace.span(GF2, A)):
        with pytest.raises(ValueError, match=f"^entry {value} out of range for GF\\(2\\)$"):
            make([[1, 0], [0, value]])


@pytest.mark.parametrize("call, entry", [
    (lambda: rank(GF2, [[1.0, 0.5]]), "1.0"),
    (lambda: rank(GF2, [[1, 0.5]]), "0.5"),
    (lambda: rref(GF3, [[2.9, 1]]), "2.9"),
    (lambda: Subspace.span(GF3, [[0.5, 2.7]]), "0.5"),
    (lambda: mat_mul(GF2, np.eye(2), np.eye(2, dtype=np.uint8)), "1.0"),
    (lambda: as_stack(GF3, np.array([["1", "0"]])), "1"),
])
def test_non_integer_entries_are_out_of_range(call, entry):
    """A float entry, even an integral one, or a string is never truncated
    or parsed: it is the usual out-of-range ValueError."""
    with pytest.raises(ValueError, match=f"^entry {entry} out of range for GF\\([23]\\)$"):
        call()


def test_integer_arrays_are_range_checked_before_the_cast():
    """An int64 entry past 255 does not wrap; in-range integer and bool
    arrays give the same result as uint8."""
    with pytest.raises(ValueError, match="^entry 256 out of range for GF\\(2\\)$"):
        rank(GF2, np.array([[256, 0], [0, 1]]))
    with pytest.raises(ValueError, match="^entry -2 out of range for GF\\(3\\)$"):
        Subspace.span(GF3, np.array([[1, -2]]))
    A = np.array([[1, 2, 0], [2, 1, 1]])
    assert as_stack(GF3, A).dtype == np.uint8
    assert Subspace.span(GF3, A) == Subspace.span(GF3, A.astype(np.uint8))
    assert rank(GF2, np.array([[True, False], [True, True]])) == 2
    assert Subspace.span(GF2, [], 3) == Subspace.zero(GF2, 3)


def test_uint8_input_is_not_copied():
    A = np.array([[1, 0, 1]], dtype=np.uint8)
    assert as_stack(GF2, A) is A


E1_GF3 = Subspace.span(GF3, [[1, 0, 0]])
FORM_GF3 = Form(GF3, "alternating", 2, gram=[[0, 1], [2, 0]])
VECTOR_ENTRY_POINTS = {
    "nullspace_stack": lambda x: nullspace_stack(GF3, np.array([[[x, 0, 0]]]))[0],
    "contains_vector": lambda x: E1_GF3.contains_vector(np.array([x, 0, 0])),
    "project_vector": lambda x: QuotientSpace(3, E1_GF3).project_vector(np.array([x, 2, 1])),
    "lift_vector": lambda x: QuotientSpace(3, E1_GF3).lift_vector(np.array([x, 0])),
    "evaluate": lambda x: FORM_GF3.evaluate(np.array([x, 0]), [0, 1]),
    "orthogonal_profile": lambda x: FORM_GF3.orthogonal_profile(np.array([[x, 0]])),
}


@pytest.mark.parametrize("entry_point", sorted(VECTOR_ENTRY_POINTS))
def test_vector_entry_points_are_range_checked(entry_point):
    """A float is not truncated and an int64 past 255 does not wrap: both
    are the usual out-of-range ValueError; in range, an int64 array gives
    what the same uint8 array gives."""
    call = VECTOR_ENTRY_POINTS[entry_point]
    for bad in (1.7, 257):
        with pytest.raises(ValueError, match=f"^entry {bad} out of range for GF\\(3\\)$"):
            call(bad)
    assert np.array_equal(call(np.int64(2)), call(np.uint8(2)))


def test_span_canonical_across_generating_sets():
    """Random regenerations of one subspace all share one encoding."""
    rng = np.random.default_rng(3)
    for f in (GF2, GF3, GF4):
        for _ in range(25):
            A = rng.integers(0, f.q, size=(2, 4)).astype(np.uint8)
            S = Subspace.span(f, A)
            if S.dim == 0:
                continue
            for _ in range(5):
                # random invertible recombination of the basis
                while True:
                    C = rng.integers(0, f.q, size=(S.dim, S.dim)).astype(np.uint8)
                    if rank(f, C) == S.dim:
                        break
                T = Subspace.span(f, mat_mul(f, C, S.basis))
                assert T == S
                assert T._bytes == S._bytes


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def test_sum_intersect_complementary():
    A = Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    B = Subspace.span(GF2, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert (A & B).dim == 0
    assert (A + B).dim == 4


def test_sum_intersect_self():
    A = Subspace.span(GF3, [[1, 0, 2], [0, 1, 1]])
    assert (A & A) == A
    assert (A + A) == A


def test_intersect_overlapping():
    A = Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    B = Subspace.span(GF2, [[0, 1, 0, 0], [0, 0, 1, 0]])
    got = A & B
    # oracle: collect the nonzero vectors of A that also lie in B
    members = [v for v in A.all_vectors() if v.any() and B.contains_vector(v)]
    assert got == Subspace.span(GF2, np.array(members))
    assert got.to_rows() == [[0, 1, 0, 0]]
    assert (A + B).dim == 3


def test_contains():
    A = Subspace.span(GF2, [[1, 0, 0], [0, 1, 0]])
    assert A.contains(Subspace.span(GF2, [[1, 1, 0]]))
    assert not A.contains(Subspace.span(GF2, [[0, 0, 1]]))
    assert A.contains(Subspace.zero(GF2, 3))


def test_modular_law_exhaustive_gf2_4():
    """dim(A+B) + dim(A∩B) = dim A + dim B over the whole lattice of GF(2)^4."""
    lattice = all_subspaces(GF2, 4)
    assert len(lattice) == 67
    for A in lattice:
        for B in lattice:
            s = (A + B).dim
            i = A.intersection_dim(B)
            assert s + i == A.dim + B.dim
            assert (A & B).dim == i


def test_ambient_and_field_mismatch():
    A = Subspace.span(GF2, [[1, 0]])
    B = Subspace.span(GF2, [[1, 0, 0]])
    with pytest.raises(AmbientMismatch):
        A + B
    C = Subspace.span(GF3, [[1, 0]])
    with pytest.raises(FieldMismatch):
        A + C


def test_multi_intersection():
    spaces = [
        Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),
    ]
    got = multi_intersection(spaces)
    want = (spaces[0] & spaces[1]) & spaces[2]
    assert got == want


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------

def test_annihilator_full_and_point():
    V = Subspace.full(GF2, 3)
    assert V.annihilator().dim == 0
    P = Subspace.span(GF2, [[1, 0, 0]])
    assert P.annihilator() == Subspace.span(GF2, [[0, 1, 0], [0, 0, 1]])


def test_annihilator_gf3_dimension_and_involution():
    """Over GF(3)^4 in dimension 2: all 130 subspaces, exact dual dimension
    and double-annihilator identity."""
    spaces = enum_grassmannian(GF3, 4, 2)
    assert len(spaces) == 130
    for S in spaces:
        A = S.annihilator()
        assert A.dim == 2
        assert A.annihilator() == S


def test_annihilator_order_reversing_bijection_gf2_3():
    lattice = all_subspaces(GF2, 3)
    images = {S.annihilator() for S in lattice}
    assert len(images) == len(lattice)
    for A in lattice:
        for B in lattice:
            if A.contains(B):
                assert B.annihilator().contains(A.annihilator())


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_kills_mod_out():
    U = Subspace.span(GF2, [[0, 0, 0, 1]])
    qs = QuotientSpace(4, U)
    assert qs.dim == 3
    assert qs.project(U).dim == 0


def test_quotient_disjoint_subspace_keeps_dimension():
    U = Subspace.span(GF2, [[0, 0, 0, 1]])
    qs = QuotientSpace(4, U)
    S = Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert qs.project(S).dim == 2


def test_quotient_overlapping_subspace():
    U = Subspace.span(GF2, [[0, 0, 0, 1]])
    qs = QuotientSpace(4, U)
    S = Subspace.span(GF2, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert (S + U).dim - U.dim == 1
    assert qs.project(S).dim == 1


def test_quotient_dimension_law_exhaustive():
    for U in enum_grassmannian(GF2, 4, 2):
        qs = QuotientSpace(4, U)
        for S in all_subspaces(GF2, 4):
            assert qs.project(S).dim + (S & U).dim == S.dim


def test_project_lift_roundtrip():
    for f in (GF2, GF3):
        U = Subspace.span(f, [[1, 0, 1, 0]])
        qs = QuotientSpace(4, U)
        for w in Subspace.full(f, qs.dim).all_vectors():
            assert np.array_equal(qs.project_vector(qs.lift_vector(w)), w)


def test_coordinate_map_kills_u_rows():
    U = Subspace.span(GF3, [[1, 2, 0, 1], [0, 0, 1, 2]])
    qs = QuotientSpace(4, U)
    for row in U.basis:
        assert not qs.project_vector(row).any()


# ---------------------------------------------------------------------------
# helpers used across the package
# ---------------------------------------------------------------------------

def test_projective_point_reps_canonical_and_ordered():
    for f, n in [(GF2, 4), (GF3, 3), (GF4, 2)]:
        reps = projective_point_reps(f, n)
        assert reps.shape[0] == (f.q**n - 1) // (f.q - 1)
        seen = set()
        prev = None
        for v in reps:
            S = Subspace.span(f, v)
            assert np.array_equal(S.basis[0], v)  # already the RREF rep
            seen.add(S)
            tup = tuple(int(x) for x in v)
            if prev is not None:
                assert prev < tup
            prev = tup
        assert len(seen) == reps.shape[0]


def test_projective_point_reps_are_the_one_dim_batches():
    """Last pivot first, the 1-dim RREF batches are the point reps."""
    assert projective_point_reps(GF3, 2).tolist() == [[0, 1], [1, 0], [1, 1], [1, 2]]
    for f, n in [(GF2, 5), (GF3, 4), (GF4, 3)]:
        batches = list(iter_rref_batches(f, n, 1))
        assert [b.shape for b in batches] == [(f.q ** (n - 1 - p), 1, n) for p in range(n)]
        assert np.array_equal(projective_point_reps(f, n),
                              np.vstack([b[:, 0] for b in reversed(batches)]))
    assert grassmann.iter_rref_batches is iter_rref_batches


def test_rref_batches_cover_the_grassmannian_once():
    for f, n, k in [(GF2, 4, 0), (GF2, 4, 2), (GF3, 4, 2), (GF4, 3, 3), (GF2, 5, 3)]:
        mats = np.concatenate(list(iter_rref_batches(f, n, k)))
        assert mats.shape[1:] == (k, n) and mats.dtype == np.uint8
        assert sorted(Subspace(f, n, m) for m in mats) == enum_grassmannian(f, n, k)
        for m in mats:
            assert rref(f, m)[0].tolist() == m.tolist()


def test_all_vectors_in_lexicographic_coefficient_order():
    assert Subspace.zero(GF3, 2).all_vectors().tolist() == [[0, 0]]
    S = Subspace.span(GF3, [[1, 0, 2], [0, 1, 1]])
    vecs = S.all_vectors()
    assert vecs.tolist() == [mat_mul(GF3, [[a, b]], S.basis)[0].tolist()
                             for a in range(3) for b in range(3)]
    assert len({v.tobytes() for v in vecs}) == 9


def test_invert_matrix():
    rng = np.random.default_rng(5)
    for f in (GF2, GF3, GF4):
        for _ in range(20):
            while True:
                A = rng.integers(0, f.q, size=(4, 4)).astype(np.uint8)
                if rank(f, A) == 4:
                    break
            Ainv = invert_matrix(f, A)
            assert np.array_equal(mat_mul(f, A, Ainv), np.eye(4, dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        invert_matrix(GF2, np.zeros((2, 2), dtype=np.uint8))


def test_mat_frobenius():
    A = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    B = mat_frobenius(GF4, A, 1)
    for i in range(2):
        for j in range(2):
            assert B[i, j] == GF4.frobenius(int(A[i, j]), 1)


def test_nullspace_orthogonality():
    rng = np.random.default_rng(13)
    for f in (GF2, GF3, GF4):
        for _ in range(20):
            A = rng.integers(0, f.q, size=(3, 6)).astype(np.uint8)
            N = nullspace(f, A)
            assert N.shape[0] == 6 - rank(f, A)
            if N.shape[0]:
                prod = mat_mul(f, A, N.T)
                assert not prod.any()
