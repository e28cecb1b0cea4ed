import numpy as np
import pytest

from qgeom.errors import (
    DegenerateForm,
    KindMismatch,
    NotSingular,
    OutsideSupport,
    RankZero,
)
from qgeom.gf import Field
from qgeom.grassmann import intersection_numbers
from qgeom.polar import (
    Form,
    build_form,
    build_polar_space,
    dual_polar_graph,
    is_totally_singular,
    point_star,
    radical,
    star_restriction,
)
from qgeom.subspace import Subspace

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)

SYMPLECTIC_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
PARABOLIC_QUAD = [[0, 1, 0, 0, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 1]]


def symplectic(ambient=4):
    return build_polar_space(GF2, ambient, Form(GF2, "alternating", 4,
                                                gram=SYMPLECTIC_GRAM))


def parabolic():
    return build_polar_space(GF2, 5, Form(GF2, "quadratic", 5, quad=PARABOLIC_QUAD))


def hermitian():
    return build_polar_space(GF4, 4, Form(GF4, "hermitian", 4,
                                          gram=np.eye(4, dtype=np.uint8)))


# ---------------------------------------------------------------------------
# form evaluation
# ---------------------------------------------------------------------------

def test_alternating_vanishes_on_diagonal():
    form = Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM)
    for v in Subspace.full(GF2, 4).all_vectors():
        assert form.evaluate(v, v) == 0


def test_quadratic_monomial_reads():
    form = Form(GF2, "quadratic", 2, quad=[[0, 1], [0, 0]])
    assert form.evaluate_quadratic([1, 0]) == 0
    assert form.evaluate_quadratic([1, 1]) == 1
    # polar form of x1 x2
    assert form.evaluate([1, 0], [0, 1]) == 1


def test_hermitian_semilinearity():
    form = Form(GF4, "hermitian", 2, gram=[[1, 0], [0, 1]])
    a = GF4.element([0, 1])
    assert form.evaluate([1, 0], [a, 0]) == GF4.conj(a) == GF4.element([1, 1])
    assert form.evaluate([a, 0], [1, 0]) == a


def test_outside_support():
    form = Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM)
    with pytest.raises(OutsideSupport):
        form.evaluate([1, 0, 0, 0, 1], [1, 0, 0, 0, 0])
    with pytest.raises(OutsideSupport):
        is_totally_singular(form, Subspace.span(GF2, [[0, 0, 0, 0, 1]]))


def test_kind_mismatch():
    form = Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM)
    with pytest.raises(KindMismatch):
        form.evaluate_quadratic([1, 0, 0, 0])
    with pytest.raises(KindMismatch):
        Form(GF2, "alternating", 2, gram=[[1, 0], [0, 1]])  # nonzero diagonal
    with pytest.raises(KindMismatch):
        Form(GF2, "hermitian", 2, gram=[[1, 0], [0, 1]])  # odd-degree field
    with pytest.raises(KindMismatch):
        Form(GF2, "quadratic", 2, quad=[[0, 0], [1, 0]])  # lower triangle


def test_form_config_roundtrip():
    form = build_form(GF2, {"kind": "quadratic", "form_dim": 5,
                            "quad": PARABOLIC_QUAD})
    assert form.as_json_obj()["quad"] == [list(r) for r in PARABOLIC_QUAD]


# ---------------------------------------------------------------------------
# radicals
# ---------------------------------------------------------------------------

def test_radical_symplectic_zero():
    form = Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM)
    assert radical(form).dim == 0


def test_radical_zero_form_is_everything():
    form = Form(GF2, "alternating", 3, gram=np.zeros((3, 3), dtype=np.uint8))
    assert radical(form).dim == 3


def test_radical_quadratic_gf3():
    # Q = x1^2 on GF(3)^2: the polar form kills e2, and Q(e2) = 0
    form = Form(GF3, "quadratic", 2, quad=[[1, 0], [0, 0]])
    got = radical(form)
    # oracle: exhaustive scan of all 9 vectors
    want = [v for v in Subspace.full(GF3, 2).all_vectors()
            if form.evaluate_quadratic(v) == 0
            and all(form.evaluate(v, w) == 0
                    for w in Subspace.full(GF3, 2).all_vectors())]
    assert got == Subspace.span(GF3, np.array(want), 2)
    assert got.to_rows() == [[0, 1]]


# ---------------------------------------------------------------------------
# totally singular subspaces
# ---------------------------------------------------------------------------

def test_zero_subspace_always_singular():
    form = Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM)
    assert is_totally_singular(form, Subspace.zero(GF2, 4))


def test_symplectic_pair_examples():
    form = Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM)
    assert is_totally_singular(form, Subspace.span(GF2, [[1, 0, 0, 0], [0, 0, 1, 0]]))
    assert not is_totally_singular(form, Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]]))


def test_basis_criterion_matches_full_enumeration():
    """The pairwise basis test equals brute force over every member vector."""
    forms = [
        Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM),
        Form(GF2, "quadratic", 5, quad=PARABOLIC_QUAD),
        Form(GF4, "hermitian", 4, gram=np.eye(4, dtype=np.uint8)),
    ]
    rng = np.random.default_rng(17)
    for form in forms:
        n = form.form_dim
        f = form.field
        for _ in range(40):
            A = rng.integers(0, f.q, size=(2, n)).astype(np.uint8)
            S = Subspace.span(f, A)
            brute = all(
                form.singular_vector(v)
                and all(form.evaluate(v, w) == 0 for w in S.all_vectors())
                for v in S.all_vectors()
                if True
            )
            assert is_totally_singular(form, S) == brute


# ---------------------------------------------------------------------------
# polar space construction
# ---------------------------------------------------------------------------

def test_symplectic_gf2_counts():
    ps = symplectic()
    assert len(ps.points) == 15  # alternating: every projective point
    assert len(ps.lines) == 15
    assert ps.rank == 2
    assert len(ps.maximals) == 15


def test_parabolic_gf2_counts():
    ps = parabolic()
    assert len(ps.points) == 15
    assert len(ps.lines) == 15
    assert ps.rank == 2
    assert len(ps.maximals) == 15


def test_hermitian_gf4_counts():
    ps = hermitian()
    assert len(ps.points) == 45
    assert ps.rank == 2
    assert len(ps.maximals) == 27


def test_degenerate_and_rank_zero():
    with pytest.raises(DegenerateForm):
        build_polar_space(GF2, 4, Form(GF2, "alternating", 4,
                                       gram=np.zeros((4, 4), dtype=np.uint8)))
    with pytest.raises(RankZero):
        build_polar_space(GF2, 2, Form(GF2, "quadratic", 2, quad=[[1, 1], [0, 1]]))


def test_rank_one_spaces():
    hyp = build_polar_space(GF2, 2, Form(GF2, "quadratic", 2, quad=[[0, 1], [0, 0]]))
    assert hyp.rank == 1 and len(hyp.points) == 2 and not hyp.lines
    herm = build_polar_space(GF4, 2, Form(GF4, "hermitian", 2,
                                          gram=[[1, 0], [0, 1]]))
    assert herm.rank == 1 and len(herm.points) == 3


def test_maximals_are_totally_singular_and_unextendable():
    for ps in (symplectic(), parabolic(), hermitian()):
        for M in ps.maximals:
            assert M.dim == ps.rank
            assert is_totally_singular(ps.form, M)
        for L in ps.lines:
            assert is_totally_singular(ps.form, L)
            assert all(p.dim == 1 for p in ps.points)


def test_every_line_lies_in_a_maximal():
    for ps in (symplectic(), parabolic(), hermitian()):
        for l in range(len(ps.lines)):
            assert ps.maximals_through_line(l)


def test_one_or_all_axiom():
    """Points off a line see exactly 1 or all q+1 of its points."""
    for ps in (symplectic(), parabolic(), hermitian()):
        form = ps.form
        qplus1 = ps.field.q + 1
        for l in range(len(ps.lines)):
            on_line = set(ps.line_point_indices(l))
            for i, P in enumerate(ps.points):
                if i in on_line:
                    continue
                collinear = sum(
                    1 for j in on_line
                    if is_totally_singular(form, P + ps.points[j])
                )
                assert collinear in (1, qplus1)


# ---------------------------------------------------------------------------
# dual polar graphs
# ---------------------------------------------------------------------------

def test_dual_polar_symplectic():
    g = dual_polar_graph(symplectic())
    assert g.n_vertices == 15
    assert set(g.degree_sequence()) == {6}
    assert g.diameter() == 2


def test_dual_polar_hermitian():
    g = dual_polar_graph(hermitian())
    assert g.n_vertices == 27
    assert set(g.degree_sequence()) == {10}


def test_dual_polar_rank_one_complete():
    ps = build_polar_space(GF4, 2, Form(GF4, "hermitian", 2, gram=[[1, 0], [0, 1]]))
    g = dual_polar_graph(ps)
    assert g.n_vertices == 3
    assert set(g.degree_sequence()) == {2}


def test_dual_polar_distance_law():
    """BFS distance in the dual polar graph = rank - dim(M1 ∩ M2), all pairs."""
    for ps in (symplectic(), parabolic(), hermitian()):
        g = dual_polar_graph(ps)
        D = g.distance_matrix
        m = ps.rank
        for i in range(g.n_vertices):
            for j in range(g.n_vertices):
                want = m - ps.maximals[i].intersection_dim(ps.maximals[j])
                assert int(D[i, j]) == want
        assert g.diameter() == m


def test_dual_polar_graphs_distance_regular():
    for ps in (symplectic(), parabolic(), hermitian()):
        table = intersection_numbers(dual_polar_graph(ps))
        assert sorted(table) == list(range(1, ps.rank + 1))


# ---------------------------------------------------------------------------
# stars of singular subspaces
# ---------------------------------------------------------------------------

def test_point_star_counts():
    ps = symplectic()
    for P in ps.points:
        assert len(point_star(ps, P)) == 3
    M = ps.maximals[0]
    assert point_star(ps, M) == [M]


def test_point_star_rejects_nonsingular():
    ps = symplectic()
    bad = Subspace.span(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(NotSingular):
        point_star(ps, bad)


def test_line_star_in_rank_two_is_itself():
    ps = symplectic()
    L = ps.lines[0]
    assert point_star(ps, L) == [L]


def test_star_restriction_connected_rank_drop():
    """The maximals through a point form a dual polar graph of rank m-1."""
    for ps in (symplectic(), hermitian()):
        for P in ps.points[:5]:
            sub = star_restriction(ps, P)
            assert sub.is_connected()
            assert sub.n_vertices == len(point_star(ps, P))
            # rank m-1 = 1: the restriction is a complete graph
            assert all(len(a) == sub.n_vertices - 1 for a in sub.adj)


def test_points_pad_to_ambient():
    ps = symplectic(ambient=5)
    assert all(p.ambient_dim == 5 for p in ps.points)
    assert all(m.ambient_dim == 5 for m in ps.maximals)
    assert ps.v_prime.dim == 4


@pytest.mark.parametrize("value", [300, -1, 1.5, "1", True])
@pytest.mark.parametrize("kind", ["alternating", "quadratic"])
def test_form_entries_must_be_field_elements(kind, value):
    """Gram and quad entries outside 0..q-1, or not integers, are rejected
    with a ValueError, never wrapped, truncated or parsed."""
    rows = [row[:] for row in SYMPLECTIC_GRAM]
    rows[0][1] = value
    spec = {"gram": rows} if kind == "alternating" else {"quad": rows}
    with pytest.raises(ValueError, match=f"^entry {value!r} out of range for GF\\(2\\)$"):
        Form(GF2, kind, 4, **spec)
