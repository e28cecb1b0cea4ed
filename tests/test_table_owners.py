"""Each derived table has one owner.

The tables of a polar space (maximal stack, stars, line tables, collinear
triples, distances, dual polar graph, span of the points) are cached
attributes of the polar space, built once and read-only.  Their public
readers are compared with copies of the tuple-building code they replaced.
The memos of an embedding (stacked table, dual, base witness) live in its
own slots and are freed with it, so connecting embeddings leaves nothing
behind on the polar space.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from qgeom.embed import (
    Embedding,
    EquivalenceWitness,
    _base_witness_pair,
    _dualized,
    analyze_embedding,
    canonical_embedding,
    connecting_automorphism,
    extract_star_subspace,
    induce_point_map,
    reduce_to_quotient,
    search_embeddings,
)
from qgeom.gf import Field
from qgeom.grassmann import FiniteGraph
from qgeom.polar import Form, PolarSpace, build_polar_space
from qgeom.subspace import (
    mat_mul,
    pair_rank_stack,
    projective_point_reps,
    rank,
    stack_bases,
)

GF2, GF3, GF4 = Field(2), Field(3), Field(2, 2)
SYM4 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
SYM4_ODD = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]
SYM6 = [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]]
PARABOLIC = [[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0],
             [0, 0, 0, 0, 1]]
# x0 x1 + x2 x3 + x4^2 + x4 x5 + x5^2; the last form is anisotropic over GF(2)
ELLIPTIC = [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]]

FORMS = {
    "W(3,2)": (GF2, 4, lambda: Form(GF2, "alternating", 4, gram=SYM4)),
    "W(3,3)": (GF3, 4, lambda: Form(GF3, "alternating", 4, gram=SYM4_ODD)),
    "W(3,4)": (GF4, 4, lambda: Form(GF4, "alternating", 4, gram=SYM4)),
    "H(3,4)": (GF4, 4, lambda: Form(GF4, "hermitian", 4, gram=np.eye(4, dtype=np.uint8))),
    "Q(4,2)": (GF2, 5, lambda: Form(GF2, "quadratic", 5, quad=PARABOLIC)),
    "Q-(5,2)": (GF2, 6, lambda: Form(GF2, "quadratic", 6, quad=ELLIPTIC)),
    "W(5,2)": (GF2, 6, lambda: Form(GF2, "alternating", 6, gram=SYM6)),
}

ARRAYS = ("maximal_bases", "point_stars", "line_stars", "line_points",
          "collinear_pairs", "collinear_triples", "distances", "certified_distances")


@pytest.fixture(scope="module")
def spaces():
    return {name: build_polar_space(F, n, make()) for name, (F, n, make) in FORMS.items()}


def w32(n):
    return build_polar_space(GF2, n, Form(GF2, "alternating", 4, gram=SYM4))


# ---------------------------------------------------------------------------
# the tuple-building code the cached tables replaced
# ---------------------------------------------------------------------------

def oracle_incidence(ps, spaces):
    bases = stack_bases(ps.field, ps.maximals, ps.ambient_dim)
    subs = stack_bases(ps.field, spaces, ps.ambient_dim)
    I, T = np.divmod(np.arange(len(subs) * len(bases)), len(bases))
    ranks = pair_rank_stack(ps.field, bases, subs, T, I)
    inside = (ranks == ps.rank).reshape(len(subs), len(bases))
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in inside)


def oracle_line_points(ps):
    field, n = ps.field, ps.ambient_dim
    if not ps.lines:
        return ()
    L = stack_bases(field, ps.lines, n)
    vecs = mat_mul(field, projective_point_reps(field, 2), L).reshape(-1, n)
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    vecs = field.mul_table[field.inv_table[lead][:, None], vecs]
    index = {P._bytes: i for i, P in enumerate(ps.points)}
    pts = np.array([index[v.tobytes()] for v in vecs]).reshape(len(L), -1)
    return tuple(tuple(row) for row in np.sort(pts, axis=1).tolist())


def oracle_distances(ps):
    bases = stack_bases(ps.field, ps.maximals, ps.ambient_dim)
    I, J = np.triu_indices(len(bases), 1)
    D = np.zeros((len(bases),) * 2, dtype=np.int16)
    D[I, J] = D[J, I] = pair_rank_stack(ps.field, bases, bases, I, J) - ps.rank
    return D


def oracle_star_table(ps):
    """The padded table the point-map step used to build per embedding."""
    stars = oracle_incidence(ps, ps.points)
    idx = np.full((len(stars), max(map(len, stars), default=0)), len(ps.maximals))
    for i, star in enumerate(stars):
        idx[i, :len(star)] = star
    return idx


def oracle_triples(ps):
    stars = oracle_incidence(ps, ps.lines)
    return [(P, Q, t) for l, pts in enumerate(oracle_line_points(ps))
            for a, P in enumerate(pts) for Q in pts[a + 1:]
            for t in stars[l]]


# ---------------------------------------------------------------------------
# cached, read-only, and equal to the former tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FORMS))
def test_each_table_is_built_once_and_read_only(spaces, name):
    ps = spaces[name]
    for attr in ARRAYS:
        table = getattr(ps, attr)
        assert getattr(ps, attr) is table, attr
        assert isinstance(table, np.ndarray) and not table.flags.writeable, attr
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
    assert ps.certified_distances is ps.distances is ps.source_distance_matrix()
    assert isinstance(ps.dual_graph, FiniteGraph) and ps.dual_graph is ps.dual_graph
    assert ps.point_span is ps.point_span and ps.point_span == ps.v_prime
    assert not hasattr(ps, "_cache")


@pytest.mark.parametrize("name", sorted(FORMS))
def test_public_readers_match_the_former_tuples(spaces, name):
    ps = spaces[name]
    readers = [
        (ps.maximals_through_point, oracle_incidence(ps, ps.points)),
        (ps.maximals_through_line, oracle_incidence(ps, ps.lines)),
        (ps.line_point_indices, oracle_line_points(ps)),
    ]
    for read, want in readers:
        got = tuple(read(i) for i in range(len(want)))
        assert got == want
        assert all(type(x) is int for row in got for x in row)
        with pytest.raises(IndexError):
            read(len(want))
    D = ps.source_distance_matrix()
    want = oracle_distances(ps)
    assert D.dtype == want.dtype and D.shape == want.shape
    assert D.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(FORMS))
def test_star_and_triple_tables_match_the_per_embedding_code(spaces, name):
    ps = spaces[name]
    assert np.array_equal(ps.point_stars, oracle_star_table(ps))
    pairs, (C, T) = ps.collinear_pairs, ps.collinear_triples.T
    got = [(*pairs[c].tolist(), t) for c, t in zip(C.tolist(), T.tolist())]
    assert got == oracle_triples(ps)


def test_uneven_stars_are_padded_past_the_maximal_stack():
    """Without one maximal, the points on it lie on one maximal fewer:
    their star rows end in the padding index t, which the point-map step
    reads as a zero block, so the induced map is unchanged."""
    full = w32(5)
    e = canonical_embedding(full, 3)
    g = reduce_to_quotient(e, extract_star_subspace(e))
    cut = PolarSpace(full.field, full.ambient_dim, full.form, full.points,
                     full.lines, full.rank, full.maximals[:-1])
    t = len(cut.maximals)
    assert np.array_equal(cut.point_stars, oracle_star_table(cut))
    short = np.flatnonzero((cut.point_stars == t).any(axis=1))
    assert short.size == sum(full.maximals[-1].contains(P) for P in full.points)
    assert all(len(cut.maximals_through_point(i)) == cut.point_stars.shape[1] - 1
               for i in short.tolist())
    h = Embedding(cut, g.target_k, g.images[:-1], target_n=g.target_n)
    assert induce_point_map(h) == induce_point_map(g)


# ---------------------------------------------------------------------------
# embedding memos live on the embedding
# ---------------------------------------------------------------------------

def test_census_members_carry_no_meta():
    ps = w32(4)
    res = search_embeddings(ps, 4, 2)
    for e in res.embeddings[:3]:
        assert not e.meta and dict(e.meta) == {}
        with pytest.raises(TypeError):
            e.meta["anchored"] = True
    assert canonical_embedding(ps, 2).meta["construction"] == "M+U"


def test_base_witness_memo_is_keyed_by_its_base():
    ps = w32(5)
    f0 = canonical_embedding(ps, 3)
    rng = np.random.default_rng(5)
    members = []
    while len(members) < 3:
        M = rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
        if rank(GF2, M) == 5:
            s = EquivalenceWitness(GF2, M)
            members.append(Embedding(ps, 3, [s.apply_to_subspace(S) for S in f0.images]))
    a, b, e = members
    for base in (a, b, a):
        w, w_inv = _base_witness_pair(base, e, 10_000)
        assert w.verify_on(base, e) and w_inv.verify_on(e, base)
        assert e._base_witness[0] is base.key
    # the memo holds keys and witnesses, never an embedding
    assert not any(isinstance(x, Embedding) for x in e._base_witness)


def test_connecting_leaves_the_polar_space_unchanged():
    ps = w32(4)
    f0 = canonical_embedding(ps, 2)
    members = [e for e in search_embeddings(ps, 4, 2).embeddings if e.key != f0.key]
    connecting_automorphism(f0, members.pop())  # builds the polar-space tables
    before = {name: id(value) for name, value in vars(ps).items()}
    canon = dict(ps.canonical_embeddings)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for e in members[:200]:
            assert connecting_automorphism(f0, e).verify_on(f0, e)
        assert members[0]._base_witness is not None
        del members, e
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert {name: id(value) for name, value in vars(ps).items()} == before
    assert ps.canonical_embeddings == canon
    assert retained < 0.05e6, retained


def test_dual_and_stack_are_slots_built_once():
    e = canonical_embedding(w32(5), 3)
    assert e.stacked() is e.stacked() and e._stack is e.stacked()
    assert _dualized(e) is _dualized(e) is e._dual
    assert analyze_embedding(e) is analyze_embedding(e)
    assert set(e.meta) == {"construction", "u_basis"}
