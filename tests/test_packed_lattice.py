"""Differential tests of the packed GF(2) subspace lattice.

On GF(2) with at most 62 columns, a ``Subspace`` caches its RREF rows
packed as ints, and the sum, intersection and its dimension, annihilator,
containment, ``multi_intersection`` and ``span_dim`` run on them.  The
oracle is the table-driven path that every other field uses, reached here
by switching the packed path off; it works on fresh copies of the inputs,
so nothing the packed path cached (packed rows, annihilators) reaches it.
"""

import itertools

import numpy as np
import pytest

from qgeom import subspace
from qgeom.embed import _class_invariant, search_embeddings
from qgeom.errors import AmbientMismatch, FieldMismatch
from qgeom.gf import Field
from qgeom.grassmann import enum_grassmannian
from qgeom.polar import Form, build_polar_space
from qgeom.subspace import Subspace, _pack_gf2, multi_intersection, span_dim

GF2, GF3, GF4 = Field(2), Field(3), Field(2, 2)
SYMPLECTIC_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def fresh(s):
    return Subspace(s.field, s.ambient_dim, s.basis)


def lattice(spaces, pairs):
    """Every lattice operation on the given index pairs of ``spaces``."""
    out = []
    for i, j in pairs:
        a, b = spaces[i], spaces[j]
        out.append((a.intersection_dim(b), (a & b).key, (a + b).key,
                    a.contains(b), b.contains(a), a.annihilator().key,
                    multi_intersection([a, b]).key))
    return out


def table_driven(monkeypatch, fn, spaces, *args):
    with monkeypatch.context() as m:
        m.setattr(subspace, "_packed_gf2", lambda field, n: False)
        return fn([fresh(s) for s in spaces], *args)


def assert_slots_match_bases(spaces):
    """Every filled packed slot holds exactly the packed RREF rows."""
    for s in spaces:
        if s._gf2 is not None:
            assert s._gf2 == tuple(_pack_gf2(s.basis))
        if s._ann is not None and s._ann._gf2 is not None:
            assert s._ann._gf2 == tuple(_pack_gf2(s._ann.basis))


def random_subspace(field, n, d, rng, common=None):
    """span(common + d random rows), or zero when both are empty."""
    rows = rng.integers(0, field.q, size=(d, n)).astype(np.uint8)
    if common is not None:
        rows = np.vstack([common.basis, rows])
    return Subspace.span(field, rows, n)


@pytest.mark.parametrize("n", range(6))
def test_every_pair_of_grassmann_vertices(monkeypatch, n):
    """Each operation on every pair of vertices of Gamma_k(GF(2)^n), k <= n."""
    for k in range(n + 1):
        V = enum_grassmannian(GF2, n, k)
        pairs = list(itertools.combinations_with_replacement(range(len(V)), 2))
        got = lattice(V, pairs)
        assert got == table_driven(monkeypatch, lattice, V, pairs)
        assert all(v._gf2 is not None for v in V)
        assert_slots_match_bases(V)
        # the vertices of one graph meet as the distance formula says
        assert {g[0] for g in got} == set(range(max(0, 2 * k - n), k + 1))


def test_mixed_dimensions_and_containment(monkeypatch):
    """Every pair of subspaces of GF(2)^4, where containment is proper."""
    V = [v for k in range(5) for v in enum_grassmannian(GF2, 4, k)]
    pairs = list(itertools.combinations_with_replacement(range(len(V)), 2))
    got = lattice(V, pairs)
    assert got == table_driven(monkeypatch, lattice, V, pairs)
    contained = sum(g[3] for g in got)
    assert 0 < contained < len(got)


def families(rng, count, n, common_dim):
    """Seeded families of subspaces of GF(2)^n over a common random
    subspace of dimension common_dim (0: no planted common part)."""
    for _ in range(count):
        U = random_subspace(GF2, n, common_dim, rng) if common_dim else None
        size = int(rng.integers(1, 12))
        yield [random_subspace(GF2, n, int(rng.integers(0, n)), rng, U)
               for _ in range(size)], (U.dim if U is not None else 0)


def meet_and_span(spaces):
    return multi_intersection(spaces).key, span_dim(spaces)


@pytest.mark.parametrize("n", [3, 5, 8, 17, 40, 62])
def test_random_families_with_and_without_common_part(monkeypatch, n):
    rng = np.random.default_rng(100 + n)
    seen = set()
    for common_dim in (0, 1, 2, n // 2):
        for spaces, planted in families(rng, 40 if n < 20 else 12, n, common_dim):
            got = meet_and_span(spaces)
            assert got == table_driven(monkeypatch, meet_and_span, spaces)
            dim = got[0][1]
            assert dim >= planted
            seen.add(dim > 0)
            assert_slots_match_bases(spaces)
    # both branches of multi_intersection: the early zero and the kernel
    assert seen == {False, True}


def test_sixty_two_columns_are_packed_and_sixty_three_are_not(monkeypatch):
    rng = np.random.default_rng(62)
    for n in (61, 62, 63, 64):
        spaces = [random_subspace(GF2, n, int(d), rng)
                  for d in rng.integers(0, n + 1, size=8)]
        common = random_subspace(GF2, n, 2, rng)
        spaces += [random_subspace(GF2, n, int(d), rng, common)
                   for d in rng.integers(0, n - 2, size=4)]
        pairs = list(itertools.combinations(range(len(spaces)), 2))
        assert lattice(spaces, pairs) == table_driven(monkeypatch, lattice, spaces, pairs)
        tail = spaces[-4:]
        assert meet_and_span(tail) == table_driven(monkeypatch, meet_and_span, tail)
        filled = [s._gf2 is not None for s in spaces]
        assert all(filled) if n <= 62 else not any(filled)
        assert_slots_match_bases(spaces)


@pytest.mark.parametrize("field", [GF3, GF4], ids=["GF(3)", "GF(4)"])
def test_other_fields_never_fill_the_packed_slot(field):
    rng = np.random.default_rng(field.q)
    common = random_subspace(field, 5, 1, rng)
    spaces = [random_subspace(field, 5, int(d), rng, common)
              for d in rng.integers(0, 4, size=10)]
    results = [x for a, b in itertools.combinations(spaces, 2)
               for x in (a + b, a & b, a.annihilator())]
    results.append(multi_intersection(spaces))
    for a, b in itertools.combinations(spaces, 2):
        a.intersection_dim(b)
        a.contains(b)
    span_dim(spaces)
    assert all(s._gf2 is None for s in spaces + results)
    assert all(s._ann._gf2 is None for s in spaces)


def test_micro_census_split_and_class_invariants(monkeypatch):
    """The anchored micro census splits by common intersection into the
    flat and star families, 64,512 + 4,032, with automorphism invariants
    (0, 5) and (1, 5); a seeded sample of the split matches the oracle."""
    ps = build_polar_space(GF2, 5, Form(GF2, "alternating", 4, gram=SYMPLECTIC_GRAM))
    res = search_embeddings(ps, 5, 3, anchor=True)
    split = {0: [], 1: []}
    for e in res.embeddings:
        split[multi_intersection(list(e.images)).dim].append(e)
    assert {d: len(f) for d, f in split.items()} == {0: 64512, 1: 4032}
    for d, members in split.items():
        assert {_class_invariant(e) for e in members} == {(d, 5)}
    rng = np.random.default_rng(7)
    for idx in rng.integers(0, len(res.embeddings), size=200).tolist():
        images = list(res.embeddings[idx].images)
        assert (multi_intersection(images).key
                == table_driven(monkeypatch, multi_intersection, images).key)


@pytest.mark.parametrize("other", [Subspace.full(GF2, 4), Subspace.full(GF3, 3)],
                         ids=["GF(2)^4", "GF(3)^3"])
def test_multi_intersection_checks_every_space_before_it_stops(other):
    """The zero subspace's annihilator alone has rank n, which ends the
    elimination, but every later space is still checked first."""
    zero = Subspace.zero(GF2, 3)
    error = AmbientMismatch if other.field is GF2 else FieldMismatch
    for spaces in ([zero, other], [zero, Subspace.full(GF2, 3), other]):
        with pytest.raises(error):
            multi_intersection(spaces)


# ---------------------------------------------------------------------------
# subspaces born on the packed path, and the shared zero
# ---------------------------------------------------------------------------

def span_inputs(rng, n):
    """Random 0/1 matrices with n columns, plus no rows, all-zero rows,
    repeated rows and more rows than columns."""
    yield np.zeros((0, n), dtype=np.uint8)
    yield np.zeros((3, n), dtype=np.uint8)
    for rows in (1, 2, 5, n - 1, n, n + 3):
        A = (rng.random((rows, n)) < 0.4).astype(np.uint8)
        yield A
        yield np.vstack([A, A[::-1], A[:1]])


@pytest.mark.parametrize("n", [1, 2, 5, 17, 61, 62, 63])
def test_span_is_born_packed_and_matches_the_table_driven_rref(monkeypatch, n):
    rng = np.random.default_rng(900 + n)
    for A in span_inputs(rng, n):
        got = Subspace.span(GF2, A, n)
        with monkeypatch.context() as m:
            m.setattr(subspace, "_packed_gf2", lambda field, n: False)
            want = Subspace(GF2, n, subspace.rref(GF2, A)[0])
        assert got.key == want.key and hash(got) == hash(want)
        assert got == want and want == got
        assert not (got < want) and not (want < got)
        assert not got.basis.flags.writeable
        if not got.dim:
            assert got is Subspace.zero(GF2, n)
        elif n <= 62:
            assert got._gf2 == tuple(_pack_gf2(got.basis))
            with pytest.raises(ValueError):
                got.basis.setflags(write=True)
        else:
            assert got._gf2 is None
        other = Subspace.span(GF2, (rng.random((2, n)) < 0.5).astype(np.uint8), n)
        assert (got < other) == (want < other) and (other < got) == (other < want)


def test_span_checks_entries_before_packing():
    with pytest.raises(ValueError, match="entry 2 out of range for GF"):
        Subspace.span(GF2, [[1, 2, 0]])


@pytest.mark.parametrize("field, n", [(GF2, 0), (GF2, 4), (GF2, 63), (GF3, 3), (GF4, 5)])
def test_the_zero_subspace_is_one_shared_read_only_instance(field, n):
    zero = Subspace.zero(field, n)
    assert Subspace.zero(field, n) is zero
    assert Subspace.zero(Field(field.p, field.e), n) is zero
    fresh_zero = Subspace(field, n, np.zeros((0, n), dtype=np.uint8))
    assert zero == fresh_zero and hash(zero) == hash(fresh_zero)
    assert zero.dim == 0 and not zero.basis.flags.writeable
    assert zero.annihilator() == Subspace.full(field, n)
    assert Subspace.span(field, np.zeros((0, n), dtype=np.uint8), n) is zero
    if n:
        assert Subspace.zero(field, n - 1) is not zero


@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF(2)", "GF(3)"])
def test_an_empty_intersection_is_the_shared_zero(field):
    a = Subspace.span(field, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(field, [[0, 0, 1]])
    assert multi_intersection([a, b]) is Subspace.zero(field, 3)
    assert (a & b) is Subspace.zero(field, 3)
