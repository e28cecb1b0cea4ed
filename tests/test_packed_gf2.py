"""Differential tests of the packed GF(2) elimination behind rank, rref
and nullspace.

On GF(2) with at most 62 columns, ``rank``, ``rref`` and ``nullspace``
pack each row into one int.  The oracle is the table-driven elimination
that every other field uses, reached here by switching the packed path
off.
"""

import numpy as np
import pytest

from qgeom import subspace
from qgeom.gf import Field
from qgeom.subspace import nullspace, rank, rref

GF2 = Field(2)


def table_driven(monkeypatch, fn, A):
    with monkeypatch.context() as m:
        m.setattr(subspace, "_packed_gf2", lambda field, A: False)
        return fn(GF2, A)


def random_matrices(rng, count, max_rows=40, max_cols=62):
    for _ in range(count):
        rows = int(rng.integers(0, max_rows + 1))
        cols = int(rng.integers(0, max_cols + 1))
        density = rng.random()
        yield (rng.random((rows, cols)) < density).astype(np.uint8)


def shaped_matrices(rng):
    """0 rows, 0 columns, 62 columns (packed) and 63 columns (table-driven),
    with zero, duplicate and full-rank rows among them."""
    for rows, cols in [(0, 0), (0, 5), (5, 0), (0, 62), (0, 63), (1, 62), (1, 63),
                       (3, 62), (70, 62), (70, 63), (62, 62), (63, 63)]:
        yield np.zeros((rows, cols), dtype=np.uint8)
        A = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        yield A
        yield np.vstack([A, A])
    yield np.eye(62, dtype=np.uint8)[::-1]
    yield np.eye(63, dtype=np.uint8)[::-1]
    yield np.ones((4, 62), dtype=np.uint8)


def assert_same_rref(got, want):
    (R1, p1), (R0, p0) = got, want
    assert R1.dtype == R0.dtype == np.uint8
    assert R1.shape == R0.shape
    assert np.array_equal(R1, R0)
    assert p1 == p0
    assert all(type(p) is int for p in p1)


def assert_same_matrix(got, want):
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_packed_path_matches_table_driven_on_random_matrices(monkeypatch):
    rng = np.random.default_rng(2)
    for A in random_matrices(rng, 1500):
        assert_same_rref(rref(GF2, A), table_driven(monkeypatch, rref, A))
        assert rank(GF2, A) == table_driven(monkeypatch, rank, A)
        assert_same_matrix(nullspace(GF2, A), table_driven(monkeypatch, nullspace, A))


def test_packed_path_matches_table_driven_on_edge_shapes(monkeypatch):
    rng = np.random.default_rng(3)
    for A in shaped_matrices(rng):
        assert_same_rref(rref(GF2, A), table_driven(monkeypatch, rref, A))
        assert rank(GF2, A) == table_driven(monkeypatch, rank, A)
        assert_same_matrix(nullspace(GF2, A), table_driven(monkeypatch, nullspace, A))


def test_packed_path_is_taken_up_to_62_columns(monkeypatch):
    calls = []
    pack = subspace._pack_gf2

    def spy(A):
        calls.append(A.shape[1])
        return pack(A)

    monkeypatch.setattr(subspace, "_pack_gf2", spy)
    for cols in (0, 1, 62, 63):
        A = np.ones((2, cols), dtype=np.uint8)
        rref(GF2, A)
        rank(GF2, A)
        nullspace(GF2, A)
    assert calls == [0, 0, 0, 1, 1, 1, 62, 62, 62]
    rank(Field(3), np.ones((2, 4), dtype=np.uint8))
    rref(Field(2, 2), np.ones((2, 4), dtype=np.uint8))
    nullspace(Field(2, 2), np.ones((2, 4), dtype=np.uint8))
    assert calls == [0, 0, 0, 1, 1, 1, 62, 62, 62]


@pytest.mark.parametrize("cols", [4, 62, 63])
def test_out_of_range_entries_raise_like_the_table_path(monkeypatch, cols):
    A = np.zeros((2, cols), dtype=np.uint8)
    A[1, 0] = 3
    for fn in (rref, rank, nullspace):
        with pytest.raises(ValueError) as packed:
            fn(GF2, A)
        with pytest.raises(ValueError) as table:
            table_driven(monkeypatch, fn, A)
        assert str(packed.value) == str(table.value) == "entry 3 out of range for GF(2)"
