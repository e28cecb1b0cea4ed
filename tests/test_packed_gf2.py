"""Differential tests of the packed GF(2) eliminations behind rank, rref,
nullspace and the stacked kernels.

On GF(2) with at most 62 columns, ``rank``, ``rref`` and ``nullspace``
pack each row into one int, and ``rref_stack`` (under ``rank_stack``,
``nullspace_stack`` and ``pair_rank_stack``) packs each row of a stack
into one int64 word.  The oracle is the table-driven elimination that
every other field uses, reached here by switching the packed path off.
"""

import numpy as np
import pytest

from qgeom import subspace
from qgeom.gf import Field
from qgeom.subspace import (
    nullspace,
    nullspace_stack,
    pair_rank_stack,
    rank,
    rank_stack,
    rref,
    rref_stack,
)

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
    calls, stack_calls = [], []
    pack, block = subspace._pack_gf2, subspace._rref_block_gf2

    def spy(A):
        calls.append(A.shape[1])
        return pack(A)

    def stack_spy(A, ranks, pivots):
        stack_calls.append(A.shape[2])
        return block(A, ranks, pivots)

    monkeypatch.setattr(subspace, "_pack_gf2", spy)
    monkeypatch.setattr(subspace, "_rref_block_gf2", stack_spy)
    for cols in (0, 1, 62, 63):
        A = np.ones((2, cols), dtype=np.uint8)
        rref(GF2, A)
        rank(GF2, A)
        nullspace(GF2, A)
    assert calls == [0, 0, 0, 1, 1, 1, 62, 62, 62]
    # a stack with no columns returns before choosing a path
    for cols in (0, 1, 61, 62, 63):
        S = np.ones((3, 2, cols), dtype=np.uint8)
        rref_stack(GF2, S)
        rank_stack(GF2, S)
        nullspace_stack(GF2, S)
    assert stack_calls == [1, 1, 1, 61, 61, 61, 62, 62, 62]
    for field in (Field(3), Field(2, 2)):
        A = np.ones((2, 4), dtype=np.uint8)
        rank(field, A)
        rref(field, A)
        nullspace(field, A)
        rref_stack(field, A[None])
        rank_stack(field, A[None])
        nullspace_stack(field, A[None])
    assert calls == [0, 0, 0, 1, 1, 1, 62, 62, 62]
    assert stack_calls == [1, 1, 1, 61, 61, 61, 62, 62, 62]


def random_stacks(rng, count, max_members=12, max_rows=10, max_cols=63):
    """Random (B, r, n) stacks of every density, some with repeated rows."""
    for _ in range(count):
        B = int(rng.integers(0, max_members + 1))
        r = int(rng.integers(0, max_rows + 1))
        n = int(rng.integers(0, max_cols + 1))
        S = (rng.random((B, r, n)) < rng.random()).astype(np.uint8)
        if r > 1 and rng.random() < 0.3:
            S[:, -1] = S[:, 0]
        yield S


def shaped_stacks(rng):
    """Zero rows, zero columns, all-zero and full-rank members, at 61, 62
    (packed) and 63 (table-driven) columns among others."""
    for B, r, n in [(0, 3, 4), (4, 0, 5), (4, 3, 0), (0, 0, 0), (5, 1, 1), (3, 61, 61),
                    (3, 62, 62), (3, 63, 63), (4, 5, 61), (4, 5, 62), (4, 5, 63),
                    (2, 70, 62), (2, 70, 63)]:
        yield np.zeros((B, r, n), dtype=np.uint8)
        S = rng.integers(0, 2, size=(B, r, n)).astype(np.uint8)
        if B and r and n:
            S[::3] = 0
            k = min(r, n)
            S[1::3] = 0
            S[1::3, np.arange(k), np.arange(n - k, n)] = 1
        yield S
    for n in (61, 62, 63):
        yield np.stack([np.eye(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)[::-1],
                        np.triu(np.ones((n, n), dtype=np.uint8))])


def assert_same_arrays(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype
        assert x.shape == y.shape
        assert np.array_equal(x, y)


def assert_stack_kernels_match(monkeypatch, S):
    before = S.copy()
    assert_same_arrays(rref_stack(GF2, S), table_driven(monkeypatch, rref_stack, S))
    assert_same_arrays([rank_stack(GF2, S)], [table_driven(monkeypatch, rank_stack, S)])
    assert_same_arrays(nullspace_stack(GF2, S), table_driven(monkeypatch, nullspace_stack, S))
    assert np.array_equal(S, before)


def test_packed_stack_matches_table_driven_on_random_stacks(monkeypatch):
    rng = np.random.default_rng(14)
    for S in random_stacks(rng, 400):
        assert_stack_kernels_match(monkeypatch, S)


def test_packed_stack_matches_table_driven_on_edge_shapes(monkeypatch):
    rng = np.random.default_rng(15)
    for S in shaped_stacks(rng):
        assert_stack_kernels_match(monkeypatch, S)


@pytest.mark.parametrize("cols", [5, 61, 62, 63])
def test_packed_pair_ranks_match_table_driven(monkeypatch, cols):
    rng = np.random.default_rng(cols)
    A = (rng.random((9, 4, cols)) < 0.4).astype(np.uint8)
    B = (rng.random((7, 3, cols)) < 0.4).astype(np.uint8)
    A[0] = 0
    B[1, :, :3] = np.eye(3, dtype=np.uint8)
    I, J = np.divmod(np.arange(63), 7)
    got = pair_rank_stack(GF2, A, B, I, J)
    want = table_driven(monkeypatch, lambda f, _: pair_rank_stack(f, A, B, I, J), None)
    assert_same_arrays([got], [want])


@pytest.mark.parametrize("cols", [5, 62])
def test_packed_stack_over_several_blocks(monkeypatch, cols):
    rng = np.random.default_rng(100 + cols)
    S = (rng.random((61, 5, cols)) < 0.5).astype(np.uint8)
    S[::4] = 0
    want = table_driven(monkeypatch, rref_stack, S)
    kernels = table_driven(monkeypatch, nullspace_stack, S)
    # 32 * r * n bytes per member: blocks of 3 members, then of 1
    for budget in (3 * 32 * 5 * cols, 1):
        monkeypatch.setattr(subspace, "_PAIR_BLOCK_BYTES", budget)
        assert_same_arrays(rref_stack(GF2, S), want)
        assert_same_arrays(nullspace_stack(GF2, S), kernels)


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
