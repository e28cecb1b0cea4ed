"""Exact linear algebra over GF(q): matrices, canonical subspaces, quotients.

Matrices are plain numpy uint8 arrays of field-element encodings; every
operation routes through the field's lookup tables, so all arithmetic is
exact.  A :class:`Subspace` stores the unique reduced row echelon basis
of its row space, which makes equality, hashing and ordering byte
comparisons: equal subspaces have identical encodings, and sorting by
the flattened entry sequence is the canonical order used for vertex
lists everywhere in this package.

Over GF(2) with at most 62 columns a packed path replaces the tables:
each row is one Python int, and one elimination, :func:`_echelon_gf2`,
backs :func:`rank`, :func:`rref`, :func:`nullspace` and the subspace
lattice (:meth:`Subspace.span` and so the sum, intersection and its
dimension, annihilator, :func:`multi_intersection`, :func:`span_dim`).
Each such subspace caches its RREF rows packed this way: one born on
this path keeps them from birth, with a read-only basis over the bytes
that are also its key; any other fills them on first use.  The zero
subspace is one shared instance per (field, n).  The stacked kernels
(:func:`rref_stack` and the ones built on it) pack each row of a stack
into one int64 word and eliminate by XOR over the whole stack.  Every
other field or width takes the table-driven path, which is also the
packed paths' differential oracle in the tests; RREF bases are unique,
so both give the same bytes.

The kernel rows e_f - sum_i R[i, f] e_{p_i} of an RREF basis R, one
per free column f, are written down without an elimination by two
helpers: :func:`_kernel_gf2` on packed rows and :func:`_kernel_rows` on
stacks of arrays, which gives :func:`nullspace`, :func:`nullspace_stack`
and :class:`QuotientSpace` their kernels, and :func:`_pair_ranks`
(verification, the source distances and the star tables) its pair
ranks: rank [A; B] = dim A + rank (B K_A^T), so off the packed path only
the residual blocks B K_A^T, one per pair, are eliminated.  Membership
is one product with the cached annihilator: x lies in S exactly when
x A^T = 0 for the annihilator basis A of S.

The canonical RREF bases of all k-dim subspaces come from one
enumeration, :func:`iter_rref_batches`, whose 1-dim batches are the
projective point representatives.

Entries are range-checked where data enters: every public matrix
function coerces and checks its arguments (:func:`as_stack`), and an entry
that is not an integer in 0..q-1 is a ValueError, never truncated or
wrapped.  :func:`_mat_mul`, the product behind :func:`mat_mul`, skips
that check, for operands the library built and checked itself, and so
does :meth:`Subspace._adopt` for RREF bases the library built; the
public ``Subspace(field, n, basis)`` checks entries and that the basis
is in RREF.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import AmbientMismatch, DimensionMismatch, TooLarge
from .gf import Field

# Byte budget of one block of the batched kernels.  The bitset table of the
# pairwise kernel is one row of a block, so it must fit on its own.
_PAIR_BLOCK_BYTES = 1 << 22
# the shared zero subspaces, by (field, ambient dimension); see Subspace.zero
_ZEROS: dict = {}


# -- raw matrix machinery -----------------------------------------------------

def field_entries(field: Field, data) -> np.ndarray:
    """Entries read from a config (nested lists) as a uint8 array.  Each
    must be an integer in 0..q-1; a float, string or bool is rejected,
    never truncated or parsed."""
    A = np.asarray(data, dtype=object)
    for x in A.flat:
        if not ((type(x) is int or isinstance(x, np.integer)) and 0 <= x < field.q):
            raise ValueError(f"entry {x!r} out of range for {field}")
    return A.astype(np.uint8)


def _to_uint8(field: Field, data) -> np.ndarray:
    """Data that is not already a uint8 array, as one.  Every entry must be
    an integer in 0..q-1 before the cast: a float (even an integral one) or
    a string is out of range, never truncated, and no integer wraps."""
    A = np.asarray(data)
    if A.dtype.kind not in "biu" or A.size and (
            np.minimum.reduce(A, axis=None) < 0 or np.maximum.reduce(A, axis=None) >= field.q):
        for x in np.asarray(data, dtype=object).flat:
            if not (isinstance(x, (int, np.integer)) and 0 <= x < field.q):
                raise ValueError(f"entry {x} out of range for {field}")
    return A.astype(np.uint8)


def as_stack(field: Field, data) -> np.ndarray:
    """Coerce to a uint8 matrix, or a stack of matrices along leading axes
    (a vector is one row), and range-check entries (see :func:`_to_uint8`
    for data of any other type)."""
    A = data if isinstance(data, np.ndarray) and data.dtype == np.uint8 else _to_uint8(field, data)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim < 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
    # the ufunc reduce skips ndarray.max's wrapper, which dominates on tiny stacks
    if A.size and np.maximum.reduce(A, axis=None) >= field.q:
        raise ValueError(f"entry {int(A.max())} out of range for {field}")
    return A


def as_matrix(field: Field, data) -> np.ndarray:
    """Coerce to a 2-d uint8 matrix and range-check entries."""
    A = as_stack(field, data)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
    return A


# -- packed GF(2) elimination ---------------------------------------------------
#
# Over GF(2) with at most 62 columns a row is one Python int, column c at
# bit n - 1 - c, so the leftmost nonzero column is the highest set bit and
# a row's lead is its bit_length.  A pivot table maps leads to rows.

_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


def _packed_gf2(field: Field, n: int) -> bool:
    """Does the packed GF(2) path take matrices with n columns?"""
    return field.q == 2 and n <= 62


def _gf2_words(A: np.ndarray) -> np.ndarray:
    """The rows of a (range-checked) 0/1 matrix, or of a stack of them, as
    packed int64 words."""
    weights = np.int64(1) << np.arange(A.shape[-1] - 1, -1, -1, dtype=np.int64)
    return A.astype(np.int64) @ weights


def _pack_gf2(A: np.ndarray) -> list[int]:
    """The rows of a (range-checked) 0/1 matrix as packed ints."""
    return _gf2_words(A).tolist()


def _gf2_bytes(words, n: int) -> bytes:
    """The bytes of the (len(words), n) uint8 matrix of packed rows."""
    spec = f"0{n}b"
    return "".join([format(w, spec) for w in words]).encode("ascii").translate(_FROM_ASCII)


def _unpack_gf2(words, n: int) -> np.ndarray:
    """The (len(words), n) uint8 matrix of packed rows, writable."""
    return np.frombuffer(bytearray(_gf2_bytes(words, n)), dtype=np.uint8).reshape(len(words), n)


def _echelon_gf2(words, pivots: dict[int, int] | None = None) -> dict[int, int]:
    """The one packed elimination: each row is reduced by the pivots its
    leads hit until it vanishes or takes a new lead.  Extends the given
    pivot table in place (a fresh one by default) and returns it; its size
    is the rank.  Rows are forward-reduced only."""
    if pivots is None:
        pivots = {}
    for x in words:
        while x:
            lead = x.bit_length()
            if lead not in pivots:
                pivots[lead] = x
                break
            x ^= pivots[lead]
    return pivots


def _reduced_gf2(pivots: dict[int, int]) -> list[int]:
    """The RREF rows of a pivot table, highest lead (top row) first.
    Clears each pivot column from the rows with higher leads, in place;
    a pivot row is already clear of every lower pivot column."""
    leads = sorted(pivots)
    for i, lead in enumerate(leads):
        bit, row = 1 << (lead - 1), pivots[lead]
        for high in leads[i + 1:]:
            if pivots[high] & bit:
                pivots[high] ^= row
    return [pivots[lead] for lead in reversed(leads)]


def _kernel_gf2(rows, n: int) -> list[int]:
    """RREF rows of {x : r . x = 0 for every row r}, from RREF rows of
    GF(2)^n: for each free column f, 1 at f and, at each row's pivot,
    that row's entry in column f; then one elimination of those."""
    leads = [r.bit_length() for r in rows]
    free = []
    for b in range(n, 0, -1):
        if b not in leads:
            bit = 1 << (b - 1)
            v = bit
            for r, lead in zip(rows, leads):
                if r & bit:
                    v |= 1 << (lead - 1)
            free.append(v)
    return _reduced_gf2(_echelon_gf2(free))


def _rref_block_gf2(A: np.ndarray, ranks: np.ndarray) -> None:
    """One block of :func:`rref_stack` on the packed path, reduced in place.

    Row j of member b is the int64 word Z[r + j, b], and the pivot rows
    found so far sit above, in Z[:r].  Step i takes the largest remaining
    word x of every member, the one with the leftmost lead, and replaces
    every word y by min(y, y ^ x), which is y ^ x exactly when y has x's
    lead bit: x's own row vanishes, the earlier pivot rows lose x's lead
    column, and x becomes pivot row i."""
    b, r, n = A.shape
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    Z = np.zeros((2 * r, b), dtype=np.int64)
    Z[r:] = _gf2_words(A).T
    for i in range(min(r, n)):
        x = np.maximum.reduce(Z[r:], axis=0)
        if not x.any():
            break
        np.minimum(Z, Z ^ x, out=Z)
        Z[i] = x
    P = Z[:r]
    A[...] = ((P[:, :, None] >> shifts) & 1).transpose(1, 0, 2)
    ranks[:] = np.count_nonzero(P, axis=0)


def rref(field: Field, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of the row space.

    Returns ``(R, pivots)`` where R has its zero rows dropped, pivot
    entries are 1 and pivot columns are elsewhere 0.  Idempotent; the
    output is the unique canonical representative of the row space.
    """
    A = as_matrix(field, mat)
    rows, cols = A.shape
    if _packed_gf2(field, cols):
        words = _reduced_gf2(_echelon_gf2(_pack_gf2(A)))
        return _unpack_gf2(words, cols), [cols - w.bit_length() for w in words]
    A = A.copy()
    mulT, addT = field.mul_table, field.add_table
    negT, invT = field.neg_table, field.inv_table
    r = 0
    pivots: list[int] = []
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


def rank(field: Field, mat) -> int:
    """Row rank: the packed GF(2) echelon, else the pivot count of rref."""
    A = as_matrix(field, mat)
    if _packed_gf2(field, A.shape[1]):
        return len(_echelon_gf2(_pack_gf2(A)))
    return len(rref(field, A)[1])


def rref_stack(field: Field, stack) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rref` of each member of a (B, r, n) stack: the reduced
    stack (rows of the RREF, then zero rows) and the (B,) int64 ranks.
    The input is range-checked and left as it is.

    Over GF(2) with at most 62 columns each row is one int64 word and
    the stack is eliminated by XOR (:func:`_rref_block_gf2`) in at most
    min(r, n) steps.  Otherwise, column by column, each
    member takes its own pivot row, scales it to 1 and clears the column
    from every other row by table lookups.  Both run in blocks along B
    whose temporaries stay under the pair-kernel budget, and both give the
    unique RREF, so the same bytes.
    """
    R = as_stack(field, stack).copy()
    if R.ndim != 3:
        raise DimensionMismatch(f"expected a (B, r, n) stack, got ndim={R.ndim}")
    B, r, n = R.shape
    ranks = np.zeros(B, dtype=np.int64)
    if r == 0 or n == 0:
        return R, ranks
    # the update indexes flat tables with up to four (b, r, n) intp arrays;
    # the packed path packs and unpacks through up to two (b, r, n) int64 ones
    step = max(1, _PAIR_BLOCK_BYTES // (32 * r * n))
    if _packed_gf2(field, n):
        for lo in range(0, B, step):
            _rref_block_gf2(R[lo:lo + step], ranks[lo:lo + step])
        return R, ranks
    q = np.intp(field.q)
    mulT, mulF, addF = field.mul_table, field.mul_table.ravel(), field.add_table.ravel()
    negT, invT = field.neg_table, field.inv_table
    rows = np.arange(r)
    for lo in range(0, B, step):
        # views: the block is reduced in place, the ranks count up in ranks
        A, rk = R[lo:lo + step], ranks[lo:lo + step]
        for c in range(n):
            cand = (A[:, :, c] != 0) & (rows >= rk[:, None])
            hb = np.flatnonzero(cand.any(axis=1))
            if hb.size == 0:
                continue
            top = rk[hb]
            p = cand[hb].argmax(axis=1)
            prow = A[hb, p]
            A[hb, p] = A[hb, top]
            prow = mulT[invT[prow[:, c]]][np.arange(hb.size)[:, None], prow]
            A[hb, top] = prow
            sub = A[hb]
            # entry (a, b) of a table sits at a * q + b of the flat table
            f = negT[sub[:, :, c]] * q
            f[rows == top[:, None]] = 0
            A[hb] = addF[sub * q + mulF[f[:, :, None] + prow[:, None, :]]]
            rk[hb] += 1
    return R, ranks


def rank_stack(field: Field, stack) -> np.ndarray:
    """Row ranks of a (B, r, n) stack of matrices, as a (B,) int64 array."""
    return rref_stack(field, stack)[1]


def _pair_ranks(field: Field, R: np.ndarray, B: np.ndarray, I: np.ndarray,
                J: np.ndarray) -> np.ndarray:
    """rank [R[I[p]]; B[J[p]]] for every p, as a (P,) int64 array, for a
    (s, r, n) stack R of RREF bases (zero rows after each) and a checked
    (t, r', n) stack B.

    rank [R_i; B_j] = dim R_i + rank (B_j K_i^T), where the rows of K_i
    are the kernel rows of R_i (:func:`_kernel_rows`): x K_i^T is what
    reducing x by R_i leaves at R_i's free columns, so it is x in
    coordinates of GF(q)^n / R_i.  The kernel rows are written down once
    per member of R, and one product of every row of B with every kernel
    row gives all the residual blocks B_j K_i^T, which a gather picks out
    pair by pair.  So the elimination runs on (P, r', n - min dim) blocks
    instead of (P, r + r', n) ones.  B is taken in runs of members whose
    product stays under the pair-kernel budget, and the pairs by their j.

    On the packed GF(2) path a row is one word whatever its width, and
    the pair stacks [R_i; B_j] are eliminated as they are, one block of
    :func:`rref_stack` at a time: there the kernel rows, the product and
    the gather cost more than the columns they save.
    """
    s, r, n = R.shape
    t, rows = B.shape[:2]
    out = np.zeros(len(I), dtype=np.int64)
    if not len(I):
        return out
    if _packed_gf2(field, n):
        step = max(1, _PAIR_BLOCK_BYTES // max(1, 32 * (r + rows) * n))
        for lo in range(0, len(I), step):
            out[lo:lo + step] = rank_stack(field, np.concatenate(
                [R[I[lo:lo + step]], B[J[lo:lo + step]]], axis=1))
        return out
    V, pivots = _kernel_rows(field, R)
    dims = pivots.sum(axis=1)
    w = n - int(dims.min(initial=n))
    # each member's free rows first, in column order; past them pivot rows, zero
    K = V[np.arange(s)[:, None], np.argsort(pivots, axis=1, kind="stable")[:, :w]]
    KT = K.reshape(s * w, n).T
    # a run's product, with its int32 temporaries, stays under the budget
    step = max(1, _PAIR_BLOCK_BYTES // max(1, 16 * rows * s * w))
    if step >= t:
        runs = [(0, slice(None))]
    else:
        order = np.argsort(J, kind="stable")
        cuts = np.searchsorted(J[order], np.arange(0, t + step, step))
        runs = [(lo, order[a:b]) for lo, a, b in zip(range(0, t, step), cuts, cuts[1:]) if b > a]
    for lo, p in runs:
        Bc = B[lo:lo + step]
        Y = _mat_mul(field, Bc.reshape(len(Bc) * rows, n), KT).reshape(len(Bc), rows, s, w)
        out[p] = dims[I[p]] + rank_stack(field, Y[J[p] - lo, :, I[p]])
    return out


def nullspace(field: Field, mat) -> np.ndarray:
    """RREF basis of ``{x : mat @ x = 0}``, as rows, by one elimination: the
    rref of mat with its columns reversed, as in :func:`nullspace_stack`."""
    A = as_matrix(field, mat)
    V, pivots = _kernel_rows(field, rref(field, A[:, ::-1])[0][None])
    return np.ascontiguousarray(V[0, ~pivots[0]][::-1, ::-1])


def _kernel_rows(field: Field, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel rows of a (B, r, n) stack of RREF bases (zero rows after
    each), no elimination: (V, pivots), V of shape (B, n, n) whose row j of
    member b is e_j - sum_i R[b, i, j] e_{p_i} for a free column j and zero
    for a pivot column, pivots the (B, n) pivot-column mask.  The free rows
    of a member, in column order, are a basis of {x : R[b] x = 0}."""
    B, _, n = R.shape
    V = np.zeros((B, n, n), dtype=np.uint8)
    pivots = np.zeros((B, n), dtype=bool)
    b, i = np.nonzero(R.any(axis=2))
    if b.size:
        lead = (R[b, i] != 0).argmax(axis=1)
        V[b, :, lead] = field.neg_table[R[b, i]]
        pivots[b, lead] = True
    V[pivots] = 0
    b, j = np.nonzero(~pivots)
    V[b, j, j] = 1
    return V, pivots


def nullspace_stack(field: Field, stack) -> tuple[np.ndarray, np.ndarray]:
    """Kernels of a (B, r, n) stack by one :func:`rref_stack`: (K, dims),
    K[b, :dims[b]] = ``nullspace(field, stack[b])``, zero rows after it.

    The elimination runs on the column-reversed members, and
    :func:`_kernel_rows` turns each free column of the result into one
    kernel row.  Read back in the original order, these rows lead with 1
    at distinct columns and vanish on each other's, so sorted they are the
    kernel's RREF basis.
    """
    S = as_stack(field, stack)
    R, ranks = rref_stack(field, S[:, :, ::-1] if S.ndim == 3 else S)
    V, pivots = _kernel_rows(field, R)
    order = np.argsort(pivots[:, ::-1], axis=1, kind="stable")
    return np.take_along_axis(V[:, ::-1, ::-1], order[:, :, None], axis=1), R.shape[2] - ranks


def span_stack(field: Field, stack) -> list[Subspace]:
    """The row spaces of a (B, r, n) stack, by one :func:`rref_stack`."""
    R, ranks = rref_stack(field, stack)
    R.setflags(write=False)
    return _stack_spaces(field, R, ranks.tolist())


def _stack_spaces(field: Field, R: np.ndarray, dims) -> list[Subspace]:
    """The subspaces whose RREF bases are the members of a read-only
    (B, r, n) stack, member b in its first dims[b] rows: each basis is a
    view of the stack, nothing is copied or checked again."""
    n = R.shape[2]
    return [Subspace._adopt(field, n, m[:d]) for m, d in zip(R, dims)]


def mat_mul(field: Field, A, B) -> np.ndarray:
    """Matrix product over the field.  Either factor may be a stack of
    matrices; leading axes broadcast as with numpy's ``@``.  Both factors
    are coerced to uint8 and range-checked (a vector is one row), then
    multiplied by :func:`_mat_mul`."""
    return _mat_mul(field, as_stack(field, A), as_stack(field, B))


def _mat_mul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The product behind :func:`mat_mul`, for uint8 factors whose entries
    are already known to lie in the field: the library's own outputs and
    matrices checked when they were built.  Only the shapes are checked."""
    if A.shape[-1] != B.shape[-2]:
        raise DimensionMismatch(f"cannot multiply {A.shape} by {B.shape}")
    if field.p == 2 and field.e == 1:
        # uint8 wraparound is mod 256, which preserves parity
        return (A @ B) & 1
    if field.e == 1:
        return ((A.astype(np.int32) @ B.astype(np.int32)) % field.p).astype(np.uint8)
    out = np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                   + (A.shape[-2], B.shape[-1]), dtype=np.uint8)
    mulT, addT, lead = field.mul_table, field.add_table, B.shape[:-2]
    # one arange per leading axis of B picks each member's own multiples
    members = tuple(np.arange(s).reshape((-1,) + (1,) * (len(lead) - j))
                    for j, s in enumerate(lead))
    for t in range(A.shape[-1]):
        # the q multiples of row t of B, (q, ..., p), looked up by column t of A
        prod = mulT[:, B[..., t, :]][(A[..., :, t],) + members]
        out = out ^ prod if field.p == 2 else addT[out, prod]  # in characteristic 2, XOR adds
    return out


def mat_frobenius(field: Field, A, t: int) -> np.ndarray:
    """Entrywise p^t power of a matrix or a stack of them."""
    return field.frob_table[t % field.e][as_stack(field, A)]


def invert_matrix(field: Field, A) -> np.ndarray:
    """Inverse of a square matrix; raises DimensionMismatch if singular."""
    A = as_matrix(field, A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch(f"not square: {A.shape}")
    R, pivots = rref(field, np.hstack([A, np.eye(n, dtype=np.uint8)]))
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise DimensionMismatch("matrix is singular")
    return R[:, n:].copy()


# -- canonical subspaces ------------------------------------------------------

class Subspace:
    """A subspace of GF(q)^n held as its unique RREF basis.

    Immutable value object: the basis array is read-only, equality and
    hashing go through the flattened byte encoding, and ``<`` orders
    subspaces by (ambient dimension, dimension, entry sequence), which
    is the canonical vertex order.

    Over GF(2) with n <= 62 the lattice operations run on the basis rows
    packed as ints, kept from birth by subspaces built on that path and
    filled in on first use by the others.
    """

    __slots__ = ("field", "ambient_dim", "basis", "_bytes", "_hash",
                 "_pivots", "_ann", "_gf2")

    def __init__(self, field: Field, ambient_dim: int, basis):
        """The subspace with this RREF basis.  Entries are range-checked
        (:func:`as_matrix`), and a basis that is not its own RREF, zero
        rows included, is a ValueError; :meth:`span` takes any rows."""
        b = as_matrix(field, basis)
        if np.ndim(basis) != 2 or b.shape[1] != ambient_dim:
            raise DimensionMismatch(f"basis shape {np.shape(basis)} vs ambient {ambient_dim}")
        R = rref(field, b)[0]
        if not np.array_equal(R, b):
            raise ValueError("basis is not in reduced row echelon form; use Subspace.span")
        R.setflags(write=False)
        self._fill(field, int(ambient_dim), R, R.tobytes())

    def _fill(self, field: Field, ambient_dim: int, basis: np.ndarray, raw: bytes) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._bytes = raw
        self._hash = hash((ambient_dim, basis.shape[0], raw))
        self._pivots = None
        self._ann = None
        self._gf2 = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _adopt(cls, field: Field, ambient_dim: int, basis: np.ndarray,
               raw: bytes | None = None) -> "Subspace":
        """The subspace on an RREF basis the library built and no longer
        writes, kept as it is (no copy, no check) and made read-only; raw
        is its bytes when already known."""
        basis.setflags(write=False)
        s = cls.__new__(cls)
        s._fill(field, ambient_dim, basis, basis.tobytes() if raw is None else raw)
        return s

    @classmethod
    def span(cls, field: Field, vectors, ambient_dim: int | None = None) -> "Subspace":
        """Canonical subspace spanned by the given row vectors.  On the
        packed GF(2) path it is born from its packed RREF rows
        (:meth:`_from_gf2`), which it keeps."""
        A = as_matrix(field, vectors)
        if A.size == 0:
            if ambient_dim is None:
                raise DimensionMismatch("empty span needs an explicit ambient_dim")
            return cls.zero(field, ambient_dim)
        n = A.shape[1]
        if ambient_dim is not None and ambient_dim != n:
            raise AmbientMismatch(f"vectors of length {n} in ambient {ambient_dim}")
        if _packed_gf2(field, n):
            words = _reduced_gf2(_echelon_gf2(_pack_gf2(A)))
            return cls._from_gf2(field, n, words)
        R, _ = rref(field, A)
        return cls._adopt(field, n, R) if len(R) else cls.zero(field, n)

    @classmethod
    def _from_gf2(cls, field: Field, ambient_dim: int, words: list[int]) -> "Subspace":
        """The subspace with these packed RREF rows, its packed slot filled.
        The basis is read-only over the bytes that also serve as its key,
        so it can never be made writable and is never copied.  No rows is
        the shared :meth:`zero`."""
        if not words:
            return cls.zero(field, ambient_dim)
        raw = _gf2_bytes(words, ambient_dim)
        basis = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), ambient_dim)
        s = cls._adopt(field, ambient_dim, basis, raw)
        s._gf2 = tuple(words)
        return s

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        """The zero subspace of GF(q)^ambient_dim: one shared read-only
        instance per (field, ambient_dim), built on first request.  Its
        cached annihilator is the full space."""
        key = (field, ambient_dim)
        z = _ZEROS.get(key)
        if z is None:
            z = _ZEROS[key] = cls._adopt(field, ambient_dim,
                                         np.zeros((0, ambient_dim), dtype=np.uint8))
        return z

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls._adopt(field, ambient_dim, np.eye(ambient_dim, dtype=np.uint8))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _packed(self) -> bool:
        return _packed_gf2(self.field, self.ambient_dim)

    def _words(self) -> tuple[int, ...]:
        """The RREF rows packed as ints (packed GF(2) path only), cached."""
        if self._gf2 is None:
            self._gf2 = tuple(_pack_gf2(self.basis))
        return self._gf2

    def _pivot_table(self) -> dict[int, int]:
        """A fresh pivot table of the RREF rows, for :func:`_echelon_gf2`."""
        return {w.bit_length(): w for w in self._words()}

    @property
    def pivots(self) -> list[int]:
        if self._pivots is None:
            self._pivots = [int(np.flatnonzero(row)[0]) for row in self.basis]
        return self._pivots

    def contains_vector(self, v) -> bool:
        """True iff v lies in self: the annihilator's rows all kill it."""
        w = as_stack(self.field, v).reshape(1, -1)
        return not _mat_mul(self.field, w, self.annihilator().basis.T).any()

    def contains(self, other: "Subspace") -> bool:
        """True iff other is a subspace of self: the annihilator's rows
        kill every basis row of other."""
        self._check_compatible(other)
        return other.dim <= self.dim and not _mat_mul(
            self.field, other.basis, self.annihilator().basis.T).any()

    def all_vectors(self) -> np.ndarray:
        """Every member vector, (q^dim, n); small dimensions only."""
        return mat_mul(self.field, _coefficient_rows(self.field.q, self.dim), self.basis)

    # -- lattice operations ----------------------------------------------------

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field is not other.field:
            self.field.check_same(other.field)
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"{self.ambient_dim} vs {other.ambient_dim}")

    def __add__(self, other: "Subspace") -> "Subspace":
        """Sum of subspaces (span of the union of bases)."""
        self._check_compatible(other)
        stacked = np.vstack([self.basis, other.basis])
        return Subspace.span(self.field, stacked, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, via annihilator duality: (A^0 + B^0)^0."""
        self._check_compatible(other)
        return multi_intersection([self, other])

    __and__ = intersect

    def intersection_dim(self, other: "Subspace") -> int:
        """dim(A ∩ B) = dim A + dim B - dim(A + B); no basis built.  Packed
        GF(2): other's rows reduced against self's, whose leads differ."""
        self._check_compatible(other)
        if self._packed():
            return self.dim + other.dim - len(
                _echelon_gf2(other._words(), self._pivot_table()))
        stacked = np.vstack([self.basis, other.basis])
        return self.dim + other.dim - rank(self.field, stacked)

    def annihilator(self) -> "Subspace":
        """All dual vectors vanishing on self, under the standard dot pairing.

        Cached: vertex objects are shared across graphs and embeddings,
        so repeat annihilators are frequent and free.
        """
        if self._ann is None:
            n = self.ambient_dim
            if self._packed():
                self._ann = Subspace._from_gf2(self.field, n, _kernel_gf2(self._words(), n))
            else:
                self._ann = Subspace._adopt(self.field, n, nullspace(self.field, self.basis))
        return self._ann

    # -- value semantics ---------------------------------------------------------

    @property
    def key(self) -> tuple:
        return (self.ambient_dim, self.basis.shape[0], self._bytes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.field is other.field or self.field == other.field)
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Subspace") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        rows = self.basis.tolist()
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={rows})"

    def to_rows(self) -> list[list[int]]:
        """JSON-friendly list of basis rows."""
        return [[int(x) for x in row] for row in self.basis]


def multi_intersection(spaces: list[Subspace]) -> Subspace:
    """Intersection of many subspaces at once: the kernel of all their
    annihilators, which is much cheaper than folding pairwise intersections.

    Packed GF(2): one elimination takes the annihilators' rows in turn and
    stops once their rank reaches n; otherwise the kernel is read off the
    echelon.  Other fields stack the annihilator bases and take a single
    :func:`nullspace`.  An empty intersection is the shared
    :meth:`Subspace.zero`, never a fresh one.
    """
    if not spaces:
        raise DimensionMismatch("need at least one subspace")
    first = spaces[0]
    field, n = first.field, first.ambient_dim
    for s in spaces:
        # the common case inline; the method raises the precise error
        if s.field is not field or s.ambient_dim != n:
            first._check_compatible(s)
    if first._packed():
        pivots: dict[int, int] = {}
        for s in spaces:
            _echelon_gf2(s.annihilator()._words(), pivots)
            if len(pivots) == n:
                return Subspace.zero(field, n)
        return Subspace._from_gf2(field, n, _kernel_gf2(_reduced_gf2(pivots), n))
    K = nullspace(field, np.vstack([a.basis for a in annihilators(spaces)]))
    return Subspace._adopt(field, n, K) if len(K) else Subspace.zero(field, n)


def span_dim(spaces) -> int:
    """dim of the sum of many subspaces of one GF(q)^n; no basis built."""
    if not spaces:
        raise DimensionMismatch("need at least one subspace")
    first = spaces[0]
    if first._packed():
        pivots: dict[int, int] = {}
        for s in spaces:
            first._check_compatible(s)
            _echelon_gf2(s._words(), pivots)
        return len(pivots)
    return rank(first.field, np.vstack([s.basis for s in spaces]))


def annihilators(spaces) -> list[Subspace]:
    """:meth:`Subspace.annihilator` of many subspaces of one GF(q)^n; the
    ones not yet cached come from one :func:`nullspace_stack`."""
    todo = [s for s in spaces if s._ann is None]
    if todo:
        field, n = todo[0].field, todo[0].ambient_dim
        K, dims = nullspace_stack(field, stack_bases(field, todo, n))
        K.setflags(write=False)
        for s, ann in zip(todo, _stack_spaces(field, K, dims.tolist())):
            s._ann = ann
    return [s._ann for s in spaces]


def pairwise_intersection_dims(spaces: list[Subspace]) -> np.ndarray:
    """The (t, t) int16 table of dim(A ∩ B) over subspaces of one GF(q)^n.

    Each subspace becomes the bitset of its q^dim member vectors, packed
    in uint64 words, and dim(A ∩ B) = log_q popcount(a & b).  The members
    of all inputs come from one product of the coefficient combinations
    with the stacked bases (padded with zero rows to the largest
    dimension).  Rows are paired in blocks whose temporaries stay under a
    fixed byte budget; raises TooLarge if the bitset table alone would
    exceed it.
    """
    t = len(spaces)
    if t == 0:
        return np.zeros((0, 0), dtype=np.int16)
    first = spaces[0]
    for s in spaces[1:]:
        first._check_compatible(s)
    field, n, q = first.field, first.ambient_dim, first.field.q
    words = -(-q**n // 64)
    row_bytes = t * words * 8
    if row_bytes > _PAIR_BLOCK_BYTES:
        raise TooLarge(f"member bitsets of {t} subspaces of GF({q})^{n} take "
                       f"{row_bytes} bytes, over the {_PAIR_BLOCK_BYTES}-byte budget")
    d = max(s.dim for s in spaces)
    bases = np.zeros((d, t, n), dtype=np.uint8)
    for i, s in enumerate(spaces):
        bases[:s.dim, i] = s.basis
    combos = _coefficient_rows(q, d)
    digits = q ** np.arange(n, dtype=np.int64)
    # table[w, i] = word w of the bitset of spaces[i]
    table = np.zeros((words, t), dtype=np.uint64)
    # one product for all inputs, unless the members outgrow the budget
    # (about 9n + 16 bytes each, with their int64 codes)
    step = max(1, _PAIR_BLOCK_BYTES // (q**d * (9 * n + 16)))
    for lo in range(0, t, step):
        part = bases[:, lo:lo + step]
        c = part.shape[1]
        members = mat_mul(field, combos, part.reshape(d, c * n)).reshape(q**d, c, n)
        # member vector -> its index in GF(q)^n read as base-q digits
        codes = members.astype(np.int64) @ digits
        owner = np.broadcast_to(np.arange(lo, lo + c), codes.shape)
        np.bitwise_or.at(table, (codes >> 6, owner),
                         np.left_shift(np.uint64(1), (codes & 63).astype(np.uint64)))
    powers = q ** np.arange(n + 1, dtype=np.int64)
    out = np.empty((t, t), dtype=np.int16)
    # one word at a time: at most 13 bytes of temporaries per pair
    rows = max(1, _PAIR_BLOCK_BYTES // (16 * t))
    for lo in range(0, t, rows):
        counts = np.zeros((min(rows, t - lo), t), dtype=np.int32)
        for word in table:
            counts += np.bitwise_count(word[lo:lo + rows, None] & word[None, :])
        out[lo:lo + rows] = np.searchsorted(powers, counts)
    return out


def stack_bases(field: Field, spaces, ambient_dim: int) -> np.ndarray:
    """The (t, d, n) uint8 stack of the subspaces' RREF bases, each padded
    with zero rows to the largest dimension d; the input to rank_stack."""
    d = max((s.dim for s in spaces), default=0)
    out = np.zeros((len(spaces), d, ambient_dim), dtype=np.uint8)
    for i, s in enumerate(spaces):
        if s.field is not field:
            field.check_same(s.field)
        if s.ambient_dim != ambient_dim:
            raise AmbientMismatch(f"{s.ambient_dim} vs {ambient_dim}")
        out[i, :s.dim] = s.basis
    return out


@lru_cache(maxsize=64)
def _coefficient_rows(q: int, d: int) -> np.ndarray:
    """The (q^d, d) uint8 array of every coefficient vector over GF(q), in
    ascending lexicographic order (the last entry varies fastest).  Cached
    and read-only: the same few tables recur in every enumeration."""
    C = np.indices((q,) * d, dtype=np.uint8).reshape(d, q**d).T
    C.setflags(write=False)
    return C


def iter_rref_batches(field: Field, n: int, k: int):
    """Yield batches of RREF matrices, one batch per pivot-column pattern.

    Every k-dim subspace of GF(q)^n appears exactly once across all
    batches: distinct patterns give distinct pivot sets, and within a
    pattern the free cells take every value combination, in ascending
    lexicographic order of the free cells read row by row.
    """
    for pivots in combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        combos = _coefficient_rows(field.q, len(free))
        batch = np.zeros((len(combos), k, n), dtype=np.uint8)
        for i, j in enumerate(pivots):
            batch[:, i, j] = 1
        for t, (i, j) in enumerate(free):
            batch[:, i, j] = combos[:, t]
        yield batch


def projective_point_reps(field: Field, n: int) -> np.ndarray:
    """Canonical representatives of all 1-dim subspaces of GF(q)^n.

    Each row is the RREF representative (first nonzero entry 1): the
    1-dim batches of :func:`iter_rref_batches`, last pivot first, so the
    rows come out in ascending lexicographic order of the entry tuple,
    e_n first and the (1, *, ..., *) vectors last.
    """
    return np.concatenate(list(iter_rref_batches(field, n, 1))[::-1]).reshape(-1, n)


# -- quotient spaces -----------------------------------------------------------

class QuotientSpace:
    """The quotient W = V / U in concrete coordinates.

    The coordinate model keeps the non-pivot columns of U's RREF basis
    as a transversal, so W is literally GF(q)^(n - dim U) and all the
    matrix machinery above applies unchanged; the coordinate map's rows
    are the kernel rows of U's basis (:func:`_kernel_rows`).  ``project``
    sends a subspace S of V to (S + U)/U; ``lift_vector`` is the section
    with zeros on the pivot columns, and project(lift(w)) = w.
    """

    __slots__ = ("field", "ambient_dim", "mod_out", "dim", "coordinate_map",
                 "_transversal")

    def __init__(self, ambient_dim: int, mod_out: Subspace):
        if mod_out.ambient_dim != ambient_dim:
            raise AmbientMismatch(
                f"U lives in dimension {mod_out.ambient_dim}, not {ambient_dim}")
        field = mod_out.field
        self.field = field
        self.ambient_dim = ambient_dim
        self.mod_out = mod_out
        V, pivots = _kernel_rows(field, mod_out.basis[None])
        self._transversal = np.flatnonzero(~pivots[0])
        self.dim = len(self._transversal)
        cmap = V[0, self._transversal]
        cmap.setflags(write=False)
        self.coordinate_map = cmap

    def project_vector(self, v) -> np.ndarray:
        v = as_stack(self.field, v).reshape(-1, 1)
        return _mat_mul(self.field, self.coordinate_map, v).reshape(-1)

    def project(self, S: Subspace) -> Subspace:
        """Image (S + U)/U as a canonical subspace of GF(q)^dim."""
        if S.ambient_dim != self.ambient_dim:
            raise AmbientMismatch(f"{S.ambient_dim} vs {self.ambient_dim}")
        if S.dim == 0:
            return Subspace.zero(self.field, self.dim)
        img = mat_mul(self.field, S.basis, self.coordinate_map.T)
        return Subspace.span(self.field, img, self.dim)

    def lift_vector(self, w) -> np.ndarray:
        w = as_stack(self.field, w).reshape(-1)
        if w.shape[0] != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {w.shape[0]}")
        v = np.zeros(self.ambient_dim, dtype=np.uint8)
        v[self._transversal] = w
        return v

    def lift_matrix(self) -> np.ndarray:
        """Rows are the lifts of the W coordinate basis vectors."""
        return np.eye(self.ambient_dim, dtype=np.uint8)[self._transversal]

    def __repr__(self) -> str:
        return (f"QuotientSpace(ambient={self.ambient_dim}, "
                f"mod_out_dim={self.mod_out.dim}, dim={self.dim})")


def quotient(ambient_dim: int, U: Subspace) -> QuotientSpace:
    """Quotient space V/U in transversal coordinates."""
    return QuotientSpace(ambient_dim, U)
