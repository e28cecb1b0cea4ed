"""Grassmannians and Grassmann graphs over GF(q).

Enumerates all k-dimensional subspaces of GF(q)^n by direct construction
of RREF patterns (choose pivot columns, fill the free cells), builds the
graph whose edges join subspaces meeting in dimension k-1 from the
member-bitset kernel ``pairwise_intersection_dims``, and provides two
independent distance computations: the closed form k - dim(A ∩ B) on
RREF bases, and a level-synchronous BFS that reads only the adjacency
(every ball of radius l + 1 is the OR of the radius-l balls of the closed
neighbourhood, as rows of uint64 words).  Also: stars, the annihilator
duality, and the empirical distance-regularity check, whose neighbour
counts are popcounts of sphere words against adjacency words.
"""

from __future__ import annotations

import warnings
from collections import deque
from functools import lru_cache

import numpy as np

from .errors import BadIndex, Disconnected, DimensionMismatch, NotDistanceRegular, TooLarge
from .gf import Field
from .subspace import (
    QuotientSpace,
    Subspace,
    annihilators,
    iter_rref_batches,
    mat_mul,
    pairwise_intersection_dims,
)

DEFAULT_ENUM_CAP = 10**6
DISTANCE_CACHE_CAP = 5000
# byte budget of one block of rows in the BFS and the neighbour counts
_SOURCE_BLOCK_BYTES = 1 << 21


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Boolean rows (..., V) as uint64 words (..., ceil(V / 64)): bit
    v % 64 of word v // 64 is bits[..., v], and the padding bits are clear."""
    V = bits.shape[-1]
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (8 * -(-V // 64),), dtype=np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view("<u8")


def _unpack_rows(words: np.ndarray, V: int) -> np.ndarray:
    """The inverse of _pack_rows for 2-d word rows: a (rows, V) bool array."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=V,
                         bitorder="little").view(bool)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of GF(q)^n, by the exact product formula."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


# -- enumeration ----------------------------------------------------------------

def enum_grassmannian(field: Field, n: int, k: int,
                      cap: int = DEFAULT_ENUM_CAP) -> list[Subspace]:
    """All k-dim subspaces of GF(q)^n in canonical (entry-lex) order."""
    if not 0 <= k <= n:
        raise DimensionMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    projected = gaussian_binomial(n, k, field.q)
    if projected > cap:
        raise TooLarge(f"{projected} subspaces exceed the cap {cap}")
    out = []
    for batch in iter_rref_batches(field, n, k):
        for mat in batch:
            out.append(Subspace._adopt(field, n, mat))
    out.sort()
    return out


def count_by_enumeration(field: Field, n: int, k: int,
                         cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count subspaces by materializing the enumeration batches.

    Independent of :func:`gaussian_binomial` (no product formula): the
    batches are concretely constructed and their rows counted.
    """
    if not 0 <= k <= n:
        return 0
    total = 0
    for batch in iter_rref_batches(field, n, k):
        total += batch.shape[0]
        if total > cap:
            raise TooLarge(f"enumeration passed the cap {cap}")
    return total


# -- graphs ----------------------------------------------------------------------

class FiniteGraph:
    """Immutable vertex-indexed graph with cached distance access.

    Vertices may be any hashable labels (Subspace, usually).  Pairwise
    distances are precomputed by BFS and cached when the vertex count is
    at most ``DISTANCE_CACHE_CAP``; beyond that, BFS runs on demand.
    """

    def __init__(self, vertices, adjacency):
        """Neighbour lists may repeat an index; one outside [0, len(vertices))
        is a BadIndex."""
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        adj = []
        for nbrs in adjacency:
            a = np.sort(nbrs if isinstance(nbrs, np.ndarray) else np.fromiter(nbrs, dtype=np.int64))
            if a.size and not 0 <= a[0] <= a[-1] < n:
                raise BadIndex(f"neighbour {a[0] if a[0] < 0 else a[-1]} out of range [0, {n})")
            adj.append(a.astype(np.int32))
        self.adj = tuple(adj)
        if len(self.adj) != n:
            raise DimensionMismatch("adjacency length != vertex count")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._dist: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def index_of(self, v) -> int:
        return self._index[v]

    def degree_sequence(self) -> list[int]:
        return [len(a) for a in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    out.append((u, int(v)))
        return out

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.n_vertices:
            raise BadIndex(f"vertex {a} out of range [0, {self.n_vertices})")

    def _bfs_row(self, source: int) -> np.ndarray:
        dist = np.full(self.n_vertices, -1, dtype=np.int16)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in self.adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(int(v))
        return dist

    @property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs BFS distances, -1 for unreachable; cached.

        Level-synchronous over all sources at once: ball_{l+1}(u) is the OR
        of ball_l(w) over u and its neighbours w, rows of uint64 words, and
        v lies at distance d from u when it first joins u's ball at l = d.
        Rows are gathered in blocks under ``_SOURCE_BLOCK_BYTES``."""
        if self._dist is None:
            n = self.n_vertices
            if n > DISTANCE_CACHE_CAP:
                raise TooLarge(f"{n} vertices exceed the distance cache cap")
            # closed neighbourhoods, u first, flattened; starts[u] is where
            # u's begins
            sizes = np.array([len(a) for a in self.adj], dtype=np.intp)
            heads = np.cumsum(sizes) - sizes
            flat = np.insert(np.concatenate((*self.adj, np.zeros(0, np.int32))).astype(np.intp),
                             heads, np.arange(n))
            starts = np.r_[heads + np.arange(n), len(flat)]
            # a block's gathered words and unpacked rows stay under the budget
            widest = int(sizes.max(initial=0)) + 1
            step = max(1, _SOURCE_BLOCK_BYTES // (8 * -(-n // 64) * widest + n + 1))
            blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
            ball = _pack_rows(np.eye(n, dtype=bool))
            D = np.zeros((n, n), dtype=np.int16)
            grown = True
            while grown:
                grown = False
                nxt = np.empty_like(ball)
                for lo, hi in blocks:
                    a, b = starts[lo], starts[hi]
                    nxt[lo:hi] = np.bitwise_or.reduceat(ball[flat[a:b]], starts[lo:hi] - a, axis=0)
                    grown = grown or not np.array_equal(nxt[lo:hi], ball[lo:hi])
                    # outside the radius-l ball: farther than l, or unreachable
                    D[lo:hi] += ~_unpack_rows(ball[lo:hi], n)
                ball = nxt
            for lo, hi in blocks:
                D[lo:hi][~_unpack_rows(ball[lo:hi], n)] = -1
            D.setflags(write=False)
            self._dist = D
        return self._dist

    def _distance_row(self, source: int) -> np.ndarray:
        if self._dist is not None or self.n_vertices <= DISTANCE_CACHE_CAP:
            return self.distance_matrix[source]
        return self._bfs_row(source)

    def bfs_distance(self, a: int, b: int) -> int | None:
        """Shortest-path length, or None if unreachable."""
        self._check_index(a)
        self._check_index(b)
        d = int(self._distance_row(a)[b])
        return None if d < 0 else d

    def is_connected(self) -> bool:
        return self.n_vertices == 0 or bool((self._distance_row(0) >= 0).all())

    def diameter(self) -> int:
        D = self.distance_matrix
        if (D < 0).any():
            raise Disconnected("diameter of a disconnected graph")
        return int(D.max())

    def subgraph(self, indices: list[int]) -> "FiniteGraph":
        """Restriction to the given distinct vertices (order preserved); an
        index out of range or repeated is a BadIndex."""
        pos = {int(i): t for t, i in enumerate(indices)}
        for i in pos:
            self._check_index(i)
        if len(pos) != len(indices):
            raise BadIndex("repeated vertex in a subgraph")
        adj = [
            [pos[int(v)] for v in self.adj[int(i)] if int(v) in pos]
            for i in indices
        ]
        return FiniteGraph([self.vertices[int(i)] for i in indices], adj)


def intersection_numbers(g: FiniteGraph) -> dict[int, tuple[int, int, int]]:
    """Empirical intersection array {i: (c_i, a_i, b_i)}.

    For every vertex pair at distance i, counts the neighbors of the
    second vertex at distances i-1, i, i+1 from the first.  Succeeds iff
    the counts are constant over all pairs; no closed formulas are
    assumed anywhere.  The count of neighbours of v at distance j from u
    is the popcount of u's distance-j sphere words AND v's adjacency words
    (summed over the multiplicity layers), over row blocks, for every j but
    0, which is read off the adjacency, and the largest, which gets the
    neighbours left over; witnesses and failures are the first pairs in
    row-major order.
    """
    if not g.is_connected():
        raise Disconnected("intersection numbers need a connected graph")
    D = g.distance_matrix
    lo_d, hi_d = int(D.min()), int(D.max())
    n = g.n_vertices
    # A[v, w] = how often w is listed in adj[v]; layer m of the adjacency
    # words holds the w listed more than m times, so popcounts summed over
    # the layers count repeated neighbours (one layer for a simple graph)
    A = np.zeros((n, n), dtype=np.int32)
    for v, nbrs in enumerate(g.adj):
        np.add.at(A[v], nbrs, 1)
    layers = [_pack_rows(A > m).T.copy() for m in range(int(A.max()))]
    degrees = A.sum(axis=1, dtype=np.int32)
    table: dict[int, tuple[int, int, int]] = {}
    witness: dict[int, tuple[int, int]] = {}
    span = hi_d - lo_d + 1
    # expected[:, i - lo_d] = (c_i, a_i, b_i) once distance i has a witness
    expected = np.zeros((3, span), dtype=np.int32)
    known = np.zeros(span, dtype=bool)
    step = max(1, _SOURCE_BLOCK_BYTES // ((4 * span + 64) * n))
    for lo in range(0, n, step):
        Dblk = D[lo:lo + step]
        at = Dblk - lo_d
        # counts[j - lo_d + 1, u, v] = neighbours of v at distance j from u,
        # between two zero planes; the last distance gets the neighbours
        # left over, since every distance lies in lo_d..hi_d
        counts = np.zeros((span + 2,) + Dblk.shape, dtype=np.int32)
        left = counts[span]
        left += degrees
        both = np.empty(Dblk.shape, dtype=np.uint64)
        ones = np.empty(Dblk.shape, dtype=np.uint8)
        for j in range(lo_d, hi_d):
            M = counts[j - lo_d + 1]
            if j == 0:
                # the distance-0 sphere of u is u itself
                M += A[:, lo:lo + step].T
            else:
                sphere = _pack_rows(Dblk == j)
                for layer in layers:
                    for w, words in enumerate(layer):
                        np.bitwise_and(sphere[:, w, None], words, out=both)
                        M += np.bitwise_count(both, out=ones)
            left -= M
        # cab[:, u, v] = neighbors of v at distances i-1, i, i+1 from u, i = D[u, v]
        cab = np.stack([np.take_along_axis(counts, (at + s)[None], axis=0)[0]
                        for s in range(3)])
        for i in range(lo_d, hi_d + 1):
            hit = Dblk == i
            if i != 0 and not known[i - lo_d] and hit.any():
                u, v = divmod(int(np.argmax(hit)), n)
                table[i] = tuple(int(x) for x in cab[:, u, v])
                witness[i] = (lo + u, v)
                expected[:, i - lo_d] = table[i]
                known[i - lo_d] = True
        bad = known[at] & (cab != expected[:, at]).any(axis=0)
        if bad.any():
            u, v = divmod(int(np.argmax(bad)), n)
            i, pair = int(Dblk[u, v]), (lo + u, v)
            counts = tuple(int(x) for x in cab[:, u, v])
            raise NotDistanceRegular(
                f"distance-{i} counts differ: pair {witness[i]} gives "
                f"{table[i]}, pair {pair} gives {counts}",
                (i, witness[i] + table[i], pair + (counts,)),
            )
    return {i: table[i] for i in sorted(table)}


# -- Grassmann graphs ---------------------------------------------------------------

class GrassmannGraph(FiniteGraph):
    """The graph on all k-dim subspaces of GF(q)^n, adjacency = meeting in dim k-1."""

    def __init__(self, field: Field, n: int, k: int, cap: int = DEFAULT_ENUM_CAP):
        if not (1 < k < n - 1):
            warnings.warn(
                f"Gamma_{k}(GF({field.q})^{n}) is complete or trivial for k={k}; "
                "proceeding anyway", stacklevel=2)
        self.field = field
        self.n = n
        self.k = k
        vertices = enum_grassmannian(field, n, k, cap=cap)
        near = pairwise_intersection_dims(vertices) == k - 1
        super().__init__(vertices, [np.flatnonzero(row) for row in near])


@lru_cache(maxsize=32)
def grassmann_graph_cached(field: Field, n: int, k: int) -> GrassmannGraph:
    """Shared per-(field, n, k) graph; the embed module leans on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GrassmannGraph(field, n, k)


def grassmann_distance(A: Subspace, B: Subspace) -> int:
    """Graph distance in the Grassmann graph: k - dim(A ∩ B)."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dim {A.dim} vs {B.dim}")
    return A.dim - A.intersection_dim(B)


def star(U: Subspace, k: int, cap: int = DEFAULT_ENUM_CAP) -> list[Subspace]:
    """All k-dim subspaces containing U, in canonical order.

    Generated through the quotient V/U (subspaces over U correspond to
    subspaces of the quotient), so the count is the Gaussian binomial
    [n - dim U choose k - dim U]_q without any filtering pass.
    """
    n = U.ambient_dim
    if not U.dim < k <= n:
        raise DimensionMismatch(f"need dim U = {U.dim} < k = {k} <= n = {n}")
    qs = QuotientSpace(n, U)
    lift = qs.lift_matrix()
    field = U.field
    out = []
    for T in enum_grassmannian(field, qs.dim, k - U.dim, cap=cap):
        rows = np.vstack([U.basis, mat_mul(field, T.basis, lift)])
        out.append(Subspace.span(field, rows, n))
    out.sort()
    return out


def duality_map(A: Subspace) -> Subspace:
    """The annihilator, realizing the dual space via the dot pairing."""
    return A.annihilator()


def duality_permutation(g: GrassmannGraph, g_dual: GrassmannGraph) -> np.ndarray:
    """Index map of the annihilator from Gamma_k(V) to Gamma_{n-k}(V*).

    Every annihilator comes from one :func:`annihilators` call.  Raises
    KeyError if some annihilator is missing from the target, which cannot
    happen when g_dual enumerates dimension n - k.
    """
    return np.array([g_dual.index_of(a) for a in annihilators(g.vertices)],
                    dtype=np.int64)
