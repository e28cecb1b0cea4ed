"""Isometric embeddings of dual polar graphs into Grassmann graphs.

The operations here build, verify, structurally dissect, exhaustively
enumerate, and classify distance-preserving injections of the maximal
totally singular subspaces into a Grassmannian over the same field:

* :func:`canonical_embedding` realizes M -> M + U for a star subspace U
  chosen to avoid every pairwise sum of maximals;
* :func:`extract_star_subspace`, :func:`reduce_to_quotient`,
  :func:`induce_point_map` and :func:`check_line_images` recover, from
  any verified embedding, the common subspace below the image, the
  reduced embedding into the quotient, the induced map on polar points,
  and the fact that whole projective lines map onto whole lines;
* :func:`search_embeddings` runs a distance-pruned backtracking census;
* :func:`connecting_automorphism` produces an explicit semilinear (and,
  when n = 2k, possibly duality-composed) witness carrying one embedding
  to another, certifying that all of them form a single equivalence
  class under Grassmann-graph automorphisms.

Conditions that the mathematics rules out (an image star thinner than
expected, empty point intersections, partial line images, unconnectable
embeddings at exhaustive scale) raise the distinguished TheoryViolation
exceptions rather than passing silently.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    AmbientMismatch,
    Anomaly,
    ContainmentViolation,
    DimensionMismatch,
    DistanceViolation,
    EmptyIntersection,
    LemmaViolation,
    NoValidU,
    NotEquivalent,
    NotInjective,
    PartialLine,
    QGeomError,
    RankTooSmall,
    SearchBudgetExceeded,
    StarViolation,
    TooLarge,
)
from .gf import Field, config_int
from .grassmann import (
    DISTANCE_CACHE_CAP,
    GrassmannGraph,
    _pack_rows,
    _unpack_rows,
    gaussian_binomial,
    grassmann_graph_cached,
)
from .polar import PolarSpace
from .subspace import (
    _PAIR_BLOCK_BYTES,
    QuotientSpace,
    Subspace,
    _kernel_rows,
    _mat_mul,
    _pair_ranks,
    _stack_spaces,
    annihilators,
    as_matrix,
    field_entries,
    invert_matrix,
    mat_frobenius,
    mat_mul,
    multi_intersection,
    nullspace,
    nullspace_stack,
    projective_point_reps,
    rank,
    rank_stack,
    rref_stack,
    span_dim,
    span_stack,
    stack_bases,
)

BFS_CROSSCHECK_CAP = 400
DEFAULT_WITNESS_BUDGET = 10_000
# byte budget of one chunk of census children (their domains and indices)
_CENSUS_BLOCK_BYTES = 1 << 20
# byte budget of the census members one search may hold (256 MiB)
_CENSUS_MEMBER_BYTES = 1 << 28
_NO_META = MappingProxyType({})


class Embedding:
    """A table pairing every maximal M with an image subspace f(M).

    ``source`` is the polar space, ``images`` aligns with
    ``source.maximals``, and the target is the Grassmannian of
    ``target_k``-dim subspaces of GF(q)^``target_n``.  ``meta`` holds
    caller data only (none: one shared read-only empty map); memos are slots.
    """

    __slots__ = ("source", "field", "target_n", "target_k", "images", "meta",
                 "_key", "_analysis", "_verified", "_invariant", "_bases",
                 "_stack", "_dual", "_base_witness")

    def __init__(self, source: PolarSpace, target_k: int, images,
                 target_n: int | None = None, meta: dict | None = None):
        self.source = source
        self.field = source.field
        self.target_k = int(target_k)
        self.target_n = int(target_n if target_n is not None
                            else source.ambient_dim)
        self.images = tuple(images)
        self.meta = dict(meta) if meta else _NO_META
        self._verified = False
        self._key = self._analysis = self._invariant = self._dual = None
        self._bases = self._stack = None
        self._base_witness = None

    @property
    def key(self) -> tuple:
        """The images' bytes, one entry per maximal; built on first use."""
        if self._key is None:
            self._key = tuple(s._bytes for s in self.images)
        return self._key

    def _stacked_bases(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Built once, read-only: the (t, d, n) uint8 stack of the images'
        RREF bases (zero rows after each) and the image dimensions."""
        if self._bases is None:
            B = stack_bases(self.field, self.images, self.target_n)
            B.setflags(write=False)
            self._bases = (B, tuple(s.dim for s in self.images))
        return self._bases

    def stacked(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Built once, read-only: the (t, d, n) uint8 stack of the images'
        RREF bases (zero rows after each), the (t, n, n) uint8 residual
        maps (x R[i] is what elimination by the basis of image i leaves of
        x, zero exactly for x in the image) and the image dimensions.
        R[i] = I - E B[i], E placing row j at the j-th pivot column, is the
        transpose of the kernel rows of B[i] (:func:`_kernel_rows`).

        The bases and dimensions are memoized on their own, and they are
        all that verification and the structural analysis read; the
        residual maps are built here, on the first call, which is the
        first :meth:`EquivalenceWitness.verify_on` with this embedding as
        its target."""
        if self._stack is None:
            B, dims = self._stacked_bases()
            R = _kernel_rows(self.field, B)[0].transpose(0, 2, 1)
            R.setflags(write=False)
            self._stack = (B, R, dims)
        return self._stack

    def table(self) -> list[tuple[int, Subspace, Subspace]]:
        return [
            (i, M, img)
            for i, (M, img) in enumerate(zip(self.source.maximals, self.images))
        ]

    def as_json_obj(self) -> list[dict]:
        return [
            {
                "source_index": i,
                "source_basis": M.to_rows(),
                "image_basis": img.to_rows(),
            }
            for i, M, img in self.table()
        ]

    def __repr__(self) -> str:
        return (f"Embedding({len(self.images)} maximals -> "
                f"G_{self.target_k}(GF({self.field.q})^{self.target_n}))")


def embedding_from_json_obj(ps: PolarSpace, target_k: int, obj,
                            target_n: int | None = None) -> Embedding:
    """Rebuild an embedding from its JSON table, validating the source side.
    Each ``source_index`` must be a JSON integer; a float, string or bool
    is a ValueError, never truncated or parsed."""
    fieldq = ps.field
    n = target_n if target_n is not None else ps.ambient_dim
    images: list[Subspace | None] = [None] * len(ps.maximals)
    for entry in obj:
        i = config_int("source_index", entry["source_index"])
        M = Subspace.span(fieldq, field_entries(fieldq, entry["source_basis"]))
        if not (0 <= i < len(ps.maximals)) or ps.maximals[i] != M:
            raise DimensionMismatch(
                f"entry {i} does not match the polar space's maximal list")
        if images[i] is not None:
            raise DimensionMismatch(f"entry {i} appears more than once")
        images[i] = Subspace.span(fieldq, field_entries(fieldq, entry["image_basis"]), n)
    if any(img is None for img in images):
        raise DimensionMismatch("embedding table is not total")
    return Embedding(ps, target_k, images, target_n=n)


# -- verification ------------------------------------------------------------------

def verify_isometric(e: Embedding) -> dict:
    """Check that the embedding preserves every pairwise distance.

    Distances on the source side are m - dim(M1 ∩ M2) (certified once
    per polar space against BFS on the dual polar graph); on the target
    side k - dim(f(M1) ∩ f(M2)), cross-checked against BFS in the
    Grassmann graph whenever the target has at most ``BFS_CROSSCHECK_CAP``
    vertices.

    Raises NotInjective or DistanceViolation on the first failure;
    returns a small report dict on success.
    """
    ps = e.source
    k, n = e.target_k, e.target_n
    if len(e.images) != len(ps.maximals):
        raise DimensionMismatch("embedding table is not total")
    for img in e.images:
        if img.ambient_dim != n:
            raise AmbientMismatch(f"image in dimension {img.ambient_dim}, not {n}")
        if img.dim != k:
            raise DimensionMismatch(f"image of dimension {img.dim}, not {k}")
    if len(set(e.key)) != len(e.images):
        raise NotInjective("two maximals share an image")

    DS = ps.certified_distances
    do_cross = gaussian_binomial(n, k, e.field.q) <= BFS_CROSSCHECK_CAP
    if do_cross:
        G = grassmann_graph_cached(e.field, n, k)
        DT = G.distance_matrix
        idx = np.array([G.index_of(img) for img in e.images], dtype=np.intp)

    # k - dim(f(M_i) ∩ f(M_j)) = rank [f(M_i); f(M_j)] - k, all pairs at once,
    # each f(M_j) reduced modulo f(M_i) through f(M_i)'s kernel rows
    bases = e._stacked_bases()[0]
    I, J = ps.maximal_pairs
    got = _pair_ranks(e.field, bases, bases, I, J) - k
    bad = got != DS[I, J]
    if do_cross:
        bad |= DT[idx[I], idx[J]] != got
    if bad.any():
        p = int(np.argmax(bad))
        i, j, expected, d = int(I[p]), int(J[p]), int(DS[I[p], J[p]]), int(got[p])
        if d != expected:
            raise DistanceViolation(
                f"pair ({i}, {j}): source distance {expected}, image "
                f"distance {d}", (i, j, expected, d))
        raise QGeomError(
            f"Grassmann BFS distance disagrees with k - dim "
            f"intersection at image pair ({i}, {j})")
    e._verified = True
    return {"pairs_checked": len(I), "bfs_crosschecked": do_cross}


# -- canonical construction ----------------------------------------------------------

def find_star_subspaces(ps: PolarSpace, k: int, limit: int | None = 1
                        ) -> list[Subspace]:
    """(k-m)-dim subspaces U with U ∩ (M1 + M2) = 0 for every pair of maximals.

    Candidate vectors are tried in ascending lexicographic order with
    backtracking, so the first result is deterministic.  ``limit=None``
    enumerates the whole search space (the test-suite oracle).  The search
    runs on the distinct pair sums, each reduced once.
    """
    m = ps.rank
    n = ps.ambient_dim
    if k < m:
        raise RankTooSmall(f"k = {k} below the polar rank m = {m}")
    d = k - m
    if d == 0:
        return [Subspace.zero(ps.field, n)]
    fieldq = ps.field
    bases = ps.maximal_bases
    I, J = np.triu_indices(len(bases))
    # the distinct sums M_i + M_j over i <= j, keyed by their reduced rows
    # (RREF, then zero rows); grown below by the chosen rows
    sums: set[bytes] = set()
    step = max(1, _PAIR_BLOCK_BYTES // (32 * 2 * m * n))
    for lo in range(0, len(I), step):
        R = rref_stack(fieldq, np.concatenate(
            [bases[I[lo:lo + step]], bases[J[lo:lo + step]]], axis=1))[0]
        sums.update(map(bytes, R.reshape(len(R), -1)))
    pairs = np.frombuffer(b"".join(sorted(sums)), dtype=np.uint8).reshape(-1, 2 * m, n)
    reps = projective_point_reps(fieldq, n)
    found: list[Subspace] = []
    seen: set = set()

    def admissible(start, rows):
        """Candidates from start on that avoid every grown pair sum: v lies
        in a sum exactly when every row of the sum's annihilator kills v."""
        grown = np.concatenate(
            [pairs, np.broadcast_to(np.array(rows, dtype=np.uint8).reshape(-1, n),
                                    (len(pairs), len(rows), n))], axis=1)
        K, dims = nullspace_stack(fieldq, grown)
        cand = reps[start:]
        if not dims.all() or not len(cand):
            return np.zeros(0, dtype=np.intp)
        ok = np.ones(len(cand), dtype=bool)
        step = max(1, _PAIR_BLOCK_BYTES // (n * len(cand)))
        for lo in range(0, len(K), step):
            dm = dims[lo:lo + step]
            rows_ann = K[lo:lo + step][np.arange(n) < dm[:, None]]
            kills = mat_mul(fieldq, rows_ann, cand.T) == 0
            inside = np.logical_and.reduceat(kills, np.cumsum(dm) - dm, axis=0)
            ok &= ~inside.any(axis=0)
        return start + np.flatnonzero(ok)

    def grow(start, rows):
        for t in admissible(start, rows).tolist():
            if len(rows) + 1 < d:
                if grow(t + 1, rows + [reps[t]]):
                    return True
                continue
            # one subspace can arise from several generating sequences
            U = Subspace.span(fieldq, np.array(rows + [reps[t]], dtype=np.uint8), n)
            if U not in seen:
                seen.add(U)
                found.append(U)
                if limit is not None and len(found) >= limit:
                    return True
        return False

    grow(0, [])
    return found


def canonical_embedding(ps: PolarSpace, k: int) -> Embedding:
    """The embedding M -> M + U for the first valid star subspace U.

    Raises RankTooSmall when k < m, and NoValidU when the exhaustive
    U-search comes up empty (reported, never silently approximated).
    The returned embedding has passed verify_isometric.
    """
    if k in ps.canonical_embeddings:
        return ps.canonical_embeddings[k]
    us = find_star_subspaces(ps, k, limit=1)
    if not us:
        raise NoValidU(
            f"no {k - ps.rank}-dim subspace avoids all pairwise sums of maximals")
    U = us[0]
    bases = ps.maximal_bases
    images = span_stack(ps.field, np.concatenate(
        [bases, np.broadcast_to(U.basis, (len(bases),) + U.basis.shape)], axis=1))
    e = Embedding(ps, k, images, meta={"construction": "M+U", "u_basis": U.to_rows()})
    verify_isometric(e)
    ps.canonical_embeddings[k] = e
    return e


# -- structural dissection (star subspace, quotient, point map, lines) ---------------

def extract_star_subspace(e: Embedding) -> Subspace:
    """U := the intersection of all images.

    For an isometric embedding this must have dimension at least k - m;
    smaller is a LemmaViolation (highest severity), strictly larger is
    surfaced as an Anomaly for inspection.
    """
    if not e._verified:
        verify_isometric(e)
    U = multi_intersection(list(e.images))
    expected = e.target_k - e.source.rank
    if U.dim < expected:
        raise LemmaViolation(
            f"common subspace of the images has dimension {U.dim} < "
            f"k - m = {expected}")
    if U.dim > expected:
        raise Anomaly(
            f"common subspace dimension {U.dim} exceeds k - m = {expected}",
            {"dim": U.dim, "expected": expected})
    return U


def reduce_to_quotient(e: Embedding, U: Subspace) -> Embedding:
    """The reduced embedding g(M) = f(M)/U into the m-Grassmannian of W = V/U.

    One :func:`rref_stack` of the projected image bases gives both g's
    images, each a view of the reduced stack, and g's stacked bases."""
    ps = e.source
    d = e.target_k - ps.rank
    if U.dim != d:
        raise DimensionMismatch(f"U has dimension {U.dim}, expected k - m = {d}")
    qs = QuotientSpace(e.target_n, U)
    B, dims = e._stacked_bases()
    R, ranks = rref_stack(e.field, _mat_mul(e.field, B, qs.coordinate_map.T))
    # (S + U)/U has dimension dim S - dim U exactly when S contains U
    bad = np.flatnonzero(ranks != np.array(dims, dtype=np.int64) - d)
    if bad.size:
        raise StarViolation(f"image {int(bad[0])} does not contain U")
    ranks = ranks.tolist()
    R = R[:, :max(ranks, default=0)]
    R.setflags(write=False)
    g = Embedding(ps, ps.rank, _stack_spaces(e.field, R, ranks), target_n=qs.dim,
                  meta={"quotient": qs})
    g._bases = (R, tuple(ranks))
    verify_isometric(g)
    return g


def induce_point_map(g: Embedding) -> tuple[Subspace, ...]:
    """q(P) := the common 1-dim subspace of the images over the star of P.

    For every polar point P, intersects g(M) over the maximals M
    containing P.  A zero intersection contradicts the structure theory
    (EmptyIntersection, highest severity); an intersection of dimension
    above one is surfaced as an Anomaly; a collision between two points
    raises NotInjective.

    One elimination in all: the annihilator of each g(M) is spanned by
    the kernel rows of its RREF basis (:func:`_kernel_rows`, one per free
    column, none built as a subspace), and one :func:`nullspace_stack`
    intersects the images over every star at once.
    """
    ps = g.source
    fieldq, n = g.field, g.target_n
    V, pivots = _kernel_rows(fieldq, g._stacked_bases()[0])
    # the free rows of each image first, padded with its zero pivot rows to
    # the largest annihilator dimension
    free = n - int(pivots.sum(axis=1).min(initial=n))
    order = np.argsort(pivots, axis=1, kind="stable")[:, :free]
    anns = np.take_along_axis(V, order[:, :, None], axis=1)
    # the star table pads with index t: one zero block past the stack
    anns = np.concatenate([anns, np.zeros((1,) + anns.shape[1:], dtype=np.uint8)])
    idx = ps.point_stars
    K, dims = nullspace_stack(fieldq, anns[idx].reshape(len(idx), -1, n))
    bad = np.flatnonzero(dims != 1)
    if bad.size:
        i, dim = int(bad[0]), int(dims[bad[0]])
        if dim == 0:
            raise EmptyIntersection(
                f"images over the star of point {i} intersect only in zero")
        raise Anomaly(
            f"images over the star of point {i} intersect in dimension "
            f"{dim}", {"point": i, "dim": dim})
    K = np.ascontiguousarray(K[:, :1])
    K.setflags(write=False)
    out = tuple(_stack_spaces(fieldq, K, [1] * len(K)))
    if len({s._bytes for s in out}) != len(out):
        raise NotInjective("the induced point map collides")
    return out


def check_line_images(ps: PolarSpace, g: Embedding, q_map) -> dict:
    """Verify collinearity containments and that lines map onto full lines.

    For every collinear pair (P, Q) and every maximal M over their span:
    g(M) must contain q(P) + q(Q), else ContainmentViolation.  For every
    line: its q+1 point images must be exactly the q+1 one-dim
    subspaces of a single 2-dim subspace of W; anything else is a
    PartialLine, which is impossible over a finite field.

    Both checks are ranks of one :func:`rank_stack`: the stacks
    [g(M); q(P); q(Q)] and the point rows of each line, zero-padded to
    one row count.  Containments are judged first, then lines, each at
    its first failure.
    """
    fieldq, n = ps.field, g.target_n
    q_bases = stack_bases(fieldq, q_map, n)
    lines, pairs = ps.line_points, ps.collinear_pairs
    C, T = ps.collinear_triples.T
    B, dims = g._stacked_bases()
    d, pq, lq = B.shape[1], 2 * q_bases.shape[1], lines.shape[1] * q_bases.shape[1]
    S = np.zeros((len(T) + len(lines), max(d + pq, lq), n), dtype=np.uint8)
    S[:len(T), :d] = B[T]
    S[:len(T), d:d + pq] = q_bases[pairs[C]].reshape(len(T), pq, n)
    S[len(T):, :lq] = q_bases[lines].reshape(len(lines), lq, n)
    ranks = rank_stack(fieldq, S)
    # g(M) contains q(P) + q(Q) iff rank [g(M); q(P); q(Q)] = dim g(M)
    bad = np.flatnonzero(ranks[:len(T)] != np.array(dims)[T])
    if bad.size:
        (a, b), t = pairs[C[bad[0]]].tolist(), int(T[bad[0]])
        raise ContainmentViolation(
            f"image of maximal {t} misses q(P) + q(Q) for points ({a}, {b})",
            (a, b, t))
    spans = ranks[len(T):]
    for l, pts in enumerate(lines.tolist()):
        image_points = {q_map[i]._bytes for i in pts}
        if spans[l] != 2 or len(image_points) != fieldq.q + 1:
            raise PartialLine(
                f"line {l} maps to {len(image_points)} points spanning "
                f"dimension {spans[l]}; a full line has {fieldq.q + 1} "
                "points in dimension 2")
        # q + 1 distinct subspaces spanning a plane are its q + 1 points
        # exactly when each of them is one-dimensional
        if any(q_map[i].dim != 1 for i in pts):
            raise PartialLine(f"line {l} image is a proper subset of a line")
    return {
        "lines_checked": len(ps.lines),
        "full_lines": len(lines),
        "containments_checked": len(T),
        "lines_ok": True,
    }


def polar_span(ps: PolarSpace) -> Subspace:
    """Span of all polar points, :attr:`PolarSpace.point_span`."""
    return ps.point_span


@dataclass
class StructureReport:
    """Everything the structural pipeline recovers from one embedding."""

    embedding: Embedding
    star_subspace: Subspace
    quotient: QuotientSpace
    reduced: Embedding
    point_map: tuple[Subspace, ...]
    lines_ok: bool
    w_prime: Subspace
    v_prime: Subspace
    line_stats: dict = dc_field(default_factory=dict)

    def as_json_obj(self) -> dict:
        return {
            "U": self.star_subspace.to_rows(),
            "W": {
                "dim": self.quotient.dim,
                "coordinate_map": [
                    [int(x) for x in row] for row in self.quotient.coordinate_map
                ],
            },
            "g_table": self.reduced.as_json_obj(),
            "q_map": [s.to_rows()[0] for s in self.point_map],
            "lines_ok": self.lines_ok,
            "W_prime": self.w_prime.to_rows(),
            "V_prime": self.v_prime.to_rows(),
        }


def analyze_embedding(e: Embedding) -> StructureReport:
    """Run the full structural pipeline; cached on the embedding."""
    if e._analysis is not None:
        return e._analysis
    ps = e.source
    U = extract_star_subspace(e)
    g = reduce_to_quotient(e, U)
    q_map = induce_point_map(g)
    line_stats = check_line_images(ps, g, q_map)
    w_prime = Subspace.span(
        e.field, np.concatenate([s.basis for s in q_map]), g.target_n)
    report = StructureReport(
        embedding=e,
        star_subspace=U,
        quotient=g.meta["quotient"],
        reduced=g,
        point_map=q_map,
        lines_ok=line_stats["lines_ok"],
        w_prime=w_prime,
        v_prime=polar_span(ps),
        line_stats=line_stats,
    )
    e._analysis = report
    return report


# -- exhaustive search ---------------------------------------------------------------

@dataclass(eq=False)
class SearchResult:
    """What :func:`search_embeddings` computed.

    ``members`` is one read-only (N, t) intp array: row i holds, for each
    maximal of ``source`` in order, the index of its image among
    ``target.vertices``, and the rows are in lexicographic order.
    ``anchor_index`` is the pinned image of the first maximal (None for
    a full census) and ``nodes`` the search's node count.  ``embeddings``
    is built from the rows on first read and kept, so every read returns
    the same objects.
    """

    source: PolarSpace
    target: GrassmannGraph
    members: np.ndarray
    anchor_index: int | None
    nodes: int

    @property
    def anchored(self) -> bool:
        return self.anchor_index is not None

    @cached_property
    def embeddings(self) -> list[Embedding]:
        verts, k, M = self.target.vertices, self.target.k, self.members
        # rows become Python lists one block at a time, never all at once
        step = max(1, _CENSUS_BLOCK_BYTES // (8 * M.shape[1]))
        return [Embedding(self.source, k, map(verts.__getitem__, row))
                for a in range(0, len(M), step) for row in M[a:a + step].tolist()]

    def __len__(self) -> int:
        return len(self.members)


def _distance_words(DT: np.ndarray, dmax: int) -> np.ndarray:
    """The (V, dmax + 1, W) uint64 word table of the distance matrix: bit
    w % 64 of word w // 64 in row [v, d] is set when DT[v, w] == d, with
    W = ceil(V / 64) and the padding bits clear."""
    return _pack_rows(DT[:, None, :] == np.arange(dmax + 1, dtype=DT.dtype)[:, None])


def _level_census(table: np.ndarray, DS: np.ndarray, prefix) -> tuple[np.ndarray, int]:
    """Backtracking census, expanded one level at a time over word domains.

    Each open maximal's domain of still-possible targets is W uint64
    words.  A block of live partial assignments expands its first open
    domain into (row, vertex) pairs in row-major order, so children stay
    in lexicographic order; one gathered AND with the words of each new
    vertex narrows the remaining domains, and children with an empty
    domain are dropped.  Children are made in chunks under
    ``_CENSUS_BLOCK_BYTES`` and each chunk is finished depth-first before
    the next, so memory is O(depth x block) besides the members.  Returns
    the members, one read-only (N, T) intp array whose rows (full
    assignments) are in lexicographic order, and the node count: the
    popcount of the first open domain of every visited assignment, summed
    over all levels.  Raises TooLarge as soon as the members pass
    ``_CENSUS_MEMBER_BYTES``.
    """
    T = len(DS)
    t0 = len(prefix)
    start = np.array([prefix], dtype=np.intp).reshape(1, t0)
    if t0 == T:
        start.setflags(write=False)
        return start, 0
    V, W = len(table), table.shape[2]
    dom = _pack_rows(np.ones((T - t0, V), dtype=bool))
    for s, v in enumerate(prefix):
        dom &= table[v, DS[s, t0:]]
    # members fill rows [0, held) of one buffer that doubles when full; a
    # list of leaf blocks, interleaved with the search's own blocks, left
    # the heap fragmented (about 1 MB more peak RSS per gf2 benchmark run)
    buf = np.empty((0, T), dtype=np.intp)
    limit = _CENSUS_MEMBER_BYTES // (T * buf.itemsize)
    nodes = held = 0

    def store(rows):
        nonlocal buf, held
        end = held + len(rows)
        if end > limit:
            raise TooLarge(f"census members pass {_CENSUS_MEMBER_BYTES} bytes")
        if end > len(buf):
            grown = np.empty((min(max(end, 2 * len(buf)), limit), T), dtype=np.intp)
            grown[:held] = buf[:held]
            buf = grown
        buf[held:end] = rows
        held = end

    def children(t, assign, doms, r, c):
        """The live children (paths, domains) of the pairs (row r, vertex c)."""
        # the words of the distinct vertices at the required distances,
        # gathered once and spread to the children
        seen = np.zeros(V, dtype=bool)
        seen[c] = True
        need = np.take(np.take(table, np.flatnonzero(seen), axis=0), DS[t, t + 1:], axis=1)
        kids = np.take(need, (np.cumsum(seen) - 1)[c], axis=0)
        kids &= np.take(doms, r, axis=0)[:, 1:]
        nonempty = kids[:, :, 0].copy()
        for w in range(1, W):
            nonempty |= kids[:, :, w]
        live = nonempty.all(axis=1)
        return np.column_stack([assign[r], c])[live], kids[live]

    def expand(t, assign, doms):
        """Yield the child blocks of the block (assign, doms) at level t."""
        nonlocal nodes
        rest = T - t - 1
        # pairs per chunk: each child holds rest domains and t + 1 indices
        chunk = max(1, _CENSUS_BLOCK_BYTES // (8 * (rest * W + t + 1)))
        counts = np.bitwise_count(doms[:, 0]).sum(axis=1)
        # rows grouped by the chunk their first pair falls in; a row's
        # pairs are never split between groups
        group = (np.cumsum(counts) - counts) // chunk
        cuts = np.flatnonzero(np.diff(group)) + 1
        for lo, hi in zip(np.r_[0, cuts].tolist(), np.r_[cuts, len(doms)].tolist()):
            # (row, vertex) pairs of the first open domains, row-major
            rows, cols = np.divmod(np.flatnonzero(_unpack_rows(doms[lo:hi, 0], V)), V)
            nodes += len(rows)
            rows += lo
            for a in range(0, len(rows), chunk):
                r, c = rows[a:a + chunk], cols[a:a + chunk]
                if rest:
                    yield (t + 1, *children(t, assign, doms, r, c))
                else:
                    store(np.column_stack([assign[r], c]))

    stack = [expand(t0, start, dom[None])]
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
        else:
            stack.append(expand(*block))
    members = buf[:held].copy()
    members.setflags(write=False)
    return members, nodes


def search_embeddings(ps: PolarSpace, n: int, k: int, anchor: bool = True,
                      workers: int = 1) -> SearchResult:
    """Enumerate isometric embeddings by distance-pruned backtracking.

    Images are assigned to maximals in the canonical order; a partial
    assignment survives only while every pairwise distance matches.
    With ``anchor=True`` the image of the first maximal is pinned to the
    canonical embedding's first image, which is sound for counting
    equivalence classes because the Grassmann graph is vertex-transitive
    under invertible linear maps.  The search is :func:`_level_census`:
    domains of uint64 words from the target's distance matrix, expanded
    level by level in blocks under a fixed byte budget.  The result
    holds the members as one (N, t) array of target vertex indices, rows
    in lexicographic order, and builds ``Embedding`` objects only when
    ``embeddings`` is read; ``nodes`` counts every candidate tried on
    every level.  Raises TooLarge when the target has more than
    ``DISTANCE_CACHE_CAP`` vertices or the members pass
    ``_CENSUS_MEMBER_BYTES``.  The search runs in this process;
    ``workers`` changes nothing, neither the members nor the node count,
    and is kept only because the benchmark's census call passes it.
    """
    if n != ps.ambient_dim:
        raise AmbientMismatch(
            f"polar space lives in dimension {ps.ambient_dim}, not {n}")
    if k < ps.rank:
        raise RankTooSmall(f"k = {k} below the polar rank m = {ps.rank}")
    if gaussian_binomial(n, k, ps.field.q) > DISTANCE_CACHE_CAP:
        raise TooLarge("target Grassmann graph exceeds the distance cache cap")

    target = grassmann_graph_cached(ps.field, n, k)
    DT = target.distance_matrix
    DS = ps.certified_distances

    anchor_index = None
    if anchor:
        try:
            anchor_index = target.index_of(canonical_embedding(ps, k).images[0])
        except NoValidU:
            # no canonical anchor exists; fall back to the full census,
            # which will simply come back empty if no embedding exists
            pass

    prefix = [] if anchor_index is None else [anchor_index]
    members, nodes = _level_census(_distance_words(DT, int(DS.max())), DS, prefix)
    return SearchResult(ps, target, members, anchor_index, nodes)


# -- equivalence witnesses -------------------------------------------------------------

class EquivalenceWitness:
    """An explicit Grassmann-graph automorphism connecting two embeddings.

    Acts on a subspace X as sigma(ann^d(X)) where sigma is the
    semilinear map x -> matrix @ x^(p^frob_power) and d marks an
    optional annihilator-duality factor (only meaningful when n = 2k).
    Witnesses compose and invert exactly, so chains of verified
    witnesses stay trustworthy.

    The matrix is range-checked once, here (``ValueError`` for an entry
    outside the field), and kept read-only.  :meth:`apply_to_subspace`,
    :meth:`compose` and :meth:`verify_on` then multiply it with the
    library's own subspace bases, witness matrices and embedding tables
    without checking those operands again.
    """

    __slots__ = ("field", "matrix", "frob_power", "dual")

    def __init__(self, field: Field, matrix, frob_power: int = 0,
                 dual: bool = False):
        self.field = field
        M = as_matrix(field, matrix).copy()
        M.setflags(write=False)
        self.matrix = M
        self.frob_power = int(frob_power) % field.e
        self.dual = bool(dual)

    @classmethod
    def identity(cls, field: Field, n: int) -> "EquivalenceWitness":
        return cls(field, np.eye(n, dtype=np.uint8))

    def apply_to_subspace(self, S: Subspace) -> Subspace:
        B = S.annihilator().basis if self.dual else S.basis
        rows = _mat_mul(self.field, mat_frobenius(self.field, B, self.frob_power),
                        self.matrix.T)
        return Subspace.span(self.field, rows, S.ambient_dim)

    def compose(self, other: "EquivalenceWitness") -> "EquivalenceWitness":
        """self after other: (self.compose(other))(X) = self(other(X))."""
        f = self.field
        if self.dual:
            s1 = invert_matrix(f, other.matrix.T)
        else:
            s1 = other.matrix
        if self.frob_power:
            s1 = mat_frobenius(f, s1, self.frob_power)
        mat = _mat_mul(f, self.matrix, s1)
        return EquivalenceWitness(
            f, mat, self.frob_power + other.frob_power, self.dual ^ other.dual)

    def inverse(self) -> "EquivalenceWitness":
        f = self.field
        tp = (f.e - self.frob_power) % f.e
        mat = mat_frobenius(f, invert_matrix(f, self.matrix), tp)
        if self.dual:
            mat = invert_matrix(f, mat.T)
        return EquivalenceWitness(f, mat, tp, self.dual)

    def verify_on(self, f1: Embedding, f2: Embedding) -> bool:
        """Does this witness carry f1(M) exactly onto f2(M) for every maximal?

        The whole table at once: one product maps every source basis (for
        a duality witness, the annihilator's), one more with the target's
        residual maps (:meth:`Embedding.stacked`) must give zero.  An
        invertible (semi)linear map keeps dimensions, so containment plus
        equal dimensions settles equality without re-canonicalizing."""
        B, dims = (_dualized(f1) if self.dual else f1)._stacked_bases()
        _, R, target_dims = f2.stacked()
        if dims != target_dims:
            return False
        if self.frob_power:
            B = mat_frobenius(self.field, B, self.frob_power)
        rows = _mat_mul(self.field, B, self.matrix.T)
        return not np.count_nonzero(_mat_mul(self.field, rows, R))

    def as_json_obj(self) -> dict:
        return {
            "matrix": [[int(x) for x in row] for row in self.matrix],
            "frobenius_power": self.frob_power,
            "duality": self.dual,
        }

    def __repr__(self) -> str:
        return (f"EquivalenceWitness(frob={self.frob_power}, dual={self.dual}, "
                f"matrix={self.matrix.tolist()})")


def _dualized(e: Embedding) -> Embedding:
    # memoized: repeat witness fits against one embedding reuse its
    # dual's cached analysis
    if e._dual is None:
        e._dual = Embedding(e.source, e.target_n - e.target_k,
                            annihilators(e.images), target_n=e.target_n)
    return e._dual


def _fit_semilinear(fa: Embedding, fb: Embedding, budget_state: list[int],
                    budget: int) -> Iterator[EquivalenceWitness]:
    """Candidate semilinear witnesses fa -> fb, in order; structure-guided.

    The induced point maps pin the witness on the span W' of the point
    images: A x_P^(p^t) lies in <y_P> exactly when h . A x_P^(p^t) = 0 for
    each kernel row h of y_P (:func:`_kernel_rows`; y_P leads with 1, so it
    is its own RREF), r - 1 equations per point in the r^2 entries of A.
    Every nonzero solution of rank r is a candidate collineation, and one
    transversal correspondence completes it off W' and lifts it through
    the two quotients to V.  The candidates are not verified: the caller
    checks each on the embedding tables.
    """
    f = fa.field
    Ra = analyze_embedding(fa)
    Rb = analyze_embedding(fb)
    r = Ra.w_prime.dim
    if r != Rb.w_prime.dim:
        return
    Ba, piv_a = Ra.w_prime.basis, Ra.w_prime.pivots
    Bb, piv_b = Rb.w_prime.basis, Rb.w_prime.pivots
    # for RREF bases, coordinates are read off the pivot columns
    xs = np.stack([s.basis[0][piv_a] for s in Ra.point_map])
    ys = np.stack([s.basis[0][piv_b] for s in Rb.point_map])
    V, pivots = _kernel_rows(f, ys[:, None, :])
    # the kernel rows h of every y_P, and the point P of each
    P, free = np.nonzero(~pivots)
    h = V[P, free]

    # sigma maps the rows of D^(p^t) to the rows of T: W' by A, the unit rows
    # off its pivot columns (a transversal of W' in W) to their counterparts,
    # both lifted to V, and the star subspace U to U
    unit = np.eye(Ra.quotient.dim, dtype=np.uint8)
    D = np.vstack([_mat_mul(f, np.vstack([Ba, np.delete(unit, piv_a, axis=0)]),
                            Ra.quotient.lift_matrix()), Ra.star_subspace.basis])
    lift_b = Rb.quotient.lift_matrix()
    lift_Bb = _mat_mul(f, Bb, lift_b)
    T_rest = np.vstack([_mat_mul(f, np.delete(unit, piv_b, axis=0), lift_b),
                        Rb.star_subspace.basis])

    for tau in range(f.e):
        # row (P, h), column i*r + j: h_i x_P[j]^(p^tau), the coefficient of A[i, j]
        x = f.frob_table[tau][xs][P]
        system = f.mul_table[h[:, :, None], x[:, None, :]].reshape(len(P), r * r)
        kernel = nullspace(f, system)
        if kernel.shape[0] == 0:
            continue
        K = Subspace._adopt(f, kernel.shape[1], kernel)
        inv = invert_matrix(f, mat_frobenius(f, D, tau).T)
        for u in K.all_vectors():
            if not u.any():
                continue
            budget_state[0] += 1
            if budget_state[0] > budget:
                raise SearchBudgetExceeded(
                    f"witness search passed {budget} candidates")
            A = u.reshape(r, r)
            if rank(f, A) < r:
                continue
            T = np.vstack([_mat_mul(f, A.T, lift_Bb), T_rest])
            yield EquivalenceWitness(f, _mat_mul(f, T.T, inv), tau, dual=False)


_STRUCTURE_FAILURES = (LemmaViolation, EmptyIntersection, PartialLine,
                       ContainmentViolation, Anomaly, NotInjective)


def _class_invariant(e: Embedding) -> tuple:
    """Cheap automorphism invariant: (common intersection dim, span dim).

    Semilinear maps preserve both quantities; the duality (available as a
    graph automorphism only when n = 2k) swaps dim-of-intersection with
    codim-of-span, so in that case the sorted pair is used.  Cached on
    the embedding.
    """
    if e._invariant is None:
        d_star = multi_intersection(list(e.images)).dim
        d_span = span_dim(e.images)
        if e.target_n == 2 * e.target_k:
            e._invariant = tuple(sorted((d_star, e.target_n - d_span)))
        else:
            e._invariant = (d_star, d_span)
    return e._invariant


def _construct_witness(fa: Embedding, fb: Embedding,
                       budget: int) -> EquivalenceWitness:
    """Structure-guided witness search, in three strategies.

    1. Fit on the embeddings themselves (works when the image family has
       the expected star structure).
    2. Fit on the annihilator duals and conjugate back; the dual family
       can carry the structure when the original does not.
    3. When n = 2k, fit the dual of one side against the other, giving a
       duality-composed witness.
    """
    f = fa.field
    budget_state = [0]
    # (the two sides of the fit, the fit turned into a witness fa -> fb);
    # ann ∘ sigma_M = sigma_{(M^T)^-1} ∘ ann, so undoing the two
    # annihilators turns a dual-side fit into a direct witness
    strategies = [
        (lambda: (fa, fb), lambda w: w),
        (lambda: (_dualized(fa), _dualized(fb)), lambda w: EquivalenceWitness(
            f, invert_matrix(f, w.matrix.T), w.frob_power)),
    ]
    if fa.target_n == 2 * fa.target_k:
        strategies.append((lambda: (_dualized(fa), fb), lambda w: EquivalenceWitness(
            f, w.matrix, w.frob_power, dual=True)))
    for sides, convert in strategies:
        try:
            for fit in _fit_semilinear(*sides(), budget_state, budget):
                witness = convert(fit)
                if witness.verify_on(fa, fb):
                    return witness
        except _STRUCTURE_FAILURES:
            continue
    raise NotEquivalent(
        "no semilinear (or duality-composed) automorphism maps one table "
        "to the other")


def _base_witness_pair(base: Embedding, e: Embedding, budget: int):
    """(witness base->e, its inverse), memoized on e as (base key, w, w^-1)."""
    if e._base_witness is None or e._base_witness[0] != base.key:
        if e.key == base.key:
            w = EquivalenceWitness.identity(e.field, e.target_n)
        else:
            w = _construct_witness(base, e, budget)
        e._base_witness = (base.key, w, w.inverse())
    return e._base_witness[1:]


def connecting_automorphism(f1: Embedding, f2: Embedding,
                            budget: int = DEFAULT_WITNESS_BUDGET) -> EquivalenceWitness:
    """An explicit automorphism s with s(f1(M)) = f2(M) for every maximal.

    Queries against one source go through memoized witnesses to a common
    reference embedding and are composed exactly.  Every witness
    returned, fresh or composite, has been verified on the whole table
    by :meth:`EquivalenceWitness.verify_on`.

    Raises NotEquivalent when the structure-guided search exhausts all
    candidates, and SearchBudgetExceeded when it runs out of budget
    before a verdict.
    """
    if f1.source is not f2.source:
        raise AmbientMismatch("embeddings come from different polar spaces")
    if (f1.target_n, f1.target_k) != (f2.target_n, f2.target_k):
        raise DimensionMismatch("embeddings target different Grassmannians")
    ps = f1.source
    if f1.key == f2.key:
        return EquivalenceWitness.identity(ps.field, f1.target_n)
    if _class_invariant(f1) != _class_invariant(f2):
        raise NotEquivalent(
            f"automorphism invariants differ: {_class_invariant(f1)} vs "
            f"{_class_invariant(f2)}")
    base = f1
    if f1.target_n == ps.ambient_dim:
        try:
            cand = canonical_embedding(ps, f1.target_k)
            if _class_invariant(cand) == _class_invariant(f1):
                base = cand
        except NoValidU:
            pass
    w1, w1_inv = _base_witness_pair(base, f1, budget)
    w2, _ = _base_witness_pair(base, f2, budget)
    s = w2.compose(w1_inv)
    if not s.verify_on(f1, f2):
        raise QGeomError("composite witness failed verification on the table")
    return s


def witness_kind(w: EquivalenceWitness) -> str:
    if w.dual:
        return "duality"
    if w.frob_power:
        return "semilinear"
    n = w.matrix.shape[0]
    if np.array_equal(w.matrix, np.eye(n, dtype=np.uint8)):
        return "identity"
    return "linear"


def classify_embeddings(embeddings: list[Embedding],
                        budget: int = DEFAULT_WITNESS_BUDGET) -> dict:
    """Partition embeddings into explicit-witness equivalence classes.

    Every member is connected to its class representative by a real
    witness; representatives of distinct classes have either different
    automorphism invariants or a genuinely exhausted witness search
    between them.  Deterministic: classes are discovered in input order.
    """
    classes: list[dict] = []
    for idx, e in enumerate(embeddings):
        inv = _class_invariant(e)
        placed = False
        for cl in classes:
            if cl["invariant"] != inv:
                continue
            rep = embeddings[cl["rep"]]
            try:
                w = connecting_automorphism(rep, e, budget=budget)
            except NotEquivalent:
                continue
            cl["size"] += 1
            kind = witness_kind(w)
            cl["witness_kinds"][kind] = cl["witness_kinds"].get(kind, 0) + 1
            placed = True
            break
        if not placed:
            classes.append({
                "rep": idx,
                "size": 1,
                "invariant": inv,
                "witness_kinds": {},
            })
    return {
        "equivalence_classes": len(classes),
        "classes": [
            {
                "representative_index": cl["rep"],
                "size": cl["size"],
                "invariant": list(cl["invariant"]),
                "witness_kinds": dict(sorted(cl["witness_kinds"].items())),
            }
            for cl in classes
        ],
    }
