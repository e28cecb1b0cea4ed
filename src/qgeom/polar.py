"""Reflexive forms, singular subspaces, polar spaces, dual polar graphs.

A form lives on a coordinate prefix of the ambient space: ``form_dim``
names how many leading coordinates it touches, and every vector fed to
it must vanish beyond that prefix.  Three kinds are supported:

* ``alternating``  B(x, y) = x G y^T with zero-diagonal (anti)symmetric G,
* ``hermitian``    B(x, y) = x G conj(y)^T with G equal to its conjugate
  transpose (needs an even-degree field),
* ``quadratic``    Q(x) = sum over i <= j of quad[i][j] x_i x_j, with the
  polar form B(x, y) = Q(x+y) - Q(x) - Q(y) always derived from Q, which
  sidesteps the characteristic-2 symmetric/alternating ambiguity.

A polar space collects the singular points, the totally singular lines,
the rank m, and all maximal totally singular subspaces, grown level by
level from the points: each level extends every subspace by every point
orthogonal to it in one stacked elimination, and the reduced bases,
deduplicated and sorted by their bytes, make the next level.  Degenerate
forms are rejected, never repaired.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    AmbientMismatch,
    Anomaly,
    DegenerateForm,
    Disconnected,
    KindMismatch,
    NonUniformMaximals,
    NotSingular,
    OutsideSupport,
    QGeomError,
    RankZero,
    TooLarge,
)
from .gf import Field, config_int
from .grassmann import FiniteGraph
from .subspace import (
    _PAIR_BLOCK_BYTES,
    Subspace,
    _pair_ranks,
    as_matrix,
    as_stack,
    field_entries,
    mat_mul,
    nullspace,
    pairwise_intersection_dims,
    projective_point_reps,
    rref_stack,
    stack_bases,
)

FORM_KINDS = ("alternating", "quadratic", "hermitian")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Form:
    """A reflexive or quadratic form on the first ``form_dim`` coordinates.

    Parameters
    ----------
    field : Field
    kind : str
        One of ``alternating``, ``quadratic``, ``hermitian``.
    form_dim : int
        Size of the coordinate prefix the form lives on.
    gram : matrix, for alternating and hermitian kinds
    quad : upper-triangular matrix of coefficients, for the quadratic kind
    """

    def __init__(self, field: Field, kind: str, form_dim: int,
                 gram=None, quad=None):
        if kind not in FORM_KINDS:
            raise KindMismatch(f"unknown form kind {kind!r}")
        self.field = field
        self.kind = kind
        self.form_dim = int(form_dim)
        self.gram = None
        self.quad = None
        negT = field.neg_table

        if kind == "quadratic":
            if quad is None:
                raise KindMismatch("quadratic form needs quad coefficients")
            Qm = as_matrix(field, field_entries(field, quad))
            if Qm.shape != (form_dim, form_dim):
                raise AmbientMismatch(f"quad shape {Qm.shape} vs form_dim {form_dim}")
            if any(Qm[i, j] for i in range(form_dim) for j in range(i)):
                raise KindMismatch("quad coefficients must be upper-triangular")
            Qm = Qm.copy()
            Qm.setflags(write=False)
            self.quad = Qm
            # polar form gram: B(e_i, e_j) entries, derived from Q
            P = field.add_table[Qm, Qm.T]
            P.setflags(write=False)
            self._bilinear = P
        else:
            if gram is None:
                raise KindMismatch(f"{kind} form needs a gram matrix")
            G = as_matrix(field, field_entries(field, gram))
            if G.shape != (form_dim, form_dim):
                raise AmbientMismatch(f"gram shape {G.shape} vs form_dim {form_dim}")
            if kind == "alternating":
                if any(G[i, i] for i in range(form_dim)):
                    raise KindMismatch("alternating gram needs a zero diagonal")
                if not np.array_equal(G.T, negT[G]):
                    raise KindMismatch("alternating gram must be antisymmetric")
            else:
                conjG = field.frob_table[field.e // 2][G] if field.e % 2 == 0 else None
                if conjG is None:
                    raise KindMismatch(
                        "hermitian forms need an even-degree field extension")
                if not np.array_equal(G, conjG.T):
                    raise KindMismatch("gram must equal its conjugate transpose")
            G = G.copy()
            G.setflags(write=False)
            self.gram = G
            self._bilinear = G

    # -- evaluation ---------------------------------------------------------

    def _prefix(self, x) -> np.ndarray:
        v = as_stack(self.field, x).reshape(-1)
        if v.shape[0] < self.form_dim:
            raise AmbientMismatch(
                f"vector of length {v.shape[0]} below form_dim {self.form_dim}")
        if v[self.form_dim:].any():
            raise OutsideSupport(
                f"nonzero coordinate beyond the first {self.form_dim}")
        return v[: self.form_dim]

    def evaluate(self, x, y) -> int:
        """Bilinear (or sesquilinear, or polar) value B(x, y)."""
        a = self._prefix(x)
        b = self._prefix(y)
        if self.kind == "hermitian":
            b = self.field.frob_table[self.field.e // 2][b]
        out = mat_mul(self.field, a[None, :],
                      mat_mul(self.field, self._bilinear, b[:, None]))
        return int(out[0, 0])

    def evaluate_quadratic(self, x) -> int:
        """Q(x); quadratic kind only."""
        if self.kind != "quadratic":
            raise KindMismatch(f"{self.kind} form has no quadratic value")
        a = self._prefix(x)
        out = mat_mul(self.field, a[None, :],
                      mat_mul(self.field, self.quad, a[:, None]))
        return int(out[0, 0])

    def singular_vector(self, x) -> bool:
        """Is the vector singular (isotropic) for this form?"""
        if self.kind == "alternating":
            self._prefix(x)
            return True
        if self.kind == "quadratic":
            return self.evaluate_quadratic(x) == 0
        return self.evaluate(x, x) == 0

    # -- orthogonality machinery -------------------------------------------

    def orthogonal_profile(self, vectors: np.ndarray) -> np.ndarray:
        """Row i = the functional B(., vectors[i]) on the prefix coordinates.

        A vector x is orthogonal to vectors[i] iff the prefix of x dots
        to zero against row i.  Vectorized helper for the construction
        loops below.
        """
        V = as_matrix(self.field, vectors)[:, : self.form_dim]
        if self.kind == "hermitian":
            V = self.field.frob_table[self.field.e // 2][V]
        return mat_mul(self.field, V, self._bilinear.T)

    def as_json_obj(self) -> dict:
        obj = {"kind": self.kind, "form_dim": self.form_dim}
        if self.gram is not None:
            obj["gram"] = [[int(x) for x in row] for row in self.gram]
        if self.quad is not None:
            obj["quad"] = [[int(x) for x in row] for row in self.quad]
        return obj


def build_form(field: Field, spec: dict) -> Form:
    """Form from a config mapping, e.g. {"kind": "alternating", "form_dim": 4, "gram": [[...]]}."""
    return Form(
        field,
        str(spec["kind"]),
        config_int("form_dim", spec["form_dim"]),
        gram=spec.get("gram"),
        quad=spec.get("quad"),
    )


def radical(form: Form, ambient_dim: int | None = None) -> Subspace:
    """Vectors orthogonal to the whole support (and singular, for quadratic).

    Returned in the given ambient dimension (default: the form's own
    support).  A zero radical is what qualifies a form for polar-space
    construction.
    """
    field = form.field
    np_dim = form.form_dim
    n = ambient_dim if ambient_dim is not None else np_dim
    ker = nullspace(field, form._bilinear.T)
    if form.kind == "quadratic" and ker.shape[0]:
        # the singular part of the bilinear radical is still a subspace
        # in every characteristic; find it by exhaustive scan
        d = ker.shape[0]
        if field.q**d > 4096:
            raise TooLarge(f"radical scan over {field.q ** d} vectors")
        K = Subspace(field, np_dim, ker)
        vecs = K.all_vectors()
        good = [v for v in vecs if form.evaluate_quadratic(v) == 0]
        span = Subspace.span(field, np.array(good, dtype=np.uint8), np_dim)
        assert len(good) == field.q**span.dim, "quadratic radical is not a subspace"
        ker = span.basis
    if n > np_dim:
        padded = np.zeros((ker.shape[0], n), dtype=np.uint8)
        padded[:, :np_dim] = ker
        ker = padded
    return Subspace(field, n, ker)


def is_totally_singular(form: Form, S: Subspace) -> bool:
    """Does the form vanish identically on S?

    Basis criterion: singular basis vectors plus pairwise orthogonality;
    this is sufficient for the whole span by the standard scaling and
    addition identities (cross-checked against full vector enumeration
    in the test suite).
    """
    if S.dim == 0:
        return True
    B = S.basis
    if B.shape[1] < form.form_dim or (
        B.shape[1] > form.form_dim and B[:, form.form_dim:].any()
    ):
        if B.shape[1] < form.form_dim:
            raise OutsideSupport(f"ambient {B.shape[1]} below form_dim")
        raise OutsideSupport("basis not supported on the form's prefix")
    for i in range(S.dim):
        if not form.singular_vector(B[i]):
            return False
    prof = form.orthogonal_profile(B)
    vals = mat_mul(form.field, B[:, : form.form_dim], prof.T)
    for i in range(S.dim):
        for j in range(i + 1, S.dim):
            if vals[i, j]:
                return False
        if form.kind != "quadratic" and vals[i, i]:
            return False
    return True


class PolarSpace:
    """Singular points, lines, rank, and maximal totally singular subspaces.

    All member subspaces live in the full ambient dimension (padded with
    zero coordinates beyond the form's support), so they drop straight
    into Grassmann-graph machinery over the same ambient space.  Every
    derived table is a cached attribute, built on first use; its arrays
    are read-only.  Star tables list maximal indices ascending, padded
    with t = len(maximals), which indexes one row past the maximal stack.
    """

    def __init__(self, field: Field, ambient_dim: int, form: Form,
                 points, lines, rank_m: int, maximals):
        self.field = field
        self.ambient_dim = ambient_dim
        self.form = form
        self.points = tuple(points)
        self.lines = tuple(lines)
        self.rank = rank_m
        self.maximals = tuple(maximals)
        vp = np.zeros((form.form_dim, ambient_dim), dtype=np.uint8)
        vp[np.arange(form.form_dim), np.arange(form.form_dim)] = 1
        self.v_prime = Subspace(field, ambient_dim, vp)
        self._point_index = {p: i for i, p in enumerate(self.points)}
        self._maximal_index = {m: i for i, m in enumerate(self.maximals)}
        self.canonical_embeddings: dict = {}  # k -> M + U, by qgeom.embed

    # -- incidence ------------------------------------------------------------

    def point_index(self, P: Subspace) -> int:
        return self._point_index[P]

    def maximal_index(self, M: Subspace) -> int:
        return self._maximal_index[M]

    @cached_property
    def maximal_bases(self) -> np.ndarray:
        """The (t, m, n) uint8 stack of the maximals' RREF bases."""
        return _read_only(stack_bases(self.field, self.maximals, self.ambient_dim))

    def _stars(self, spaces) -> np.ndarray:
        """The star table of the given subspaces: S lies in M iff rank [M; S] = m."""
        t = len(self.maximals)
        subs = stack_bases(self.field, spaces, self.ambient_dim)
        I, T = np.divmod(np.arange(len(subs) * t), t)
        ranks = _pair_ranks(self.field, self.maximal_bases, subs, T, I)
        inside = (ranks == self.rank).reshape(-1, t)
        table = np.sort(np.where(inside, np.arange(t), t), axis=1)
        return _read_only(table[:, :inside.sum(axis=1).max(initial=0)])

    point_stars = cached_property(lambda self: self._stars(self.points))
    line_stars = cached_property(lambda self: self._stars(self.lines))

    @cached_property
    def line_points(self) -> np.ndarray:
        """The (lines, q + 1) table of the points on each line, ascending."""
        field, n = self.field, self.ambient_dim
        L = stack_bases(field, self.lines, n).reshape(-1, 2, n)
        # vecs[l, t] = a[t] L[l, 0] + b[t] L[l, 1] over the points (a : b),
        # each scaled to lead with 1 and looked up by its bytes
        vecs = mat_mul(field, projective_point_reps(field, 2), L).reshape(-1, n)
        lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
        vecs = field.mul_table[field.inv_table[lead][:, None], vecs]
        index = {P._bytes: i for i, P in enumerate(self.points)}
        pts = np.array([index[v.tobytes()] for v in vecs], dtype=np.intp)
        return _read_only(np.sort(pts.reshape(len(L), field.q + 1), axis=1))

    @cached_property
    def collinear_pairs(self) -> np.ndarray:
        """The (c, 2) table of the points P < Q on a common line, by line."""
        a, b = np.triu_indices(self.field.q + 1, 1)
        pts = self.line_points
        return _read_only(np.stack([pts[:, a], pts[:, b]], axis=2).reshape(-1, 2))

    @cached_property
    def collinear_triples(self) -> np.ndarray:
        """The (N, 2) table of the triples (P, Q, M), M through the line of
        P and Q: row (c, t) stands for (*collinear_pairs[c], t)."""
        stars = np.repeat(self.line_stars, self.field.q * (self.field.q + 1) // 2, axis=0)
        c, s = np.nonzero(stars < len(self.maximals))
        return _read_only(np.column_stack([c, stars[c, s]]))

    def maximals_through_point(self, i: int) -> tuple[int, ...]:
        return tuple(x for x in self.point_stars[i].tolist() if x < len(self.maximals))

    def line_point_indices(self, l: int) -> tuple[int, ...]:
        return tuple(self.line_points[l].tolist())

    def maximals_through_line(self, l: int) -> tuple[int, ...]:
        return tuple(x for x in self.line_stars[l].tolist() if x < len(self.maximals))

    @cached_property
    def maximal_pairs(self) -> np.ndarray:
        """The (2, t(t-1)/2) intp array (I, J) of the index pairs i < j of
        the maximals, row-major, as ``np.triu_indices(t, 1)``."""
        return _read_only(np.array(np.triu_indices(len(self.maximals), 1)))

    @cached_property
    def distances(self) -> np.ndarray:
        """Pairwise m - dim(M_i ∩ M_j) = rank [M_i; M_j] - m, int16."""
        bases = self.maximal_bases
        I, J = self.maximal_pairs
        D = np.zeros((len(bases),) * 2, dtype=np.int16)
        D[I, J] = D[J, I] = _pair_ranks(self.field, bases, bases, I, J) - self.rank
        return _read_only(D)

    def source_distance_matrix(self) -> np.ndarray:
        return self.distances

    @cached_property
    def certified_distances(self) -> np.ndarray:
        """:attr:`distances`, certified once against BFS on the dual polar graph."""
        D, D_bfs = self.distances, self.dual_graph.distance_matrix
        if not np.array_equal(D, D_bfs):
            bad = np.argwhere(D != D_bfs)[0]
            raise QGeomError(
                f"dual polar BFS distance disagrees with m - dim intersection "
                f"at pair {tuple(int(x) for x in bad)}")
        return D

    @cached_property
    def dual_graph(self) -> FiniteGraph:
        """Adjacency is meeting in dimension rank - 1, from the member bitsets."""
        near = pairwise_intersection_dims(self.maximals) == self.rank - 1
        g = FiniteGraph(self.maximals, [np.flatnonzero(row) for row in near])
        if not g.is_connected():
            raise Disconnected("dual polar graph came out disconnected")
        return g

    @cached_property
    def point_span(self) -> Subspace:
        """Span of the points; it must be the form's support prefix."""
        if not self.points:
            return Subspace.zero(self.field, self.ambient_dim)
        span = Subspace.span(self.field, np.vstack([p.basis for p in self.points]))
        if span != self.v_prime:
            raise Anomaly(
                f"points span dimension {span.dim}, configured support has "
                f"dimension {self.v_prime.dim}", {"span": span.to_rows()})
        return span

    def summary(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "form": self.form.as_json_obj(),
            "n_points": len(self.points),
            "n_lines": len(self.lines),
            "rank": self.rank,
            "n_maximals": len(self.maximals),
        }

    def __repr__(self) -> str:
        return (f"PolarSpace(rank={self.rank}, points={len(self.points)}, "
                f"lines={len(self.lines)}, maximals={len(self.maximals)})")


def build_polar_space(field: Field, ambient_dim: int, form: Form,
                      cap: int = 10**6) -> PolarSpace:
    """Construct the polar space of a nondegenerate form.

    Enumerates singular points, grows totally singular subspaces level
    by level (one :func:`rref_stack` of [S; P] over the pairs of a subspace
    S and a point P orthogonal to it, in blocks under the pair budget) with
    canonical deduplication, and reads the rank off the top level.  Raises
    DegenerateForm for a nonzero radical, RankZero when no point is
    singular, and NonUniformMaximals if some totally singular subspace
    cannot be extended to the full rank.
    """
    if form.form_dim > ambient_dim:
        raise AmbientMismatch(
            f"form_dim {form.form_dim} exceeds ambient {ambient_dim}")
    if radical(form).dim != 0:
        raise DegenerateForm(f"{form.kind} form on {form.form_dim} coords "
                             "has a nonzero radical")
    q = field.q
    npr = form.form_dim
    n_points_projected = (q**npr - 1) // (q - 1)
    if n_points_projected > cap:
        raise TooLarge(f"{n_points_projected} candidate points exceed cap {cap}")

    reps = projective_point_reps(field, npr)
    sing_mask = np.array([form.singular_vector(r) for r in reps], dtype=bool)
    point_vecs = reps[sing_mask]
    if point_vecs.shape[0] == 0:
        raise RankZero("the form has no singular points")

    # pad representatives to the ambient dimension
    padded = np.zeros((point_vecs.shape[0], ambient_dim), dtype=np.uint8)
    padded[:, :npr] = point_vecs
    points = [Subspace(field, ambient_dim, v[None, :]) for v in padded]
    order = sorted(range(len(points)), key=lambda i: points[i].key)
    points = [points[i] for i in order]
    padded = padded[order]

    # profile[i] = functional whose kernel is the perp of point i
    profile = form.orthogonal_profile(padded)

    levels: list[list[Subspace]] = [[Subspace.zero(field, ambient_dim)], points]
    extended_all = True
    while True:
        S = stack_bases(field, levels[-1], ambient_dim)
        s, d, n = S.shape
        grew = np.zeros(s, dtype=bool)
        found: set[bytes] = set()
        # a block's pair stack holds at most one (d + 1, n) matrix per point,
        # and rref_stack's temporaries take up to 32 bytes per entry of it
        step = max(1, _PAIR_BLOCK_BYTES // (32 * len(padded) * (d + 1) * n))
        for lo in range(0, s, step):
            # the pairs (S, P) with P orthogonal to every basis row of S;
            # S + P grows exactly when rank [S; P] = d + 1
            vals = mat_mul(field, S[lo:lo + step, :, :npr], profile.T)
            I, P = np.nonzero(~vals.any(axis=1))
            R, _, ranks = rref_stack(field, np.concatenate(
                [S[lo + I], padded[P][:, None]], axis=1))
            up = ranks == d + 1
            grew[lo + I[up]] = True
            # the reduced rows are the RREF basis of S + P, keyed by its bytes
            found.update(map(bytes, R[up].reshape(-1, (d + 1) * n)))
        if not found:
            break
        extended_all &= bool(grew.all())
        rows = np.frombuffer(b"".join(sorted(found)), dtype=np.uint8)
        levels.append([Subspace(field, n, b) for b in rows.reshape(-1, d + 1, n)])

    m = len(levels) - 1
    if not extended_all:
        raise NonUniformMaximals(
            "a totally singular subspace below the top rank cannot be extended")
    if 2 * m > npr:
        raise QGeomError(f"rank {m} exceeds form_dim/2 = {npr / 2}; "
                         "not a polar space")
    lines = levels[2] if m >= 2 else []
    maximals = levels[m]
    return PolarSpace(field, ambient_dim, form, points, lines, m, maximals)


def dual_polar_graph(ps: PolarSpace) -> FiniteGraph:
    """The graph on the maximals, :attr:`PolarSpace.dual_graph`."""
    return ps.dual_graph


def point_star(ps: PolarSpace, S: Subspace) -> list[Subspace]:
    """All maximal totally singular subspaces containing S."""
    if not is_totally_singular(ps.form, S):
        raise NotSingular("the subspace is not totally singular")
    return [ps.maximals[i] for i in ps._stars([S])[0]]


def star_restriction(ps: PolarSpace, S: Subspace) -> FiniteGraph:
    """The dual polar graph restricted to the maximals containing S."""
    return ps.dual_graph.subgraph([ps.maximal_index(M) for M in point_star(ps, S)])
