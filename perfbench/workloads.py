"""The workloads: set-up, one round, and its independent checks.

Each workload object is built once per process (``__init__`` is set-up:
fields and forms, plus every seeded random draw) and then runs whole
rounds.  A round builds from scratch every polar space, embedding and
witness it uses, and every graph it constructs itself.  The one state
shared between rounds is the library's process-wide Grassmann graph
cache, which the runner clears (``fresh_caches``) before the warm-up
round and before a traced round; every round after the warm-up therefore
does the same work and makes the same kernel calls.  ``check`` compares a round's outputs with
:mod:`oracle`, which shares no code with qgeom.
"""

from __future__ import annotations

import json
import os

import numpy as np

from qgeom.embed import (
    Embedding,
    EquivalenceWitness,
    analyze_embedding,
    canonical_embedding,
    connecting_automorphism,
    search_embeddings,
    verify_isometric,
)
from qgeom.grassmann import (
    GrassmannGraph,
    duality_permutation,
    grassmann_distance,
    grassmann_graph_cached,
    intersection_numbers,
)
from qgeom.ioformats import (
    canonical_json,
    field_from_config,
    graph_json_obj,
    polar_config,
    write_bytes,
    write_edge_csv,
    write_graph6,
    write_text,
)
from qgeom.polar import build_polar_space, dual_polar_graph
from qgeom.subspace import multi_intersection

import oracle as orc
from oracle import require

SYMPLECTIC_4 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
W32 = {"field": {"p": 2, "e": 1},
       "form": {"kind": "alternating", "form_dim": 4, "gram": SYMPLECTIC_4}}
W33 = {"field": {"p": 3, "e": 1},
       "form": {"kind": "alternating", "form_dim": 4,
                "gram": [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]}}
H34 = {"field": {"p": 2, "e": 2, "modulus": [1, 1, 1]},
       "form": {"kind": "hermitian", "form_dim": 4,
                "gram": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}

def fresh_caches() -> None:
    """Drop the process-wide Grassmann graph cache."""
    grassmann_graph_cached.cache_clear()


def random_invertible(F: orc.OwnField, n: int, rng) -> np.ndarray:
    while True:
        A = rng.integers(0, F.q, size=(n, n)).astype(np.uint8)
        if F.rank(A) == n:
            return A


class Members:
    """Member indices and masks of library subspaces, cached by identity."""

    def __init__(self, F: orc.OwnField, n: int):
        self.F = F
        self.n = n
        self._by_id: dict[int, tuple[object, np.ndarray]] = {}

    def indices(self, S) -> np.ndarray:
        hit = self._by_id.get(id(S))
        if hit is None or hit[0] is not S:
            hit = (S, orc.member_indices(self.F, S.basis))
            require(S.basis.shape[1] == self.n, "subspace in the wrong ambient dimension")
            require(hit[1].size == self.F.q ** S.dim, "basis rows are not independent")
            self._by_id[id(S)] = hit
        return hit[1]

    def table(self, images) -> tuple[np.ndarray, np.ndarray]:
        """(t, q^k) member indices and (t, q^n) masks of an image table."""
        idx = np.stack([self.indices(S) for S in images])
        masks = np.zeros((len(images), self.F.q ** self.n), dtype=bool)
        masks[np.arange(len(images))[:, None], idx] = True
        return idx, masks

    def of_rows(self, rows) -> np.ndarray:
        return orc.member_mask(self.F, rows, self.n)


def witness_record(w) -> tuple[bytes, int, bool]:
    """What the checks need from a witness, kept compact during the round."""
    return w.matrix.tobytes(), w.frob_power, w.dual


def witness_arrays(records, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, n, n) matrices and (P,) Frobenius powers of recorded witnesses."""
    require(n == 2 * k or not any(dual for _, _, dual in records),
            "a duality witness where n != 2k is no graph automorphism")
    mats = np.frombuffer(b"".join(m for m, _, _ in records), dtype=np.uint8)
    return mats.reshape(len(records), n, n), np.array([t for _, t, _ in records])


# -- grassmann -----------------------------------------------------------------------

class GrassmannWorkload:
    """`qgeom grassmann --n 5 --k 2 --intersection-array --duality-check`
    over GF(2) with g6, CSV and JSON exports, plus the formula distance on
    every pair, visited in a seeded vertex order."""

    Q, N, K = 2, 5, 2

    def __init__(self, seed: int, out_dir: str):
        self.field = field_from_config({"p": 2})
        self.own = orc.OwnField(self.Q)
        n_vertices = orc.gaussian_binomial(self.N, self.K, self.Q)
        self.order = np.random.default_rng(seed).permutation(n_vertices)
        self.paths = {fmt: os.path.join(out_dir, f"gamma.{fmt}") for fmt in ("g6", "csv", "json")}

    def _formula(self, g) -> np.ndarray:
        V = g.vertices
        order = self.order.tolist()
        D = np.zeros((len(V), len(V)), dtype=np.int64)
        for pos, a in enumerate(order):
            A = V[a]
            row = D[a]
            for b in order[pos + 1:]:
                row[b] = grassmann_distance(A, V[b])
        return D

    def _exports(self, g) -> list:
        extra = {"q": self.Q, "n": self.N, "k": self.K}
        return [
            lambda: write_bytes(self.paths["g6"], write_graph6(g) + b"\n"),
            lambda: write_text(self.paths["csv"], write_edge_csv(g)),
            lambda: write_text(self.paths["json"], canonical_json(graph_json_obj(g, extra=extra))),
        ]

    def round(self, r) -> dict:
        F, n, k = self.field, self.N, self.K
        g = r.op("grassmann.build", GrassmannGraph, F, n, k)
        D = r.op("grassmann.bfs", lambda: g.distance_matrix)
        formula = r.op("grassmann.formula", self._formula, g)
        ia = r.op("grassmann.intersection_array", intersection_numbers, g)
        gd = r.op("grassmann.duality", GrassmannGraph, F, n, n - k)
        perm = r.op("grassmann.duality", duality_permutation, g, gd)
        for write in self._exports(g):
            r.op("ioformats.export", write)
        return {"g": g, "D": D, "formula": formula, "ia": ia, "gd": gd, "perm": perm,
                "counts": {}}

    def check(self, out: dict) -> None:
        q, n, k = self.Q, self.N, self.K
        F = self.own
        g, gd = out["g"], out["gd"]
        nv = orc.gaussian_binomial(n, k, q)
        require(g.n_vertices == nv == len(g.adj), f"{g.n_vertices} vertices, expected {nv}")
        mem = Members(F, n)
        vertex_masks = np.stack([mem.of_rows(v.basis) for v in g.vertices])
        packed = np.array([orc.pack_gf2(mask) for mask in vertex_masks], dtype=np.uint64)
        require((np.bitwise_count(packed) == q ** k).all(), "a vertex is not k-dimensional")
        require(np.unique(packed).size == nv, "two vertices are the same subspace")
        dist = k - orc.packed_pair_dims(packed)
        own_adj = dist == 1
        A = np.zeros((nv, nv), dtype=bool)
        for i, nbrs in enumerate(g.adj):
            A[i, np.asarray(nbrs, dtype=np.int64)] = True
        require((A == own_adj).all(), "adjacency differs from dim(A ∩ B) = k - 1")
        degree = q * orc.qint(k, q) * orc.qint(n - k, q)
        require((A.sum(axis=1) == degree).all(), f"a vertex degree differs from {degree}")
        D = np.asarray(out["D"])
        require((D == dist).all(), "BFS distance differs from k - dim(A ∩ B)")
        formula = out["formula"]
        formula = formula + formula.T
        require((formula == D).all(), "formula distance differs from BFS distance")
        for i in range(min(k, n - k) + 1):
            want = orc.grassmann_sphere_size(n, k, q, i)
            require(((D == i).sum(axis=1) == want).all(),
                    f"a BFS row has the wrong number of vertices at distance {i}")
        orc.check_intersection_array(out["ia"], orc.grassmann_intersection_array(n, k, q),
                                     f"Gamma_{k}(GF({q})^{n})")
        # duality: a bijection onto the annihilators that keeps adjacency
        perm = np.asarray(out["perm"], dtype=np.int64)
        require(np.array_equal(np.sort(perm), np.arange(nv)), "duality map is not a bijection")
        for i, v in enumerate(g.vertices):
            ann = orc.annihilator_rows(F, v.basis, n)
            require(np.array_equal(np.sort(F.index(ann)),
                                   orc.member_indices(F, gd.vertices[perm[i]].basis)),
                    f"vertex {i} is not sent to its annihilator")
        Ad = np.zeros((nv, nv), dtype=bool)
        for i, nbrs in enumerate(gd.adj):
            Ad[i, np.asarray(nbrs, dtype=np.int64)] = True
        require((Ad[np.ix_(perm, perm)] == A).all(), "duality map does not preserve adjacency")
        # exports, read back with the benchmark's own parsers
        edges = orc.edges_of(own_adj)
        with open(self.paths["g6"], "rb") as fh:
            n6, e6 = orc.decode_graph6(fh.read())
        require(n6 == nv and e6 == edges, "graph6 export decodes to another graph")
        with open(self.paths["csv"], encoding="utf-8") as fh:
            ecsv = {tuple(int(x) for x in line.split(",")) for line in fh.read().split()}
        require(ecsv == edges, "CSV export holds another edge set")
        with open(self.paths["json"], encoding="utf-8") as fh:
            orc.check_graph_json(F, n, json.load(fh), own_adj, vertex_masks)


# -- census ---------------------------------------------------------------------------

class CensusWorkload:
    """The full (unanchored) census of W(3,2) in Gamma_2(GF(2)^4): every
    isometric embedding, the common-intersection split of the members and
    seeded witnesses between members."""

    N, K, M = 4, 2, 2
    PAIRS = 6

    def __init__(self, seed: int, out_dir: str):
        self.field, self.form = polar_config(W32)
        self.own = orc.OwnField(2)
        rng = np.random.default_rng(seed)
        # indices are taken modulo the member count the program reports
        size = orc.symplectic_census_size(self.M, 2)
        self.pair_a = rng.integers(0, size, size=self.PAIRS)
        self.pair_step = rng.integers(1, size, size=self.PAIRS)

    def round(self, r) -> dict:
        F, n, k = self.field, self.N, self.K
        ps = r.op("polar.build", build_polar_space, F, n, self.form)
        r.op("search.target", lambda: grassmann_graph_cached(F, n, k).distance_matrix)
        f0 = r.op("structure.canonical", canonical_embedding, ps, k)
        res = r.op("search", search_embeddings, ps, n, k, anchor=False, workers=1)
        embs = res.embeddings
        dims = r.op("structure.split",
                    lambda: [multi_intersection(list(e.images)).dim for e in embs])
        require(len(embs) > 1, "the census has no two members to connect")
        pairs = []
        for a, step in zip(self.pair_a, self.pair_step):
            ea = embs[int(a) % len(embs)]
            eb = embs[(int(a) + int(step)) % len(embs)]
            if eb is ea:
                eb = embs[(int(a) + 1) % len(embs)]
            w = r.op("witness.flat", connecting_automorphism, ea, eb)
            pairs.append((ea, eb, witness_record(w)))
        return {"ps": ps, "f0": f0, "res": res, "dims": dims, "pairs": pairs,
                "counts": {"search.nodes": res.nodes, "search.members": len(embs),
                           "structure.members": len(embs)}}

    def check(self, out: dict) -> None:
        F, n, k, m = self.own, self.N, self.K, self.M
        ps, f0, res = out["ps"], out["f0"], out["res"]
        mem = Members(F, n)
        require(len(ps.maximals) == orc.symplectic_maximal_count(m, 2),
                "W(3,2) has the wrong number of maximals")
        G = np.array(SYMPLECTIC_4, dtype=np.uint8)
        for M in ps.maximals:
            require(not F.matmul(F.matmul(M.basis, G), M.basis.T).any(),
                    "a maximal is not totally isotropic")
        src = np.array([orc.pack_gf2(mem.of_rows(M.basis)) for M in ps.maximals], dtype=np.uint64)
        require((np.bitwise_count(src) == 2 ** m).all(), "a maximal has the wrong dimension")
        DS = m - orc.packed_pair_dims(src)

        # member bitsets, one uint64 per image
        packed_of: dict[int, int] = {}

        def pk(S):
            key = id(S)
            if key not in packed_of:
                packed_of[key] = orc.pack_gf2(mem.of_rows(S.basis))
            return packed_of[key]

        embs = res.embeddings
        P = np.array([[pk(S) for S in e.images] for e in embs], dtype=np.uint64)
        t = len(ps.maximals)
        require(P.shape == (len(embs), t), "a census member has an incomplete table")
        require((np.bitwise_count(P) == 2 ** k).all(), "a census image is not 2-dimensional")
        require(np.unique(P, axis=0).shape[0] == len(embs), "two census members coincide")
        require(not res.anchored, "the census was anchored")
        f0_row = np.array([pk(S) for S in f0.images], dtype=np.uint64)
        require((P == f0_row).all(axis=1).any(), "the canonical embedding is not in the census")
        for i in range(t):
            for j in range(i + 1, t):
                dij = k - np.log2(np.bitwise_count(P[:, i] & P[:, j])).astype(np.int64)
                require((dij == DS[i, j]).all(), f"a member breaks the distance of pair ({i}, {j})")
        # image sets: one orbit of the automorphism group, each set taken
        # by every automorphism of the dual polar graph
        _, per_set = np.unique(np.sort(P, axis=1), axis=0, return_counts=True)
        want_sets = orc.symplectic_image_set_count(m, 2)
        require(per_set.size == want_sets,
                f"the census has {per_set.size} image sets, expected {want_sets}")
        require((per_set == orc.sp_order(m, 2)).all(),
                f"an image set is taken by other than {orc.sp_order(m, 2)} members")
        want = orc.symplectic_census_size(m, 2)
        require(len(embs) == want, f"the census has {len(embs)} members, expected {want}")
        common = np.bitwise_and.reduce(P, axis=1)
        own_dims = np.log2(np.bitwise_count(common)).astype(np.int64)
        require(np.array_equal(own_dims, np.asarray(out["dims"])),
                "the family split differs from the AND-reduced bitsets")
        require((own_dims == k - m).all(), f"a member has a common intersection other than {k - m}")
        # witnesses between members, checked on every image; a duality
        # witness (n = 2k) maps the annihilator of each source image
        tables = []
        for ea, eb, (_, _, dual) in out["pairs"]:
            tables.append(self._ann_table(ea.images) if dual else mem.table(ea.images))
            tables.append(mem.table(eb.images))
        members = np.stack([tb[0] for tb in tables])
        masks = np.stack([tb[1] for tb in tables])
        mats, frobs = witness_arrays([w for _, _, w in out["pairs"]], n, k)
        npairs = len(mats)
        orc.check_witnesses(F, n, mats, frobs, members, masks,
                            np.arange(npairs) * 2, np.arange(npairs) * 2 + 1, "census witness")

    def _ann_table(self, images) -> tuple[np.ndarray, np.ndarray]:
        F, n = self.own, self.N
        idx = np.stack([np.sort(F.index(orc.annihilator_rows(F, S.basis, n))) for S in images])
        masks = np.zeros((len(images), F.q ** n), dtype=bool)
        masks[np.arange(len(images))[:, None], idx] = True
        return idx, masks


# -- witness and gfq ------------------------------------------------------------------

class Instance:
    """One source polar space with seeded images s(f0) of its canonical embedding."""

    def __init__(self, label, cfg, q, n, k, m, s, members, frob_cycle, rng):
        self.label = label
        self.field, self.form = polar_config(cfg)
        self.own = orc.OwnField(q)
        self.q, self.n, self.k, self.m, self.s = q, n, k, m, s
        self.members = members
        spares = max(4, members // 8)
        self.mats = [random_invertible(self.own, n, rng) for _ in range(members + spares)]
        self.frobs = [frob_cycle[i % len(frob_cycle)] for i in range(members + spares)]

    def _images(self, ps, f0):
        """The first ``members`` distinct tables s(f0), over the seeded draws."""
        chosen, embs, seen = [], [], {f0.key}
        for S, t in zip(self.mats, self.frobs):
            w = EquivalenceWitness(self.field, S, t)
            e = Embedding(ps, self.k, [w.apply_to_subspace(img) for img in f0.images])
            if e.key in seen:
                continue
            seen.add(e.key)
            chosen.append((S, t))
            embs.append(e)
            if len(embs) == self.members:
                break
        return chosen, embs

    def run(self, r) -> dict:
        F, n, k = self.field, self.n, self.k
        ps = r.op("polar.build", build_polar_space, F, n, self.form)
        dg = r.op("polar.dual_graph", dual_polar_graph, ps)
        ia = r.op("polar.intersection_array", intersection_numbers, dg)
        f0 = r.op("structure.canonical", canonical_embedding, ps, k)
        rep0 = r.op("structure.analyze", analyze_embedding, f0)
        chosen, embs = r.op("witness.apply", self._images, ps, f0)
        verified, reports, base = [], [], []
        for e in embs:
            verified.append(r.op("verify", verify_isometric, e))
            reports.append(r.op("structure.analyze", analyze_embedding, e))
            base.append(witness_record(r.op("witness.base", connecting_automorphism, f0, e)))
        pair_idx, pair_w = [], []
        for i in range(len(embs)):
            for j in range(i + 1, len(embs)):
                pair_w.append(witness_record(
                    r.op("witness.pair", connecting_automorphism, embs[i], embs[j])))
                pair_idx.append((i, j))
        return {"ps": ps, "ia": ia, "f0": f0, "rep0": rep0, "chosen": chosen, "embs": embs,
                "verified": verified, "reports": reports, "base": base,
                "pair_idx": pair_idx, "pair_w": pair_w}

    def check(self, out: dict) -> None:
        F, q, n, k, m, label = self.own, self.q, self.n, self.k, self.m, self.label
        ps, f0, embs = out["ps"], out["f0"], out["embs"]
        expected_ia = orc.dual_polar_intersection_array(m, q, self.s)
        orc.check_intersection_array(out["ia"], expected_ia, f"{label} dual polar graph")
        nmax = orc.vertex_count_from_array(expected_ia)
        require(len(ps.maximals) == nmax, f"{label}: {len(ps.maximals)} maximals, expected {nmax}")
        require(len(embs) == self.members, f"{label}: only {len(embs)} distinct images")
        mem = Members(F, n)
        _, src_masks = mem.table(ps.maximals)
        require((src_masks.sum(axis=1) == q ** m).all(), f"{label}: a maximal has the wrong dimension")
        t0_idx, t0_masks = mem.table(f0.images)
        orc.check_isometric(q, src_masks, m, t0_masks, k, f"{label} canonical embedding")
        U0 = np.logical_and.reduce(t0_masks, axis=0)
        require(orc.dim_of_size(q, int(U0.sum())) == k - m, f"{label}: f0 has no common (k-m)-space")
        require(np.array_equal(mem.of_rows(out["rep0"].star_subspace.basis), U0),
                f"{label}: star subspace of f0 differs from the common intersection")
        U0_rows = out["rep0"].star_subspace.basis
        tables_idx, tables_mask = [t0_idx], [t0_masks]
        for (S, t), e, rep, ver in zip(out["chosen"], embs, out["reports"], out["verified"]):
            idx, masks = mem.table(e.images)
            want = np.stack([mem.of_rows(orc.apply_semilinear(F, S, t, img.basis)) for img in f0.images])
            require(np.array_equal(masks, want), f"{label}: an image is not s(f0(M))")
            require(ver["pairs_checked"] == len(ps.maximals) * (len(ps.maximals) - 1) // 2,
                    f"{label}: verify checked {ver['pairs_checked']} pairs")
            orc.check_isometric(q, src_masks, m, masks, k, f"{label} member")
            require(np.array_equal(mem.of_rows(rep.star_subspace.basis),
                                   mem.of_rows(orc.apply_semilinear(F, S, t, U0_rows))),
                    f"{label}: the star subspace of s(f0) is not s(U0)")
            require(rep.lines_ok, f"{label}: analysis reports partial lines")
            tables_idx.append(idx)
            tables_mask.append(masks)
        members = np.stack(tables_idx)
        masks = np.stack(tables_mask)
        E = len(embs)
        mats, frobs = witness_arrays(out["base"], n, k)
        orc.check_witnesses(F, n, mats, frobs, members, masks,
                            np.zeros(E, dtype=np.int64), np.arange(1, E + 1), f"{label} base witness")
        pi = np.array(out["pair_idx"], dtype=np.int64) + 1
        mats, frobs = witness_arrays(out["pair_w"], n, k)
        orc.check_witnesses(F, n, mats, frobs, members, masks, pi[:, 0], pi[:, 1],
                            f"{label} pair witness")

    def counts(self, out: dict) -> dict:
        return {"verify.pairs": sum(v["pairs_checked"] for v in out["verified"]),
                "witness.pairs": len(out["pair_w"])}


class _InstanceWorkload:
    instances: list[Instance]

    def round(self, r) -> dict:
        outs = [inst.run(r) for inst in self.instances]
        counts: dict[str, int] = {}
        for inst, out in zip(self.instances, outs):
            for key, val in inst.counts(out).items():
                counts[key] = counts.get(key, 0) + val
        return {"outs": outs, "counts": counts}

    def check(self, out: dict) -> None:
        for inst, o in zip(self.instances, out["outs"]):
            inst.check(o)


class WitnessWorkload(_InstanceWorkload):
    """Criterion 7, second half: seeded GL(5,2) images of the canonical
    micro embedding with their verify, analysis and witnesses (to f0 and
    between every pair)."""

    MEMBERS = 120

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.instances = [
            Instance("W(3,2)", W32, 2, 5, 3, 2, 2, self.MEMBERS, (0,), rng),
        ]


class GfqWorkload(_InstanceWorkload):
    """The witness pipeline on table-driven arithmetic: H(3,4) in
    Gamma_3(GF(4)^5) with semilinear images (Frobenius powers 0 and 1)
    and W(3,3) in Gamma_3(GF(3)^5) with linear images."""

    MEMBERS = 8

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.instances = [
            Instance("H(3,4)", H34, 4, 5, 3, 2, 2, self.MEMBERS, (0, 1), rng),
            Instance("W(3,3)", W33, 3, 5, 3, 2, 3, self.MEMBERS, (0,), rng),
        ]


class Gf2Workload:
    """Everything on GF(2), one part after another: the grassmann pipeline,
    the census and the witness pipeline."""

    def __init__(self, seed: int, out_dir: str):
        self.parts = [GrassmannWorkload(seed, out_dir), CensusWorkload(seed, out_dir),
                      WitnessWorkload(seed, out_dir)]

    def round(self, r) -> dict:
        outs = [part.round(r) for part in self.parts]
        counts: dict[str, int] = {}
        for out in outs:
            counts.update(out["counts"])
        return {"outs": outs, "counts": counts}

    def check(self, out: dict) -> None:
        for part, o in zip(self.parts, out["outs"]):
            part.check(o)


WORKLOADS = {
    "gf2": Gf2Workload,
    "gfq": GfqWorkload,
}
