"""Independent arithmetic and checks for the benchmark.

Nothing here imports qgeom.  The field tables are built from integer and
polynomial arithmetic of their own, subspaces are compared as sets of
member vectors (a boolean mask over all q^n vectors of GF(q)^n, or a
packed integer when q^n <= 64), and the closed forms are the textbook
ones from Brouwer, Cohen and Neumaier, *Distance-Regular Graphs* (1989),
§9.3 (Grassmann graphs) and §9.4 (dual polar graphs).

Vector encoding: a vector v of GF(q)^n has index sum(v[i] * q**i).
Field elements use the same encoding as the library: the integer a
encodes the little-endian base-p coefficient vector of a polynomial
residue, so for GF(4) = GF(2)[x]/(x^2 + x + 1) the element 2 is x and
3 is x + 1.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- fields -----------------------------------------------------------------------

class OwnField:
    """GF(q) for q in {2, 3, 4}, built without the library's tables."""

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError(f"GF({q}) is not supported by the oracle")
        self.q = q
        self.p = 2 if q in (2, 4) else 3
        add = np.zeros((q, q), dtype=np.uint8)
        mul = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                if q == 4:
                    add[a, b] = a ^ b
                    mul[a, b] = _gf4_mul(a, b)
                else:
                    add[a, b] = (a + b) % q
                    mul[a, b] = (a * b) % q
        self.add = add
        self.mul = mul
        self.neg = np.array([int(np.flatnonzero(add[a] == 0)[0]) for a in range(q)],
                            dtype=np.uint8)
        # frob[a] = a^p; the identity on a prime field
        self.frob = np.array([_power(mul, a, self.p) for a in range(q)], dtype=np.uint8)

    def frob_power(self, A: np.ndarray, t: int) -> np.ndarray:
        out = np.asarray(A, dtype=np.uint8)
        for _ in range(t):
            out = self.frob[out]
        return out

    def matmul(self, A, B) -> np.ndarray:
        """Product over GF(q) of (..., r, s) by (s, c) or batched (..., s, c)."""
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        if self.q in (2, 3):
            return (np.matmul(A.astype(np.int64), B.astype(np.int64)) % self.q).astype(np.uint8)
        out = None
        for t in range(A.shape[-1]):
            term = self.mul[A[..., :, t:t + 1], B[..., t:t + 1, :]]
            out = term if out is None else self.add[out, term]
        return out

    def all_vectors(self, n: int) -> np.ndarray:
        """Every vector of GF(q)^n, row i being the vector with index i."""
        idx = np.arange(self.q ** n)
        return np.stack([(idx // self.q ** i) % self.q for i in range(n)], axis=1).astype(np.uint8)

    def index(self, V) -> np.ndarray:
        V = np.asarray(V, dtype=np.int64)
        weights = self.q ** np.arange(V.shape[-1], dtype=np.int64)
        return V @ weights

    def rank(self, A) -> int:
        """Row rank by elimination over the oracle's own tables."""
        M = np.array(A, dtype=np.uint8)
        if self.q == 2:
            return _rank_gf2(M)
        r = 0
        for c in range(M.shape[1]):
            nz = [i for i in range(r, M.shape[0]) if M[i, c]]
            if not nz:
                continue
            M[[r, nz[0]]] = M[[nz[0], r]]
            inv = next(b for b in range(1, self.q) if self.mul[M[r, c], b] == 1)
            M[r] = self.mul[inv, M[r]]
            for i in range(M.shape[0]):
                if i != r and M[i, c]:
                    M[i] = self.add[M[i], self.mul[self.neg[M[i, c]], M[r]]]
            r += 1
        return r


def _rank_gf2(M: np.ndarray) -> int:
    # rows as integers; keep one row per leading bit
    lead: dict[int, int] = {}
    for row in M.tolist():
        x = int("".join(map(str, row)) or "0", 2)
        while x:
            top = x.bit_length()
            if top not in lead:
                lead[top] = x
                break
            x ^= lead[top]
    return len(lead)


def _gf4_mul(a: int, b: int) -> int:
    # carry-less product of degree <= 2, reduced by x^2 = x + 1
    prod = 0
    for i in range(2):
        if (b >> i) & 1:
            prod ^= a << i
    if prod & 4:
        prod ^= 0b111
    return prod


def _power(mul: np.ndarray, a: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = int(mul[out, a])
    return out


# -- subspaces as member sets -------------------------------------------------------

def member_indices(F: OwnField, rows) -> np.ndarray:
    """Sorted indices of every vector in the row span of ``rows``."""
    B = np.asarray(rows, dtype=np.uint8)
    d = B.shape[0]
    if d == 0:
        return np.zeros(1, dtype=np.int64)
    coeffs = F.all_vectors(d)
    return np.unique(F.index(F.matmul(coeffs, B)))


def member_mask(F: OwnField, rows, n: int) -> np.ndarray:
    mask = np.zeros(F.q ** n, dtype=bool)
    mask[member_indices(F, rows)] = True
    return mask


def dim_of_size(q: int, size: int) -> int:
    """log_q of a subspace's member count; the count must be a power of q."""
    d = round(math.log(size, q))
    require(q ** d == size, f"{size} members is not a power of {q}")
    return d


def pack_gf2(mask: np.ndarray) -> int:
    """A GF(2)^n member mask (n <= 6) as one packed integer."""
    return int(np.sum(mask.astype(np.uint64) << np.arange(mask.size, dtype=np.uint64)))


def masks_intersection_dims(q: int, masks: np.ndarray) -> np.ndarray:
    """All-pairs dim(A ∩ B) for a (t, q^n) stack of member masks."""
    counts = masks.astype(np.int32) @ masks.astype(np.int32).T
    return np.rint(np.log(counts) / np.log(q)).astype(np.int64)


def packed_pair_dims(packed: np.ndarray) -> np.ndarray:
    """dim(a ∩ b) = log2 popcount(a & b) on uint64 GF(2) member bitsets."""
    pc = np.bitwise_count(packed[:, None] & packed[None, :]).astype(np.int64)
    return np.log2(pc).astype(np.int64)


def annihilator_rows(F: OwnField, rows, n: int) -> np.ndarray:
    """Basis-free annihilator: every vector v with v . b = 0 for all rows b."""
    X = F.all_vectors(n)
    B = np.asarray(rows, dtype=np.uint8)
    if B.shape[0] == 0:
        return X
    vals = F.matmul(X, B.T)
    return X[~vals.any(axis=1)]


def check_isometric(q: int, source_masks: np.ndarray, m: int,
                    image_masks: np.ndarray, k: int, label: str) -> None:
    DS = m - masks_intersection_dims(q, source_masks)
    DT = k - masks_intersection_dims(q, image_masks)
    require((DS == DT).all(), f"{label}: a pairwise distance is not preserved")


def apply_semilinear(F: OwnField, S: np.ndarray, t: int, rows) -> np.ndarray:
    """Rows x -> S x^(p^t), in the oracle's own arithmetic."""
    return F.matmul(F.frob_power(np.asarray(rows, dtype=np.uint8), t), S.T)


# -- closed forms -----------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q by the q-Pascal recurrence (not the product formula)."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for m in range(1, n + 1):
        new = [1] * (m + 1)
        for j in range(1, m):
            new[j] = row[j - 1] + q ** j * row[j]
        row = new
    return row[k]


def qint(i: int, q: int) -> int:
    """[i]_q = 1 + q + ... + q^(i-1)."""
    return sum(q ** j for j in range(i))


def gl_order(n: int, q: int) -> int:
    return math.prod(q ** n - q ** i for i in range(n))


def grassmann_intersection_array(n: int, k: int, q: int) -> dict[int, tuple[int, int, int]]:
    """{i: (c_i, a_i, b_i)} of the Grassmann graph J_q(n, k), BCN Thm 9.3.3."""
    k = min(k, n - k)
    b = [q ** (2 * i + 1) * qint(k - i, q) * qint(n - k - i, q) for i in range(k + 1)]
    c = [qint(i, q) ** 2 for i in range(k + 1)]
    return {i: (c[i], b[0] - b[i] - c[i], b[i]) for i in range(1, k + 1)}


def grassmann_sphere_size(n: int, k: int, q: int, i: int) -> int:
    """Vertices at distance i from a fixed one: q^(i^2) [k i]_q [n-k i]_q."""
    return q ** (i * i) * gaussian_binomial(k, i, q) * gaussian_binomial(n - k, i, q)


def dual_polar_intersection_array(d: int, q: int, s: int) -> dict[int, tuple[int, int, int]]:
    """{i: (c_i, a_i, b_i)} of a rank-d dual polar graph, BCN §9.4.

    c_i = [i]_q and b_i = q^i * s * [d - i]_q, where s = q^e is the number
    of maximals on a next-to-maximal subspace minus one: q for W(2d-1, q)
    and sqrt(q) for H(2d-1, q).
    """
    b = [q ** i * s * qint(d - i, q) for i in range(d + 1)]
    c = [qint(i, q) for i in range(d + 1)]
    return {i: (c[i], b[0] - b[i] - c[i], b[i]) for i in range(1, d + 1)}


def symplectic_maximal_count(d: int, q: int) -> int:
    """Maximals of W(2d-1, q): prod_{i=1..d} (q^i + 1)."""
    return math.prod(q ** i + 1 for i in range(1, d + 1))


def sp_order(d: int, q: int) -> int:
    """|Sp(2d, q)| = q^(d^2) prod_{i=1..d} (q^(2i) - 1)."""
    return q ** (d * d) * math.prod(q ** (2 * i) - 1 for i in range(1, d + 1))


def symplectic_image_set_count(d: int, q: int) -> int:
    """Image sets of the isometric embeddings of W(2d-1, 2) in Gamma_d(GF(2)^2d).

    By uniqueness they form one orbit of Aut Gamma = GL(2d, 2) extended by
    the duality, of order 2 |GL(2d, 2)| (over GF(2) the scalars and the
    field automorphisms are trivial).  The stabiliser of the set of
    totally isotropic d-spaces is Sp(2d, 2) extended by the symplectic
    polarity, which fixes every one of them: order 2 |Sp(2d, 2)|.
    """
    require(q == 2, "the census counts are derived for GF(2) only")
    return (2 * gl_order(2 * d, q)) // (2 * sp_order(d, q))


def symplectic_census_size(d: int, q: int) -> int:
    """Members of the full census of W(2d-1, 2) in Gamma_d(GF(2)^2d).

    Each image set is taken once for every automorphism of the dual polar
    graph, whose automorphism group is Sp(2d, 2) acting on the maximals.
    """
    return symplectic_image_set_count(d, q) * sp_order(d, q)


def vertex_count_from_array(table: dict[int, tuple[int, int, int]]) -> int:
    """1 + k_1 + ... + k_D with k_{i+1} = k_i b_i / c_{i+1}."""
    b0 = table[1][0] + table[1][1] + table[1][2]
    total, ki, prev_b = 1, 1, b0
    for i in sorted(table):
        ki = ki * prev_b // table[i][0]
        total += ki
        prev_b = table[i][2]
    return total


def check_intersection_array(got: dict, expected: dict, label: str) -> None:
    got = {int(i): tuple(int(x) for x in v) for i, v in got.items()}
    require(got == expected, f"{label}: intersection array {got} != closed form {expected}")


# -- graph6 -------------------------------------------------------------------------

def decode_graph6(data: bytes) -> tuple[int, set[tuple[int, int]]]:
    """graph6 to (n, edge set), written from the format description alone."""
    data = data.strip()
    if data[0] < 126:
        n, pos = data[0] - 63, 1
    else:
        require(data[1] < 126, "graph6 sizes beyond 258047 are not expected")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    bits = "".join(format(ch - 63, "06b") for ch in data[pos:])
    edges = set()
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t] == "1":
                edges.add((i, j))
            t += 1
    require(set(bits[t:]) <= {"0"}, "graph6 padding is not zero")
    return n, edges


def edges_of(adj_matrix: np.ndarray) -> set[tuple[int, int]]:
    iu, ju = np.nonzero(np.triu(adj_matrix, 1))
    return set(zip(iu.tolist(), ju.tolist()))


# -- JSON graph export --------------------------------------------------------------

def check_graph_json(F: OwnField, n: int, obj: dict, adj_matrix: np.ndarray,
                     vertex_masks: np.ndarray) -> None:
    """A parsed JSON export lists exactly these vertices, in order, and this adjacency."""
    nv = len(adj_matrix)
    require(obj["n_vertices"] == nv, f"JSON export has {obj['n_vertices']} vertices, expected {nv}")
    require(len(obj["vertices"]) == nv,
            f"JSON export lists {len(obj['vertices'])} vertices, expected {nv}")
    require([sorted(a) for a in obj["adjacency"]]
            == [np.flatnonzero(adj_matrix[i]).tolist() for i in range(nv)],
            "JSON export holds another adjacency")
    for i, v in enumerate(obj["vertices"]):
        rows = np.array(v["basis"], dtype=np.uint8).reshape(-1, n)
        require(np.array_equal(member_mask(F, rows, n), vertex_masks[i]),
                f"JSON export lists another subspace as vertex {i}")


# -- witnesses ----------------------------------------------------------------------

def witness_perms(F: OwnField, n: int, matrices, frob_powers) -> np.ndarray:
    """(P, q^n) index maps x -> M x^(p^t), one row per (matrix, power)."""
    X = F.all_vectors(n)
    mats = np.asarray(matrices, dtype=np.uint8)
    out = np.empty((mats.shape[0], X.shape[0]), dtype=np.int64)
    for t in sorted(set(int(f) for f in frob_powers)):
        sel = np.flatnonzero(np.asarray(frob_powers) == t)
        Xt = F.frob_power(X, t)
        # rows of Xt @ M^T are the images M x^(p^t)
        out[sel] = F.index(F.matmul(Xt[None, :, :], np.transpose(mats[sel], (0, 2, 1))))
    return out


def check_witnesses(F: OwnField, n: int, matrices, frob_powers, members,
                    masks, src, dst, label: str, chunk: int = 4096) -> None:
    """Witness p maps every image of table src[p] exactly onto table dst[p].

    ``members`` is (E, t, q^k) member indices and ``masks`` is (E, t, q^n)
    member masks of E embedding tables.  Each map x -> M x^(p^t) must be
    a bijection of GF(q)^n, so it keeps dimensions, and must carry every
    member of each source image into the partner image.
    """
    require((masks.sum(axis=2) == members.shape[2]).all(),
            f"{label}: an image has the wrong dimension")
    matrices = np.asarray(matrices, dtype=np.uint8)
    frob_powers = np.asarray(frob_powers)
    src = np.asarray(src)
    dst = np.asarray(dst)
    t = members.shape[1]
    for lo in range(0, len(src), chunk):
        sl = slice(lo, lo + chunk)
        perms = witness_perms(F, n, matrices[sl], frob_powers[sl])
        require((np.sort(perms, axis=1) == np.arange(perms.shape[1])).all(),
                f"{label}: a witness matrix is singular")
        P = perms.shape[0]
        mapped = perms[np.arange(P)[:, None, None], members[src[sl]]]
        hit = masks[dst[sl][:, None, None], np.arange(t)[None, :, None], mapped]
        bad = np.flatnonzero(~hit.reshape(P, -1).all(axis=1))
        require(bad.size == 0, f"{label}: witness {lo + int(bad[0]) if bad.size else -1} "
                               "does not map its source table onto the target table")
