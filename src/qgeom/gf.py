"""Exact arithmetic in small finite fields GF(p^e).

Field elements are plain Python ints in ``[0, p^e)``.  The int ``a``
encodes the reduced coefficient vector of a polynomial residue in
little-endian base p: digit i of ``a`` is the coefficient of x^i in the
basis ``{1, x, ..., x^(e-1)}``.  Zero and one are literally ``0`` and
``1``.  Elements enumerate in ascending integer encoding, which is the
canonical order used everywhere downstream (subspace comparisons, vertex
orderings).

All operations go through precomputed lookup tables, so they are exact
and branch-free; the tables are small because the field order is capped
(default 16).  Moduli are explicit inputs: there is no built-in Conway
table, only documented defaults for GF(4), GF(8), GF(9), GF(16).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NoConjugation,
    NotPrime,
    ReducibleModulus,
)

DEFAULT_FIELD_CAP = 16

# Little-endian coefficient lists of monic irreducible polynomials,
# shipped as documented defaults (x^2+x+1, x^3+x+1, x^2+1, x^4+x+1).
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
}


def is_prime(p: int) -> bool:
    """Trial-division primality test; ample for capped field sizes."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a by monic m, coefficients little-endian over GF(p)."""
    a = _poly_trim(list(a))
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _check_irreducible(modulus: tuple[int, ...], p: int) -> None:
    """Brute-force divisor search over GF(p); fine for degree <= 4."""
    e = len(modulus) - 1
    m = list(modulus)
    for d in range(1, e // 2 + 1):
        # all monic degree-d polynomials over GF(p)
        for pack in range(p**d):
            g = []
            v = pack
            for _ in range(d):
                g.append(v % p)
                v //= p
            g.append(1)
            if not _poly_mod(m, g, p):
                raise ReducibleModulus(
                    f"modulus {list(modulus)} has monic divisor {g} over GF({p})"
                )


class Field:
    """Arithmetic in GF(p^e) with table-backed operations.

    Parameters
    ----------
    p : int
        Prime characteristic.
    e : int
        Extension degree (>= 1).
    modulus : sequence of int, optional
        Little-endian coefficients of a monic degree-e irreducible
        polynomial over GF(p).  Ignored when e = 1 (x - 1 placeholder);
        required for e > 1 unless a shipped default exists.
    cap : int
        Maximum permitted field order (guards downstream blow-up).

    Notes
    -----
    Instances are immutable; the lookup tables are read-only numpy
    arrays, safe for unrestricted concurrent reads.  Two fields compare
    equal iff they share (p, e, modulus).
    """

    def __init__(self, p: int, e: int = 1, modulus=None, cap: int = DEFAULT_FIELD_CAP):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        q = p**e
        if q > cap:
            raise FieldTooLarge(f"p^e = {q} exceeds the cap {cap}")
        if e == 1:
            modulus = (0, 1)
        else:
            if modulus is None:
                modulus = DEFAULT_MODULI.get((p, e))
                if modulus is None:
                    raise ReducibleModulus(
                        f"no default modulus for GF({p}^{e}); supply one"
                    )
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {e}, got {list(modulus)}"
                )
            _check_irreducible(modulus, p)

        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        m = list(self.modulus)

        def to_poly(a):
            c = []
            for _ in range(e):
                c.append(a % p)
                a //= p
            return _poly_trim(c)

        def from_poly(c):
            v = 0
            for i, ci in enumerate(c):
                v += ci * p**i
            return v

        add = np.zeros((q, q), dtype=np.uint8)
        mul = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            pa = to_poly(a)
            for b in range(q):
                pb = to_poly(b)
                s = [
                    ((pa[i] if i < len(pa) else 0) + (pb[i] if i < len(pb) else 0)) % p
                    for i in range(e)
                ]
                add[a, b] = from_poly(_poly_trim(s))
                mul[a, b] = from_poly(_poly_mod(_poly_mul(pa, pb, p), m, p))

        neg = np.zeros(q, dtype=np.uint8)
        inv = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                if add[a, b] == 0:
                    neg[a] = b
            if a:
                hit = np.flatnonzero(mul[a] == 1)
                if hit.size != 1:
                    raise ReducibleModulus(
                        f"element {a} lacks a unique inverse; modulus not irreducible?"
                    )
                inv[a] = hit[0]

        # frob[t, a] = a^(p^t); row 0 is the identity
        frob = np.zeros((e, q), dtype=np.uint8)
        frob[0] = np.arange(q, dtype=np.uint8)
        for t in range(1, e):
            for a in range(q):
                v = frob[t - 1, a]
                w = 1
                for _ in range(p):
                    w = mul[w, v]
                frob[t, a] = w

        for table in (add, mul, neg, inv, frob):
            table.setflags(write=False)
        self.add_table = add
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = inv
        self.frob_table = frob

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def frobenius(self, a: int, t: int = 1) -> int:
        """a raised to the p^t power (t taken mod e)."""
        return int(self.frob_table[t % self.e, a])

    def conj(self, a: int) -> int:
        """The involutory automorphism a -> a^sqrt(q); needs e even."""
        if self.e % 2:
            raise NoConjugation(f"GF({self.p}^{self.e}) has odd degree")
        return int(self.frob_table[self.e // 2, a])

    # -- encoding ------------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of the element."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def element(self, coeffs) -> int:
        v = 0
        for i, c in enumerate(coeffs):
            v += (int(c) % self.p) * self.p**i
        if not 0 <= v < self.q:
            raise ValueError(f"coefficient vector {coeffs} too long for GF({self.q})")
        return v

    def elements(self) -> list[int]:
        """All field elements, in the canonical ascending-encoding order."""
        return list(range(self.q))

    # -- identity ------------------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatch(f"{self} vs {other}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __reduce__(self):
        # cap already validated at first construction
        return (Field, (self.p, self.e, self.modulus, self.q))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e}; modulus={list(self.modulus)})"


def config_int(name: str, x) -> int:
    """A config field that must be a JSON integer: a float, string or bool
    is a ValueError, never truncated or parsed."""
    if type(x) is not int:
        raise ValueError(f"{name} {x!r} is not an integer")
    return x


def build_field(spec: dict | None = None, *, p: int | None = None, e: int = 1,
                modulus=None, cap: int = DEFAULT_FIELD_CAP) -> Field:
    """Build a field from a config mapping like ``{"p": 2, "e": 2, "modulus": [1, 1, 1]}``.

    Either pass the mapping or the keyword pieces directly.  In a mapping
    ``p`` and ``e`` must be integers (:func:`config_int`) and every
    modulus entry an integer in 0..p-1.
    """
    if spec is not None:
        p = config_int("p", spec["p"])
        e = config_int("e", spec.get("e", 1))
        modulus = spec.get("modulus")
        for c in modulus or ():
            if not (type(c) is int and 0 <= c < p):
                raise ValueError(f"modulus entry {c!r} is not an integer in 0..{p - 1}")
    if p is None:
        raise NotPrime("field characteristic missing")
    return Field(p, e, modulus, cap=cap)
