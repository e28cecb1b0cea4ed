"""Closed-form intersection arrays of Grassmann and dual polar graphs.

``intersection_numbers`` counts; these formulas are the oracle.  From
Brouwer, Cohen and Neumaier, *Distance-Regular Graphs* (1989):

* Grassmann graph J_q(n, k), Thm 9.3.3, with k replaced by min(k, n - k):
  b_i = q^(2i+1) [k - i] [n - k - i] and c_i = [i]^2, for 0 <= i <= k;
* dual polar graph of rank d, Section 9.4:
  b_i = q^(i+e) [d - i] and c_i = [i], for 0 <= i <= d;

where [j] = 1 + q + ... + q^(j-1), a_i = b_0 - b_i - c_i, and q is the
order of the field.  The exponent e depends on the polar space: 0 for
Q+(2d-1, q), 1/2 for H(2d-1, q) (q a square), 1 for W(2d-1, q) and
Q(2d, q), 3/2 for H(2d, q), 2 for Q-(2d+1, q).
"""

import warnings

import numpy as np
import pytest

from qgeom.gf import Field
from qgeom.grassmann import GrassmannGraph, gaussian_binomial, intersection_numbers
from qgeom.polar import Form, build_polar_space, dual_polar_graph

FIELDS = [Field(2), Field(3), Field(2, 2), Field(5), Field(7), Field(2, 3), Field(3, 2)]
VERTEX_CAP = 400

SYMPLECTIC_2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
SYMPLECTIC_3 = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]
PARABOLIC_QUAD = [[0, 1, 0, 0, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 1]]


def qint(j, q):
    return sum(q ** t for t in range(j))


def grassmann_array(n, k, q):
    k = min(k, n - k)
    b = [q ** (2 * i + 1) * qint(k - i, q) * qint(n - k - i, q) for i in range(k + 1)]
    c = [qint(i, q) ** 2 for i in range(k + 1)]
    return {i: (c[i], b[0] - b[i] - c[i], b[i]) for i in range(1, k + 1)}


def dual_polar_array(d, q, qe):
    """qe is q^e, an integer for every polar space."""
    b = [q ** i * qe * qint(d - i, q) for i in range(d + 1)]
    c = [qint(i, q) for i in range(d + 1)]
    return {i: (c[i], b[0] - b[i] - c[i], b[i]) for i in range(1, d + 1)}


def grassmann_cases():
    """Every (q, n, k), 0 < k < n, with at most VERTEX_CAP vertices."""
    for f in FIELDS:
        for n in range(2, 7):
            for k in range(1, n):
                if gaussian_binomial(n, k, f.q) <= VERTEX_CAP:
                    yield f, n, k


GF2, GF3, GF4 = Field(2), Field(3), Field(2, 2)
# (name, field, ambient dimension, form, q^e)
POLAR_CASES = [
    ("Q+(1,2)", GF2, 4, Form(GF2, "quadratic", 2, quad=[[0, 1], [0, 0]]), 1),
    ("H(1,4)", GF4, 2, Form(GF4, "hermitian", 2, gram=[[1, 0], [0, 1]]), 2),
    ("W(1,3)", GF3, 2, Form(GF3, "alternating", 2, gram=[[0, 1], [2, 0]]), 3),
    ("W(3,2)", GF2, 4, Form(GF2, "alternating", 4, gram=SYMPLECTIC_2), 2),
    ("W(3,2) in GF(2)^5", GF2, 5, Form(GF2, "alternating", 4, gram=SYMPLECTIC_2), 2),
    ("Q(4,2)", GF2, 5, Form(GF2, "quadratic", 5, quad=PARABOLIC_QUAD), 2),
    ("W(3,3)", GF3, 4, Form(GF3, "alternating", 4, gram=SYMPLECTIC_3), 3),
    ("H(3,4)", GF4, 4, Form(GF4, "hermitian", 4, gram=np.eye(4, dtype=np.uint8)), 2),
]


def test_grassmann_graphs_match_the_closed_form():
    checked = 0
    for f, n, k in grassmann_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k = 1 and k = n - 1 are complete
            g = GrassmannGraph(f, n, k)
        assert intersection_numbers(g) == grassmann_array(n, k, f.q), (f.q, n, k)
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("name,field,n,form,qe", POLAR_CASES,
                         ids=[c[0] for c in POLAR_CASES])
def test_dual_polar_graphs_match_the_closed_form(name, field, n, form, qe):
    ps = build_polar_space(field, n, form)
    assert intersection_numbers(dual_polar_graph(ps)) == \
        dual_polar_array(ps.rank, field.q, qe)
