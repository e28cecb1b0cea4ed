"""The uniqueness question, settled by exhaustive census.

Two instructive instances:

1. n = 2k = 4, k = m = 2: the anchored census of isometric embeddings of
   the symplectic dual polar graph into Gamma_2(GF(2)^4) has 576 members
   and every one connects to the identity inclusion by an explicit
   invertible matrix: a single equivalence class, as expected.

2. n = 5, k = 3 (so 2k > n): the census splits.  Besides the 4032
   embeddings of the form M -> M + U there is a second, bigger family
   whose images share no common direction.  Dualizing its image family
   produces the line set of a parabolic quadric: over GF(2) the rank-2
   symplectic space and the parabolic quadric have the same dual polar
   graph, and the two realizations are genuinely inequivalent under
   automorphisms of the target Grassmann graph.  Uniqueness up to graph
   automorphism holds per family, not for the census as a whole.

This script re-derives all of that from scratch (about a minute).
"""

import numpy as np

from qgeom import Field, Form, build_polar_space, canonical_embedding
from qgeom.embed import (
    classify_embeddings,
    connecting_automorphism,
    search_embeddings,
)
from qgeom.errors import NotEquivalent
from qgeom.polar import Form as _Form
from qgeom.subspace import multi_intersection, nullspace

gf2 = Field(2)
SYMPLECTIC = Form(gf2, "alternating", 4,
                  gram=[[0, 1, 0, 0], [1, 0, 0, 0],
                        [0, 0, 0, 1], [0, 0, 1, 0]])

print("=== instance 1: n = 2k = 4 (one class) ===")
ps4 = build_polar_space(gf2, 4, SYMPLECTIC)
res4 = search_embeddings(ps4, 4, 2, anchor=True)
report = classify_embeddings(res4.embeddings)
print(f"anchored census: {len(res4.embeddings)} embeddings")
print(f"equivalence classes: {report['equivalence_classes']} "
      f"(witness kinds: {report['classes'][0]['witness_kinds']})")
assert report["equivalence_classes"] == 1

print("\n=== instance 2: n = 5, k = 3 (the census splits) ===")
ps5 = build_polar_space(gf2, 5, SYMPLECTIC)
res5 = search_embeddings(ps5, 5, 3, anchor=True)
star = [e for e in res5.embeddings
        if multi_intersection(list(e.images)).dim == 1]
flat = [e for e in res5.embeddings
        if multi_intersection(list(e.images)).dim == 0]
print(f"anchored census: {len(res5.embeddings)} embeddings "
      f"= {len(star)} with a common direction + {len(flat)} without")

base = canonical_embedding(ps5, 3)
w = connecting_automorphism(base, star[100])
print("star family: explicit witness connects the canonical embedding to "
      "an arbitrary member")
try:
    connecting_automorphism(base, flat[0])
    raise AssertionError("families unexpectedly connected")
except NotEquivalent:
    print("across families: provably no connecting automorphism "
          "(the common-direction dimension is an invariant)")
w = connecting_automorphism(flat[0], flat[12345])
print("flat family: members connect to each other "
      "(via the annihilator-conjugated fit)")

print("\n--- identifying the flat family ---")
duals = [img.annihilator() for img in flat[0].images]
cells = [(i, j) for i in range(5) for j in range(i, 5)]
rows = []
for D in duals:
    for v in D.all_vectors():
        rows.append([int(v[i]) & int(v[j]) for (i, j) in cells])
ker = nullspace(gf2, np.array(rows, dtype=np.uint8))
quad = np.zeros((5, 5), dtype=np.uint8)
for c, (i, j) in zip(ker[0], cells):
    quad[i, j] = c
print(f"unique quadratic form vanishing on the dualized images:\n{quad}")
ps_q = build_polar_space(gf2, 5, _Form(gf2, "quadratic", 5, quad=quad))
assert set(duals) == set(ps_q.maximals)
print(f"its polar space: {len(ps_q.points)} points, rank {ps_q.rank}, "
      f"{len(ps_q.maximals)} maximals -- and its maximal set IS the "
      "dualized image family")
print("\nconclusion: the dual polar graph here has two projectively "
      "inequivalent geometric realizations, one per classical form; "
      "each family is a single orbit under graph automorphisms")
