"""Isometric embeddings of a dual polar graph in a bigger Grassmann graph.

The rank-2 symplectic space on 4 of 5 coordinates embeds its 15 maximals
into the 3-dim subspaces of GF(2)^5 by M -> M + U, where the extra
direction U avoids every pairwise sum of maximals.  From any verified
embedding the structure is recovered again: the common subspace U below
all images, the reduced embedding into the quotient V/U, the induced map
on polar points, and full projective lines as line images.
"""

from qgeom import (
    Field,
    Form,
    analyze_embedding,
    build_polar_space,
    canonical_embedding,
    check_line_images,
    extract_star_subspace,
    induce_point_map,
    reduce_to_quotient,
    verify_isometric,
)
from qgeom.errors import NoValidU

gf2 = Field(2)
form = Form(gf2, "alternating", 4,
            gram=[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

print("=== the embedding M -> M + U into Gamma_3(GF(2)^5) ===")
ps = build_polar_space(gf2, 5, form)
e = canonical_embedding(ps, 3)
print(f"chosen star direction U: {e.meta['u_basis']}")
report = verify_isometric(e)
print(f"distance preservation: {report['pairs_checked']} pairs, "
      f"BFS cross-checked: {report['bfs_crosschecked']}")

print("\n=== recovering the structure from the table alone ===")
U = extract_star_subspace(e)
print(f"common subspace of all 15 images: {U.to_rows()} (dim {U.dim})")
g = reduce_to_quotient(e, U)
print(f"reduced to a rank-2 embedding into Gamma_2 of the quotient "
      f"(dimension {g.target_n})")
q_map = induce_point_map(g)
print(f"induced point map: {len(q_map)} distinct 1-dim images")
lines = check_line_images(ps, g, q_map)
print(f"line images: {lines['full_lines']} of {lines['lines_checked']} "
      f"lines map onto full projective lines")
sr = analyze_embedding(e)
print(f"span of the point images: dimension {sr.w_prime.dim} "
      f"(matches the polar span {sr.v_prime.dim})")

print("\n=== no room in 4 dimensions ===")
ps4 = build_polar_space(gf2, 4, form)
try:
    canonical_embedding(ps4, 3)
except NoValidU as ex:
    print(f"k=3 inside GF(2)^4 fails as it must: {ex}")
    print("(opposite maximals already span the whole space)")

print("\nall checks passed")
