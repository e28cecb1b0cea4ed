"""Reference figures kept out of the workloads: each is measured once.

    python3 perfbench/reference.py

1. Gamma_3(GF(2)^6): Grassmann graph build plus all-pairs BFS.
2. Criterion 7 in full: the micro census, the family split, the analysis
   of every star-family member, a witness from f0 to each, and the
   witness for every pair of star-family members (8,126,496 pairs).
3. The micro census with workers=1 and workers=2.

Prints one JSON object of wall times in seconds.  These take minutes,
so they are not part of ``run.py``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from qgeom.embed import (  # noqa: E402
    analyze_embedding,
    canonical_embedding,
    connecting_automorphism,
    search_embeddings,
)
from qgeom.grassmann import GrassmannGraph, grassmann_graph_cached  # noqa: E402
from qgeom.ioformats import field_from_config, polar_config  # noqa: E402
from qgeom.polar import build_polar_space  # noqa: E402
from qgeom.subspace import multi_intersection  # noqa: E402

from workloads import W32  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def grassmann_6_3() -> dict:
    g, build = timed(GrassmannGraph, field_from_config({"p": 2}), 6, 3)
    _, bfs = timed(lambda: g.distance_matrix)
    return {"vertices": g.n_vertices, "build_s": build, "bfs_s": bfs}


def micro_space():
    F, form = polar_config(W32)
    return F, build_polar_space(F, 5, form)


def census_workers() -> dict:
    out = {}
    for workers in (1, 2):
        grassmann_graph_cached.cache_clear()
        F, ps = micro_space()
        canonical_embedding(ps, 3)
        grassmann_graph_cached(F, 5, 3).distance_matrix
        res, secs = timed(search_embeddings, ps, 5, 3, anchor=True, workers=workers)
        out[f"workers_{workers}_s"] = secs
        out["members"] = len(res.embeddings)
    return out


def criterion_7() -> dict:
    grassmann_graph_cached.cache_clear()
    t0 = time.perf_counter()
    _, ps = micro_space()
    base = canonical_embedding(ps, 3)
    res = search_embeddings(ps, 5, 3, anchor=True)
    star = [e for e in res.embeddings if multi_intersection(list(e.images)).dim == 1]
    t_census = time.perf_counter() - t0
    for e in star:
        analyze_embedding(e)
        connecting_automorphism(base, e)
    t_members = time.perf_counter() - t0 - t_census
    pairs = 0
    for i in range(len(star)):
        for j in range(i + 1, len(star)):
            connecting_automorphism(star[i], star[j])
            pairs += 1
    total = time.perf_counter() - t0
    return {"star_members": len(star), "pairs": pairs, "census_and_split_s": t_census,
            "star_analysis_and_base_witness_s": t_members,
            "pair_witnesses_s": total - t_census - t_members, "total_s": total}


def main() -> int:
    out = {"grassmann_6_3": grassmann_6_3(), "census_workers": census_workers(),
           "criterion_7": criterion_7()}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
