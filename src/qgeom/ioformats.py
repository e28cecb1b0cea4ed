"""File formats: graph6, CSV edge lists, canonical JSON, config loading.

All machine outputs are byte-deterministic: JSON is dumped with sorted
keys and a fixed layout, edge lists are sorted, and graph6 bytes follow
the published encoding exactly (vertex order is the graph's canonical
order, no relabeling).  ``parse_graph6`` is an independent decoder --
it shares no helpers with the encoder, so round-trip tests really do
cross two code paths.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import QGeomError
from .gf import Field, build_field
from .grassmann import FiniteGraph
from .polar import Form, build_form

ORDERING_VERSION = 1


# -- graph6 -------------------------------------------------------------------------

def write_graph6(g: FiniteGraph) -> bytes:
    """Encode in graph6 format, vertices in their existing order."""
    n = g.n_vertices
    if n > 258047:
        raise QGeomError("graph6 size beyond the supported range")
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:
        out.append(126)
        out.append(((n >> 12) & 63) + 63)
        out.append(((n >> 6) & 63) + 63)
        out.append((n & 63) + 63)
    bits = []
    adj_sets = [set(int(x) for x in nbrs) for nbrs in g.adj]
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if i in adj_sets[j] else 0)
    while len(bits) % 6:
        bits.append(0)
    for t in range(0, len(bits), 6):
        val = 0
        for b in bits[t: t + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def parse_graph6(data: bytes) -> tuple[int, set[tuple[int, int]]]:
    """Independent graph6 decoder: returns (vertex count, edge set)."""
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    data = data.rstrip(b"\n")
    vals = [b - 63 for b in data]
    if any(v < 0 or v > 63 for v in vals):
        raise QGeomError("invalid graph6 byte")
    if vals[0] != 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) >= 4 and vals[1] != 63:
            n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
            body = vals[4:]
        else:
            raise QGeomError("unsupported graph6 size header")
    need = n * (n - 1) // 2
    bitstream = []
    for v in body:
        for shift in range(5, -1, -1):
            bitstream.append((v >> shift) & 1)
    if len(bitstream) < need:
        raise QGeomError("graph6 payload too short")
    edges = set()
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bitstream[pos]:
                edges.add((row, col))
            pos += 1
    if any(bitstream[need:]):
        raise QGeomError("graph6 padding bits are not zero")
    return n, edges


# -- CSV and JSON --------------------------------------------------------------------

def write_edge_csv(g: FiniteGraph) -> str:
    lines = [f"{u},{v}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + ("\n" if lines else "")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def graph_json_obj(g: FiniteGraph, extra: dict | None = None) -> dict:
    obj = {
        "ordering_version": ORDERING_VERSION,
        "n_vertices": g.n_vertices,
        "vertices": [
            {"index": i, "basis": v.to_rows()} for i, v in enumerate(g.vertices)
        ],
        "adjacency": [[int(x) for x in nbrs] for nbrs in g.adj],
    }
    if extra:
        obj.update(extra)
    return obj


# -- configs --------------------------------------------------------------------------

def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def field_from_config(obj: dict, cap: int | None = None) -> Field:
    kwargs = {} if cap is None else {"cap": cap}
    return build_field(obj, **kwargs)


def polar_config(obj: dict, cap: int | None = None) -> tuple[Field, Form]:
    """A polar config bundles the field and the form: {"field": ..., "form": ...}."""
    fieldq = field_from_config(obj["field"], cap=cap)
    form = build_form(fieldq, obj["form"])
    return fieldq, form


def write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: str, obj) -> None:
    """Write ``canonical_json(obj)`` to path, byte for byte, without
    building the whole text: the encoder's pieces are joined and written
    in batches (one write per piece, as ``json.dump`` makes, is slower)."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while batch := "".join(itertools.islice(pieces, 1 << 14)):
            fh.write(batch)
        fh.write("\n")
