"""Batch front end: config ingestion, pipeline orchestration, file export.

Subcommands: ``field``, ``grassmann``, ``polar``, ``embed`` (with the
actions canonical / verify / analyze / search / classify).  Humans get a
summary on stdout; machines get byte-deterministic files via ``--out``
and ``--export``.  Exit codes: 0 success, 2 computation violation,
3 search budget exceeded, 64 usage error, 65 config validation error.
The environment variable QGEOM_CAP overrides the global enumeration cap.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .errors import (
    AmbientMismatch,
    DegenerateForm,
    DimensionMismatch,
    FieldTooLarge,
    KindMismatch,
    NotPrime,
    QGeomError,
    RankZero,
    ReducibleModulus,
    SearchBudgetExceeded,
)
from .gf import DEFAULT_FIELD_CAP
from .grassmann import (
    DEFAULT_ENUM_CAP,
    GrassmannGraph,
    duality_permutation,
    gaussian_binomial,
    intersection_numbers,
)
from .polar import build_polar_space, dual_polar_graph
from .embed import (
    analyze_embedding,
    canonical_embedding,
    classify_embeddings,
    embedding_from_json_obj,
    search_embeddings,
    verify_isometric,
)
from .ioformats import (
    ORDERING_VERSION,
    field_from_config,
    graph_json_obj,
    load_json,
    polar_config,
    write_bytes,
    write_edge_csv,
    write_graph6,
    write_json,
    write_text,
)


class UsageError(Exception):
    pass


class ConfigError(Exception):
    """Wraps any failure while loading or validating configuration inputs."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="qgeom", description=__doc__)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect, every "
                        "computation runs in this process")
    p.add_argument("--field-cap", type=int, default=DEFAULT_FIELD_CAP,
                   help="maximum permitted field order")
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("field", help="validate a field config and summarize it")
    pf.add_argument("--field", required=True, help="field config JSON path")
    pf.add_argument("--out", help="write the summary JSON here")

    pg = sub.add_parser("grassmann", help="build a Grassmann graph")
    pg.add_argument("--field", required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--export", action="append", default=[],
                    metavar="FMT:PATH", help="g6:..., csv:..., or json:...")
    pg.add_argument("--intersection-array", action="store_true")
    pg.add_argument("--duality-check", action="store_true",
                    help="verify the annihilator graph isomorphism onto k' = n - k")
    pg.add_argument("--out", help="summary JSON path")

    pp = sub.add_parser("polar", help="build a polar space and its dual polar graph")
    pp.add_argument("--polar", required=True, help="config JSON with field and form")
    pp.add_argument("--n", type=int, required=True, help="ambient dimension")
    pp.add_argument("--export", action="append", default=[], metavar="FMT:PATH")
    pp.add_argument("--intersection-array", action="store_true")
    pp.add_argument("--out", help="summary JSON path")

    pe = sub.add_parser("embed", help="embedding pipelines")
    pe.add_argument("action",
                    choices=["canonical", "verify", "analyze", "search", "classify"])
    pe.add_argument("--polar", required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--anchor", action=argparse.BooleanOptionalAction, default=True)
    pe.add_argument("--budget", type=int, default=10_000)
    pe.add_argument("--embedding", help="embedding table JSON (verify/analyze)")
    pe.add_argument("--out", help="result JSON path")
    return p


def _parse_exports(specs: list[str]) -> list[tuple[str, str]]:
    out = []
    for spec in specs:
        fmt, sep, path = spec.partition(":")
        if not sep or fmt not in ("g6", "csv", "json") or not path:
            raise UsageError(f"bad export spec {spec!r}; use g6:PATH, csv:PATH or json:PATH")
        out.append((fmt, path))
    return out


def _check_writable(path: str) -> None:
    """Raise the OSError that writing path would, without touching it: it
    must not be a directory, and it or its directory must be writable."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOENT
        else:
            code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


def _config_phase(fn, *fn_args, **fn_kwargs):
    """Run a config-loading step; any failure becomes a ConfigError."""
    try:
        return fn(*fn_args, **fn_kwargs)
    except (KeyError, ValueError, TypeError, OSError, json.JSONDecodeError,
            NotPrime, ReducibleModulus, FieldTooLarge, KindMismatch,
            AmbientMismatch, DimensionMismatch, DegenerateForm,
            RankZero) as ex:
        raise ConfigError(str(ex)) from ex


def _export_graph(g, exports, extra=None) -> None:
    for fmt, path in exports:
        if fmt == "g6":
            write_bytes(path, write_graph6(g) + b"\n")
        elif fmt == "csv":
            write_text(path, write_edge_csv(g))
        else:
            write_json(path, graph_json_obj(g, extra=extra))


def _cmd_field(args) -> int:
    fieldq = _config_phase(
        lambda: field_from_config(load_json(args.field), cap=args.field_cap))
    summary = {
        "ordering_version": ORDERING_VERSION,
        "p": fieldq.p,
        "e": fieldq.e,
        "q": fieldq.q,
        "modulus": list(fieldq.modulus),
        "elements": fieldq.elements(),
    }
    print(f"field: GF({fieldq.q}) = GF({fieldq.p}^{fieldq.e}), "
          f"modulus {list(fieldq.modulus)}")
    if args.out:
        write_json(args.out, summary)
    return 0


def _cmd_grassmann(args, cap: int) -> int:
    fieldq = _config_phase(
        lambda: field_from_config(load_json(args.field), cap=args.field_cap))
    g = GrassmannGraph(fieldq, args.n, args.k, cap=cap)
    count = gaussian_binomial(args.n, args.k, fieldq.q)
    summary = {
        "ordering_version": ORDERING_VERSION,
        "q": fieldq.q,
        "n": args.n,
        "k": args.k,
        "n_vertices": g.n_vertices,
        "gaussian_binomial": count,
    }
    print(f"Grassmann graph: q={fieldq.q} n={args.n} k={args.k}; "
          f"{g.n_vertices} vertices (formula {count})")
    if args.intersection_array:
        table = intersection_numbers(g)
        summary["intersection_array"] = {
            str(i): list(v) for i, v in table.items()
        }
        print("intersection numbers:",
              {i: v for i, v in table.items()})
    if args.duality_check:
        g_dual = GrassmannGraph(fieldq, args.n, args.n - args.k, cap=cap)
        perm = duality_permutation(g, g_dual)
        ok = all(
            sorted(int(perm[v]) for v in g.adj[i]) == list(g_dual.adj[perm[i]])
            for i in range(g.n_vertices)
        )
        if not ok:
            raise QGeomError("duality map failed to preserve adjacency")
        summary["duality_permutation"] = [int(x) for x in perm]
        print(f"duality: adjacency-preserving map onto k'={args.n - args.k} verified")
    _export_graph(g, args.export, extra={"q": fieldq.q, "n": args.n, "k": args.k})
    if args.out:
        write_json(args.out, summary)
    return 0


def _cmd_polar(args, cap: int) -> int:
    def setup():
        fieldq, form = polar_config(load_json(args.polar), cap=args.field_cap)
        return build_polar_space(fieldq, args.n, form, cap=cap)

    ps = _config_phase(setup)
    g = dual_polar_graph(ps)
    summary = {"ordering_version": ORDERING_VERSION}
    summary.update(ps.summary())
    summary["points"] = [p.to_rows()[0] for p in ps.points]
    summary["lines"] = [l.to_rows() for l in ps.lines]
    summary["maximals"] = [m.to_rows() for m in ps.maximals]
    print(f"polar space: {len(ps.points)} points, {len(ps.lines)} lines, "
          f"rank {ps.rank}, {len(ps.maximals)} maximals; dual polar graph "
          f"degrees {sorted(set(g.degree_sequence()))}")
    if args.intersection_array:
        table = intersection_numbers(g)
        summary["intersection_array"] = {str(i): list(v) for i, v in table.items()}
        print("intersection numbers:", {i: v for i, v in table.items()})
    _export_graph(g, args.export, extra={"kind": ps.form.kind})
    if args.out:
        write_json(args.out, summary)
    return 0


def _cmd_embed(args, cap: int) -> int:
    def setup():
        fieldq, form = polar_config(load_json(args.polar), cap=args.field_cap)
        return build_polar_space(fieldq, args.n, form, cap=cap)

    ps = _config_phase(setup)
    out_obj = {
        "ordering_version": ORDERING_VERSION,
        "n": args.n,
        "k": args.k,
        "action": args.action,
    }

    if args.action == "canonical":
        e = canonical_embedding(ps, args.k)
        out_obj["u_basis"] = e.meta["u_basis"]
        out_obj["table"] = e.as_json_obj()
        print(f"canonical embedding found; star subspace basis {e.meta['u_basis']}")
        if args.out:
            write_json(args.out, out_obj)
        return 0

    if args.action in ("verify", "analyze"):
        if args.embedding:
            e = _config_phase(
                lambda: embedding_from_json_obj(ps, args.k,
                                                load_json(args.embedding)))
        else:
            e = canonical_embedding(ps, args.k)
        if args.action == "verify":
            report = verify_isometric(e)
            out_obj["report"] = report
            print(f"isometric: {report['pairs_checked']} pairs checked"
                  + (" (BFS cross-checked)" if report["bfs_crosschecked"] else ""))
        else:
            sr = analyze_embedding(e)
            out_obj["structure"] = sr.as_json_obj()
            print(f"structure: dim U = {sr.star_subspace.dim}, "
                  f"{len(sr.point_map)} point images, lines_ok = {sr.lines_ok}")
        if args.out:
            write_json(args.out, out_obj)
        return 0

    result = search_embeddings(ps, args.n, args.k, anchor=args.anchor,
                               workers=args.workers)
    # the node count describes the search, not its result; it stays out
    # of the machine output, which holds only the census itself
    out_obj.update({
        "anchored": result.anchored,
        "anchor_index": result.anchor_index,
        "count": len(result.members),
        "embeddings": result.members.tolist(),
    })
    print(f"search: {len(result.members)} isometric embeddings "
          f"({'anchored' if result.anchored else 'full census'}, "
          f"{result.nodes} nodes)")

    if args.action == "classify":
        report = classify_embeddings(result.embeddings, budget=args.budget)
        out_obj["classification"] = report
        print(f"equivalence classes: {report['equivalence_classes']}")
        if args.out:
            write_json(args.out, out_obj)
        return 0 if report["equivalence_classes"] <= 1 else 2

    if args.out:
        write_json(args.out, out_obj)
    return 0


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "k", None) is not None and not 0 <= args.k <= args.n:
            parser.error(f"--k {args.k} outside 0..{args.n}")
        if getattr(args, "budget", 0) < 0:
            parser.error(f"--budget {args.budget} is negative")
        if hasattr(args, "export"):
            args.export = _parse_exports(args.export)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 64

    cap = DEFAULT_ENUM_CAP
    if os.environ.get("QGEOM_CAP"):
        try:
            cap = int(os.environ["QGEOM_CAP"])
        except ValueError:
            cap = 0
        if cap < 1:
            print("config error: QGEOM_CAP must be a positive integer", file=sys.stderr)
            return 65

    try:
        # every destination is checked before any computation
        for _, path in getattr(args, "export", []):
            _check_writable(path)
        if args.out:
            _check_writable(args.out)
        if args.command == "field":
            return _cmd_field(args)
        if args.command == "grassmann":
            return _cmd_grassmann(args, cap)
        if args.command == "polar":
            return _cmd_polar(args, cap)
        return _cmd_embed(args, cap)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 64
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 65
    except OSError as ex:
        # every input is read under _config_phase, so this is an output
        print(f"usage error: cannot write {ex.filename}: {ex.strerror}", file=sys.stderr)
        return 64
    except SearchBudgetExceeded as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except QGeomError as ex:
        print(f"violation: {ex}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
