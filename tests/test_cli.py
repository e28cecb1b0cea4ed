import json
import os
import subprocess
import sys

import pytest

from qgeom.cli import run
from qgeom.gf import Field
from qgeom.grassmann import GrassmannGraph
from qgeom.embed import search_embeddings
from qgeom.ioformats import (canonical_json, graph_json_obj, parse_graph6, polar_config,
                             write_edge_csv, write_graph6, write_json)
from qgeom.polar import build_polar_space

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIGS, name)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# graph6 round trips through the independent parser
# ---------------------------------------------------------------------------

def test_graph6_known_answer():
    """Published format vector: 5 vertices, edges {02, 04, 13, 34} <-> 'DQc'."""
    from qgeom.grassmann import FiniteGraph

    g = FiniteGraph(range(5), [[2, 4], [3], [0], [1, 4], [0, 3]])
    assert write_graph6(g) == b"DQc"
    n, edges = parse_graph6(b"DQc")
    assert n == 5
    assert edges == {(0, 2), (0, 4), (1, 3), (3, 4)}


def test_graph6_roundtrip_small():
    g = GrassmannGraph(Field(2), 4, 2)
    n, edges = parse_graph6(write_graph6(g))
    assert n == 35
    assert edges == set(g.edges())


def test_graph6_roundtrip_large_header():
    g = GrassmannGraph(Field(2), 5, 2)  # 155 vertices: long size header
    n, edges = parse_graph6(write_graph6(g))
    assert n == 155
    assert edges == set(g.edges())


def test_edge_csv_sorted():
    g = GrassmannGraph(Field(2), 4, 2)
    lines = write_edge_csv(g).strip().split("\n")
    pairs = [tuple(map(int, ln.split(","))) for ln in lines]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)
    assert len(pairs) == 35 * 18 // 2


def test_write_json_is_canonical_json_byte_for_byte(tmp_path):
    """The streamed writer gives the bytes of canonical_json, on a graph
    export and on a census object like that of `qgeom embed search`."""
    g = GrassmannGraph(Field(2), 4, 2)
    field, form = polar_config(json.loads(read(cfg("w32.json"))))
    census = search_embeddings(build_polar_space(field, 4, form), 4, 2, anchor=False)
    objs = {
        "graph": graph_json_obj(g, extra={"q": 2, "n": 4, "k": 2}),
        "census": {"ordering_version": 1, "anchored": census.anchored,
                   "anchor_index": census.anchor_index, "count": len(census.members),
                   "embeddings": census.members.tolist()},
    }
    for name, obj in objs.items():
        path = tmp_path / f"{name}.json"
        write_json(str(path), obj)
        assert read(path) == canonical_json(obj).encode("utf-8")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exit_64():
    assert run(["bogus"]) == 64
    assert run(["grassmann", "--field", cfg("gf2.json")]) == 64  # missing n, k
    assert run(["grassmann", "--field", cfg("gf2.json"), "--n", "4", "--k", "2",
                "--export", "nope"]) == 64


def test_config_error_exit_65(tmp_path):
    assert run(["field", "--field", "/nonexistent.json"]) == 65
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 4, "e": 1}')
    assert run(["field", "--field", str(bad)]) == 65
    reducible = tmp_path / "red.json"
    reducible.write_text('{"p": 2, "e": 2, "modulus": [1, 0, 1]}')
    assert run(["field", "--field", str(reducible)]) == 65


def test_violation_exit_2():
    assert run(["embed", "canonical", "--polar", cfg("w32.json"),
                "--n", "4", "--k", "3"]) == 2


@pytest.mark.parametrize("argv", [
    ["embed", "search", "--polar", cfg("w32.json"), "--n", "4", "--k", "5"],
    ["embed", "canonical", "--polar", cfg("w32.json"), "--n", "4", "--k", "5"],
    ["embed", "classify", "--polar", cfg("w32.json"), "--n", "4", "--k", "-1"],
    ["grassmann", "--field", cfg("gf2.json"), "--n", "3", "--k", "5"],
    ["grassmann", "--field", cfg("gf2.json"), "--n", "3", "--k", "-1"],
])
def test_k_out_of_range_is_usage_error(argv, capsys):
    assert run(argv) == 64
    assert "usage error: --k" in capsys.readouterr().err


def test_k_at_the_range_ends_is_accepted():
    assert run(["grassmann", "--field", cfg("gf2.json"), "--n", "3", "--k", "0"]) == 0
    assert run(["grassmann", "--field", cfg("gf2.json"), "--n", "3", "--k", "3"]) == 0


def test_success_exit_0(tmp_path):
    out = tmp_path / "f.json"
    assert run(["field", "--field", cfg("gf4.json"), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["q"] == 4 and obj["modulus"] == [1, 1, 1]


def test_qgeom_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QGEOM_CAP", "10")
    assert run(["grassmann", "--field", cfg("gf2.json"), "--n", "4", "--k", "2"]) == 2
    monkeypatch.setenv("QGEOM_CAP", "not-a-number")
    assert run(["grassmann", "--field", cfg("gf2.json"), "--n", "4", "--k", "2"]) == 65


@pytest.mark.parametrize("value", ["-1", "0"])
def test_qgeom_cap_below_one_is_config_error(monkeypatch, capsys, value):
    monkeypatch.setenv("QGEOM_CAP", value)
    assert run(["grassmann", "--field", cfg("gf2.json"), "--n", "4", "--k", "2"]) == 65
    assert "config error: QGEOM_CAP" in capsys.readouterr().err


def test_negative_budget_is_usage_error(capsys):
    assert run(["embed", "classify", "--polar", cfg("w32.json"), "--n", "4",
                "--k", "2", "--budget", "-5"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --budget -5 is negative\n"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run(["polar", "--polar", cfg("w32.json"), "--n", "4", "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"usage error: cannot write {out}")


@pytest.mark.parametrize("argv", [
    ["embed", "classify", "--polar", cfg("w32.json"), "--n", "4", "--k", "2",
     "--out", "{missing}/cls.json"],
    ["embed", "search", "--polar", cfg("w32.json"), "--n", "4", "--k", "2",
     "--out", "{missing}/s.json"],
    ["grassmann", "--field", cfg("gf2.json"), "--n", "4", "--k", "2",
     "--export", "g6:{tmp}/ok.g6", "--export", "csv:{missing}/g.csv"],
    ["polar", "--polar", cfg("w32.json"), "--n", "4", "--export", "json:{tmp}"],
])
def test_output_paths_are_checked_before_any_work(argv, tmp_path, capsys, monkeypatch):
    """An unwritable --out or --export is a usage error raised before the
    config is read or anything is built: exit 64, one stderr line, no
    stdout, and no file written."""
    import qgeom.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking the output paths")

    for name in ("polar_config", "field_from_config", "search_embeddings"):
        monkeypatch.setattr(cli, name, no_work)
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
    assert run(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("usage error: cannot write ")
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# grassmann command
# ---------------------------------------------------------------------------

def test_grassmann_exports(tmp_path):
    g6 = tmp_path / "g.g6"
    csv = tmp_path / "g.csv"
    js = tmp_path / "g.json"
    summ = tmp_path / "s.json"
    code = run(["grassmann", "--field", cfg("gf2.json"), "--n", "4", "--k", "2",
                "--export", f"g6:{g6}", "--export", f"csv:{csv}",
                "--export", f"json:{js}", "--intersection-array",
                "--out", str(summ)])
    assert code == 0
    n, edges = parse_graph6(read(g6))
    assert n == 35 and len(edges) == 315
    csv_pairs = {tuple(map(int, ln.split(",")))
                 for ln in csv.read_text().strip().split("\n")}
    assert csv_pairs == edges
    jobj = json.loads(js.read_text())
    assert jobj["n_vertices"] == 35
    sobj = json.loads(summ.read_text())
    assert sobj["gaussian_binomial"] == 35
    assert sobj["intersection_array"] == {"1": [1, 9, 8], "2": [9, 9, 0]}


def test_grassmann_duality_check(tmp_path):
    summ = tmp_path / "s.json"
    code = run(["grassmann", "--field", cfg("gf2.json"), "--n", "4", "--k", "2",
                "--duality-check", "--out", str(summ)])
    assert code == 0
    perm = json.loads(summ.read_text())["duality_permutation"]
    assert sorted(perm) == list(range(35))


# ---------------------------------------------------------------------------
# polar command
# ---------------------------------------------------------------------------

def test_polar_summary_and_export(tmp_path):
    summ = tmp_path / "p.json"
    g6 = tmp_path / "p.g6"
    code = run(["polar", "--polar", cfg("h34.json"), "--n", "4",
                "--export", f"g6:{g6}", "--intersection-array",
                "--out", str(summ)])
    assert code == 0
    obj = json.loads(summ.read_text())
    assert obj["n_points"] == 45 and obj["n_maximals"] == 27
    n, edges = parse_graph6(read(g6))
    assert n == 27 and len(edges) == 27 * 10 // 2


def test_polar_degenerate_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"p": 2, "e": 1},
        "form": {"kind": "alternating", "form_dim": 2, "gram": [[0, 0], [0, 0]]},
    }))
    assert run(["polar", "--polar", str(bad), "--n", "2"]) == 65


# ---------------------------------------------------------------------------
# embed commands
# ---------------------------------------------------------------------------

def test_embed_canonical_verify_analyze(tmp_path):
    table = tmp_path / "emb.json"
    assert run(["embed", "canonical", "--polar", cfg("w32.json"),
                "--n", "5", "--k", "3", "--out", str(table)]) == 0
    obj = json.loads(table.read_text())
    assert obj["u_basis"] == [[0, 0, 0, 0, 1]]
    # feed the table back through verify
    emb_file = tmp_path / "table.json"
    emb_file.write_text(json.dumps(obj["table"]))
    rep = tmp_path / "verify.json"
    assert run(["embed", "verify", "--polar", cfg("w32.json"), "--n", "5",
                "--k", "3", "--embedding", str(emb_file), "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["report"]["pairs_checked"] == 105
    an = tmp_path / "analyze.json"
    assert run(["embed", "analyze", "--polar", cfg("w32.json"), "--n", "5",
                "--k", "3", "--out", str(an)]) == 0
    structure = json.loads(an.read_text())["structure"]
    assert structure["U"] == [[0, 0, 0, 0, 1]]
    assert structure["lines_ok"] is True


def test_embed_search_and_classify_small(tmp_path):
    out = tmp_path / "cls.json"
    code = run(["embed", "classify", "--polar", cfg("w32.json"),
                "--n", "4", "--k", "2", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["count"] == 576
    assert obj["classification"]["equivalence_classes"] == 1


def test_witness_budget_exhausted_exits_3(capsys):
    assert run(["embed", "classify", "--polar", cfg("w32.json"), "--n", "4",
                "--k", "2", "--budget", "0"]) == 3
    assert capsys.readouterr().err == "budget exceeded: witness search passed 0 candidates\n"


def test_census_member_budget_is_a_violation(monkeypatch, capsys):
    import qgeom.embed as embed

    monkeypatch.setattr(embed, "_CENSUS_MEMBER_BYTES", 1000)
    assert run(["embed", "search", "--polar", cfg("w32.json"), "--n", "4", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "violation: census members pass 1000 bytes\n"


BAD_ENTRIES = [300, -1, 1.5]


@pytest.mark.parametrize("value", BAD_ENTRIES)
def test_bad_gram_entry_is_a_config_error(value, tmp_path, capsys):
    """An entry outside 0..q-1 or not an integer is one config error line,
    not a traceback and not a truncated value."""
    obj = json.loads(read(cfg("w32.json")))
    obj["form"]["gram"][0][1] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["polar", "--polar", str(bad), "--n", "4"]) == 65
    assert capsys.readouterr().err == f"config error: entry {value!r} out of range for GF(2)\n"


@pytest.mark.parametrize("value", BAD_ENTRIES)
def test_bad_embedding_entry_is_a_config_error(value, tmp_path, capsys):
    table = tmp_path / "canonical.json"
    assert run(["embed", "canonical", "--polar", cfg("w32.json"),
                "--n", "5", "--k", "3", "--out", str(table)]) == 0
    rows = json.loads(table.read_text())["table"]
    rows[0]["image_basis"][0][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rows))
    capsys.readouterr()
    assert run(["embed", "verify", "--polar", cfg("w32.json"), "--n", "5",
                "--k", "3", "--embedding", str(bad)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: entry {value!r} out of range for GF(2)\n"


@pytest.mark.parametrize("value", [0.7, "0", True])
def test_bad_source_index_is_a_config_error(value, tmp_path, capsys):
    table = tmp_path / "canonical.json"
    assert run(["embed", "canonical", "--polar", cfg("w32.json"),
                "--n", "5", "--k", "3", "--out", str(table)]) == 0
    rows = json.loads(table.read_text())["table"]
    rows[0]["source_index"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rows))
    capsys.readouterr()
    assert run(["embed", "verify", "--polar", cfg("w32.json"), "--n", "5",
                "--k", "3", "--embedding", str(bad)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: source_index {value!r} is not an integer\n"


@pytest.mark.parametrize("config, message", [
    ({"p": 2.9}, "p 2.9 is not an integer"),
    ({"p": "3"}, "p '3' is not an integer"),
    ({"p": 2, "e": True}, "e True is not an integer"),
    ({"p": 2, "e": 2, "modulus": [1.5, 1, 1]}, "modulus entry 1.5 is not an integer in 0..1"),
    ({"p": 2, "e": 2, "modulus": [3, 1, 1]}, "modulus entry 3 is not an integer in 0..1"),
])
def test_bad_field_number_is_a_config_error(config, message, tmp_path, capsys):
    """p, e and the modulus entries are never truncated, parsed or reduced."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert run(["field", "--field", str(bad)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("value", [4.0, 4.7, "4", True])
def test_bad_form_dim_is_a_config_error(value, tmp_path, capsys):
    obj = json.loads(read(cfg("w32.json")))
    obj["form"]["form_dim"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["polar", "--polar", str(bad), "--n", "4"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: form_dim {value!r} is not an integer\n"


@pytest.mark.parametrize("option", [["--workers", "2"], ["--workers=2"]])
def test_workers_option_is_a_usage_error(option, capsys):
    assert run(option + ["grassmann", "--field", cfg("gf2.json"),
                         "--n", "4", "--k", "2"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_embed_search_output(tmp_path):
    out = tmp_path / "search.json"
    assert run(["embed", "search", "--polar", cfg("q42.json"),
                "--n", "5", "--k", "2", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["anchored"] is True
    assert obj["count"] == len(obj["embeddings"])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_reruns_byte_identical(tmp_path):
    files1 = [tmp_path / f"a.{ext}" for ext in ("g6", "csv", "json")]
    files2 = [tmp_path / f"b.{ext}" for ext in ("g6", "csv", "json")]
    for files in (files1, files2):
        code = run(["grassmann", "--field", cfg("gf3.json"), "--n", "4",
                    "--k", "2",
                    "--export", f"g6:{files[0]}",
                    "--export", f"csv:{files[1]}",
                    "--export", f"json:{files[2]}"])
        assert code == 0
    for a, b in zip(files1, files2):
        assert read(a) == read(b)


def test_entry_point_subprocess(tmp_path):
    """End-to-end through a fresh interpreter."""
    out = tmp_path / "sum.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qgeom.cli", "grassmann",
         "--field", cfg("gf2.json"), "--n", "4", "--k", "2",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "35 vertices" in proc.stdout
    assert json.loads(out.read_text())["n_vertices"] == 35
