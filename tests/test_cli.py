import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from loghurwitz import cli
from loghurwitz.cartier import BivariantForm, twisted_cartier
from loghurwitz.cli import (
    EXIT_DOMAIN,
    EXIT_FIELD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    _text_value,
    example_graphs,
    main,
    run_example6,
)
from loghurwitz.expr import MAX_POWER_DEGREE
from loghurwitz.ffield import parse_field
from loghurwitz.loci import ZeroPolePattern, _search, locus_search
from loghurwitz.ratfunc import INFINITY, Place, RationalFunction
from loghurwitz.strata import (
    AS,
    ETALE,
    MAX_ENUM_CANDIDATES,
    HurwitzData,
    LevelGraph,
    Marking,
    SourceEdge,
    SourceVertex,
    TargetEdge,
    TargetVertex,
    enumerate_components,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def emitted(payload, fmt):
    """The bytes emit writes for payload in --format json or text."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return "".join(f"{key}: {_text_value(payload[key])}\n" for key in sorted(payload))


# -- expression subcommands ---------------------------------------------------


def test_tc_example(capsys):
    code, out = run(capsys, "tc", "--field", "2^2", "--expr", "y*(y-1)")
    assert code == EXIT_OK
    assert out == '{"classification":"quasi-exact","result":"1"}\n'


def test_cartier_subcommand(capsys):
    code, obj = run_json(capsys, "cartier", "--field", "3^1", "--expr", "y^2")
    assert code == EXIT_OK
    assert obj["result"] == "1"


def test_exact_subcommand(capsys):
    code, obj = run_json(capsys, "exact", "--field", "2^4", "--expr", "y^2*(y-1)^2")
    assert code == EXIT_OK and obj["exact"] is True


def test_quasi_exact_with_bindings(capsys):
    code, obj = run_json(
        capsys,
        "quasi-exact", "--field", "2^4",
        "--expr", "y*(y-1)*(y-l)/(y-m)^2",
        "--bind", "l=w^2", "--bind", "m=w",
    )
    assert code == EXIT_OK
    assert obj["quasi_exact"] is True and obj["witness"] == "1"


@pytest.mark.parametrize("binding", ["y=1", "w=1", "1=2", "=1", " =1", "l-1=2", "\u00e9=1", "l"])
def test_bindings_no_expression_can_read_exit_parse(capsys, binding):
    """The variable y and the generator w are read before any binding, and a name is [A-Za-z_][A-Za-z_0-9]*."""
    code, out = run(capsys, "tc", "--field", "2^2", "--expr", "y", "--bind", binding)
    assert (code, out.count("\n"), json.loads(out)["error"]) == (EXIT_PARSE, 1, "parse")
    assert repr(binding.partition("=")[0].strip()) in json.loads(out)["message"]


def test_bindings_keep_their_names_after_stripping(capsys):
    code, out = run(capsys, "tc", "--field", "2^2", "--expr", "y*l", "--bind", " l = w ", "--bind", "_k1=1")
    assert (code, out) == (EXIT_OK, '{"classification":"quasi-exact","result":"w+1"}\n')


@pytest.mark.parametrize("command", ["cartier", "tc", "exact", "quasi-exact", "ascover"])
def test_expression_subcommands_refuse_dot(capsys, command):
    """Only strata draws DOT; argparse's wording of the refusal varies by Python version, so it is not pinned."""
    code, out = run(capsys, command, "--field", "2^2", "--expr", "1/y", "--format", "dot")
    assert (code, out.count("\n"), json.loads(out)["error"]) == (EXIT_PARSE, 1, "parse")


def test_quasi_exact_over_largest_odd_field(capsys):
    # GF(3^10) is inside MAX_ORDER; tc(w^3 y^2) = w
    code, obj = run_json(capsys, "quasi-exact", "--field", "3^10", "--expr", "w^3*y^2")
    assert code == EXIT_OK
    assert obj == {"quasi_exact": True, "witness": "w", "witness_index": 3}


def test_ascover_subcommand(capsys):
    code, obj = run_json(capsys, "ascover", "--field", "2^4", "--expr", "y^3")
    assert code == EXIT_OK
    assert obj["conductors"] == [4] and obj["genus"] == 1
    assert obj["trace_orders"]["inf"]["log"] == 4


# -- determinism and formats --------------------------------------------------


def test_byte_identical_json(capsys):
    args = ("loci", "search", "--field", "2^4", "--pattern", "1,1,1,1,-2", "--kind", "quasi-exact")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_text_format(capsys):
    code, out = run(capsys, "tc", "--field", "2^2", "--expr", "y*(y-1)", "--format", "text")
    assert code == EXIT_OK
    assert "classification: quasi-exact" in out


def test_dot_format(capsys, tmp_path):
    G = example_graphs()[0]
    path = tmp_path / "g.json"
    path.write_text(G.to_json())
    code, out = run(capsys, "strata", "dim", "--file", str(path), "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph")


def test_json_and_text_never_build_dot(capsys, monkeypatch, tmp_path):
    """Only --format dot builds DOT text: with to_dot broken the other formats read as before."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(example_graphs()[0].to_json())
    obj = example_graphs()[0].to_json_obj()
    obj["source"]["edges"][0]["slope"] = 2
    bad.write_text(json.dumps(obj))
    calls = [("strata", "enumerate", "--datum", "2,1,0,4", "--lambda", "2,2,2,2", "--max-vertices", "6")]
    for cmd in ("validate", "dim", "monoid"):
        calls += [("strata", cmd, "--file", str(good)), ("strata", cmd, "--file", str(bad))]
    calls = [(*argv, "--format", fmt) for argv in calls for fmt in ("json", "text")]
    want = [run(capsys, *argv) for argv in calls]

    def broken(self):
        raise RuntimeError("to_dot called outside --format dot")

    monkeypatch.setattr(LevelGraph, "to_dot", broken)
    assert [run(capsys, *argv) for argv in calls] == want
    assert {code for code, _ in want} == {EXIT_OK, EXIT_DOMAIN}


# -- error codes --------------------------------------------------------------


def test_parse_error_code(capsys):
    code, obj = run_json(capsys, "tc", "--field", "2^2", "--expr", "y*(y-1")
    assert code == EXIT_PARSE and obj["error"] == "parse"


def test_power_degree_bound_is_domain_error(capsys):
    start = time.monotonic()
    code, out = run(capsys, "tc", "--field", "2^2", "--expr", "y^99999999999")
    assert time.monotonic() - start < 1.0
    assert code == EXIT_DOMAIN and out.count("\n") == 1
    obj = json.loads(out)
    assert obj["error"] == "domain" and str(MAX_POWER_DEGREE) in obj["message"]


def test_deep_nesting_is_domain_error(capsys):
    code, out = run(capsys, "tc", "--field", "2", "--expr", "(" * 2000 + "y" + ")" * 2000)
    assert code == EXIT_DOMAIN and out.count("\n") == 1
    assert json.loads(out)["error"] == "domain"


def test_constant_power_has_no_degree_bound(capsys):
    code, obj = run_json(capsys, "tc", "--field", "2^2", "--expr", "w^99999999999")
    assert code == EXIT_OK and obj["classification"] == "exact"


def test_field_error_code(capsys):
    code, obj = run_json(capsys, "tc", "--field", "9^1", "--expr", "y")
    assert code == EXIT_FIELD and obj["error"] == "field"


def test_missing_field_error(capsys, monkeypatch):
    monkeypatch.delenv("LOGHURWITZ_FIELD", raising=False)
    code, obj = run_json(capsys, "tc", "--expr", "y")
    assert code == EXIT_FIELD


def test_env_var_field(capsys, monkeypatch):
    monkeypatch.setenv("LOGHURWITZ_FIELD", "2^2")
    code, obj = run_json(capsys, "tc", "--expr", "y*(y-1)")
    assert code == EXIT_OK and obj["result"] == "1"


@pytest.mark.parametrize("text", [
    "{not json",
    "[" * 100_000 + "]" * 100_000,  # json raises RecursionError
    pytest.param('{"p": ' + "1" * 5000 + "}", marks=pytest.mark.skipif(  # json raises the int-digits ValueError
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000, reason="no int-digits limit below 5000")),
], ids=["syntax", "deep", "long-int"])
def test_schema_error_code(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run(capsys, "strata", "validate", "--file", str(path))
    assert code == EXIT_SCHEMA and out.count("\n") == 1 and json.loads(out)["error"] == "schema"


def test_undecodable_graph_file_is_schema_error(capsys, tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, obj = run_json(capsys, "strata", "validate", "--file", str(path))
    assert code == EXIT_SCHEMA and obj["error"] == "schema"


def test_short_datum_is_parse_error(capsys):
    code, obj = run_json(capsys, "strata", "enumerate", "--datum", "2,1", "--lambda", "2,2")
    assert code == EXIT_PARSE and obj["error"] == "parse"


# each integer field of a graph file: its path in the JSON object
INTEGER_FIELDS = {
    "p": ("p",), "genus": ("source", "vertices", 0, "genus"), "level": ("source", "vertices", 0, "level"),
    "target-level": ("target", "vertices", 0, "level"), "slope": ("source", "edges", 0, "slope"),
    "lambda": ("markings", 0, "lambda"), "xi": ("markings", 0, "xi"),
}


@pytest.mark.parametrize("field, value", [("p", "x"), ("p", float("inf")), ("p", float("nan"))] + [
    (field, value) for field in INTEGER_FIELDS for value in (True, False, 3.9, "3", " 3 ", "\uff13")])
def test_non_integer_graph_field_is_schema_error(capsys, tmp_path, field, value):
    """A bool, a fraction or a string of digits (full-width ones too), which int() would take, is refused as "x" is.

    So are the JSON extensions inf and nan.
    """
    obj = example_graphs()[0].to_json_obj()
    *parents, key = INTEGER_FIELDS[field]
    target = obj
    for part in parents:
        target = target[part]
    target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, "strata", "validate", "--file", str(path))
    assert code == EXIT_SCHEMA
    assert out.count("\n") == 1 and json.loads(out)["error"] == "schema"


def test_enumerate_work_bound(capsys):
    # b = 12 at the default 8 vertices means about 1.4e10 raw candidates
    start = time.monotonic()
    code, out = run(
        capsys, "strata", "enumerate", "--datum", "2,5,0,12", "--lambda", ",".join(["2"] * 12),
    )
    assert time.monotonic() - start < 2.0
    assert code == EXIT_DOMAIN and out.count("\n") == 1
    obj = json.loads(out)
    assert obj["error"] == "domain" and str(MAX_ENUM_CANDIDATES) in obj["message"]


@pytest.mark.parametrize("b, fmt", [(b, fmt) for b in (4, 6) for fmt in ("json", "text", "dot")] + [(8, "json")])
def test_enumerate_streams_the_bytes_emit_wrote(capsys, b, fmt):
    """strata enumerate writes one class at a time the bytes emit wrote for the whole payload."""
    comps = enumerate_components(HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b), 6)
    payload = {"count": len(comps), "components": [G.to_json_obj() for G in comps]}
    want = "".join(G.to_dot() for G in comps) if fmt == "dot" else emitted(payload, fmt)
    argv = ("--datum", f"2,{(b - 2) // 2},0,{b}", "--lambda", ",".join(["2"] * b), "--max-vertices", "6")
    assert run(capsys, "strata", "enumerate", *argv, "--format", fmt) == (EXIT_OK, want)


def test_domain_error_code(capsys):
    code, obj = run_json(capsys, "ascover", "--field", "2^4", "--expr", "1/y^2 + 1/y")
    assert code == EXIT_DOMAIN and obj["error"] == "domain"


LOCI_2_4 = ("--field", "2^4", "--pattern", "1,1,1,1,-2")


@pytest.mark.parametrize("argv,code,kind", [
    (("tc", "--field", "2^4", "--expr", "y*(y-l)", "--bind", "l=z"), EXIT_PARSE, "parse"),
    (("loci", "search", *LOCI_2_4, "--kind", "exact", "--pin", "0,z"), EXIT_PARSE, "parse"),
    (("loci", "tangent", *LOCI_2_4, "--kind", "exact", "--config", "0,z,1,inf,w"), EXIT_PARSE, "parse"),
    (("ascover", "--field", "2^4", "--expr", "1"), EXIT_DOMAIN, "domain"),
    (("loci", "search", "--field", "2^4", "--pattern", "2,2", "--kind", "exact"), EXIT_DOMAIN, "domain"),
    (("loci", "search", *LOCI_2_4, "--kind", "exact", "--pin", "0,0"), EXIT_DOMAIN, "domain"),
    (("loci", "tangent", *LOCI_2_4, "--kind", "exact", "--config", "0,1,w,inf,w^2+1"), EXIT_DOMAIN, "domain"),
    (("strata", "dim", "--file", "INVALID"), EXIT_DOMAIN, "domain"),
    (("strata", "enumerate", "--datum", "2,1,0,4", "--lambda", "2,2,2,2", "--regime", "equicharacteristic"),
     EXIT_DOMAIN, "domain"),
    (("loci", "search", "--field", "2", "--pattern", "1,1,1,1,-2", "--kind", "quasi-exact", "--pin", "0,1,inf,0"),
     EXIT_DOMAIN, "domain"),
    (("loci", "search", *LOCI_2_4, "--kind", "exact", "--pin="), EXIT_PARSE, "parse"),  # empty, not the default
])
def test_error_sites_exit_codes(capsys, tmp_path, argv, code, kind):
    obj = example_graphs()[0].to_json_obj()
    obj["source"]["edges"][0]["slope"] = 2
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(obj))
    got, out = run(capsys, *(str(path) if a == "INVALID" else a for a in argv))
    assert (got, out.count("\n"), json.loads(out)["error"]) == (code, 1, kind)


@pytest.mark.parametrize("datum", [
    ("--datum", "2,2,0,4", "--lambda", "2,2,2,2"),  # fails Riemann-Hurwitz
    ("--datum", "2,1,0,4", "--lambda", "2,2,2,2", "--xi", "1,1,1,1"),  # nonzero xi in the mixed regime
])
@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_enumerate_refuses_an_invalid_datum(capsys, datum, fmt):
    code, out = run(capsys, "strata", "enumerate", *datum, "--format", fmt)
    assert (code, out.count("\n"), json.loads(out)["error"]) == (EXIT_DOMAIN, 1, "domain")
    assert "Riemann-Hurwitz count fails for the discrete datum" in json.loads(out)["message"]


def test_validate_lists_etale_errors_in_source_vertex_order(tmp_path):
    """Four badly covered etale targets: the same bytes under two hash seeds, the etale errors in sheet order."""
    images = ["d3", "d1", "d4", "d2"]  # neither sorted nor reversed
    G = LevelGraph(
        2, "mixed",
        [SourceVertex("v0", 1, 0, AS, "d0"), *(SourceVertex(f"s{i}", 0, 0, ETALE, d) for i, d in enumerate(images))],
        [SourceEdge(f"e{i}", "v0", f"s{i}", 0, f"f{i}") for i in range(4)],
        [TargetVertex("d0", 0), *(TargetVertex(d, 0) for d in images)],
        [TargetEdge(f"f{i}", "d0", d) for i, d in enumerate(images)],
        [Marking("v0", 2, 0, f"q{i}") for i in range(4)],
    )
    path = tmp_path / "etale.json"
    path.write_text(G.to_json())
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("1", "3"):  # seeds 1 and 3 iterate a set of these four ids in different orders
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "loghurwitz.cli", "strata", "validate", "--file", str(path)],
                              env=env, capture_output=True, timeout=60)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    details = [e["detail"] for e in json.loads(out)["errors"] if e["rule"] == "etale"]
    assert code == EXIT_DOMAIN
    assert details == [f"target vertex {d} is not covered by exactly p degree-1 sheets" for d in images]


def test_enumerate_names_its_required_flags(capsys):
    code, obj = run_json(capsys, "strata", "enumerate", "--lambda", "2,2,2,2")
    assert code == EXIT_PARSE
    assert obj["message"] == "enumerate requires --datum p,h,g,N and --lambda"


@pytest.mark.parametrize("sub", ["enumerate", "dim", "validate", "monoid"])
def test_malformed_datum_is_parse_error_for_every_strata_subcommand(capsys, tmp_path, sub):
    path = tmp_path / "g.json"
    path.write_text(example_graphs()[0].to_json())
    code, obj = run_json(
        capsys, "strata", sub, "--file", str(path),
        "--datum", "2,1,0,4", "--lambda", "2,2,2,2", "--xi", "0,0",
    )
    assert code == EXIT_PARSE
    assert obj == {"error": "parse", "message": "Lambda and Xi lengths differ"}


def test_unknown_subcommand_exit(capsys):
    assert main(["frobnicate"]) == EXIT_PARSE


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["tc", "-h"], ["strata", "enumerate", "--help"],
                                  ["loci", "search", "--format", "text", "-h"]])
def test_help_is_one_json_line(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1
    assert json.loads(out)["help"].startswith("usage: loghurwitz")


@pytest.mark.parametrize("argv", [["-h"], ["tc", "-h"], ["strata", "enumerate", "--help"]])
def test_help_bytes_do_not_depend_on_columns(capsys, monkeypatch, argv):
    outs = []
    for columns in ("50", "80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        outs.append(run(capsys, *argv))
    assert outs[0] == outs[1] == outs[2]
    assert max(map(len, json.loads(outs[0][1])["help"].splitlines())) <= 78


# -- strata round trips -------------------------------------------------------


def test_enumerate_round_trip(capsys, tmp_path):
    code, obj = run_json(
        capsys, "strata", "enumerate", "--datum", "2,1,0,4", "--lambda", "2,2,2,2",
        "--max-vertices", "6",
    )
    assert code == EXIT_OK and obj["count"] == 4
    for comp in obj["components"]:
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(comp))
        code2, ledger = run_json(capsys, "strata", "dim", "--file", str(path))
        assert code2 == EXIT_OK
        assert ledger["total"] == ledger["closed_form"]
        code3, rep = run_json(capsys, "strata", "validate", "--file", str(path))
        assert code3 == EXIT_OK and rep["ok"] is True


def test_validate_invalid_graph_exit(capsys, tmp_path):
    G = example_graphs()[0]
    obj = G.to_json_obj()
    obj["source"]["edges"][0]["slope"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, rep = run_json(capsys, "strata", "validate", "--file", str(path))
    assert code == EXIT_DOMAIN and rep["ok"] is False


def test_validate_negative_datum_field_fails_validation(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(example_graphs()[0].to_json())
    code, out = run(capsys, "strata", "validate", "--file", str(path), "--datum", "2,-1,0,4", "--lambda", "2,2,2,2")
    assert code == EXIT_DOMAIN and out.count("\n") == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert {"rule": "riemann-hurwitz", "detail": "h = -1 must be at least 0"} in rep["errors"]


def test_monoid_subcommand(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(example_graphs()[2].to_json())
    code, obj = run_json(capsys, "strata", "monoid", "--file", str(path))
    assert code == EXIT_OK
    assert obj == {"monoid_free": True, "monoid_rank": 2}


def test_graph_without_source_vertices_is_domain_error(capsys, monkeypatch):
    empty = {"vertices": [], "edges": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"p": 2, "source": empty, "target": empty})))
    code, obj = run_json(capsys, "strata", "monoid")
    assert code == EXIT_DOMAIN
    assert obj == {"error": "domain", "message": "level graph has no source vertices"}


# -- loci ---------------------------------------------------------------------


def test_loci_formula(capsys):
    code, obj = run_json(
        capsys, "loci", "formula", "--field", "2^1", "--pattern", "2,2,-2", "--kind", "exact"
    )
    assert code == EXIT_OK and obj["dimension"] == 0


def test_loci_search_counts(capsys):
    code, obj = run_json(
        capsys, "loci", "search", "--field", "2^4", "--pattern", "1,1,1,1,-2",
        "--kind", "quasi-exact",
    )
    assert code == EXIT_OK and obj["count"] == 14


SEARCHES = [(fld, pat, kind, pins) for fld, pats in (("2^2", ("2,2,2,-4", "1,1,1,1,-2")),
                                                     ("3^2", ("3,3,3,-2,-3", "1,1,1,1")),
                                                     ("5", ("5,5,1,1,-4", "2,2,2,1,1")))
            for pat in pats for kind in ("exact", "quasi-exact") for pins in (None, "0,inf,1")] + [
    ("3", "2,2", "exact", None),  # decided by the pattern: 2 = -1 mod 3
    ("3^2", "3,3,-2", "exact", None),  # no free slot, one hit
    ("3", "1,1,2", "quasi-exact", "0,inf,1"),  # no free slot, one hit
    ("3^3", "3,3,3,3,3,-11", "exact", None),  # 13,800 hits
]


@pytest.mark.parametrize("fld, pat, kind, pins", SEARCHES)
def test_loci_search_streams_the_bytes_emit_wrote(capsys, fld, pat, kind, pins):
    """loci search writes one configuration at a time the bytes emit wrote for the whole payload."""
    spec, m = parse_field(fld), [int(v) for v in pat.split(",")]
    pinned = pins and [Place.finite(spec.from_int(0)), INFINITY, Place.finite(spec.from_int(1))]
    found = locus_search(ZeroPolePattern(spec.p, m), kind.replace("-", "_"), spec, pinned)
    configs = [[str(q) for q in c.points] for c in found]
    payload = {"field": f"{spec.p}^{spec.k}", "pattern": m, "kind": kind, "count": len(configs), "configs": configs}
    argv = ("loci", "search", "--field", fld, "--pattern", pat, "--kind", kind, *(("--pin", pins) if pins else ()))
    for fmt in ("json", "text"):
        assert run(capsys, *argv, "--format", fmt) == (EXIT_OK, emitted(payload, fmt))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_loci_search_holds_no_list_of_hits(fmt):
    """The GF(27) search writes 0.6 MB: holding its hits took about 10 MB, streaming them about 1 MB (tracemalloc)."""
    parse_field("3^3")
    argv = ["loci", "search", "--field", "3^3", "--pattern", "3,3,3,3,3,-11", "--kind", "exact", "--format", fmt]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == EXIT_OK and peak < 3 * 2**20, peak


F9 = parse_field("3^2")
PAT9 = ZeroPolePattern(3, (1, 1, 1, 1))
F9_PINS = [Place.finite(F9.from_int(i)) for i in (0, 1, 2)]


@pytest.mark.parametrize("call, argv, code, message", [
    ((PAT9, "exact", F9, [*F9_PINS, INFINITY]), ("3^2", "1,1,1,1", "exact", "--pin", "0,1,2,inf"), EXIT_DOMAIN,
     "at most three places"),
    ((PAT9, "exact", F9, F9_PINS[:1] * 2), ("3^2", "1,1,1,1", "exact", "--pin", "0,0"), EXIT_DOMAIN, "distinct"),
    # the CLI builds the pattern over the field's characteristic, so only the library call can differ
    ((ZeroPolePattern(2, (1, 1, 1, 1, -2)), "exact", F9), None, None, "characteristic differ"),
    ((PAT9, "bogus", F9), ("3^2", "1,1,1,1", "bogus"), EXIT_PARSE, "unknown kind"),
    ((ZeroPolePattern(2, (1,) * 6 + (-4,)), "exact", parse_field("2^8")), ("2^8", "1,1,1,1,1,1,-4", "exact"),
     EXIT_DOMAIN, "MAX_SEARCH_CONFIGS"),
])
def test_search_checks_run_before_the_first_hit(capsys, call, argv, code, message):
    """Every check raises in the call to _search, so the CLI writes one JSON line and no list framing."""
    with pytest.raises(ValueError, match=message):
        _search(*call)
    if argv:
        fld, pat, kind, *rest = argv
        got, out = run(capsys, "loci", "search", "--field", fld, "--pattern", pat, "--kind", kind, *rest)
        assert got == code and out.count("\n") == 1 and message in json.loads(out)["message"], out


def test_loci_tangent(capsys):
    code, obj = run_json(
        capsys, "loci", "tangent", "--field", "2^4", "--pattern", "1,1,1,1,-2",
        "--kind", "quasi-exact", "--config", "0,1,w^2,inf,w",
    )
    assert code == EXIT_OK and obj["dimension"] == 1


@pytest.mark.parametrize("argv", [
    ("search", "--pattern", "99999999999999999999999,-99999999999999999999995"),
    ("tangent", "--pattern", "99999999999999999999999,1,-99999999999999999999996", "--config", "0,1,inf"),
])
def test_loci_takes_pattern_entries_beyond_an_index_sized_int(capsys, argv):
    code, out = run(capsys, "loci", argv[0], "--field", "3", *argv[1:], "--kind", "exact")
    assert code == EXIT_OK
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out)["pattern"][0] == 10**23 - 1


def test_loci_bad_pattern(capsys):
    code, obj = run_json(
        capsys, "loci", "formula", "--field", "2^1", "--pattern", "1,1,1", "--kind", "exact"
    )
    assert code == EXIT_DOMAIN


# `loci` CLI bytes and exit codes, recorded while locus_search still passed
# each hit through MarkingConfig's check and tangent_report ranked its rows
# as element indices, twice for the quasi-exact kind: search with 1, 2 and 3
# pins (the CLI has no way to pin none), tangent with and without response
# rows, formula, both kinds, json and text, and one refused call per message
LOCI_GOLDEN = json.loads((Path(__file__).parent / "data" / "loci_golden.json").read_text())


def test_loci_bytes_match_golden(capsys):
    mismatched = []
    for case in LOCI_GOLDEN:
        code = main(case["argv"])
        if [code, capsys.readouterr().out] != [case["code"], case["out"]]:
            mismatched.append(case["argv"])
    assert not mismatched
    assert {case["code"] for case in LOCI_GOLDEN} == {EXIT_OK, EXIT_PARSE, EXIT_FIELD, EXIT_DOMAIN}


# -- the worked example -------------------------------------------------------


def test_example6_all_green(capsys):
    code, obj = run_json(capsys, "example6")
    assert code == EXIT_OK and obj["ok"] is True
    assert [c["check"] for c in obj["checks"]] == list("abcdefg")
    assert all(c["ok"] for c in obj["checks"])


def test_example6_perturb_fails_f(capsys):
    code, obj = run_json(capsys, "example6", "--perturb")
    assert code == EXIT_DOMAIN
    by_check = {c["check"]: c["ok"] for c in obj["checks"]}
    assert by_check["f"] is False
    assert by_check["a"] is True


def test_example6_larger_field(capsys):
    code, obj = run_json(capsys, "example6", "--field", "2^6")
    assert code == EXIT_OK and obj["ok"] is True


def test_example6_gf_2_10_all_green(capsys):
    code, obj = run_json(capsys, "example6", "--field", "2^10")
    assert code == EXIT_OK and obj["ok"] is True and all(c["ok"] for c in obj["checks"])


@pytest.mark.parametrize("fld", ["2^13", "2^16"])
def test_example6_refuses_fields_above_gf_2_12(capsys, monkeypatch, fld):
    # checks (a) and (b) make 2q + 1 tc calls: GF(2^12) takes about 1.1 s, so
    # larger fields exit 5 before any tc; building GF(2^16)'s tables is most
    # of the time left (about 0.3 s)
    calls = []
    monkeypatch.setattr("loghurwitz.cli.twisted_cartier", lambda *args: calls.append(args))
    start = time.perf_counter()
    code, out = run(capsys, "example6", "--field", fld)
    elapsed = time.perf_counter() - start
    assert code == EXIT_DOMAIN and out.count("\n") == 1 and not calls
    assert json.loads(out) == {"error": "domain", "message": "the worked example admits fields up to GF(2^12)"}
    assert elapsed < 2.0, elapsed


def _reference_example6_ab(spec):
    """Checks (a) and (b) as run_example6 made them before its O(q) rewrite: tc on every pair (lambda, mu)."""
    y = RationalFunction.variable(spec)
    ok_a = True
    ok_b = True
    quasi_seen = False
    for lam in spec.elements():
        for mu in spec.elements():
            psi = BivariantForm(y * (y - 1) * (y - lam) / (y - mu) ** 2)
            tc = cli.twisted_cartier(psi)
            expected = (y - lam.pth_root()) / (y - mu)
            if tc != expected:
                ok_a = False
            flag, _ = cli.is_quasi_exact(psi)
            if flag != (mu == lam.pth_root() and not tc.is_zero() and tc.is_constant()):
                ok_b = False
            if flag:
                quasi_seen = True
    return ok_a, ok_b and quasi_seen


def _example6_ab(spec):
    report = run_example6(spec)
    assert [item["check"] for item in report[:2]] == ["a", "b"]
    return report[0]["ok"], report[1]["ok"]


@pytest.mark.parametrize("k", range(2, 7))
def test_example6_ab_equals_the_reference(k):
    spec = parse_field(f"2^{k}")
    assert _example6_ab(spec) == _reference_example6_ab(spec) == (True, True)


def _scaled_tc(fires):
    """A tc that returns the generator times the true tc wherever fires(f) holds.

    A nonzero constant stays a nonzero constant, so the reference's (b),
    which reads this tc, sees no change; only (a) may fail.
    """
    def tc(psi):
        out = twisted_cartier(psi)
        if fires(psi.f):
            out = out * RationalFunction.constant(out.spec, out.spec.element(out.spec.generator_index))
        return out
    return tc


EXAMPLE6_FAULTS = {
    # reduced denominator a power of y (y^0 included): every mu = 0 form, and
    # lam = mu = 1, whose form reduces to y
    "tc-mu-zero": ("twisted_cartier", _scaled_tc(lambda f: not any(f.den.coeffs[:-1])), (False, True)),
    # numerator y(y-1)(y-lam) with lam != 0 and mu outside {0, 1, lam}: never
    # A_mu or B_mu, so only the spot check through the full form sees it
    "tc-cubic-family": ("twisted_cartier", _scaled_tc(lambda f: f.num.degree == 3 and f.num.coeffs[1]), (False, True)),
    "never-quasi-exact": ("is_quasi_exact", lambda psi: (False, None), (True, False)),
    "always-quasi-exact": ("is_quasi_exact", lambda psi: (True, psi.f.spec.one), (True, False)),
}


@pytest.mark.parametrize("fault", sorted(EXAMPLE6_FAULTS))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_example6_ab_report_a_fault_as_the_reference_does(monkeypatch, fault, k):
    name, patch, expected = EXAMPLE6_FAULTS[fault]
    monkeypatch.setattr(cli, name, patch)
    spec = parse_field(f"2^{k}")
    assert _example6_ab(spec) == _reference_example6_ab(spec) == expected


@pytest.mark.parametrize("k", [2, 4, 6])
def test_example6_ab_make_o_q_tc_calls(monkeypatch, k):
    counts = {"twisted_cartier": 0, "is_quasi_exact": 0}

    def counted(name, fn):
        def wrapper(psi):
            counts[name] += 1
            return fn(psi)
        return wrapper

    for name in counts:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    spec = parse_field(f"2^{k}")
    assert _example6_ab(spec) == (True, True)
    assert counts == {"twisted_cartier": 2 * spec.q + 1, "is_quasi_exact": 2 * spec.q}


def test_run_example6_api():
    report = run_example6()
    assert len(report) == 7 and all(item["ok"] for item in report)
