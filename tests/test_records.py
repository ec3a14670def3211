"""The strata records: named-tuple and ledger contracts, golden CLI bytes, and a CLI import without dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loghurwitz import strata
from loghurwitz.cli import example_graphs, main
from loghurwitz.strata import (
    GraphError,
    HurwitzData,
    LevelGraph,
    Marking,
    SourceEdge,
    SourceVertex,
    StratumLedger,
    TargetEdge,
    TargetVertex,
)


def etale_graph():
    """p = 2, mixed: an AS vertex joined by horizontal edges to two etale sheets
    over d1, which carry unramified markings, and a Frobenius vertex below."""
    return LevelGraph(
        2, "mixed",
        [SourceVertex("v0", 0, 0, strata.AS, "d0"), SourceVertex("s1", 0, 0, strata.ETALE, "d1"),
         SourceVertex("s2", 0, 0, strata.ETALE, "d1"), SourceVertex("w", 0, -1, strata.FROB, "d2")],
        [SourceEdge("h1", "v0", "s1", 0, "fh"), SourceEdge("h2", "v0", "s2", 0, "fh"),
         SourceEdge("e0", "v0", "w", 1, "f0")],
        [TargetVertex("d0", 0), TargetVertex("d1", 0), TargetVertex("d2", -1)],
        [TargetEdge("fh", "d0", "d1"), TargetEdge("f0", "d0", "d2")],
        [Marking("s1", 1, 0, "q0"), Marking("s2", 1, 0, "q0"), Marking("s1", 1, 0, "q1"),
         Marking("s2", 1, 0, "q1"), Marking("w", 2, 0, "q2"), Marking("w", 2, 0, "q3")],
    )


def unramified_as_graph():
    """p = 2, mixed: an unramified target marking over an AS vertex, one of its
    etale special points; the ledger misses its closed form without it."""
    return LevelGraph(
        2, "mixed",
        [SourceVertex("v0", 0, 0, strata.AS, "d0"), SourceVertex("w", 0, -1, strata.FROB, "d1")],
        [SourceEdge("e0", "v0", "w", 1, "f0")],
        [TargetVertex("d0", 0), TargetVertex("d1", -1)],
        [TargetEdge("f0", "d0", "d1")],
        [Marking("v0", 1, 0, "q0"), Marking("v0", 1, 0, "q0"), Marking("w", 2, 0, "q1"), Marking("w", 2, 0, "q2")],
    )


MORE_GRAPHS = {"etale": etale_graph, "unramified-as": unramified_as_graph}
# CLI bytes and to_json() of the worked example graphs, recorded from the
# dataclass-based records that the named tuples replaced, and of MORE_GRAPHS,
# recorded before the ledger's target-vertex counts were merged into one pass
GOLDEN = json.loads((Path(__file__).parent / "data" / "strata_golden.json").read_text())
CASES = {
    "json": ["--format", "json"],
    "text": ["--format", "text"],
    "bad-datum": ["--datum", "2,2,0,4", "--lambda", "2,2,2,2"],
}


@pytest.mark.parametrize("index", [0, 1, 2, *MORE_GRAPHS])
def test_example_graphs_keep_their_bytes(capsys, tmp_path, index):
    G = MORE_GRAPHS[index]() if index in MORE_GRAPHS else example_graphs()[index]
    assert G.to_json() == GOLDEN[f"{index}/to_json"]
    path = tmp_path / "graph.json"
    path.write_text(G.to_json())
    for cmd in ("validate", "dim", "monoid"):
        for case, flags in CASES.items():
            code = main(["strata", cmd, "--file", str(path), *flags])
            assert [code, capsys.readouterr().out] == GOLDEN[f"{index}/{cmd}/{case}"], (cmd, case)


RECORDS = [
    SourceVertex("v0", 1, 0, strata.AS, "d0"),
    SourceEdge("e0", "v0", "v1", 3, "f0"),
    TargetVertex("d0", 0),
    TargetEdge("f0", "d0", "d1"),
    Marking("v1", 2, 0, "q0"),
    HurwitzData(2, 1, 0, 4, (2, 2, 2, 2)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    fields = record._asdict()
    twin = cls(**fields)
    assert twin == record and hash(twin) == hash(record)
    assert tuple(record) == tuple(fields.values())
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)


def test_hurwitz_data_normalises_and_checks():
    A = HurwitzData(p=2, h=1, g=0, N=4, Lam=[2, 2, 2, 2])
    assert A.Lam == (2, 2, 2, 2) and A.Xi == (0, 0, 0, 0) and A.regime == "mixed" and A.b == 4
    assert A == HurwitzData(2, 1, 0, 4, (2, 2, 2, 2), [0, 0, 0, 0])
    assert A.rh_holds() and A.errors() == []
    with pytest.raises(GraphError):
        HurwitzData(2, 1, 0, 4, (2, 2), regime="nonsense")
    with pytest.raises(GraphError):
        HurwitzData(2, 1, 0, 4, (2, 2), (0,))
    with pytest.raises(GraphError):
        A._replace(regime="bogus")
    with pytest.raises(GraphError):
        A._replace(Xi=(0,))
    assert A._replace(Lam=[2, 2, 2, 2]).Lam == (2, 2, 2, 2)


LEDGER_FIELDS = ["contributions", "mod_as", "mod_ex", "mod_quex", "total", "closed_form", "e_d_hor", "v_c_ex",
                 "monoid_rank", "monoid_free"]


def test_ledger_fields_are_the_dim_json_keys(capsys, tmp_path):
    G = example_graphs()[1]
    path = tmp_path / "graph.json"
    path.write_text(G.to_json())
    assert main(["strata", "dim", "--file", str(path)]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == sorted(LEDGER_FIELDS)
    assert list(vars(strata.stratum_dimension(G, HurwitzData(2, 1, 0, 4, (2,) * 4)))) == LEDGER_FIELDS


def test_ledger_contract():
    values = [[("AS:v0", 1)], 1, 0, 0, 1, 1, 0, 0, 1, True]
    L = StratumLedger(*values)
    assert L == StratumLedger(**dict(zip(LEDGER_FIELDS, values))) and list(vars(L).values()) == values
    assert repr(L) == "StratumLedger(" + ", ".join(f"{k}={v!r}" for k, v in zip(LEDGER_FIELDS, values)) + ")"
    L.total += 1  # a computed result that callers may adjust, like the dataclass it replaced
    assert L.total == 2 and L != StratumLedger(*values)
    with pytest.raises(TypeError):
        hash(L)
    with pytest.raises(TypeError):
        StratumLedger(*values[:-1])
    with pytest.raises(TypeError):
        StratumLedger(*values, totl=1)


def test_validation_report_starts_ok():
    report = strata.ValidationReport()
    assert report.ok and report.errors == []
    report.add("rule", "detail")
    assert not report.ok and report.errors == [{"rule": "rule", "detail": "detail"}]


def test_cli_import_leaves_out_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, loghurwitz.cli; assert 'dataclasses' not in sys.modules, 'dataclasses imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
