"""The CLI exit-code contract on argv drawn from a small grammar (hypothesis).

--format text or dot print plain text by design, so the grammar leaves
them out; every other argv, -h and --help included, must exit 0, 2, 3, 4
or 5 and print exactly one JSON line.  A call whose standard output its
reader closes exits 1 with nothing on standard error.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from loghurwitz.cli import (  # noqa: E402
    EXIT_DOMAIN,
    EXIT_FIELD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PIPE,
    EXIT_SCHEMA,
    example_graphs,
    main,
)


FIELDS = ["2", "2^2", "2^3", "2^4", "3", "3^2", "3^3", "5", "5^2", "7", "11", "13", "17", "19", "23"]
BAD_FIELDS = ["4", "6", "2^0", "1^1", "x", "", "3^", "65537"]
EXPRS = ["y", "y^2", "1/y", "y*(y-1)", "y*(y-1)*(y-w)/(y-w^2)^2", "(y-1)^3/(y+1)", "1/(y^2+y+1)",
         "x^2", "w*y^3+1", "y*(", "", "y^99999999999", "1/0", "y/", "z", "2^-1"]
PLACES = ["0", "1", "w", "w^2", "w+1", "2", "inf", "oo", "x", "", "1/0"]
JUNK = ["--bogus", "x", "-", "--", "--field", "--format", "json", "1,2", "inf", "--kind", "-3", "-h", "--help"]


def _int_lists(max_len=4):
    ints = st.lists(st.integers(-3, 6), min_size=0, max_size=max_len).map(lambda v: ",".join(map(str, v)))
    return st.one_of(ints, st.sampled_from(["1,,2", "a,b", " ", "2,x", "99999999999"]))


def _place_lists():
    return st.lists(st.sampled_from(PLACES), min_size=1, max_size=5).map(",".join)


@st.composite
def cli_argv(draw):
    """argv from a small grammar: a subcommand, then optional flags in any order, then junk."""
    command = draw(st.sampled_from(["tc", "cartier", "exact", "quasi-exact", "ascover", "strata", "loci",
                                    "example6", "frobnicate"]))
    argv = [command]
    flags = []
    if command == "strata":
        argv.append(draw(st.sampled_from(["validate", "dim", "monoid", "enumerate", "bogus"])))
        flags += [["--file", draw(st.sampled_from(["GOOD", "BAD", "P1", "MISSING", "-"]))],
                  ["--datum", draw(_int_lists())], ["--lambda", draw(_int_lists())],
                  ["--xi", draw(_int_lists())], ["--max-vertices", draw(st.sampled_from(["-1", "0", "2", "4", "x"]))],
                  ["--regime", draw(st.sampled_from(["mixed", "equicharacteristic", "other"]))]]
    elif command == "loci":
        argv.append(draw(st.sampled_from(["search", "tangent", "formula", "bogus"])))
        flags += [["--pattern", draw(_int_lists(5))],
                  ["--kind", draw(st.sampled_from(["exact", "quasi-exact", "quasi_exact", "other"]))],
                  ["--pin", draw(_place_lists())], ["--config", draw(_place_lists())]]
    else:
        flags += [["--expr", draw(st.sampled_from(EXPRS))],
                  ["--bind", draw(st.sampled_from(["l=w^2", "m=w", "l", "=", "l=y"]))]]
    flags.append(["--field", draw(st.sampled_from(FIELDS + BAD_FIELDS))])
    flags.append(["--format", "json"])
    flags = draw(st.permutations(flags))
    for flag in flags[: draw(st.integers(0, len(flags)))]:
        argv += flag
    argv += draw(st.lists(st.sampled_from(JUNK), max_size=2))
    return argv


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    (root / "good.json").write_text(example_graphs()[0].to_json())
    (root / "bad.json").write_text('{"p": "x", "source": [')
    (root / "p1.json").write_text(example_graphs()[0].to_json().replace('"p":2', '"p":1'))
    return {"GOOD": str(root / "good.json"), "BAD": str(root / "bad.json"), "P1": str(root / "p1.json"),
            "MISSING": str(root / "none.json")}


def _run(argv, stdin=""):
    """(exit code, payload) of one in-process call, which must print exactly one JSON object line."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {}, clear=True), mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, (argv, out.getvalue()[:200])
    payload = json.loads(lines[0])
    assert isinstance(payload, dict), argv
    return code, payload


@pytest.mark.parametrize("command", ["validate", "dim", "monoid"])
def test_graph_with_p_below_2_exits_schema(graph_files, command):
    code, payload = _run(["strata", command, "--file", graph_files["P1"]])
    assert code == EXIT_SCHEMA and "p = 1" in payload["message"], payload


@pytest.mark.parametrize("p", [0, 1, -3])
@pytest.mark.parametrize("command", ["validate", "dim", "monoid"])
def test_datum_with_p_below_2_exits_parse(graph_files, command, p):
    code, payload = _run(["strata", command, f"--datum={p},1,0,4", "--lambda", "2,2,2,2", "--file", graph_files["GOOD"]])
    assert code == EXIT_PARSE and f"p = {p}" in payload["message"], payload


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv(), stdin=st.sampled_from(["", "{}", "not json", example_graphs()[1].to_json()]))
def test_cli_contract_on_generated_argv(graph_files, argv, stdin):
    argv = [graph_files.get(a, a) for a in argv]
    code, _ = _run(argv, stdin)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_FIELD, EXIT_SCHEMA, EXIT_DOMAIN), argv


# -- a reader that closes standard output early ----------------------------------


def _cli(argv, **kwargs):
    """A fresh `python -m loghurwitz.cli` process with the package on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("LOGHURWITZ_FIELD", None)
    return subprocess.Popen([sys.executable, "-m", "loghurwitz.cli", *argv], env=env, stderr=subprocess.PIPE,
                            **kwargs)


def test_reader_closing_a_large_output_early_gets_no_traceback():
    """`... | head -c 100` on about 5 MB and 0.6 MB, so the writer is still writing when the pipe closes."""
    for argv, start in [
        (["strata", "enumerate", "--datum", "2,3,0,8", "--lambda", ",".join(["2"] * 8), "--max-vertices", "6"],
         b'{"components":[{"markings":['),
        (["loci", "search", "--field", "3^3", "--pattern", "3,3,3,3,3,-11", "--kind", "exact"], b'{"configs":[["'),
    ]:
        proc = _cli(argv, stdout=subprocess.PIPE)
        head = proc.stdout.read(100)
        assert len(head) == 100 and head.startswith(start), head
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_PIPE and stderr == b"", (argv, proc.returncode, stderr.decode()[-2000:])


@pytest.mark.parametrize("argv", [["tc", "--field", "2^2", "--expr", "y"], ["strata", "monoid", "--file", "GOOD"],
                                  ["loci", "formula", "--pattern", "1,1,1,-3", "--kind", "exact"],
                                  ["strata", "bogus"], ["-h"]])
def test_closed_stdout_gets_no_traceback(graph_files, argv):
    """stdout closed before the call starts: one-line outputs fail in main's flush, not at interpreter exit."""
    read, write = os.pipe()
    os.close(read)
    proc = _cli([graph_files.get(a, a) for a in argv], stdout=write)
    os.close(write)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_PIPE and stderr == b"", stderr.decode()[-2000:]
