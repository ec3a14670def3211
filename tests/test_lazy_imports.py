"""The package loads ascover, loci, mobius and strata only when they are used.

Each check runs in a fresh interpreter, since this test process has long
imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loghurwitz.cli import example_graphs

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAZY = {"ascover", "loci", "mobius", "strata"}

# The names `from loghurwitz import *` bound when the package imported every module eagerly.
EXPORTS = {
    "ascover": "ArtinSchreierCover CoverError TraceForm isomorphic moduli_dimension",
    "cartier": "BivariantForm Differential PPowerDecomposition TcMatrix cartier differential_of "
               "global_tc_matrix integrate is_exact is_quasi_exact ppower_decompose twisted_cartier",
    "expr": "ExprError parse_element parse_expression",
    "ffield": "FieldElement FieldSpec field parse_field",
    "loci": "MarkingConfig ZeroPolePattern dimension_formula locus_membership locus_search "
            "tangent_dimension tangent_report",
    "mobius": "Mobius",
    "ratfunc": "INFINITY NEG_INF Divisor Place Polynomial RationalFunction partial_fractions",
    "strata": "GraphError HurwitzData LevelGraph Marking SourceEdge SourceVertex StratumLedger TargetEdge "
              "TargetVertex ValidationReport canonical_form enumerate_components generic_dimension "
              "monoid_rank stratum_dimension validate",
}
STAR_NAMES = sorted({n for names in EXPORTS.values() for n in names.split()} | EXPORTS.keys())


def fresh(code, *argv):
    """Run code in a new interpreter with the package on its path; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("LOGHURWITZ_FIELD", None)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED_BY_CLI = """
import contextlib, io, json, sys
from loghurwitz import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
names = sorted(m.split(".")[1] for m in sys.modules if m.startswith("loghurwitz."))
print(json.dumps({"code": code, "modules": names}))
"""


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "two_level.json"
    path.write_text(example_graphs()[0].to_json())
    return str(path)


@pytest.mark.parametrize("argv,uses", [
    (["tc", "--field", "2^2", "--expr", "y*(y-1)"], set()),
    (["exact", "--field", "3^2", "--expr=-1/(y-1)^2"], set()),
    (["quasi-exact", "--field", "2^4", "--expr", "y"], set()),
    (["cartier", "--field", "5", "--expr", "y^4"], set()),
    (["ascover", "--field", "2^2", "--expr", "y^3"], {"ascover", "mobius"}),
    (["loci", "formula", "--field", "2", "--pattern", "2,2,-2", "--kind", "exact"], {"loci"}),
    (["loci", "search", "--field", "2^2", "--pattern", "2,2,-2", "--kind", "exact"], {"loci"}),
    (["loci", "tangent", "--field", "2^2", "--pattern", "2,2,-2", "--kind", "exact", "--config", "0,1,inf"],
     {"loci"}),
    (["strata", "enumerate", "--datum", "2,1,0,4", "--lambda", "2,2,2,2", "--max-vertices", "4"], {"strata"}),
    (["strata", "validate", "--file", "GRAPH"], {"strata"}),
    (["strata", "dim", "--file", "GRAPH"], {"strata"}),
])
def test_a_subcommand_loads_only_the_modules_it_uses(graph_file, argv, uses):
    out = fresh(LOADED_BY_CLI, *[graph_file if a == "GRAPH" else a for a in argv])
    assert out["code"] == 0
    assert LAZY & set(out["modules"]) == uses
    assert {"cartier", "cli", "expr", "ffield", "ratfunc"} <= set(out["modules"])


def test_dir_lists_the_lazy_names_without_loading_them():
    out = fresh("import json, sys, loghurwitz\n"
                "print(json.dumps([dir(loghurwitz), sorted(m for m in sys.modules if m.startswith('loghurwitz.'))]))")
    names, modules = out
    assert set(STAR_NAMES) | {"__all__", "__version__"} <= set(names) and names == sorted(names)
    assert modules == ["loghurwitz.cartier", "loghurwitz.expr", "loghurwitz.ffield", "loghurwitz.ratfunc"]


def test_star_import_binds_the_same_names_and_objects():
    import loghurwitz

    namespace = {}
    exec("from loghurwitz import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(loghurwitz.__all__) == STAR_NAMES
    for module, names in EXPORTS.items():
        defining = sys.modules[f"loghurwitz.{module}"]
        for name in names.split():
            assert namespace[name] is getattr(defining, name), name
        if module != "cartier":  # the function cartier shadows its submodule
            assert namespace[module] is defining, module
    assert namespace["cartier"] is sys.modules["loghurwitz.cartier"].cartier


@pytest.mark.parametrize("order", [["cli", "loci", "strata"], ["strata", "loci", "cli"]])
def test_cartier_stays_the_function(order):
    out = fresh("import importlib, json, sys, loghurwitz\n"
                "for name in sys.argv[1:]: importlib.import_module('loghurwitz.' + name)\n"
                "print(json.dumps(loghurwitz.cartier is sys.modules['loghurwitz.cartier'].cartier))", *order)
    assert out is True


def test_an_unknown_name_raises_and_is_named():
    import loghurwitz

    with pytest.raises(AttributeError, match="no_such_name"):
        loghurwitz.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from loghurwitz import no_such_name", {})


def test_from_imports_resolve_the_lazy_submodules():
    out = fresh("import json, types\n"
                "from loghurwitz import ascover, ffield, loci, mobius, strata, LevelGraph, locus_search\n"
                "print(json.dumps([isinstance(m, types.ModuleType) for m in (ascover, ffield, loci, mobius, strata)]"
                " + [LevelGraph is strata.LevelGraph, locus_search is loci.locus_search]))")
    assert out == [True] * 7
