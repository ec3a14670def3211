"""Command-line interface wiring the algebra, cover, graph and loci modules.

Exit codes: 0 success, 2 expression/argument parse error, 3 field
designator error, 4 graph schema error, 5 domain error (an operation
rejected mathematically valid-looking input), 1 standard output closed
by its reader.  `main` maps library errors to codes in one place.  JSON
output is emitted with sorted keys so identical inputs yield
byte-identical bytes.  The handlers import ascover, loci and strata
themselves, so a call loads only the layers its subcommand uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cartier import BivariantForm, Differential, cartier as apply_cartier, is_exact, is_quasi_exact, twisted_cartier
from .expr import ExprError, ExprLimitError, parse_element, parse_expression
from .ffield import FieldSpec, field as make_field, parse_field
from .ratfunc import INFINITY, Place, RationalFunction

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_FIELD = 3
EXIT_SCHEMA = 4
EXIT_DOMAIN = 5

FIELD_ENV = "LOGHURWITZ_FIELD"
_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


class CliError(Exception):
    def __init__(self, code, kind, message):
        super().__init__(message)
        self.code = code
        self.kind = kind


# ---------------------------------------------------------------------------
# argument helpers


def _get_field(args) -> FieldSpec:
    designator = args.field or os.environ.get(FIELD_ENV)
    if not designator:
        raise CliError(EXIT_FIELD, "field", "no field given (use --field or " + FIELD_ENV + ")")
    try:
        return parse_field(designator)
    except ValueError as exc:
        raise CliError(EXIT_FIELD, "field", str(exc)) from exc


def _get_bindings(args, spec):
    bindings = {}
    for item in args.bind:
        if "=" not in item:
            raise CliError(EXIT_PARSE, "parse", f"binding {item!r} is not name=value")
        name, _, value = item.partition("=")
        bindings[name.strip()] = parse_element(value, spec)
    return bindings


def _read_graph(args):
    from .strata import GraphError, LevelGraph

    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_SCHEMA, "schema", str(exc)) from exc
    try:
        return LevelGraph.from_json(text)
    except GraphError as exc:
        raise CliError(EXIT_SCHEMA, "schema", str(exc)) from exc


def _graph_datum(args, G=None):
    """The HurwitzData from --datum, --lambda and --xi, else read off the LevelGraph G.

    Without a graph (strata enumerate) --datum and --lambda are required.
    """
    from .strata import GraphError, HurwitzData

    if G is None and not (args.datum and args.lam):
        raise CliError(EXIT_PARSE, "parse", "enumerate requires --datum p,h,g,N and --lambda")
    lam = _int_list(args.lam) if args.lam else None
    xi = _int_list(args.xi) if args.xi else None
    if args.datum:
        datum = _int_list(args.datum)
        if len(datum) != 4:
            raise CliError(EXIT_PARSE, "parse", "--datum must be p,h,g,N")
        p, h, g, N = datum
        if lam is None:
            raise CliError(EXIT_PARSE, "parse", "--datum requires --lambda")
    else:
        p = G.p
        h = G.total_source_genus()
        g = G.total_target_genus()
        N = len(G.marking_groups())
        if lam is None:
            lam = [m.lam for m in G.markings]
            xi = [m.xi for m in G.markings]
    regime = args.regime or (G.regime if G else "mixed")
    try:
        return HurwitzData(p, h, g, N, lam, xi, regime)
    except GraphError as exc:
        raise CliError(EXIT_PARSE, "parse", str(exc)) from exc


def _int_list(text):
    try:
        return [int(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise CliError(EXIT_PARSE, "parse", f"expected comma-separated integers, got {text!r}") from exc


def _parse_places(text, spec):
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if token in ("inf", "infinity", "oo"):
            out.append(INFINITY)
        else:
            out.append(Place.finite(parse_element(token, spec)))
    return out


# ---------------------------------------------------------------------------
# output


def emit(args, payload, dot=None):
    """Write payload in the --format of args; dot is a zero-argument callable giving the DOT text."""
    if args.format == "dot":
        sys.stdout.write(dot())
        return
    if args.format == "json":
        sys.stdout.write(_dumps(payload) + "\n")
        return
    for key in sorted(payload):
        sys.stdout.write(f"{key}: {_text_value(payload[key])}\n")


def _write_list(args, key, items, as_json, as_value, **rest):
    """emit's bytes for {key: [...], "count": N, **rest} (key sorts first), as_json or as_value of one item at a time."""
    text = args.format == "text"
    write, form, sep = sys.stdout.write, as_value if text else as_json, ", " if text else ","
    write(f"{key}: [" if text else f'{{"{key}":[')
    count = 0
    for count, item in enumerate(items, 1):
        write(form(item) if count == 1 else sep + form(item))
    tail = dict(rest, count=count)
    write("]\n" if text else "]," + _dumps(tail)[1:] + "\n")
    if text:
        emit(args, tail)


def _text_value(v):
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_text_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_text_value(v[k])}" for k in sorted(v)) + "}"
    return str(v)


# ---------------------------------------------------------------------------
# subcommands


def _cartier_payload(spec, f):
    result = apply_cartier(Differential(f))
    return {"field": f"{spec.p}^{spec.k}", "input": str(f), "result": str(result.f)}


def _tc_payload(spec, f):
    tc = twisted_cartier(BivariantForm(f))
    classification = "exact" if tc.is_zero() else "quasi-exact" if tc.is_constant() else "neither"
    return {"result": str(tc), "classification": classification}


def _exact_payload(spec, f):
    return {"exact": is_exact(BivariantForm(f))}


def _quasi_exact_payload(spec, f):
    flag, witness = is_quasi_exact(BivariantForm(f))
    payload = {"quasi_exact": flag}
    if witness is not None:
        payload["witness"] = str(witness)
        payload["witness_index"] = witness.idx
    return payload


def _ascover_payload(spec, g):
    from . import ascover

    cover = ascover.ArtinSchreierCover.from_equation(spec, g)
    tau = cover.trace_form()
    return {
        "field": f"{spec.p}^{spec.k}",
        "normal_form": str(cover.normal_form()),
        "branch_points": [str(b) for b in cover.branch_points],
        "conductors": list(cover.conductors),
        "genus": cover.genus,
        "moduli_dimension": cover.moduli_dimension(),
        "trace_coefficient": str(tau.coefficient),
        "trace_orders": {
            str(b): dict(tau.orders[b]) for b in cover.branch_points
        },
    }


def cmd_expr(args):
    """An expression subcommand: parse --expr over the field, emit args.payload(spec, f)."""
    spec = _get_field(args)
    f = parse_expression(args.expr, spec, bindings=_get_bindings(args, spec))
    emit(args, args.payload(spec, f))
    return EXIT_OK


def cmd_strata(args):
    from . import strata

    if args.strata_cmd == "enumerate":
        comps = strata.enumerate_components(_graph_datum(args), args.max_vertices)
        if args.format == "dot":
            sys.stdout.writelines(G.to_dot() for G in comps)
        else:
            _write_list(args, "components", comps, strata.LevelGraph.to_json, lambda G: _text_value(G.to_json_obj()))
        return EXIT_OK

    G = _read_graph(args)
    A = _graph_datum(args, G)
    if args.strata_cmd == "validate":
        report = strata.validate(G, A)
        emit(args, {"ok": report.ok, "errors": report.errors}, dot=G.to_dot)
        return EXIT_OK if report.ok else EXIT_DOMAIN
    if args.strata_cmd == "dim":
        emit(args, vars(strata.stratum_dimension(G, A)), dot=G.to_dot)
        return EXIT_OK
    rank, free = strata.monoid_rank(G, A)
    emit(args, {"monoid_rank": rank, "monoid_free": free}, dot=G.to_dot)
    return EXIT_OK


def cmd_loci(args):
    from . import loci

    spec = _get_field(args)
    pattern = loci.ZeroPolePattern(spec.p, _int_list(args.pattern))
    kind = args.kind.replace("-", "_")
    if kind not in (loci.EXACT, loci.QUASI_EXACT):
        raise CliError(EXIT_PARSE, "parse", f"unknown kind {args.kind!r}")
    base = {"field": f"{spec.p}^{spec.k}", "pattern": list(pattern.m), "kind": args.kind}

    if args.loci_cmd == "formula":
        emit(args, dict(base, dimension=loci.dimension_formula(pattern, kind)))
        return EXIT_OK
    if args.loci_cmd == "search":
        pinned = _parse_places(args.pin, spec) if args.pin is not None else None
        hits, names = loci._search(pattern, kind, spec, pinned), {}  # names: at most q + 1 place strings
        configs = ([names.get(q) or names.setdefault(q, str(q)) for q in points] for _, points in hits)
        _write_list(args, "configs", configs, _dumps, _text_value, **base)
        return EXIT_OK
    if not args.config:
        raise CliError(EXIT_PARSE, "parse", "tangent requires --config")
    points = _parse_places(args.config, spec)
    report = loci.tangent_report(loci.MarkingConfig(spec, points), pattern, kind)
    emit(args, dict(base, config=[str(q) for q in points], **report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# worked example


def example_graphs():
    """The three degenerations of the genus-1, four-marking family at p=2."""
    from .strata import AS, FROB, LevelGraph, Marking as M, SourceEdge as SE, SourceVertex as SV
    from .strata import TargetEdge as TE, TargetVertex as TV

    two_level = LevelGraph(
        2, "mixed",
        [SV("v0", 1, 0, AS, "d0"), SV("v1", 0, -1, FROB, "d1")],
        [SE("e0", "v0", "v1", 3, "f0")],
        [TV("d0", 0), TV("d1", -1)],
        [TE("f0", "d0", "d1")],
        [M("v1", 2, 0, f"q{i}") for i in range(4)],
    )
    three_level = LevelGraph(
        2, "mixed",
        [SV("v0", 1, 0, AS, "d0"), SV("v1", 0, -1, FROB, "d1"),
         SV("v2", 0, -2, FROB, "d2"), SV("v3", 0, -2, FROB, "d3")],
        [SE("e0", "v0", "v1", 3, "f0"), SE("e1", "v1", "v2", 1, "f1"),
         SE("e2", "v1", "v3", 1, "f2")],
        [TV("d0", 0), TV("d1", -1), TV("d2", -2), TV("d3", -2)],
        [TE("f0", "d0", "d1"), TE("f1", "d1", "d2"), TE("f2", "d1", "d3")],
        [M("v2", 2, 0, "q0"), M("v2", 2, 0, "q1"), M("v3", 2, 0, "q2"), M("v3", 2, 0, "q3")],
    )
    horizontal = LevelGraph(
        2, "mixed",
        [SV("v0", 0, 0, AS, "d0"), SV("v1", 0, 0, AS, "d1"),
         SV("v2", 0, -1, FROB, "d2"), SV("v3", 0, -1, FROB, "d3")],
        [SE("h0", "v0", "v1", 0, "fh"), SE("h1", "v0", "v1", 0, "fh"),
         SE("e0", "v0", "v2", 1, "f0"), SE("e1", "v1", "v3", 1, "f1")],
        [TV("d0", 0), TV("d1", 0), TV("d2", -1), TV("d3", -1)],
        [TE("fh", "d0", "d1"), TE("f0", "d0", "d2"), TE("f1", "d1", "d3")],
        [M("v2", 2, 0, "q0"), M("v2", 2, 0, "q1"), M("v3", 2, 0, "q2"), M("v3", 2, 0, "q3")],
    )
    return two_level, three_level, horizontal


def run_example6(spec: FieldSpec = None, perturb: bool = False):
    """The worked genus-1 family at p=2: seven checks (a)-(g).

    Returns a list of {"check", "description", "ok"} dicts; perturb=True
    breaks a slope in check (f) as a negative control.
    """
    from . import ascover, strata

    if spec is None:
        spec = make_field(2, 4)
    if spec.p != 2 or spec.k < 2:
        raise CliError(EXIT_DOMAIN, "domain", "the worked example needs a proper extension of GF(2)")
    if spec.k > 12:  # checks (a) and (b) take 2q + 1 tc calls: GF(2^12) runs in about 1.1 s
        raise CliError(EXIT_DOMAIN, "domain", "the worked example admits fields up to GF(2^12)")
    report = []

    def record(check, description, ok):
        report.append({"check": check, "description": description, "ok": bool(ok)})

    y = RationalFunction.variable(spec)

    # (a), (b): the form is A - lam*B, A = y^2(y-1)/(y-mu)^2, B = y(y-1)/(y-mu)^2, and tc is additive and
    # p^-1-semilinear, so (a) holds for all lam iff tc(A) = y/(y-mu) and tc(B) = 1/(y-mu); then
    # (y-sqrt(lam))/(y-mu) is a nonzero constant iff lam = mu^2, and (b) tests both sides of that
    a = spec.element(spec.generator_index)
    spot = BivariantForm(y * (y - 1) * (y - a) / (y - a - 1) ** 2)
    ok_a = twisted_cartier(spot) == (y - a.pth_root()) / (y - a - 1)
    ok_b = True
    for mu in spec.elements():
        B = y * (y - 1) / (y - mu) ** 2
        ok_a &= twisted_cartier(BivariantForm(y * B)) == y / (y - mu)
        ok_a &= twisted_cartier(BivariantForm(B)) == 1 / (y - mu)
        quasi = [is_quasi_exact(BivariantForm(B * (y - lam)))[0] for lam in (mu**2, mu**2 + 1)]
        ok_b &= quasi == [True, False]
    record("a", "tc(y(y-1)(y-lam)/(y-mu)^2 dy/dx) = (y-sqrt(lam))/(y-mu) for all lam, mu", ok_a)
    record("b", "quasi-exact exactly when mu = sqrt(lam)", ok_b)

    # (c) y^2 + y = x^3: conductor 4, genus 1, trace log order 4
    x = RationalFunction.variable(spec)
    cover = ascover.ArtinSchreierCover.from_equation(spec, x**3)
    tau = cover.trace_form()
    ok_c = (
        cover.conductors == (4,)
        and cover.genus == 1
        and tau.log_order(cover.branch_points[0]) == 4
    )
    record("c", "y^2+y=x^3 has conductor 4, genus 1, trace log order 4", ok_c)

    # (d) y^2 - y = 1/x + 1/(x-a): genus 1 with a one-dimensional family
    cover_d = ascover.ArtinSchreierCover.from_equation(spec, 1 / x + 1 / (x - a))
    ok_d = cover_d.genus == 1 and cover_d.moduli_dimension() == 1
    record("d", "y^2-y=1/x+1/(x-a) has genus 1 and moduli dimension 1", ok_d)

    # (e) exactness of y^2 (y-1)^2 dy/dx
    ok_e = is_exact(BivariantForm(y**2 * (y - 1) ** 2))
    record("e", "y^2(y-1)^2 dy/dx is exact", ok_e)

    # (f) ledger totals 1, 0, 0 and monoid ranks 1, 2, 2
    A = strata.HurwitzData(2, 1, 0, 4, (2, 2, 2, 2))
    graphs = list(example_graphs())
    if perturb:
        G = graphs[0]
        e = G.source_edges[0]
        graphs[0] = strata.LevelGraph(
            G.p, G.regime, G.source_vertices,
            [strata.SourceEdge(e.id, e.v1, e.v2, e.slope + 1, e.image)],
            G.target_vertices, G.target_edges, G.markings,
        )
    ledgers = []
    for G in graphs:
        try:
            L = strata.stratum_dimension(G, A)
        except strata.GraphError:
            break
        ledgers.append((L.total, L.monoid_rank))
    ok_f = ledgers == [(1, 1), (0, 2), (0, 2)]
    record("f", "stratum dimensions 1, 0, 0 and monoid ranks 1, 2, 2", ok_f)

    # (g) four irreducible components
    comps = strata.enumerate_components(A, max_vertices=6)
    record("g", "4 irreducible components for (h,g,N,Lambda)=(1,0,4,(2,2,2,2))", len(comps) == 4)
    return report


def cmd_example6(args):
    spec = _get_field(args) if (args.field or os.environ.get(FIELD_ENV)) else None
    report = run_example6(spec, perturb=args.perturb)
    ok = all(item["ok"] for item in report)
    emit(args, {"ok": ok, "checks": report})
    if not ok:
        failing = ", ".join(item["check"] for item in report if not item["ok"])
        print(f"failing checks: {failing}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


class _HelpRequested(Exception):
    """-h or --help, carrying the usage text."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as CliError and -h/--help as _HelpRequested, so that both print one JSON line.

    Help is wrapped at the width argparse takes when stdout is not a
    terminal (80 columns less 2), so its bytes do not depend on $COLUMNS.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", functools.partial(argparse.HelpFormatter, width=78))
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise CliError(EXIT_PARSE, "parse", message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def build_parser():
    parser = _ArgumentParser(
        prog="loghurwitz",
        description="Cartier operators, Artin-Schreier covers, level graphs and marked loci over GF(p^k)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, payload in [
        ("cartier", _cartier_payload),
        ("tc", _tc_payload),
        ("exact", _exact_payload),
        ("quasi-exact", _quasi_exact_payload),
        ("ascover", _ascover_payload),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--field", help="field designator p^k (default from $" + FIELD_ENV + ")")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--expr", required=True, help="rational expression in y")
        p.add_argument("--bind", action="append", help="name=value element binding", default=[])
        p.set_defaults(func=cmd_expr, payload=payload)

    p = sub.add_parser("strata")
    p.add_argument("strata_cmd", choices=["validate", "dim", "monoid", "enumerate"])
    p.add_argument("--file", default="-", help="graph JSON file, - for stdin")
    p.add_argument("--datum", help="p,h,g,N")
    p.add_argument("--lambda", dest="lam", help="comma-separated lambda_i")
    p.add_argument("--xi", help="comma-separated xi_i")
    p.add_argument("--regime", choices=["mixed", "equicharacteristic"])
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--format", choices=["json", "text", "dot"], default="json")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("loci")
    p.add_argument("loci_cmd", choices=["search", "tangent", "formula"])
    p.add_argument("--field")
    p.add_argument("--pattern", required=True, help="comma-separated m_i")
    p.add_argument("--kind", required=True, help="exact or quasi-exact")
    p.add_argument("--pin", help="comma-separated pinned places, e.g. 0,1,inf")
    p.add_argument("--config", help="comma-separated marking places for tangent")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_loci)

    p = sub.add_parser("example6")
    p.add_argument("--field")
    p.add_argument("--perturb", action="store_true", help="negative control: break a slope")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_example6)
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe raises here, not in the interpreter's flush at exit
    except BrokenPipeError:  # the reader closed stdout (`| head`): write nothing more, as the signal docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _HelpRequested as exc:
        payload, code = {"help": str(exc)}, EXIT_OK
    except CliError as exc:
        payload, code = {"error": exc.kind, "message": str(exc)}, exc.code
    except ExprLimitError as exc:
        payload, code = {"error": "domain", "message": str(exc)}, EXIT_DOMAIN
    except ExprError as exc:
        payload, code = {"error": "parse", "message": str(exc)}, EXIT_PARSE
    except ValueError as exc:  # GraphError, CoverError and the other rejections of input
        payload, code = {"error": "domain", "message": str(exc)}, EXIT_DOMAIN
    sys.stdout.write(_dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
