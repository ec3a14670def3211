"""The four benchmark workloads.

Each workload has `setup(seed, tiny)`, which builds every field it uses
(uncached, through `FieldSpec`) and generates its inputs, and
`run_round(state, rec)`, which sends one fixed batch of queries through
`rec.query(...)`.  A query is one call into the package's public API, or
one CLI invocation; its check runs after the round, outside the timed
region.  The seed changes only the randomised inputs, never the make-up
of a round, so every round of a workload does the same kinds and number
of operations.

Package functions are always looked up on their module at call time
(`cartier.twisted_cartier`, never a name imported into this file), so
the per-layer tracer in `layers.py` sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import random
import subprocess
import sys

import oracles

# loghurwitz re-exports a function named `cartier`, which shadows the
# submodule as a package attribute, so the modules come from importlib.
ascover, cartier, cli, ffield, loci, ratfunc, strata = (
    importlib.import_module(f"loghurwitz.{name}")
    for name in ("ascover", "cartier", "cli", "ffield", "loci", "ratfunc", "strata")
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOCI_COUNTS = os.path.join(HERE, "loci_counts.json")


class CrashError(Exception):
    """The operation failed outright (an exception, or a CLI traceback)."""


def _cell_key(spec, m, kind):
    return f"{spec.p}^{spec.k}|{','.join(map(str, m))}|{kind}"


def _load_counts():
    with open(LOCI_COUNTS) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# algebra: tc laws, tc matrix sweeps and Artin-Schreier covers


def _rand_poly(spec, rng, deg):
    """A polynomial of exactly the given degree with random nonzero coefficients."""
    return ratfunc.Polynomial(spec, [spec.element(rng.randrange(1, spec.q)) for _ in range(deg + 1)])


def _rand_rational(spec, rng, num_deg, den_deg, coprime_to=None):
    """A random num/den of exactly these degrees, already reduced (and with den coprime to `coprime_to`).

    Redrawing instead of letting the fraction cancel keeps the cost of an
    instance independent of the seed: over GF(5) random cubics often share a root.
    """
    while True:
        num, den = _rand_poly(spec, rng, num_deg), _rand_poly(spec, rng, den_deg)
        if num.gcd(den).degree == 0 and (coprime_to is None or den.gcd(coprime_to).degree == 0):
            return ratfunc.RationalFunction(num, den)


def _cover_rhs(spec, rng, shape):
    """A random right-hand side g(x) and the conductor at each branch point it forces.

    `shape` fixes the pole orders (so every seed does the same amount of
    work); the branch points and coefficients are random.  Each pole
    order j is prime to p with a nonzero leading coefficient, so the
    conductor there is j + 1 whatever the lower terms reduce to.
    """
    p = spec.p
    RF = ratfunc.RationalFunction
    x = RF.variable(spec)
    rhs = RF.constant(spec, spec.element(rng.randrange(spec.q)))
    expected = {}
    orders = [j for j in range(1, 5) if j % p]
    for n, b in enumerate(rng.sample(range(spec.q), 2)):
        j = orders[(shape + n) % len(orders)]
        for i in range(1, j + 1):
            rhs = rhs + RF.constant(spec, spec.element(rng.randrange(1, spec.q))) / (x - spec.element(b)) ** i
        expected[ratfunc.Place.finite(spec.element(b))] = j + 1
    if shape % 2 == 0:
        d = orders[shape % len(orders)]
        for i in range(1, d + 1):
            rhs = rhs + RF.constant(spec, spec.element(rng.randrange(1, spec.q))) * x**i
        expected[ratfunc.INFINITY] = d + 1
    return rhs, expected


def _sweep_patterns(p, n_max, stride):
    """Every stride-th zero/pole pattern of criterion 3's sweep (lengths 1..n_max)."""
    pats = [m for n in range(1, n_max + 1) for m in oracles.pattern_pool(p, n)]
    return pats[::stride]


class Algebra:
    name = "algebra"
    # (p, k) of the fields whose forms and covers are exercised; GF(3^6) is
    # the mid-size field whose table build lands in setup_s.
    LAW_FIELDS = ((2, 4), (3, 2), (5, 1), (3, 6))
    SWEEPS = ((5, 4, 3), (7, 3, 3))  # (p, n_max, stride)

    def setup(self, seed, tiny=False):
        rng = random.Random(seed)
        fields = {pk: ffield.FieldSpec(*pk) for pk in self.LAW_FIELDS + ((7, 1),)}
        laws = 3 if tiny else 20
        covers = 3 if tiny else 25
        state = {"laws": [], "covers": [], "matrices": []}
        for pk in self.LAW_FIELDS:
            spec = fields[pk]
            # degrees cycle over a fixed schedule: the cost of an instance does not
            # depend on the seed, and the costs spread evenly instead of forming
            # one block of equal queries around the median
            for i in range(laws):
                d = 1 + i % 6
                f = _rand_rational(spec, rng, d, d - 1)
                g = _rand_rational(spec, rng, 1 + i % 3, 1 + i % 2, coprime_to=f.den)
                h = _rand_rational(spec, rng, d + 1, d)
                state["laws"].append((spec, f, g, f + g, g**spec.p * f, h.derivative()))
            for shape in range(covers):
                state["covers"].append((spec,) + _cover_rhs(spec, rng, shape))
        for p, n_max, stride in self.SWEEPS:
            spec = fields[(p, 1)]
            pats = _sweep_patterns(p, 2 if tiny else n_max, stride)
            for m in pats:
                # nonzero points: a marking at 0 makes sparser products, and a seed-dependent cost
                pts = rng.sample(range(1, spec.q), len(m))
                marked = [(ratfunc.Place.finite(spec.element(a)), v) for a, v in zip(pts, m)]
                state["matrices"].append((spec, m, marked))
        return state

    def run_round(self, state, rec):
        tc = lambda f: cartier.twisted_cartier(cartier.BivariantForm(f))
        # one query per instance evaluates every tc value its three laws need
        for spec, f, g, fg, gpf, dh in state["laws"]:
            rec.query("tc_laws", lambda: (tc(fg), tc(f), tc(g), tc(gpf), tc(dh)),
                      check=lambda r, g=g: check_laws(r, g))
            rec.query("ppower_decompose", cartier.ppower_decompose, f,
                      check=lambda r, f=f: check_recombine(r, f))
        for spec, m, marked in state["matrices"]:
            rec.query("global_tc_matrix", cartier.global_tc_matrix, spec, marked,
                      check=lambda r, m=m, p=spec.p: check_tc_matrix(r, m, p))
        for spec, rhs, expected in state["covers"]:
            rec.query("ascover", _cover_and_trace, spec, rhs,
                      check=lambda r, e=expected, p=spec.p: check_cover(r, e, p))


def check_laws(r, g):
    """Additivity, tc(g^p f) = g tc(f), and tc(h') = 0."""
    tc_sum, tc_f, tc_g, tc_gpf, tc_dh = r
    if tc_sum != tc_f + tc_g:
        return "tc(f+g) != tc(f) + tc(g)"
    if tc_gpf != g * tc_f:
        return "tc(g^p f) != g tc(f)"
    if not tc_dh.is_zero():
        return "tc(h') != 0"
    return None


def check_recombine(r, f):
    return None if r.recombine() == f else "ppower_decompose(f).recombine() != f"


def _cover_and_trace(spec, rhs):
    cover = ascover.ArtinSchreierCover.from_equation(spec, rhs)
    return cover, cover.trace_form()


def check_tc_matrix(M, m, p):
    target = sum(-(-v // p) for v in m) + 1
    if M.target_dim != target:
        return f"target dimension {M.target_dim}, expected {target} for {m}"
    if not M.surjective:
        return f"tc matrix not surjective for {m}"
    if oracles.rank_mod_p(M.entries, p) != M.rank:
        return f"rank {M.rank} differs from mod-{p} elimination for {m}"
    return None


def check_cover(result, expected, p):
    cover, tau = result
    got = dict(zip(cover.branch_points, cover.conductors))
    if got != expected:
        return f"conductors {got} != {expected}"
    if cover.genus != oracles.cover_genus(p, expected.values()):
        return f"genus {cover.genus} disagrees with Riemann-Hurwitz"
    for b, e in expected.items():
        if tau.plain_order(b) != (e - 1) * (p - 1):
            return f"trace order at {b} is {tau.plain_order(b)}, expected {(e - 1) * (p - 1)}"
    return None


# ---------------------------------------------------------------------------
# loci-grid: locus search per cell, then the tangent space at every hit


class LociGrid:
    name = "loci-grid"
    GRID = ((2, 3, 6), (3, 2, 5), (3, 3, 4), (3, 4, 4))  # (p, k, n_max)
    TINY_GRID = ((2, 3, 4), (3, 2, 4))

    def setup(self, seed, tiny=False):
        rng = random.Random(seed)
        counts = _load_counts()
        cells = []
        for p, k, n_max in self.TINY_GRID if tiny else self.GRID:
            spec = ffield.FieldSpec(p, k)
            a, b = rng.sample(range(spec.q), 2)
            pinned = (ratfunc.Place.finite(spec.element(a)), ratfunc.Place.finite(spec.element(b)),
                      ratfunc.INFINITY)
            for n in range(3, n_max + 1):
                for m in oracles.pattern_pool(p, n):
                    pattern = loci.ZeroPolePattern(p, m)
                    for kind in (loci.EXACT, loci.QUASI_EXACT):
                        cells.append((spec, pattern, kind, pinned, counts[_cell_key(spec, m, kind)]))
        return {"cells": cells}

    def run_round(self, state, rec):
        for spec, pattern, kind, pinned, count in state["cells"]:
            configs = rec.query("locus_search", loci.locus_search, pattern, kind, spec, pinned,
                                check=lambda r, pt=pattern, kd=kind, c=count: check_search(r, pt, kd, c))
            want = oracles.locus_dimension(pattern.m, pattern.p, kind)
            for config in configs or ():
                rec.query("tangent_report", loci.tangent_report, config, pattern, kind,
                          check=lambda r, w=want: check_tangent(r, w))


def check_search(configs, pattern, kind, count):
    if len(configs) != count:
        return f"{len(configs)} configurations for {pattern.m} {kind}, expected {count}"
    for config in configs:
        if not in_locus(config.spec, config.points, pattern.m, kind):
            return f"{config} is not in the {kind} locus of {pattern.m}"
    return None


def check_tangent(report, want):
    if report["dimension"] != want:
        return f"tangent dimension {report['dimension']} != closed form {want}"
    return None


def in_locus(spec, points, m, kind):
    """Membership through the generic path: tc of prod (y - p_i)^{m_i} dy/dx."""
    RF = ratfunc.RationalFunction
    y = RF.variable(spec)
    f = RF.constant(spec, 1)
    for q, mi in zip(points, m):
        if not q.is_infinity:
            f = f * (y - q.value) ** mi
    image = cartier.twisted_cartier(cartier.BivariantForm(f))
    if kind == loci.EXACT:
        return image.is_zero()
    return image.is_constant() and not image.is_zero()


# ---------------------------------------------------------------------------
# strata-enum: component enumeration and per-class level-graph calls


class StrataEnum:
    name = "strata-enum"
    MAX_VERTICES = 6
    ORACLE_B = (4,)  # b = 6 at the same vertex bound takes minutes; see README

    def setup(self, seed, tiny=False):
        data = [strata.HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b) for b in ((4, 6) if tiny else (4, 6, 8))]
        return {"data": data, "rng": random.Random(seed)}

    def run_round(self, state, rec):
        rng = state["rng"]
        for A in state["data"]:
            comps = rec.query("enumerate_components", strata.enumerate_components, A, self.MAX_VERTICES,
                              check=lambda r, A=A: check_classes(r, A))
            # b = 8 has 3,510 classes: relabel a seeded sample of 500 of them, which
            # keeps query_p50_ms inside the validate calls rather than on the edge
            # between the canonical_form and validate calls
            sample = set(rng.sample(range(len(comps or ())), min(500, len(comps or ())))) if A.b == 8 else None
            for idx, G in enumerate(comps or ()):
                relabels = 3 if sample is None else int(idx in sample)
                rec.query("validate", strata.validate, G, A, check=check_valid)
                rec.query("stratum_dimension", strata.stratum_dimension, G, A,
                          check=lambda r, A=A: check_ledger(r, A))
                key = rec.query("canonical_form", strata.canonical_form, G)
                for _ in range(relabels):
                    with rec.untimed():
                        H = oracles.relabel(strata, G, rng)
                    rec.query("canonical_form", strata.canonical_form, H,
                              check=lambda r, key=key: check_same_key(r, key))


def check_classes(comps, A):
    pairs = oracles.isomorphic_pairs(comps)
    if pairs:
        return f"{len(pairs)} isomorphic pairs among the b={A.b} classes"
    if A.b in StrataEnum.ORACLE_B:
        oracle = oracles.brute_force_components(strata, A, StrataEnum.MAX_VERTICES)
        if len(oracle) != len(comps) or not all(
            any(oracles.isomorphic_graphs(G, H) for H in comps) for G in oracle
        ):
            return f"b={A.b}: {len(comps)} classes, brute-force oracle finds {len(oracle)}"
    return None


def check_valid(report):
    return None if report.ok else f"class fails validation: {report.errors}"


def check_same_key(key, want):
    return None if key == want else "canonical form changed under relabelling"


def check_ledger(L, A):
    if L.total != A.N - 3 or L.e_d_hor or L.v_c_ex:
        return f"ledger total {L.total} (hor {L.e_d_hor}, ex {L.v_c_ex}) != N - 3 = {A.N - 3}"
    return None


# ---------------------------------------------------------------------------
# cli-cold: sequential CLI invocations, each in a fresh interpreter


def _elem_expr(p, k, idx):
    """An expression the CLI parses to the element with the given index."""
    terms = []
    for i in range(k):
        d = idx % p
        idx //= p
        if d:
            terms.append(str(d) if i == 0 else f"{d}*w" if i == 1 else f"{d}*w^{i}")
    return "(" + ("+".join(terms) or "0") + ")"


def _one_json_line(stdout):
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    try:
        return json.loads(lines[0])
    except ValueError:
        return None


def cli_check(expect_exit, predicate=None):
    """Check of one CLI result: its exit code, exactly one JSON line, then `predicate(obj)`."""

    def check(result):
        code, stdout = result
        obj = _one_json_line(stdout)
        if code not in expect_exit:
            return f"exit {code}, expected {sorted(expect_exit)}"
        if obj is None:
            return f"expected exactly one JSON line, got {stdout[:200]!r}"
        if predicate is not None and not predicate(obj):
            return f"unexpected output {stdout[:200]!r}"
        return None

    return check


def check_enumeration_json(obj, A, count):
    """The CLI's component list: the expected count, each valid with ledger total N - 3, no two isomorphic."""
    comps = [strata.LevelGraph.from_json_obj(g) for g in obj.get("components", ())]
    if obj.get("count") != count or len(comps) != count:
        return False
    if any(check_valid(strata.validate(G, A)) or check_ledger(strata.stratum_dimension(G, A), A) for G in comps):
        return False
    return not oracles.isomorphic_pairs(comps)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("LOGHURWITZ_FIELD", None)
    return env


def run_cli(argv, stdin=None, traced=None, clock=None):
    """Run one CLI invocation in a fresh interpreter; a traceback counts as a crash."""
    cmd = [sys.executable, "-m", "loghurwitz.cli"] if traced is None else [
        sys.executable, os.path.join(HERE, "cli_child.py")]
    with clock.child_process() if clock else contextlib.nullcontext():
        proc = subprocess.run(cmd + list(argv), input=stdin, capture_output=True, text=True,
                              env=cli_env(), cwd=ROOT, timeout=150)
    if traced is not None:
        traced.append(proc.stderr)
    if proc.returncode == 1 and "Traceback" in proc.stderr:
        raise CrashError(proc.stderr.strip().splitlines()[-1])
    return proc.returncode, proc.stdout


NO_WORK_ARGV = ["loci", "formula", "--field", "2", "--pattern", "2,2,-2", "--kind", "exact"]


class CliCold:
    name = "cli-cold"

    def setup(self, seed, tiny=False):
        rng = random.Random(seed)
        counts = _load_counts()
        calls = []  # (argv, stdin, check)

        def add(argv, check, stdin=None):
            # "--opt=value" keeps argparse from reading a value such as "-1/(y-1)^2" as an option
            args = []
            for a in map(str, argv):
                if args and args[-1].startswith("--") and "=" not in args[-1] and a.startswith("-"):
                    args[-1] += "=" + a
                else:
                    args.append(a)
            calls.append((args, stdin, check))

        # field-build dominated invocations
        heavy = [] if tiny else [(3, 7), (7, 4), (5, 4), (2, 16)]
        for p, k in heavy:
            c = rng.randrange(1, p**k)
            add(["quasi-exact", "--field", f"{p}^{k}", "--expr", f"{_elem_expr(p, k, c)}^{p}*y^{p - 1}"],
                cli_check({0}, lambda o, c=c: o.get("quasi_exact") is True and o.get("witness_index") == c))
        if not tiny:
            c = rng.randrange(1, 2**16)
            add(["ascover", "--field", "2^16", "--expr", f"{_elem_expr(2, 16, c)}*y^3"],
                cli_check({0}, lambda o: o.get("conductors") == [4] and o.get("genus") == 1))

        small = [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]
        reps = 1 if tiny else 2
        for p, k in small * reps:
            fld = f"{p}^{k}"
            q = p**k
            add(["tc", "--field", fld, "--expr", f"y^{p - 1}"],
                cli_check({0}, lambda o: o == {"classification": "quasi-exact", "result": "1"}))
            c = rng.randrange(1, q)
            add(["quasi-exact", "--field", fld, "--expr", f"{_elem_expr(p, k, c)}^{p}*y^{p - 1}"],
                cli_check({0}, lambda o, c=c: o.get("quasi_exact") is True and o.get("witness_index") == c))
            a = _elem_expr(p, k, rng.randrange(q))
            add(["exact", "--field", fld, "--expr", f"-1/(y-{a})^2"],
                cli_check({0}, lambda o: o == {"exact": True}))
            j = rng.choice([v for v in range(2, 2 * p + 2) if v % p])
            add(["tc", "--field", fld, "--expr", f"{j}*y^{j - 1}"],
                cli_check({0}, lambda o: o == {"classification": "exact", "result": "0"}))
            pole = rng.choice([v for v in range(1, 5) if v % p])
            add(["ascover", "--field", fld, "--expr", f"{_elem_expr(p, k, rng.randrange(1, q))}/(y-{a})^{pole}"],
                cli_check({0}, lambda o, j=pole, p=p: o.get("conductors") == [j + 1]
                          and o.get("genus") == oracles.cover_genus(p, [j + 1])
                          and list(o.get("trace_orders", {}).values()) == [{"plain": j * (p - 1), "log": j * (p - 1) + 1}]))
            m = rng.choice(oracles.pattern_pool(p, rng.randint(3, 5)))
            kind = rng.choice(["exact", "quasi-exact"])
            add(["loci", "formula", "--field", fld, "--pattern", ",".join(map(str, m)), "--kind", kind],
                cli_check({0}, lambda o, m=m, p=p, kd=kind: o.get("dimension") == oracles.locus_dimension(m, p, kd.replace("-", "_"))))

        # locus search and tangent over GF(2^3) and GF(3^2) with a seeded pinned triple
        for p, k in ((2, 3), (3, 2)):
            spec = ffield.FieldSpec(p, k)
            for _ in range(1 if tiny else 3):
                n = 4
                pool = oracles.pattern_pool(p, n)
                m = rng.choice(pool)
                kind = rng.choice([loci.EXACT, loci.QUASI_EXACT])
                a, b = rng.sample(range(spec.q), 2)
                pin = f"{_elem_expr(p, k, a)},{_elem_expr(p, k, b)},inf"
                want = counts[_cell_key(spec, m, kind)]
                add(["loci", "search", "--field", f"{p}^{k}", "--pattern", ",".join(map(str, m)),
                     "--kind", kind.replace("_", "-"), "--pin", pin],
                    cli_check({0}, lambda o, w=want: o.get("count") == w and len(o.get("configs", ())) == w))
            # a tangent query at a configuration found in-process (inputs, not timed)
            for _ in range(1 if tiny else 3):
                while True:
                    m = rng.choice(oracles.pattern_pool(p, 5))
                    kind = rng.choice([loci.EXACT, loci.QUASI_EXACT])
                    a, b = rng.sample(range(spec.q), 2)
                    pinned = (ratfunc.Place.finite(spec.element(a)), ratfunc.Place.finite(spec.element(b)),
                              ratfunc.INFINITY)
                    found = loci.locus_search(loci.ZeroPolePattern(p, m), kind, spec, pinned)
                    if found:
                        break
                config = rng.choice(found)
                cfg = ",".join("inf" if q.is_infinity else _elem_expr(p, k, q.value.idx) for q in config.points)
                want = oracles.locus_dimension(m, p, kind)
                add(["loci", "tangent", "--field", f"{p}^{k}", "--pattern", ",".join(map(str, m)),
                     "--kind", kind.replace("_", "-"), "--config", cfg],
                    cli_check({0}, lambda o, w=want: o.get("dimension") == w))

        # level graphs of the worked example, relabelled at random, on stdin
        graphs = [oracles.relabel(strata, G, rng).to_json() for G in cli.example_graphs()]
        for G, total, rank in zip(graphs, (1, 0, 0), (1, 2, 2)):
            add(["strata", "validate"], cli_check({0}, lambda o: o.get("ok") is True), G)
            add(["strata", "dim"], cli_check({0}, lambda o, t=total, r=rank:
                                              o.get("total") == t and o.get("monoid_rank") == r), G)
            add(["strata", "monoid"], cli_check({0}, lambda o, r=rank: o.get("monoid_rank") == r), G)
        # A middle class of invocations (example6, the b = 6 enumeration) sits
        # between the field-build ones and the rest, so that query_p90_ms falls
        # inside one kind of invocation instead of on the edge between two.
        for _ in range(1 if tiny else 3):
            add(["example6"], cli_check({0}, lambda o: o.get("ok") is True
                                        and all(c.get("ok") for c in o.get("checks", ()))
                                        and len(o.get("checks", ())) == 7))
        A6 = strata.HurwitzData(2, 2, 0, 6, (2,) * 6)
        count6 = len(strata.enumerate_components(A6, 6))
        for b, reps in ((4, 2), (6, 1 if tiny else 6)):
            A = strata.HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
            for _ in range(reps):
                add(["strata", "enumerate", "--datum", f"2,{A.h},0,{b}", "--lambda", ",".join(["2"] * b),
                     "--max-vertices", "6"],
                    cli_check({0}, lambda o, A=A: check_enumeration_json(o, A, 4 if A.b == 4 else count6)))
        # malformed input: the contract is exit 2 or 4 with one JSON line
        bad_graph = json.loads(graphs[0])
        bad_graph["p"] = "x"
        add(["strata", "enumerate", "--datum", "2,1", "--lambda", "2,2"], cli_check({2, 4}))
        add(["strata", "validate"], cli_check({2, 4}), json.dumps(bad_graph))
        return {"calls": calls}

    def run_round(self, state, rec):
        traced = state.get("traced")
        for argv, stdin, check in state["calls"]:
            rec.query(argv[0], run_cli, argv, stdin, traced, rec.clock, check=check)


WORKLOADS = {w.name: w for w in (Algebra(), LociGrid(), StrataEnum(), CliCold())}
