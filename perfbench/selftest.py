"""Self-tests of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

Runs each workload at a tiny size through run.py, untraced and traced,
feeds every checker a deliberately wrong result and expects it reported,
and runs the benchmark without the package sources, where it must fail
without printing a result.  Takes about a minute.
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import cartier, ffield, loci, ratfunc, strata  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class TinyRuns(unittest.TestCase):
    """Every workload runs to its end, checks out and prints every metric."""

    EXPECTED_FAILED = {"cli-cold": 2}  # the two malformed-input invocations that crash today

    def check_run(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreater(result["attempted"], 0)
        per_round = self.EXPECTED_FAILED.get(workload, 0)
        if per_round:
            self.assertTrue(result["failed"] > 0 and result["failed"] % per_round == 0, result["failed"])
        else:
            self.assertEqual(result["failed"], 0)
        spec = benchmark_spec()
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_algebra(self):
        self.check_run("algebra", 0)
        traced = self.check_run("algebra", 1)
        self.assertGreater(traced["metrics"]["cartier.global_tc_matrix.calls"]["value"], 0)
        self.assertEqual(traced["metrics"]["strata.canonical_form.calls"]["value"], 0)

    def test_loci_grid(self):
        self.check_run("loci-grid", 0)
        traced = self.check_run("loci-grid", 1)
        self.assertGreater(traced["metrics"]["loci.membership_yield"]["value"], 0)

    def test_strata_enum(self):
        self.check_run("strata-enum", 0)
        traced = self.check_run("strata-enum", 1)
        self.assertGreater(traced["metrics"]["strata.candidate_yield"]["value"], 0)

    def test_cli_cold(self):
        result = self.check_run("cli-cold", 0)
        self.assertEqual(result["failed"], 2)
        traced = self.check_run("cli-cold", 1)
        self.assertGreater(traced["metrics"]["cli.import_s"]["value"], 0)
        self.assertGreater(traced["metrics"]["expr.parse_expression.calls"]["value"], 0)

    def test_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=tmp, script=os.path.join(tmp, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class Clock(unittest.TestCase):
    def test_reference_clock_samples_and_advances(self):
        with run.RefClock() as clock:
            t0 = clock.now()
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
            elapsed = clock.now() - t0
        self.assertGreaterEqual(len(clock.history), 4)  # the timer fired while the loop ran
        self.assertGreater(elapsed, 0)
        # the clock runs at CAL_REF_S over the machine's current sample time
        rate = run.CAL_REF_S / statistics.median(clock.history)
        self.assertLess(abs(elapsed / 0.3 - rate) / rate, 0.5)


class Accounting(unittest.TestCase):
    def test_crash_and_wrong_answer_are_failures(self):
        rec = run.Recorder(run.RefClock())
        rec.query("ok", lambda: 1, check=lambda r: None)
        rec.query("crash", lambda: 1 // 0, check=lambda r: None)
        rec.query("wrong", lambda: 2, check=lambda r: "two is wrong")
        rec.query("unreadable", lambda: None, check=lambda r: r["key"])
        self.assertEqual(len(rec.latencies), 4)
        self.assertEqual(rec.crashed, 1)
        self.assertEqual(rec.run_checks(), 2)


class Checkers(unittest.TestCase):
    """Each checker reports a deliberately wrong result and passes a right one."""

    @classmethod
    def setUpClass(cls):
        cls.spec = ffield.FieldSpec(3, 2)
        cls.y = ratfunc.RationalFunction.variable(cls.spec)

    def tc(self, f):
        return cartier.twisted_cartier(cartier.BivariantForm(f))

    def test_tc_laws(self):
        y, one = self.y, ratfunc.RationalFunction.constant(self.spec, 1)
        f, g = y**2 + y / (y - 1), (y + 2) / y
        right = [self.tc(f + g), self.tc(f), self.tc(g), self.tc(g**3 * f), self.tc(f.derivative())]
        self.assertIsNone(wl.check_laws(right, g))
        for i, wrong in ((0, right[0] + one), (3, right[3] + one), (4, self.tc(y**2))):
            self.assertIsNotNone(wl.check_laws(right[:i] + [wrong] + right[i + 1:], g))
        self.assertIsNotNone(wl.check_laws(right, g + one))  # semilinearity with the wrong g
        self.assertIsNone(wl.check_recombine(cartier.ppower_decompose(f), f))
        self.assertIsNotNone(wl.check_recombine(cartier.ppower_decompose(f), g))

    def test_tc_matrix(self):
        spec = ffield.FieldSpec(5, 1)
        m = (4, 3, 1)
        marked = [(ratfunc.Place.finite(spec.element(a)), v) for a, v in zip((0, 2, 4), m)]
        M = cartier.global_tc_matrix(spec, marked)
        self.assertIsNone(wl.check_tc_matrix(M, m, 5))
        self.assertIsNotNone(wl.check_tc_matrix(M, (4, 3, 6), 5))  # wrong target dimension
        M.rank -= 1
        self.assertIsNotNone(wl.check_tc_matrix(M, m, 5))
        M.rank += 1
        M.entries[0] = [0] * len(M.entries[0])
        self.assertIsNotNone(wl.check_tc_matrix(M, m, 5))  # rank disagrees with the oracle

    def test_cover(self):
        rng = random.Random(3)
        rhs, expected = wl._cover_rhs(self.spec, rng, 0)
        result = wl._cover_and_trace(self.spec, rhs)
        self.assertIsNone(wl.check_cover(result, expected, 3))
        wrong = dict(expected)
        b = next(iter(wrong))
        wrong[b] += 1
        self.assertIsNotNone(wl.check_cover(result, wrong, 3))

    def test_locus_search_and_tangent(self):
        spec = ffield.FieldSpec(2, 3)
        pattern = loci.ZeroPolePattern(2, (1, 1, 1, 1, -2))
        found = loci.locus_search(pattern, loci.QUASI_EXACT, spec)
        self.assertIsNone(wl.check_search(found, pattern, loci.QUASI_EXACT, len(found)))
        self.assertIsNotNone(wl.check_search(found, pattern, loci.QUASI_EXACT, len(found) + 1))
        # a configuration with the default pinned triple that the search did not return
        places = [ratfunc.Place.finite(spec.element(i)) for i in range(spec.q)]
        pinned = (places[0], places[1], ratfunc.INFINITY)
        hits = {c.points for c in found}
        outside = next(loci.MarkingConfig(spec, (a, b) + pinned) for a in places[2:] for b in places[2:]
                       if a != b and (a, b) + pinned not in hits)
        self.assertFalse(wl.in_locus(spec, outside.points, pattern.m, loci.QUASI_EXACT))
        self.assertIsNotNone(wl.check_search(found[1:] + [outside], pattern, loci.QUASI_EXACT, len(found)))
        report = loci.tangent_report(found[0], pattern, loci.QUASI_EXACT)
        want = oracles.locus_dimension(pattern.m, 2, "quasi_exact")
        self.assertIsNone(wl.check_tangent(report, want))
        self.assertIsNotNone(wl.check_tangent(report, want + 1))

    def test_strata(self):
        A = strata.HurwitzData(2, 1, 0, 4, (2,) * 4)
        comps = strata.enumerate_components(A, 6)
        self.assertIsNone(wl.check_classes(comps, A))
        rng = random.Random(5)
        twin = oracles.relabel(strata, comps[0], rng)
        self.assertIsNotNone(wl.check_classes(comps + [twin], A))  # isomorphic pair
        self.assertIsNotNone(wl.check_classes(comps[1:], A))  # oracle finds one more
        G = comps[0]
        self.assertIsNone(wl.check_valid(strata.validate(G, A)))
        self.assertIsNotNone(wl.check_valid(strata.validate(G, strata.HurwitzData(2, 1, 0, 4, (2, 2, 1, 1)))))
        L = strata.stratum_dimension(G, A)
        self.assertIsNone(wl.check_ledger(L, A))
        L.total += 1
        self.assertIsNotNone(wl.check_ledger(L, A))
        key = strata.canonical_form(G)
        self.assertIsNone(wl.check_same_key(strata.canonical_form(twin), key))
        self.assertIsNotNone(wl.check_same_key(strata.canonical_form(comps[1]), key))

    def test_isomorphism_oracle(self):
        A = strata.HurwitzData(2, 2, 0, 6, (2,) * 6)
        comps = strata.enumerate_components(A, 6)
        rng = random.Random(9)
        for G in comps[:20]:
            self.assertTrue(oracles.isomorphic_graphs(G, oracles.relabel(strata, G, rng)))
        self.assertFalse(any(oracles.isomorphic_graphs(comps[0], H) for H in comps[1:]))

    def test_rank_mod_p(self):
        self.assertEqual(oracles.rank_mod_p([[1, 2], [2, 4]], 5), 1)
        self.assertEqual(oracles.rank_mod_p([[1, 2], [2, 4]], 3), 1)
        self.assertEqual(oracles.rank_mod_p([[1, 2], [3, 4]], 5), 2)
        self.assertEqual(oracles.rank_mod_p([[1, 2], [3, 4]], 2), 1)

    def test_cli_check(self):
        check = wl.cli_check({0}, lambda o: o.get("count") == 4)
        self.assertIsNone(check((0, '{"count":4}\n')))
        self.assertIsNotNone(check((0, '{"count":5}\n')))  # wrong value
        self.assertIsNotNone(check((5, '{"count":4}\n')))  # wrong exit code
        self.assertIsNotNone(check((0, '{"count":4}\n{"count":4}\n')))  # two lines
        self.assertIsNotNone(check((0, "count: 4\n")))  # not JSON
        contract = wl.cli_check({2, 4})
        self.assertIsNone(contract((4, '{"error":"schema","message":"bad"}\n')))
        self.assertIsNotNone(contract((1, "")))


if __name__ == "__main__":
    unittest.main()
