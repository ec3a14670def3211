"""loghurwitz benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {algebra,loci-grid,strata-enum,cli-cold}
                             --seed N --seconds S --trace {0,1}

The workload runs closed-loop: one client, one query at a time, single
threaded.  A run repeats whole rounds (the workload's fixed batch of
queries) until S seconds have passed, at least one round.  Every query's
result is checked after its round, outside the timed region.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (setup_s, wall_s, query_p50_ms, query_p90_ms,
peak_rss_mb); with --trace 1 they are the per-layer ones of `layers.py`.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

# The clock's scale: where one calibration sample takes CAL_REF_S, the clock
# reads wall-clock seconds.  A sample takes about this long on a 2-core Xeon
# VM at 2.1 GHz under Python 3.11.7.
CAL_REF_S = 200e-6
SAMPLE_PERIOD_S = 0.05


def _calibration_work():
    """A fixed slice of dict, tuple, list and integer work, like the package's own."""
    table = {}
    for i in range(400):
        table[(i, i % 7)] = [i, i * 3 % 11]
    acc = 0
    for key, value in table.items():
        acc += key[0] * value[1] % 5
    return acc


class RefClock:
    """A clock that runs at the reference speed of the machine.

    A shared machine's speed drifts: on a 2-core Xeon VM a fixed loop ran
    up to 1.7 times slower for stretches of 5 to 40 s, so raw timings of a
    20 s run spread by 15 to 30 % between runs.  Every SAMPLE_PERIOD_S a timer signal runs
    one calibration sample; until the next sample this clock advances
    CAL_REF_S / (median of the last five samples) seconds per wall-clock
    second.  The samples themselves are left out of the clock.  Every time
    the benchmark reports is read from this clock, so a change in the
    program moves it in full while a change in the machine's speed cancels.
    """

    def __init__(self):
        self.samples = collections.deque(maxlen=5)
        self.history = []
        self.state = (time.perf_counter(), 0.0, 1.0)  # (wall anchor, clock at anchor, rate)

    def now(self):
        anchor, at_anchor, rate = self.state  # one read, so a sample cannot tear it
        return at_anchor + (time.perf_counter() - anchor) * rate

    def _sample(self, *_):
        t0 = time.perf_counter()
        anchor, at_anchor, rate = self.state
        at_anchor += (t0 - anchor) * rate
        _calibration_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.history.append(t1 - t0)
        self.state = (time.perf_counter(), at_anchor, CAL_REF_S / statistics.median(self.samples))

    @contextlib.contextmanager
    def child_process(self):
        """Sample just before and just after a child process instead of beside it.

        The child runs on the other CPU, and samples taken while it runs
        would measure the contention between the two.  The time the child
        takes advances the clock at the mean of the two rates.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        try:
            yield
        finally:
            anchor, at_anchor, before = self.state
            end = time.perf_counter()
            self._sample()
            after_anchor, _, after = self.state
            self.state = (after_anchor, at_anchor + (end - anchor) * (before + after) / 2, after)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Recorder:
    """Latencies, deferred checks and failures of the queries of one round."""

    def __init__(self, clock):
        self.clock = clock
        self.latencies = []
        self.pending = []
        self.crashed = 0
        self.paused = 0.0

    def query(self, label, fn, *args, check=None):
        t0 = self.clock.now()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, never fatal
            self.latencies.append(self.clock.now() - t0)
            self.crashed += 1
            print(f"failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.latencies.append(self.clock.now() - t0)
        if check is not None:
            self.pending.append((label, check, result))
        return result

    @contextlib.contextmanager
    def untimed(self):
        """Benchmark-side work between queries that wall_s must not include."""
        t0 = self.clock.now()
        try:
            yield
        finally:
            self.paused += self.clock.now() - t0

    def run_checks(self):
        """Number of wrong answers among the round's checked results."""
        wrong = 0
        for label, check, result in self.pending:
            try:
                problem = check(result)
            except Exception as exc:  # a result the check cannot read is wrong
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                wrong += 1
                print(f"wrong: {label}: {problem}", file=sys.stderr)
        self.pending = []
        return wrong


def _child_seconds(clock, cmd, env):
    t0 = clock.now()
    with clock.child_process():
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
    elapsed = clock.now() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def measure_setup(clock, workload, seed):
    """Median wall time of a fresh process doing the workload's set-up.

    For in-process workloads the child starts the interpreter, imports
    loghurwitz, builds every field and generates the inputs.  For
    cli-cold it is a CLI invocation that does no mathematical work.
    """
    import workloads

    env = workloads.cli_env()
    if workload.name == "cli-cold":
        cmd = [sys.executable, "-m", "loghurwitz.cli"] + workloads.NO_WORK_ARGV
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload.name,
               "--seed", str(seed), "--setup-only"]
    return statistics.median(_child_seconds(clock, cmd, env) for _ in range(SETUP_REPEATS))


def _cpu_seconds():
    """CPU time of this process and its waited-for children (checks included)."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args):
    with RefClock() as clock:
        return run_with_clock(args, clock)


def run_with_clock(args, clock):
    import workloads
    from layers import Tracer

    workload = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(clock, workload, args.seed)

    tracer = None
    if args.trace and workload.name != "cli-cold":
        tracer = Tracer().install()
    state = workload.setup(args.seed, tiny=args.tiny)
    child_reports = None
    if args.trace and workload.name == "cli-cold":
        child_reports = state["traced"] = []
    after_setup = tracer.snapshot() if tracer else None

    latencies, walls = [], []
    attempted = failed = wrong_total = 0
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        rec = Recorder(clock)
        t0 = clock.now()
        workload.run_round(state, rec)
        walls.append(clock.now() - t0 - rec.paused)
        saved = tracer.snapshot() if tracer else None
        wrong = rec.run_checks()
        if tracer:
            tracer.restore(saved)
        latencies.extend(rec.latencies)
        attempted += len(rec.latencies)
        failed += rec.crashed + wrong
        wrong_total += wrong

    rounds = len(walls)
    raw_s = (time.perf_counter() - start) / rounds
    cpu_s = (_cpu_seconds() - cpu0) / rounds
    wall_s = statistics.median(walls)
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "query_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        if tracer:
            for name, total in tracer.snapshot().items():
                base = after_setup.get(name, 0)
                tracer.values[name] = base + (total - base) / rounds
            metrics = tracer.metrics()
            tracer.uninstall()
        else:
            metrics = cli_layer_metrics(child_reports, latencies, rounds)
        write_trace(args, {"rounds": rounds, "walls_s": walls, "setup": after_setup,
                           "metrics": {k: v["value"] for k, v in metrics.items()}})
    print(f"{workload.name}: {rounds} round(s), {attempted} queries, {failed} failed, "
          f"{wrong_total} wrong, wall_s {wall_s:.3f}; per round with checks: raw wall {raw_s:.3f} s, "
          f"cpu {cpu_s:.3f} s; calibration median {statistics.median(clock.history) * 1e6:.1f} us "
          f"over {len(clock.history)} samples", file=sys.stderr)
    return {"correct": wrong_total == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_trace(args, data):
    """Keep the traced run's aggregates under .bench_build/perfbench for later inspection."""
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(dict(data, workload=args.workload, seed=args.seed), fh, indent=1, sort_keys=True)


def cli_layer_metrics(stderr_texts, latencies, rounds):
    """Per-layer metrics of cli-cold: child counters per round, child phase times as medians."""
    import layers

    totals = layers.Tracer()
    phases = {"import_s": [], "field_s": [], "command_s": []}
    for text in stderr_texts:
        for line in text.splitlines():
            if line.startswith(layers.TRACE_MARKER):
                report = json.loads(line[len(layers.TRACE_MARKER):])
                for name, value in report["layers"].items():
                    totals.add(name, value / rounds)
                for name in phases:
                    phases[name].append(report[name])
    extra = {f"cli.{name}": statistics.median(values) if values else 0.0 for name, values in phases.items()}
    extra["cli.process_s"] = statistics.median(latencies)
    return totals.metrics(extra=extra)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help="run each workload at a tiny size (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "loghurwitz", "__init__.py")):
        print(f"loghurwitz sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import loghurwitz

    if not os.path.abspath(loghurwitz.__file__).startswith(SRC + os.sep):
        print(f"imported loghurwitz from {loghurwitz.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload].setup(args.seed, tiny=args.tiny)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
