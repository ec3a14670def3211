"""Replay the mutation catalogue, mutants.json: every mutant must fail the tests it names.

Usage (from the repository root):

    python3 tests/data/run_mutants.py

For each mutant, src/ and tests/ are copied to a temporary directory,
and the mutant's snippet is replaced there, never in the working tree.
`python -m pytest -x -q` then runs the mutant's test
files in the copy, with the copy's src/ on PYTHONPATH.  The mutant is
killed when pytest reports a failing test (exit 1).  It survives when the
tests pass, when the run exceeds TIMEOUT_S, or when pytest stops for
another reason, such as a collection error.  Each survivor is printed,
and the script exits 1 if any survives.  A snippet that no longer occurs
exactly once is an error in the catalogue: the script exits 2 before it
runs anything.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CATALOGUE = os.path.join(HERE, "mutants.json")
TIMEOUT_S = 600  # per mutant; the slowest kill took 25 s on a 2-core VM


def load():
    """(mutants, problems): the catalogue, checked against the tree for one snippet occurrence and existing test files."""
    with open(CATALOGUE, encoding="utf-8") as fh:
        mutants = json.load(fh)["mutants"]
    problems = []
    for m in mutants:
        with open(os.path.join(ROOT, m["file"]), encoding="utf-8") as fh:
            count = fh.read().count(m["snippet"])
        if count != 1:
            problems.append(f"{m['id']}: the snippet occurs {count} times in {m['file']}")
        problems += [f"{m['id']}: no test file {t}" for t in m["tests"] if not os.path.isfile(os.path.join(ROOT, t))]
    return mutants, problems


def run_mutant(m):
    """(killed, what happened) for one mutant, run in a fresh copy of src/ and tests/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = os.path.join(tmp, m["file"])
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m["snippet"], m["replacement"]))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m["tests"]]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 1, f"pytest exit {proc.returncode}: {lines[-1] if lines else ''}"


def main():
    mutants, problems = load()
    if problems:
        print("\n".join(problems))
        return 2
    survivors = 0
    start = time.perf_counter()
    for m in mutants:
        t0 = time.perf_counter()
        killed, what = run_mutant(m)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'} {m['id']} ({time.perf_counter() - t0:.1f} s; {what})", flush=True)
    print(f"{survivors} survivor(s), {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
