"""Write cli_corpus.json: the exit code and output hashes of the cli-cold benchmark calls.

Usage (from the repository root): python3 tests/data/make_cli_corpus.py

The calls are those that perfbench/workloads.py's CliCold.setup builds
for seeds 1, 2 and 3, in that order.  Each runs as a fresh
`python -m loghurwitz.cli` process with src/ on PYTHONPATH and
LOGHURWITZ_FIELD unset.  Per call the file keeps the argv, the stdin
text (or null), the exit code and the sha256 of stdout and of stderr.
tests/test_cli_corpus.py replays the calls in one process.  A change
that moves any CLI byte on purpose runs this script again and says in
CHANGES.md which calls moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEEDS = (1, 2, 3)
CORPUS = os.path.join(HERE, "cli_corpus.json")

sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import CliCold  # noqa: E402


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("LOGHURWITZ_FIELD", None)
    calls = []
    for seed in SEEDS:
        for argv, stdin, _check in CliCold().setup(seed)["calls"]:
            proc = subprocess.run([sys.executable, "-m", "loghurwitz.cli", *argv], input=stdin,
                                  capture_output=True, text=True, env=env, cwd=ROOT, timeout=150)
            calls.append({"argv": argv, "stdin": stdin, "code": proc.returncode,
                          "stdout": sha256(proc.stdout), "stderr": sha256(proc.stderr)})
    with open(CORPUS, "w") as fh:
        json.dump({"seeds": list(SEEDS), "calls": calls}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(calls)} calls")


if __name__ == "__main__":
    main()
