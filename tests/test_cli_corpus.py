"""The CLI corpus: every recorded call gives its recorded exit code and output bytes.

tests/data/cli_corpus.json holds the cli-cold benchmark calls of seeds
1-3, recorded from fresh processes by tests/data/make_cli_corpus.py.
Each call is replayed here through cli.main in this process, with
stdin, stdout and stderr swapped for StringIO and LOGHURWITZ_FIELD
unset, and the sha256 of each stream is compared with the record.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from loghurwitz import cli

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())["calls"]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_holds_every_call():
    """333 calls; the two malformed inputs of each seed exit 2 and 4."""
    codes = [call["code"] for call in CORPUS]
    assert len(CORPUS) == 333 and codes.count(2) == 3 and codes.count(4) == 3 and codes.count(0) == 327


@pytest.mark.parametrize("call", CORPUS, ids=[f"{i:03d}-{c['argv'][0]}" for i, c in enumerate(CORPUS)])
def test_replay_gives_the_recorded_bytes(monkeypatch, call):
    monkeypatch.delenv(cli.FIELD_ENV, raising=False)
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(call["stdin"] or ""))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = cli.main(list(call["argv"]))
    got = {"code": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}
    want = {key: call[key] for key in got}
    assert got == want, f"argv {call['argv']}: recorded {want}, replayed {got}"
