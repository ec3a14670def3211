"""The mutation catalogue (tests/data/mutants.json) still applies to the tree; tests/data/run_mutants.py replays it."""

import importlib.util
import pathlib

RUNNER = pathlib.Path(__file__).parent / "data" / "run_mutants.py"


def test_each_mutant_snippet_occurs_once_and_its_test_files_exist():
    spec = importlib.util.spec_from_file_location("run_mutants", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    mutants, problems = runner.load()
    assert mutants and problems == []
