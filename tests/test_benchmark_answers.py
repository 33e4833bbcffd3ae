"""The benchmark's own answer check, run on the CLI in-process: a format
slip in the output, such as a lost newline, fails here, before a
benchmark run counts the query as answered wrong."""

import importlib.util
import sys
from pathlib import Path

import pytest

from thetacomb.cli import main

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module of its own, without putting
    perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


check = load("check")
workloads = load("workloads")

QUERIES = [
    tuple(arg.replace("{seed}", "0") for arg in query)
    for workload in workloads.WORKLOADS.values()
    for query in workload.queries
]


def test_the_checker_rejects_corrupted_answers():
    assert check.self_test() == []


@pytest.mark.parametrize("argv", QUERIES, ids=" ".join)
def test_every_benchmark_query_is_answered_correctly(capsys, argv):
    code = main(list(argv))
    assert check.check_answer(argv, code, capsys.readouterr().out) is None
