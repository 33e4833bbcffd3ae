import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetacomb
from thetacomb.cli import main

# the directory holding the thetacomb the tests imported, installed or not,
# for child processes
PACKAGE_PATH = str(Path(thetacomb.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trees_listing(capsys):
    code, out, _ = run_cli(capsys, "trees", "--n", "2", "--edges", "2")
    assert code == 0
    assert out.splitlines() == ["[[[]]]", "[[],[]]"]
    code, out, _ = run_cli(capsys, "trees", "--n", "1", "--edges", "3")
    assert code == 0 and out.splitlines() == ["[[],[],[]]"]
    code, out, _ = run_cli(capsys, "trees", "--n", "2", "--edges", "4", "--pruned")
    assert code == 0 and len(out.splitlines()) == 2


def test_em_cells_table(capsys):
    code, out, _ = run_cli(
        capsys, "em", "cells", "--n", "2", "--group", "z2", "--max-dim", "7"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension,count"
    assert [line.split(",")[1] for line in lines[1:]] == [
        "1", "0", "1", "1", "2", "3", "5", "8"
    ]
    code, out, _ = run_cli(
        capsys, "em", "cells", "--n", "3", "--group", "z2", "--max-dim", "2"
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["1", "0", "0"]


def test_em_cells_json(capsys):
    code, out, _ = run_cli(
        capsys, "em", "cells", "--n", "1", "--group", "z3", "--max-dim", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"dimension": 0, "count": 1},
        {"dimension": 1, "count": 2},
        {"dimension": 2, "count": 4},
        {"dimension": 3, "count": 8},
    ]


def test_em_homology_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "em", "homology", "--n", "1", "--group", "z2", "--max-dim", "6",
        "--oracle",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,betti_f2"
    assert [line.split(",")[1] for line in lines[1:]] == ["1"] * 6


def test_em_homology_oracle_unsupported_level(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("chain complex built before the oracle check")

    monkeypatch.setattr("thetacomb.cli.chain_complex", refuse)
    code, _, err = run_cli(
        capsys, "em", "homology", "--n", "3", "--group", "z2", "--max-dim", "4",
        "--oracle",
    )
    assert code == 3 and "unsupported" in err


def test_count_fib(capsys):
    code, out, _ = run_cli(capsys, "count", "fib", "--n", "2", "--order", "2")
    assert code == 0
    assert out.splitlines() == ["k,f", "0,1", "1,1", "2,2", "3,3", "4,5", "5,8"]
    code, out, _ = run_cli(
        capsys, "count", "fib", "--n", "2", "--order", "3", "--terms", "5"
    )
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "2", "4", "12", "32", "88"
    ]


def test_count_euler(capsys):
    code, out, _ = run_cli(capsys, "count", "euler", "--n", "1", "--order", "2")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run_cli(capsys, "count", "euler", "--n", "2", "--order", "3")
    assert code == 0 and out.strip() == "3"


def test_count_rejects_trivial_group(capsys):
    code, _, err = run_cli(capsys, "count", "fib", "--n", "2", "--order", "1")
    assert code == 2 and "order" in err


@pytest.mark.parametrize("argv", [
    "em cells --n 0 --group z2 --max-dim 3",
    "em cells --n 2 --group zz --max-dim 3",
    "em cells --n 2 --group z0 --max-dim 3",
    "em cells --n 2 --group z2 --max-dim -1",
    "em homology --n 2 --group z2 --max-dim -2",
    "count fib --n 0 --order 2",
    "count fib --n 2 --order 2 --terms 0",
    "count fib --n 2 --order 2 --terms -2",
    "count euler --n 0 --order 2",
    "trees --n 2 --edges -3",
    "trees --n -1 --edges 2",
    "trees --n 0 --edges 2 --pruned",
])
def test_bad_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.splitlines()[-1].endswith("checks passed")


def test_verify_bogus_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_usage_errors(capsys):
    assert run_cli(capsys, "trees", "--n", "2")[0] == 2  # missing --edges
    assert run_cli(capsys, "em", "cells", "--n", "2")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_deterministic_output():
    cmd = [
        sys.executable, "-m", "thetacomb.cli",
        "em", "cells", "--n", "2", "--group", "z2", "--max-dim", "6",
    ]
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def _capped_env(megabytes):
    """A minimal child environment that still imports thetacomb."""
    return {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": PACKAGE_PATH,
        "THETA_MAX_MEM_MB": str(megabytes),
    }


def test_memory_cap_aborts_with_exit_3():
    result = subprocess.run(
        [
            sys.executable, "-m", "thetacomb.cli",
            "trees", "--n", "4", "--edges", "14",
        ],
        capture_output=True,
        env=_capped_env(48),
    )
    assert result.returncode == 3
    assert b"memory cap" in result.stderr


def test_memory_cap_generous_limit_succeeds():
    result = subprocess.run(
        [
            sys.executable, "-m", "thetacomb.cli",
            "count", "euler", "--n", "2", "--order", "5",
        ],
        capture_output=True,
        env=_capped_env(512),
    )
    assert result.returncode == 0 and result.stdout.strip() == b"5"
