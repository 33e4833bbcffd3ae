import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import thetacomb
from thetacomb.cli import BLOCK_LINES, main
from thetacomb.counting import fib_numbers
from thetacomb.presheaf import BoundarySquareError, homology_f2
from thetacomb.trees import enumerate_trees
from thetacomb.verify import SUITES

from test_acceptance import serre_betti_z2

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


def test_em_homology_oracle_at_levels_3_and_4(capsys):
    for n in (3, 4):
        code, out, err = run_cli(
            capsys, "em", "homology", "--n", str(n), "--group", "z2", "--max-dim", "12",
            "--oracle",
        )
        assert code == 0 and err == ""
        table = [f"{d},{b}" for d, b in enumerate(serre_betti_z2(n, 12))]
        assert out.splitlines() == ["degree,betti_f2"] + table


def test_em_homology_oracle_reports_a_mismatch(capsys, monkeypatch):
    def off_by_one_in_degree_2(complex_, degree):
        return homology_f2(complex_, degree) + (degree == 2)

    # cmd_em imports homology_f2 from presheaf when it runs, so patch it there
    monkeypatch.setattr("thetacomb.presheaf.homology_f2", off_by_one_in_degree_2)
    code, out, err = run_cli(
        capsys, "em", "homology", "--n", "2", "--group", "z2", "--max-dim", "6",
        "--oracle",
    )
    assert code == 1 and out == ""
    assert err.splitlines() == ["homology mismatch in degree 2: 2 != oracle 1"]


def test_readme_examples_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("thetacomb ")]
    assert len(examples) >= 5
    for line in examples:
        code, _, err = run_cli(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)


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
    "em cells --n 2 --group z\u0662 --max-dim 3",
    "em cells --n 2 --group z\u00b2 --max-dim 3",
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
    # the usage line and the error name the subcommand, not the top-level parser
    words = argv.split()
    command = " ".join(words[: next(i for i, w in enumerate(words) if w.startswith("-"))])
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: thetacomb {command} [-h]")
    assert lines[-1].startswith(f"thetacomb {command}: error:")


@pytest.mark.parametrize("argv", [
    "trees --n 1500 --edges 1500 --pruned",
    "em cells --n 1500 --group z2 --max-dim 1500",
])
def test_too_deep_input_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "recursion limit" in err


def test_wide_corollas_are_answered(capsys):
    code, out, _ = run_cli(capsys, "trees", "--n", "1", "--edges", "1000", "--pruned")
    assert code == 0 and out == "[" + ",".join(["[]"] * 1000) + "]\n"
    code, out, _ = run_cli(
        capsys, "em", "cells", "--n", "1", "--group", "z2", "--max-dim", "1000"
    )
    assert code == 0
    assert out.splitlines() == ["dimension,count"] + [f"{d},1" for d in range(1001)]


def test_deep_homology_is_answered(capsys):
    # K(Z/2,250) through degree 250: the point and the linear 250-tree
    code, out, _ = run_cli(
        capsys, "em", "homology", "--n", "250", "--group", "z2", "--max-dim", "251"
    )
    assert code == 0
    betti = [1 if d in (0, 250) else 0 for d in range(251)]
    assert out.splitlines() == ["degree,betti_f2"] + [f"{d},{b}" for d, b in enumerate(betti)]


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.splitlines()[-1].endswith("checks passed")


VERIFY_REPORT = """\
PASS  identity laws, exhaustive n=2 trees <= 3 edges  (0 violations)
PASS  associativity, exhaustive n=2 trees <= 3 edges  (0/4164023 violations)
PASS  associativity, random n=3 trees <= 4 edges  (0 violations)
PASS  reedy factorization exists uniquely, exhaustive n=2 trees <= 3 edges  (0/558 operators failed)
PASS  Gamma identity laws, exhaustive endpoints <= 2  (0 violations)
PASS  Gamma associativity, exhaustive endpoints <= 2  (0/2457 violations)
PASS  gamma_n functoriality, exhaustive n=2 trees <= 3 edges  (0/47934 violations)
PASS  gamma_n functoriality, n=2 trees <= 2 edges into 4 edges  (0/8325 violations)
PASS  suspension triangle gamma_{n+1} o sigma_n = gamma_n  (0 violations)
PASS  homology of K(z2,1) vs oracle, degrees < 7  (chain [1, 1, 1, 1, 1, 1, 1] vs oracle [1, 1, 1, 1, 1, 1, 1])
PASS  labelled-tree boundary of K(z2,1) equals the Theta_n-set boundary  (degrees <= 7, 8 cells)
PASS  homology of K(z3,1) vs oracle, degrees < 6  (chain [1, 0, 0, 0, 0, 0] vs oracle [1, 0, 0, 0, 0, 0])
PASS  labelled-tree boundary of K(z3,1) equals the Theta_n-set boundary  (degrees <= 6, 127 cells)
PASS  homology of K(z2,2) vs oracle, degrees < 6  (chain [1, 0, 1, 1, 1, 2] vs oracle [1, 0, 1, 1, 1, 2])
PASS  labelled-tree boundary of K(z2,2) equals the Theta_n-set boundary  (degrees <= 6, 13 cells)
PASS  three-way count agreement, n <= 3, p <= 4, k <= 10  (0 mismatches)
PASS  euler characteristic p^((-1)^n), n <= 6, p <= 7  (0 mismatches)
17/17 checks passed
"""


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_verify_report(capsys, seed):
    # the seed draws the n = 3 sample; every check and count is exhaustive
    assert run_cli(capsys, "verify", "--suite", "all", "--seed", str(seed)) == (0, VERIFY_REPORT, "")


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


def test_closed_stdout_exits_0_quietly():
    # the listing (970 KB) is far larger than a pipe buffer, so the writer
    # meets the closed pipe
    child = subprocess.Popen(
        [sys.executable, "-m", "thetacomb.cli", "trees", "--n", "3", "--edges", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    first = child.stdout.readline()
    child.stdout.close()
    error = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0 and error == b""
    assert first == b"[[[[],[],[],[],[],[],[],[],[],[]]]]\n"


class CountingWriter(io.RawIOBase):
    """A raw writer that keeps what it is given and counts its write calls."""

    def __init__(self):
        self.data = bytearray()
        self.writes = 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def test_stdout_is_written_in_blocks(monkeypatch):
    # stdout as PYTHONUNBUFFERED makes it: each text write is a raw write
    def run(*argv):
        raw = CountingWriter()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(list(argv)) == 0
        return raw.writes, raw.data.decode()

    # the 970 KB listing, of more than one block
    writes, out = run("trees", "--n", "3", "--edges", "12")
    lines = [tree.render() for tree in enumerate_trees(3, 12)]
    assert len(lines) > BLOCK_LINES
    assert out == "".join(line + "\n" for line in lines)
    assert writes <= -(-len(lines) // BLOCK_LINES) + 1
    for argv in (
        ["em", "homology", "--n", "2", "--group", "z2", "--max-dim", "6"],
        ["count", "fib", "--n", "2", "--order", "3", "--terms", "8"],
    ):
        writes, out = run(*argv)
        assert writes == 1 and out.count("\n") == len(out.splitlines()) > 2


def _capped_env(megabytes):
    """A minimal child environment that still imports thetacomb and, when
    the tests were asked not to, writes no bytecode."""
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": PACKAGE_PATH,
        "THETA_MAX_MEM_MB": str(megabytes),
    }
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def test_memory_cap_aborts_with_exit_3():
    result = subprocess.run(
        [
            sys.executable, "-m", "thetacomb.cli",
            "trees", "--n", "4", "--edges", "15",
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


def test_em_cells_height_4_fits_a_small_cap():
    # the census lists pruned trees only; listing every tree of height
    # <= 4 with up to 15 edges took close to 1 GB
    result = subprocess.run(
        [
            sys.executable, "-m", "thetacomb.cli",
            "em", "cells", "--n", "4", "--group", "z2", "--max-dim", "15",
        ],
        capture_output=True,
        env=_capped_env(128),
    )
    assert result.returncode == 0
    rows = [line.split(b",") for line in result.stdout.splitlines()[1:]]
    assert [int(count) for _, count in rows[4:]] == fib_numbers(4, 2, 11)


def test_tree_listing_height_4_fits_a_small_cap():
    # the listing streams each root as its tuple of children; a shape
    # table that also kept the 797,162 roots needed more than 96 MB
    result = subprocess.run(
        [
            sys.executable, "-m", "thetacomb.cli",
            "trees", "--n", "4", "--edges", "14",
        ],
        capture_output=True,
        env=_capped_env(96),
    )
    assert result.returncode == 0
    assert result.stdout.count(b"\n") == 797162


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_memory_cap_bad_value_is_usage_error(value):
    result = subprocess.run(
        [
            sys.executable, "-m", "thetacomb.cli",
            "count", "euler", "--n", "2", "--order", "5",
        ],
        capture_output=True,
        env=_capped_env(value),
    )
    assert result.returncode == 2 and result.stdout == b""
    assert len(result.stderr.splitlines()) == 1
    assert b"THETA_MAX_MEM_MB" in result.stderr


def test_verify_reports_a_suite_that_raises(capsys, monkeypatch):
    def broken(seed):
        raise BoundarySquareError("boundary squared nonzero on ([], ())")

    monkeypatch.setitem(SUITES, "wreath-laws", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[0] == (
        "FAIL  wreath-laws  (BoundarySquareError: boundary squared nonzero on"
        " ([], ()), raised in broken)"
    )
    # the later suites still ran, and passed
    checks = len(lines) - 1
    assert checks > 10 and all(line.startswith("PASS") for line in lines[1:-1])
    assert lines[-1] == f"{checks - 1}/{checks} checks passed"


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_verify_resource_errors_still_exit_3(capsys, monkeypatch, error):
    def exhausted(seed):
        raise error()

    monkeypatch.setitem(SUITES, "counts", exhausted)
    assert run_cli(capsys, "verify", "--suite", "counts")[0] == 3
