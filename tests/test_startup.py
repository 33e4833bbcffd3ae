"""What a cold start loads: the package's lazy exports, the modules each
CLI command imports (json only for --format json), and the plain classes
that stand where dataclasses stood (dataclasses imports inspect, ast and
dis)."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import thetacomb
from thetacomb import cli, verify
from thetacomb.gamma import FiniteAbelianGroup, parse_group
from thetacomb.presheaf import F2ChainComplex, FiniteThetaSet
from thetacomb.hashcons import intern

from oracles import DeltaClass, NGraph

PACKAGE_PATH = str(Path(thetacomb.__file__).resolve().parent.parent)
TESTS_PATH = str(Path(__file__).resolve().parent)

# run a CLI command in a fresh interpreter and print its exit code and the
# modules it loaded; the harness itself imports only os and sys
LOADED = """
import os, sys
from thetacomb.cli import main
sys.stdout = open(os.devnull, "w")
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(sys.modules), file=sys.__stdout__)
"""


def loaded_modules(argv: list[str]) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", LOADED, *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert result.returncode == 0, result.stderr
    code, *modules = result.stdout.split()
    assert code == "0"
    return set(modules)


def package_modules(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("thetacomb.")}


COMMANDS = {
    "count": ["count", "euler", "--n", "1", "--order", "2"],
    "count fib": ["count", "fib", "--n", "2", "--order", "3", "--terms", "8"],
    "trees": ["trees", "--n", "3", "--edges", "5", "--pruned"],
    "em cells": ["em", "cells", "--n", "2", "--group", "z2", "--max-dim", "5"],
    "em homology": ["em", "homology", "--n", "2", "--group", "z2", "--max-dim", "5"],
    "em homology --oracle":
        ["em", "homology", "--n", "2", "--group", "z2", "--max-dim", "5", "--oracle"],
}


def test_each_command_loads_only_what_it_runs():
    loaded = {name: loaded_modules(argv) for name, argv in COMMANDS.items()}
    for name, modules in loaded.items():
        assert "dataclasses" not in modules, name
        assert "json" not in modules, name  # CSV output
        assert "verify" not in package_modules(modules), name
    assert "json" in loaded_modules([*COMMANDS["em cells"], "--format", "json"])
    for name in ("count", "count fib"):
        assert package_modules(loaded[name]) == {"cli", "counting"}, name
    assert "fractions" not in loaded["count fib"]  # it builds no rational
    for name in ("em cells", "em homology", "em homology --oracle"):
        assert not package_modules(loaded[name]) & {"theta", "simplex"}, name
    assert package_modules(loaded["trees"]) == {"cli", "trees", "hashcons"}
    # the parser alone loads no module of the package but cli
    parser = loaded_modules([])
    assert package_modules(parser) == {"cli"}
    # verify loads every module of the package and, beyond the parser's,
    # only the standard modules that fractions (the counts suite) pulls in
    loaded = loaded_modules(["verify", "--suite", "all"])
    assert package_modules(loaded) == {
        "cli", "counting", "gamma", "hashcons", "presheaf", "simplex", "theta", "trees", "verify"
    }
    assert {m for m in loaded - parser if not m.startswith("thetacomb.")} <= {
        "_decimal", "_locale", "decimal", "fractions", "locale", "numbers"
    }


# run CLI commands in a fresh interpreter and print their exit codes, the
# number of trees alive after each, all of them interned, the modules among
# theta and simplex they loaded and the Gamma memo's size
MEMO_SIZES = """
import gc, json, os, sys
from thetacomb.cli import main
sys.stdout = open(os.devnull, "w")
codes, shapes = [], []
for argv in json.loads(sys.argv[1]):
    codes.append(main(argv))
    tree = sys.modules["thetacomb.trees"].LevelTree
    shapes.append(sum(isinstance(x, tree) for x in gc.get_objects()))
loaded = [m for m in ("thetacomb.theta", "thetacomb.simplex") if m in sys.modules]
from thetacomb import gamma
print(json.dumps([codes, shapes, loaded, gamma.compose_gamma.cache_info().currsize]),
      file=sys.__stdout__)
"""


@pytest.mark.parametrize("name", ["count fib", "em homology"])  # em cells: test_cli
def test_json_output_is_the_csv_table(name, capsys):
    assert cli.main(COMMANDS[name]) == 0
    header, *rows = (line.split(",") for line in capsys.readouterr().out.splitlines())
    assert cli.main([*COMMANDS[name], "--format", "json"]) == 0
    table = [dict(zip(header, map(int, row))) for row in rows]
    assert capsys.readouterr().out == json.dumps(table) + "\n"


def test_em_queries_fill_no_composition_memo():
    # the memory-bound em frontier never imports theta or simplex, so it
    # composes no Theta or Delta operator, and it composes no Gamma operator;
    # it folds words and leaf counts, so no tree but the leaf is interned
    commands = [
        ["em", "homology", "--n", "3", "--group", "z2", "--max-dim", "8"],
        ["em", "cells", "--n", "4", "--group", "z2", "--max-dim", "13"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", MEMO_SIZES, json.dumps(commands)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, 0], [1, 1], [], 0]


def test_every_export_resolves_to_the_object_in_its_home_module():
    assert len(thetacomb.__all__) == len(set(thetacomb.__all__)) > 35
    for name in thetacomb.__all__:
        value = getattr(thetacomb, name)
        if name in ("counting", "gamma", "presheaf", "simplex", "theta", "trees"):
            assert value is sys.modules[f"thetacomb.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_the_em_functions_are_exported():
    from thetacomb import em_cell_count, em_cells, em_chains, presheaf

    assert em_cells is presheaf.em_cells
    assert em_cell_count is presheaf.em_cell_count
    assert em_chains is presheaf.em_chains


def test_dir_and_star_import_cover_the_exports():
    assert set(thetacomb.__all__) <= set(dir(thetacomb))
    namespace: dict = {}
    exec("from thetacomb import *", namespace)
    assert set(thetacomb.__all__) <= set(namespace)
    assert namespace["parse_group"] is parse_group


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'thetacomb' has no attribute 'no_such_name'"):
        thetacomb.no_such_name
    with pytest.raises(ImportError):
        exec("from thetacomb import no_such_name", {})


VALUES = [
    (FiniteAbelianGroup, ((2, 4),), "FiniteAbelianGroup(cyclic_orders=(2, 4))"),
    (DeltaClass, ("face", True, False), "DeltaClass(kind='face', inner=True, outer=False)"),
]


@pytest.mark.parametrize("cls, fields, text", VALUES)
def test_value_classes_are_hash_consed(cls, fields, text):
    x = cls(*fields)
    equal = [tuple(list(f)) if isinstance(f, tuple) else f for f in fields]
    assert cls(*equal) is x
    assert cls(**dict(zip(cls._fields, equal))) is x
    for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert copied is x
    with pytest.raises(AttributeError):
        setattr(x, cls._fields[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(x, cls._fields[0])
    assert not hasattr(x, "__dict__") and repr(x) == text


def test_rejected_values_raise_as_before_and_are_not_kept():
    cases = [
        (lambda: parse_group("z0"), ValueError, "cyclic orders must be >= 1"),
        (lambda: FiniteAbelianGroup((2, 0)), ValueError, "cyclic orders must be >= 1"),
    ]
    before = intern.cache_info().currsize
    for build, error, message in cases:
        for _ in range(2):
            with pytest.raises(error) as raised:
                build()
            assert str(raised.value) == message and intern.cache_info().currsize == before


def test_records_keep_their_constructors_and_stay_mutable():
    chains = F2ChainComplex(dim_bound=0, basis=[["pt"]], boundary=[[0]], ranks=[0])
    theta_set = FiniteThetaSet(1, act=lambda f, x: x, cells=lambda d: [])
    graph = NGraph(cells=(((0,),),), source={}, target={})
    assert theta_set.cells(0) == []
    assert chains.basis == [["pt"]] and graph.dimension == 0
    for record in (chains, theta_set, graph):
        assert not hasattr(record, "__dict__")
    chains.ranks = [1]
    assert chains.ranks == [1]


def test_suite_names_are_those_of_verify():
    assert cli.SUITE_NAMES == tuple(verify.SUITES)
