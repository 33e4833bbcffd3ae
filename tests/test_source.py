"""Static checks on the package source, with the standard library only."""

import ast
import inspect
import sys
from pathlib import Path

import thetacomb
from thetacomb import presheaf

PACKAGE_DIR = Path(thetacomb.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never mentions again.  A name counts
    as used when it appears as an identifier anywhere in the module, the
    base of an attribute access included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


def test_unused_imports_are_found():
    source = "import os\nfrom sys import argv, path\nprint(os.sep, argv)\n"
    assert unused_imports(source) == ["path (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names only to re-export them
    paths = [*sorted(PACKAGE_DIR.glob("*.py")), *sorted(TESTS_DIR.glob("*.py"))]
    for path in paths:
        if path.name != "__init__.py":
            assert unused_imports(path.read_text()) == [], path.name


def foreign_imports(source: str) -> list[str]:
    """The absolute imports of a module that are neither __future__ nor
    in the standard library."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append((node.module, node.lineno))
    return [
        f"{name} (line {line})"
        for name, line in modules
        if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names
    ]


def test_foreign_imports_are_found():
    source = "import os.path, numpy\nfrom . import trees\nfrom scipy import linalg\n"
    assert foreign_imports(source) == ["numpy (line 1)", "scipy (line 3)"]


def test_package_imports_only_the_standard_library():
    # the package is a stdlib-only calculator at run time (README)
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        assert foreign_imports(path.read_text()) == [], path.name


def lru_cache_uses(source: str) -> list[int]:
    """The lines that name functools.lru_cache, imported or called."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if "lru_cache" in names:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_lru_cache_uses_are_found():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.lru_cache(maxsize=8)\ndef f(): pass\n"
        "@functools.cache\ndef g(): pass\n"
    )
    assert lru_cache_uses(source) == [2, 3]


def empty_globals(source: str) -> list[str]:
    """The module-level names bound to an empty dict, list or set, the
    shape of a hand-rolled memo."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (
            isinstance(value, ast.Dict) and not value.keys
            or isinstance(value, ast.List) and not value.elts
            or isinstance(value, ast.Call) and not (value.args or value.keywords)
            and isinstance(value.func, ast.Name) and value.func.id in ("dict", "list", "set")
        )
        if empty:
            found.extend(
                f"{target.id} (line {node.lineno})"
                for target in targets if isinstance(target, ast.Name)
            )
    return found


def test_empty_globals_are_found():
    source = (
        "_A = {}\n_B: dict[int, int] = {}\n_C = _D = []\n_E = set()\n"
        "_F = {1: 2}\n_G = list(range(3))\n_H: list\n"
        "def f():\n    local = {}\n"
    )
    assert empty_globals(source) == [
        "_A (line 1)", "_B (line 2)", "_C (line 3)", "_D (line 3)", "_E (line 4)"
    ]


def test_every_memo_is_functools_cache():
    # one idiom, unbounded: no module sizes a memo with lru_cache or keeps
    # one in a module-level container
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text()
        assert lru_cache_uses(source) == [], path.name
        assert empty_globals(source) == [], path.name


def level_1_forks(source: str, name: str = "n") -> list[int]:
    """The lines that compare the level variable name or an attribute
    .level with the constant 1, the shape of a branch that gives level 1
    its own code path."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        levels = any(
            isinstance(x, ast.Name) and x.id == name
            or isinstance(x, ast.Attribute) and x.attr == "level"
            for x in operands
        )
        one = any(isinstance(x, ast.Constant) and x.value == 1 for x in operands)
        if levels and one:
            lines.append(node.lineno)
    return lines


def test_level_1_forks_are_found():
    source = (
        "if n == 1: pass\nif f.level > 1: pass\nx = 1 < n\n"
        "if n == 0 or m == 1: pass\nk = n - 1\nif g.level != f.level: pass\n"
    )
    assert level_1_forks(source) == [1, 2, 3]
    source = "if k == 1: pass\nif n == 1: pass\nif k > 0: pass\nif 1 != f.level: pass\n"
    assert level_1_forks(source, "k") == [1, 4]


def test_theta_has_no_level_1_fork():
    # every level recurses down to the point Theta_0 the same way
    assert level_1_forks((PACKAGE_DIR / "theta.py").read_text()) == []


def test_em_chains_has_no_level_1_fork():
    # the bar recursion ends at the augmentation ideal, level 0
    assert level_1_forks(inspect.getsource(presheaf.em_chains), "k") == []


def is_method(node: ast.stmt) -> bool:
    """True iff a class-body statement defines a non-dunder method or
    property, which is called by attribute name, not by its class."""
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def unreached_definitions(sources: dict[str, str], roots: list[str]) -> list[str]:
    """The definitions, as module.name or module.Class.method, that no walk
    by name from the roots reaches; sources maps each module's name to its
    source.  A definition reaches every definition, in any module, whose
    name its statement mentions as an identifier or an attribute: a class's
    bases, a decorator and a lambda in a table included.  An import is no
    mention.  A class reaches its dunder methods, which Python calls for
    it, but a non-dunder method or property is a definition of its own,
    reached only by a mention of its name."""
    defs: dict[str, list[ast.AST]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                body = [stmt for stmt in node.body if not is_method(stmt)]
                defs[f"{module}.{node.name}"] = [*node.bases, *node.decorator_list, *body]
                defs.update((f"{module}.{node.name}.{stmt.name}", [stmt])
                            for stmt in node.body if is_method(stmt))
            elif isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = [node]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update((f"{module}.{target.id}", [node])
                            for target in nodes if isinstance(target, ast.Name))
    homes: dict[str, list[str]] = {}
    for qualified in defs:
        homes.setdefault(qualified.rsplit(".", 1)[1], []).append(qualified)
    reached, todo = set(roots), list(roots)
    while todo:
        for node in (n for top in defs[todo.pop()] for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            for qualified in homes.get(name, ()):
                if qualified not in reached:
                    reached.add(qualified)
                    todo.append(qualified)
    return sorted(defs.keys() - reached)


def test_unreached_definitions_are_found():
    sources = {
        "a": "import b\nLIMIT = 3\ndef main():\n    return b.helper(LIMIT)\n"
             "def spare():\n    return main\n",
        "b": "class Base: pass\nclass Kid(Base): pass\nTABLE = {'k': lambda: Kid()}\n"
             "def helper(x):\n    return TABLE\nX: int = 0\ndef lone(): pass\n",
    }
    assert unreached_definitions(sources, ["a.main"]) == ["a.spare", "b.X", "b.lone"]


def test_unreached_methods_are_found():
    # a method or property counts as reached only by its name, and a
    # class's own dunder methods by the class
    sources = {
        "a": "class Op:\n    def __init__(self):\n        self.size = width()\n"
             "    def run(self):\n        return self.step\n"
             "    @property\n    def step(self):\n        return 1\n"
             "    @property\n    def spare(self):\n        return self.lone()\n"
             "    def lone(self):\n        return 0\n"
             "def width():\n    return 2\ndef main():\n    return Op().run()\n",
    }
    assert unreached_definitions(sources, ["a.main"]) == ["a.Op.lone", "a.Op.spare"]


def test_every_definition_is_reached_by_a_command():
    # src/ holds only what a command or a verify suite runs, methods and
    # properties included; oracles and fixtures that only the tests use
    # live in tests/oracles.py, and __init__.py only re-exports names
    sources = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "__init__.py"
    }
    assert unreached_definitions(sources, ["cli.main", "cli.console_main"]) == []
