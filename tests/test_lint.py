"""A stdlib-only lint of the package sources, the tests and the scripts:
every imported name is used in its module, and every private module-level
function or class is referenced there.  A deletion that leaves an import or
a helper behind fails here.  The modules that read outside text, ``cli`` and
``tensors``, leave integers to ``core.integer``: neither calls the builtin
``int`` nor hands it on to be called.  The check sides of ``identities`` and
``integrals`` sum through ``Ring.sum``: neither starts a fold at
``Fraction(0)`` or ``Fraction(1)``, outside CHEN's Fraction oracle."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = [*sorted((ROOT / "src" / "spfk").glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py"))]


def _imported(tree) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _loads(tree) -> list[str]:
    return [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]


def unused_names(source: str) -> list[str]:
    """Imported names never read, and private top-level defs and classes
    never referenced outside their own body."""
    tree = ast.parse(source)
    loads = _loads(tree)
    out = [name for name in _imported(tree) if name not in loads]
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") and not node.name.startswith("__"):
            if loads.count(node.name) == _loads(node).count(node.name):
                out.append(node.name)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import_or_private_helper(path):
    assert unused_names(path.read_text(encoding="utf-8")) == []


def test_lint_sees_a_planted_unused_import_and_helper():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from fractions import Fraction as F\n"
        "def _helper(n):\n"
        "    return _helper(n - 1) if n else math.pi\n"
        "def _used():\n"
        "    return F(1)\n"
        "VALUE = _used()\n"
    )
    assert unused_names(source) == ["os", "_helper"]


def builtin_int_uses(source: str) -> list[int]:
    """The lines that call the builtin ``int`` or hand it on to be called
    (argparse's ``type=int``); ``int`` in an annotation is not a use."""
    tree = ast.parse(source)
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
    annotated = {id(n) for root in roots if root is not None for n in ast.walk(root)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "int" and id(node) not in annotated)


@pytest.mark.parametrize("name", ("cli.py", "identities.py", "integrals.py", "tensors.py"))
def test_outside_text_has_one_integer_reader(name):
    assert builtin_int_uses((ROOT / "src" / "spfk" / name).read_text(encoding="utf-8")) == []


def test_lint_sees_a_planted_builtin_int():
    source = (
        "import argparse\n"
        "def parse(text: str, base: int = 10) -> int:\n"
        "    return int(text, base)\n"
        "rows: int = 0\n"
        "FLAGS = {'n': {'type': int}}\n"
        "argparse.ArgumentParser().add_argument('--k', type=int)\n"
    )
    assert builtin_int_uses(source) == [3, 5, 6]


def fraction_constants(source: str, exempt=()) -> list[int]:
    """The lines that call ``Fraction(0)`` or ``Fraction(1)``, the start of a
    hand-written exact sum or product, outside the functions named in
    ``exempt``."""
    tree = ast.parse(source)
    skipped = {id(n) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in exempt
               for n in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "Fraction" and id(node) not in skipped
                  and len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
                  and node.args[0].value in (0, 1))


@pytest.mark.parametrize("name, exempt", (("identities.py", ()),
                                          ("integrals.py", ("iterated_integral_oracle",))))
def test_check_sides_start_no_fraction_fold(name, exempt):
    source = (ROOT / "src" / "spfk" / name).read_text(encoding="utf-8")
    assert fraction_constants(source, exempt) == []


def test_lint_sees_a_planted_fraction_fold():
    source = (
        "from fractions import Fraction\n"
        "def lhs(xs):\n"
        "    total = Fraction(0)\n"
        "    for x in xs:\n"
        "        total += x\n"
        "    return total\n"
        "def oracle(xs):\n"
        "    return Fraction(1)\n"
        "ONE = Fraction(1)\n"
        "HALF, SUM = Fraction(1, 2), Fraction(1 + 0)\n"
    )
    assert fraction_constants(source, ("oracle",)) == [3, 9]
    assert fraction_constants(source) == [3, 8, 9]
