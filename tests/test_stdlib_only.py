"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wittlab").glob("*.py"))


def foreign_imports(source: str):
    """Top-level package names imported anywhere in the source that are
    neither in the standard library nor wittlab."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = {name.split(".")[0] for name in names}
    return sorted(tops - set(sys.stdlib_module_names) - {"wittlab"})


def test_the_guard_sees_foreign_imports():
    source = (
        "import os, numpy.linalg\n"
        "from . import rings\n"
        "def f():\n"
        "    from sympy import Matrix\n"
    )
    assert foreign_imports(source) == ["numpy", "sympy"]


def test_every_module_is_found():
    assert {"rings.py", "matrices.py", "chains.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_library_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


# ---------------------------------------------------------------------------
# the checker module: what it imports, and what the builders keep
# ---------------------------------------------------------------------------

SRC = SOURCES[0].parent
MATRIX_PRIMITIVES = {"mat_det"}


def wittlab_imports(source: str):
    """(module, name) for each name imported from a wittlab module, with
    (module, "*") for a module imported whole."""
    pairs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            pairs.extend((alias.name[len("wittlab."):], "*") for alias in node.names
                         if alias.name.startswith("wittlab."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "wittlab":
                    continue
                module = module[len("wittlab."):]
            for alias in node.names:
                pairs.append((module, alias.name) if module else (alias.name, "*"))
    return pairs


def checker_violations(source: str):
    """The wittlab imports of a checker source other than ``rings`` and the
    matrix primitives."""
    return [
        (module, name) for module, name in wittlab_imports(source)
        if module != "rings" and not (module == "matrices" and name in MATRIX_PRIMITIVES)
    ]


def test_the_checker_guard_sees_builder_imports():
    source = (
        "from . import rings\n"
        "from .rings import LocalRing\n"
        "from .matrices import mat_det, congruent, Echelon\n"
        "from . import matrices, snf\n"
        "import wittlab.chains\n"
        "from wittlab.bilinear import _b\n"
    )
    assert checker_violations(source) == [
        ("matrices", "congruent"), ("matrices", "Echelon"), ("matrices", "*"), ("snf", "*"),
        ("chains", "*"), ("bilinear", "_b"),
    ]


def test_certify_imports_only_rings_and_matrix_primitives():
    assert checker_violations((SRC / "certify.py").read_text(encoding="utf-8")) == []


def test_moved_names_are_the_checker_objects():
    from wittlab import bilinear, certify, chains, snf

    assert chains.verify_chain is certify.verify_chain
    assert bilinear._b is certify._b
    assert bilinear.check_representation_identity is certify.check_representation_identity
    assert bilinear.CheckResult is certify.CheckResult
    assert snf.int_mat_mul is certify.int_mat_mul


# method -> the certify function it hands its check to, or the method of
# its class, itself listed here, that does
DELEGATES = {
    ("bilinear.py", "CongruenceWitness", "check"): "check_congruence",
    ("bilinear.py", "CongruenceWitness", "_of"): "check",
    ("snf.py", "SmithNormalForm", "verify"): "check_smith",
    ("groups.py", "AbelianGroupStructure", "__init__"): "relations_vanish",
}


def _called_names(node):
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def test_no_check_body_is_left_beside_its_builder():
    """No builder module defines a name that ``certify`` defines, and each
    method whose check moved calls ``certify``, directly or through another
    method listed, and none of the check's own steps."""
    certify_tree = ast.parse((SRC / "certify.py").read_text(encoding="utf-8"))
    checker_names = {
        node.name for node in certify_tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    check_steps = {"coords_of_row", "is_zero", "congruent", "mat_det", "_sparse_dot",
                   "int_mat_mul", "_is_unimodular", "check_elements"}
    trees = {
        name: ast.parse((SRC / name).read_text(encoding="utf-8"))
        for name in ("chains.py", "bilinear.py", "snf.py", "groups.py")
    }
    for name, tree in trees.items():
        defined = {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & checker_names, name
    for (name, cls_name, meth), target in DELEGATES.items():
        cls = next(n for n in trees[name].body if isinstance(n, ast.ClassDef) and n.name == cls_name)
        method = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == meth)
        called = _called_names(method)
        assert target in called, (cls_name, meth)
        assert target in checker_names or (name, cls_name, target) in DELEGATES, (cls_name, meth)
        assert not called & check_steps, (cls_name, meth, called & check_steps)


# ---------------------------------------------------------------------------
# chains: the library makes a Chain only to verify it, or to decode one
# ---------------------------------------------------------------------------

CHAIN_MAKERS = {("chains.py", "_certified"), ("chains.py", "Chain.from_json")}


def chain_constructions(source: str):
    """The qualified names of the functions in a source that construct a
    ``Chain``: by a call of ``Chain`` or ``<module>.Chain``, or of ``cls``
    in a method of the class ``Chain``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "Chain" or (name == "cls" and scope[:1] == ("Chain",)):
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def unchecked_chain_constructions(name: str, source: str):
    """The functions of module ``name`` that construct a ``Chain`` other
    than the certifying wrapper and the decoder."""
    return [f for f in chain_constructions(source) if (name, f) not in CHAIN_MAKERS]


def test_the_chain_guard_sees_a_builder_that_skips_the_check():
    source = (
        "class Chain:\n"
        "    @classmethod\n"
        "    def from_json(cls, obj):\n"
        "        return cls(obj['space'], obj['bases'])\n"
        "def _certified(space, tuples, start, end):\n"
        "    return Chain(space, tuples).verify(start, end)\n"
        "def chain_shortcut(space, bases):\n"
        "    return Chain(space, bases)\n"
        "def via_module(space, bases):\n"
        "    return chains.Chain(space, bases)\n"
        "def other_class(cls, space):\n"
        "    return cls(space, ())\n"
    )
    assert chain_constructions(source) == [
        "Chain.from_json", "_certified", "chain_shortcut", "via_module",
    ]
    assert unchecked_chain_constructions("chains.py", source) == ["chain_shortcut", "via_module"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_certifying_wrapper_and_the_decoder_construct_a_chain(path):
    source = path.read_text(encoding="utf-8")
    assert unchecked_chain_constructions(path.name, source) == []
    if path.name == "chains.py":
        assert set(chain_constructions(source)) == {f for _, f in CHAIN_MAKERS}
        certified = next(
            node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == "_certified"
        )
        assert "verify" in _called_names(certified)
