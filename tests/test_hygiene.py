"""Import hygiene of the package source: no unused imports, no imports
inside function bodies, no private names imported across modules, no
scipy, and every function the benchmark's tracer wraps by name."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anatomy_attn

MODULES = sorted(Path(anatomy_attn.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    """Names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - _exported(tree) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [f"{fn.name}:{node.lineno}"
              for fn in ast.walk(_tree(path))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    private = [f"{node.module}.{alias.name}:{node.lineno}"
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_package_import_loads_no_scipy():
    # the CLI imports every module of the package
    script = ("import sys, anatomy_attn.cli\n"
              "print(sorted(m for m in sys.modules if m == 'scipy'"
              " or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def _tracer_table(name):
    """A list literal assigned at the top level of perfbench/tracer.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in _tree(path).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


@pytest.mark.parametrize("entry", _tracer_table("FUNCTIONS"),
                         ids=lambda e: e[0])
def test_traced_function_exists(entry):
    # `perfbench/run.py --trace 1` looks each one up by name
    _, module, attr = entry
    assert callable(getattr(importlib.import_module(f"anatomy_attn.{module}"),
                            attr, None))


@pytest.mark.parametrize("entry", _tracer_table("METHODS"), ids=lambda e: e[0])
def test_traced_method_exists(entry):
    _, module, cls_name, attr = entry
    cls = getattr(importlib.import_module(f"anatomy_attn.{module}"), cls_name)
    assert callable(cls.__dict__.get(attr))


def _literal_text(node):
    """The string literals under `node`, joined: the fixed text of a
    message, f-strings included."""
    return "".join(n.value for n in ast.walk(node)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_number_rules_are_raised_only_in_tensor():
    # `tensor.check_int` and `tensor.check_real` hold these rules; a raise
    # that spells one out elsewhere is a second copy of a rule
    phrases = ("must be an integer", "must be a real number",
               "must be finite")
    raising = sorted({path.name for path in MODULES
                      for node in ast.walk(_tree(path))
                      if isinstance(node, ast.Raise) and node.exc is not None
                      and any(p in _literal_text(node.exc) for p in phrases)})
    assert raising == ["tensor.py"]
