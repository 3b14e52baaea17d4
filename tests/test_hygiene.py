"""Source hygiene of ``src/bqcsim``: no dead local and no unused import.

No linter ships with the project, so these two checks read the modules'
syntax trees. A local name that is bound but never read is exempt when it
starts with ``_``.
"""

import ast
import pathlib

import pytest

SRC = sorted((pathlib.Path(__file__).parent.parent / "src" / "bqcsim")
             .glob("*.py"))
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of ``fn``'s body, less the bodies of nested functions."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCS):
            todo.extend(ast.iter_child_nodes(node))


def dead_locals(tree) -> list[str]:
    """``fn:name`` for each local of a function that nothing reads.

    A read anywhere in the function, nested functions included, counts.
    """
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCS):
            continue
        shared = set()
        bound = {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif (isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)):
                bound.setdefault(node.id, node.lineno)
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        dead += [f"{name}:{n} (line {line})" for n, line in bound.items()
                 if n not in read and n not in shared
                 and not n.startswith("_")]
    return dead


def unused_imports(tree) -> list[str]:
    """Each name an import binds that the module never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    unused.append(f"{bound} (line {node.lineno})")
    return unused


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_dead_local_or_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dead_locals(tree) == []
    assert unused_imports(tree) == []


def test_checks_catch_what_they_name():
    tree = ast.parse(
        "import os\n"
        "from math import pi, tau\n"
        "def f(xs):\n"
        "    a, b = xs\n"
        "    c = 1\n"
        "    _d = 2\n"
        "    def g():\n"
        "        return c\n"
        "    return a + g() + tau\n")
    assert dead_locals(tree) == ["f:b (line 4)"]
    assert unused_imports(tree) == ["os (line 1)", "pi (line 2)"]
