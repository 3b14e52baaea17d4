"""Source hygiene of ``src/bqcsim``: no dead local, no unused import, one
way for a gadget to reach the server, one builder of a round's widths, and
no row hashing or query charging outside the oracle and the tables layer.

No linter ships with the project, so these checks read the modules'
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


def calls_outside(tree, callee: str, owner: str) -> list[str]:
    """``fn:line`` for each call of ``callee`` or ``.callee`` outside
    function ``owner`` (``<module>`` for a call at module level)."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and fn != owner:
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None))
            if name == callee:
                found.append(f"{fn}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "<module>")
    return found


def test_gadgets_reach_the_server_only_through_send_gadgets():
    # send_gadgets is the one quantum-message entry point of the client
    calls = {path.name: calls_outside(ast.parse(path.read_text()),
                                      "prepare_gadget", "send_gadgets")
             for path in SRC}
    assert {name: c for name, c in calls.items() if c} == {}
    tree = ast.parse("def send_gadgets(s):\n    s.prepare_gadget()\n"
                     "def other(s):\n    s.prepare_gadget()\n")
    assert calls_outside(tree, "prepare_gadget", "send_gadgets") == [
        "other:4"]


def test_only_params_for_round_builds_protocol_params():
    # PipelineConfig holds every width; a round's record is derived from it
    calls = {path.name: calls_outside(ast.parse(path.read_text()),
                                      "ProtocolParams", "params_for_round")
             for path in SRC}
    assert {name: c for name, c in calls.items() if c} == {}
    tree = ast.parse("def params_for_round(t):\n    ProtocolParams(t)\n"
                     "def other(p):\n    p.ProtocolParams(1)\n"
                     "ProtocolParams(8, 16)\n")
    assert calls_outside(tree, "ProtocolParams", "params_for_round") == [
        "other:4", "<module>:5"]


ORACLE_PRIVATE = {"_memo", "_heads", "_owners", "_forget"}


def names_used(tree, names) -> list[str]:
    """``name:line`` for each attribute or variable in ``names``."""
    found = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in names:
            found.append(f"{name}:{node.lineno}")
    return found


def test_only_the_oracle_names_its_memo_and_owner_index():
    # the tables layer reads the oracle through _prf and _owner alone
    used = {path.name: names_used(ast.parse(path.read_text()),
                                  ORACLE_PRIVATE)
            for path in SRC if path.name != "oracle.py"}
    assert {name: u for name, u in used.items() if u} == {}
    tree = ast.parse("o._memo.clear()\nx = o._owner(t, 64)\n_owners = {}\n")
    assert sorted(names_used(tree, ORACLE_PRIVATE)) == ["_memo:1",
                                                        "_owners:3"]


def oracle_internals(tree) -> list[str]:
    """``name:line`` for each use of ``_prf`` or ``_owner``, and
    ``count:line`` for each call of ``.count`` on an ``oracle``."""
    found = names_used(tree, {"_prf", "_owner"})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"):
            owner = node.func.value
            if "oracle" in (getattr(owner, "attr", None),
                            getattr(owner, "id", None)):
                found.append(f"count:{node.lineno}")
    return found


def test_only_the_oracle_and_tables_hash_rows_or_charge_queries():
    # every row the server opens goes through the tables layer, which
    # charges it; other layers query the oracle through its public calls
    used = {path.name: oracle_internals(ast.parse(path.read_text()))
            for path in SRC if path.name not in ("oracle.py", "tables.py")}
    assert {name: u for name, u in used.items() if u} == {}
    tree = ast.parse("self.oracle.count('server', 2)\noracle.count('s')\n"
                     "t = self.oracle._prf(x, 8)\nbin(v).count('1')\n"
                     "s.count('1')\no._owner(t, 64)\n")
    assert sorted(oracle_internals(tree)) == ["_owner:6", "_prf:3",
                                              "count:1", "count:2"]
