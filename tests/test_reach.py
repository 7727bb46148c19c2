"""Every function, class, optional parameter and dataclass field under src/
is reached by a program path.

A program path is code in ``src/`` or in the benchmark's non-test
``perfbench/*.py``; tests do not count.

- A function or class is reached when its name appears, as an ``ast.Name``
  or an ``ast.Attribute``, somewhere in a program path outside the
  definition itself.  The benchmark patches functions by name, so the dotted
  parts of its string constants count as uses too; import aliases do not,
  since importing a name is no use of it.  Dunder methods are called by
  Python itself and are skipped.
- An optional parameter (one with a default) is reached when a call to a
  function of that name passes it by keyword or at its position, or passes
  ``*`` or ``**`` arguments.  A call that is handed the function as a value,
  such as ``tally.run(msa.connection_T_numeric, ..., depth=3)``, reaches the
  parameters it passes by keyword or through ``**``.  A call through a
  table, ``TABLE[key](...)`` with ``TABLE`` bound to a dict, list or tuple
  literal, calls every function the literal holds.  A class call reaches
  the parameters of its ``__init__``; a method's ``self`` or ``cls`` takes
  no position.
- A dataclass field is reached when a program path reads an attribute of
  that name, directly or by ``getattr``: with a constant name, or with a
  loop variable that runs over the strings of a literal.

The check works on names, not on bindings, so whatever shares a name with
something else passes unseen: ``MsaGrid.interp`` was hidden by
``np.interp``, a field ``beta`` is read wherever ``_SmoothClamp.beta`` is,
and a call to any function named ``run`` reaches the parameters of every
``run``.  A method called as ``Class.method(obj, x)`` counts its arguments
one position late.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _uses(tree: ast.AST, with_strings: bool = False):
    """(name, line) of every Name and Attribute, and of the dotted parts of
    string constants when ``with_strings``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                if part.isidentifier():
                    yield part, node.lineno


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorator_names(node) -> set[str]:
    return {_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _optional_parameters(fn: ast.FunctionDef, method: bool):
    """(name, position) of each parameter with a default; keyword-only ones
    have no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and "staticmethod" not in _decorator_names(fn) and positional:
        positional = positional[1:]    # self or cls
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first_default:], first_default):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _fields(cls: ast.ClassDef):
    for stmt in cls.body:
        if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)):
            yield stmt.target.id, stmt.lineno


def _held(node: ast.AST) -> set[str]:
    """Names and strings that a dict, list, tuple or set literal holds."""
    items = (node.values if isinstance(node, ast.Dict) else node.elts
             if isinstance(node, (ast.List, ast.Tuple, ast.Set)) else [])
    held = {_name(v) for v in items}
    held |= {v.value for v in items if isinstance(v, ast.Constant) and isinstance(v.value, str)}
    return held - {None}


def _tables(tree: ast.AST) -> dict[str, set[str]]:
    """What each literal bound to a name holds, by that name."""
    return {node.targets[0].id: _held(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)}


def _reads(tree: ast.AST, tables: dict[str, set[str]]) -> set[str]:
    """Attributes loaded, by name or by ``getattr``: a constant name, or a
    loop variable that runs over the strings of a literal."""
    getattrs = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and _name(n.func) == "getattr" and len(n.args) > 1]
    reads = {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    reads |= {g.args[1].value for g in getattrs if isinstance(g.args[1], ast.Constant)}
    for node in ast.walk(tree):
        loops = (node.generators if isinstance(node, COMPREHENSIONS)
                 else [node] if isinstance(node, ast.For) else [])
        for loop in loops:
            if not isinstance(loop.target, ast.Name):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if any(id(g) in inside and _name(g.args[1]) == loop.target.id for g in getattrs):
                reads |= (tables.get(loop.iter.id, set()) if isinstance(loop.iter, ast.Name)
                          else _held(loop.iter))
    return reads


class _Calls:
    """What the calls of a program pass, by the name of the function called."""

    def __init__(self, tables: dict[str, set[str]]):
        self.tables = tables
        self.keywords: dict[str, set[str]] = {}
        self.positions: dict[str, int] = {}
        self.spread: set[str] = set()     # called with * or **

    def add(self, tree: ast.AST) -> None:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            # table[key](...) calls every function the table holds
            called = (self.tables.get(_name(func.value), set())
                      if isinstance(func, ast.Subscript) else {_name(func)} - {None})
            values = {_name(a) for a in call.args} | {_name(k.value) for k in call.keywords}
            keywords = {k.arg for k in call.keywords if k.arg is not None}
            spread = any(k.arg is None for k in call.keywords)
            # the functions called, and every function handed to them as a value
            for name in called | values - {None}:
                self.keywords.setdefault(name, set()).update(keywords)
                if spread:
                    self.spread.add(name)
            for name in called:
                if any(isinstance(a, ast.Starred) for a in call.args):
                    self.spread.add(name)
                self.positions[name] = max(self.positions.get(name, 0), len(call.args))

    def reach(self, function: str, parameter: str, position: int | None) -> bool:
        return (function in self.spread
                or parameter in self.keywords.get(function, ())
                or (position is not None and self.positions.get(function, 0) > position))


def unreached(sources: dict[str, ast.AST], bench: dict[str, ast.AST]) -> dict[str, list[str]]:
    """The definitions, optional parameters and dataclass fields of
    ``sources`` that no program path reaches, each as ``file:line name``."""
    program = {**sources, **bench}
    uses: dict[str, list[tuple[str, int]]] = {}
    reads: set[str] = set()
    tables = {k: v for tree in program.values() for k, v in _tables(tree).items()}
    calls = _Calls(tables)
    for label, tree in program.items():
        for name, line in _uses(tree, with_strings=label in bench):
            uses.setdefault(name, []).append((label, line))
        reads |= _reads(tree, tables)
        calls.add(tree)

    missing = {"definitions": [], "parameters": [], "fields": []}
    for label, tree in sources.items():
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        methods = {id(f): c for c in classes for f in c.body if isinstance(f, FUNCTIONS)}
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            where = f"{label}:{node.lineno}"
            if not (name.startswith("__") and name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if not [(p, line) for p, line in uses.get(name, ())
                        if p != label or not first <= line <= node.end_lineno]:
                    missing["definitions"].append(f"{where} {name}")
            if isinstance(node, ast.ClassDef):
                if "dataclass" in _decorator_names(node):
                    missing["fields"] += [f"{label}:{line} {name}.{field}"
                                          for field, line in _fields(node)
                                          if field not in reads]
                continue
            owner = methods.get(id(node))
            called = owner.name if owner is not None and name == "__init__" else name
            missing["parameters"] += [
                f"{where} {called}({parameter})"
                for parameter, position in _optional_parameters(node, owner is not None)
                if not calls.reach(called, parameter, position)]
    return missing


@pytest.fixture(scope="module")
def program():
    sources = {str(p.relative_to(ROOT)): _parse(p) for p in sorted((ROOT / "src").rglob("*.py"))}
    bench = {str(p.relative_to(ROOT)): _parse(p)
             for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")}
    return unreached(sources, bench)


def test_every_definition_is_reached(program):
    assert program["definitions"] == []


def test_every_optional_parameter_is_set(program):
    assert program["parameters"] == []


def test_every_dataclass_field_is_read(program):
    assert program["fields"] == []


SYNTHETIC = '''
from dataclasses import dataclass


@dataclass
class Result:
    value: float
    steps: int = 0
    note: str = ""


def solve(x, tol=1e-9, steps=10):
    return Result(value=x * tol, steps=steps)


def tune(x, order=4, scale=1.0):
    return x * order * scale


def shift(x, by=0.0):
    return x + by


def run(fn, *args, **kwargs):
    return fn(*args, **kwargs)


SETTINGS = {"order": 6, "scale": 0.5}
SHIFTS = {"right": shift}
COUNTS = ("steps",)


def main():
    first = run(solve, 1.0, tol=1e-6)
    counted = sum(getattr(first, key) for key in COUNTS)
    return first.value + counted + tune(2.0, **SETTINGS) + SHIFTS["right"](1.0, by=2.0)


main()
'''


def test_the_check_flags_a_synthetic_module():
    """A parameter that only a test would set (``steps``) and a field that
    nobody reads (``note``) are flagged.  Parameters set through ``**``, by
    keyword through a function passed as a value, or through a table of
    functions are not; nor is a field read by ``getattr`` over a tuple of
    names."""
    missing = unreached({"synthetic.py": ast.parse(SYNTHETIC)}, {})
    assert missing == {"definitions": [],
                       "parameters": ["synthetic.py:12 solve(steps)"],
                       "fields": ["synthetic.py:9 Result.note"]}
