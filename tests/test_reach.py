"""Every function and class under src/ is reached by a program path.

A definition counts as reached when its name appears, as an ``ast.Name`` or
an ``ast.Attribute``, somewhere in ``src/`` or in the benchmark's non-test
``perfbench/*.py`` outside the definition itself.  The benchmark patches
functions by name, so the dotted parts of its string constants count as uses
too; import aliases do not, since importing a name is no use of it.  Dunder
methods are called by Python itself and are skipped.

The check works on names, not on bindings, so a definition whose name
something else also bears passes unseen: ``MsaGrid.interp`` was hidden by
``np.interp``, and a method named like a local variable hides the same way.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def unreached() -> list[str]:
    sources = sorted((ROOT / "src").rglob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    uses: dict[str, list[tuple[Path, int]]] = {}
    definitions = []
    for path in sources + bench:
        tree = _parse(path)
        for name, line in _uses(tree, with_strings=path in bench):
            uses.setdefault(name, []).append((path, line))
        if path in bench:
            continue
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                definitions.append((path, node))
    missing = []
    for path, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        outside = [(p, line) for p, line in uses.get(name, ())
                   if p != path or not first <= line <= node.end_lineno]
        if not outside:
            missing.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return missing


def test_every_definition_is_reached():
    assert unreached() == []
