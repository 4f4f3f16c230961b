"""Source hygiene of ``src/gnum``, checked with ``ast``: no import a
module leaves unused, and no module-level private name (``_x``) that
neither the package nor its tests read.  Both are what a deletion leaves
behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gnum"
TREES = {p.name: ast.parse(p.read_text(), str(p))
         for p in sorted(SRC.glob("*.py"))}
# a private reference implementation may be read by its test alone
TESTS = [ast.parse(p.read_text(), str(p))
         for p in sorted(Path(__file__).parent.glob("test_*.py"))]


def _reads(tree, imports: bool = False) -> set:
    """Names a module reads: loaded names and attributes, with
    ``imports`` also the names it imports from a sibling module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom) and node.level:
            out.update(a.name for a in node.names)
    return out


def _imported(tree):
    """(bound name, line) of every import but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _private_defs(tree):
    """(name, line) of every module-level private function, class or
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    if module == "__init__.py":
        return  # the package namespace re-exports what it imports
    used = _reads(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{module}: unused imports {unused}"


def test_every_private_name_is_read():
    read = set().union(*(_reads(t, imports=True)
                         for t in [*TREES.values(), *TESTS]))
    dead = [f"{module}:{line} {name}" for module, tree in TREES.items()
            for name, line in _private_defs(tree) if name not in read]
    assert not dead, f"private names nothing reads: {dead}"
