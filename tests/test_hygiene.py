"""Source hygiene of ``src/gnum``, checked with ``ast``: no import a
module leaves unused, and no module-level private name (``_x``) that
neither the package nor its tests read.  Both are what a deletion leaves
behind."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnum import nets
from gnum.nets import NetExpr

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


# The functions of src/gnum that call eval_net, with their number of
# calls: each is for one point or a search whose next point depends on the
# last value.  A list of points known in advance goes through eval_points,
# and a loop over it that stops early or skips points reads its values
# through unfill.  A change here is a reviewed decision that a new call is
# not such a loop.
SCALAR_EVAL = {
    ("nets.py", "eval_points"): 1,          # the fallback for flagged points
    ("nets.py", "unfill"): 1,               # re-raising a filled error
    ("harness.py", "_abs_at"): 1,           # ternary search and lazy ladder
    ("smoothing.py", "_blend_value"): 2,
    ("smoothing.py", "refute_continuous_representative"): 5,
    ("constructions.py", "construct_zero_divisor"): 1,  # width halving
    ("constructions.py", "_charset_points"): 4,  # bisection and its root
    ("ideals.py", "dip_forcing_data"): 2,        # bisection and its root
}


def test_eval_net_only_where_reviewed():
    calls = {}
    for module, tree in TREES.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "eval_net" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    key = (module, getattr(top, "name", "<module>"))
                    calls[key] = calls.get(key, 0) + 1
    assert calls == SCALAR_EVAL


def test_imports_only_at_module_level():
    # a function-level import hides a dependency; the blend's scalar rule
    # reads smoothing through the one import that breaks a cycle
    # (smoothing imports nets)
    local = sorted((module, top.name) for module, tree in TREES.items()
                   for top in tree.body
                   if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                   for node in ast.walk(top)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert local == [("nets.py", "_smoothing")]


def _node_types(cls=NetExpr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_types(sub)


def test_every_node_type_hashes_by_its_stored_hash():
    # a node type with a __hash__ of its own, such as a record's hash of
    # its fields, would walk the whole subtree on every lookup
    node_types = list(_node_types())
    assert len(node_types) >= 22
    recursive = [c.__name__ for c in node_types
                 if c.__hash__ is not NetExpr.__hash__]
    assert not recursive, f"node types with their own __hash__: {recursive}"


def test_every_node_type_has_an_evaluation_rule():
    # eval_net looks a node's rule up by its exact type, so a subclass
    # (SpikeTrain of Indicator) needs its own entry; without one, eval_net
    # raises TypeError("cannot evaluate node ...")
    node_types = [c for c in _node_types() if c.__module__ == nets.__name__]
    assert nets.SpikeTrain in node_types and len(node_types) >= 22
    missing = [c.__name__ for c in node_types if c not in nets._EVAL_RULES]
    assert not missing, f"node types without an evaluation rule: {missing}"


def test_every_node_type_has_a_vector_rule():
    # eval_points looks a node's vector rule up by its exact type, as
    # eval_net does its scalar rule; without an entry it raises KeyError.
    # Only a blend and a Gelfand factor send every point, and so the
    # whole net, to eval_net
    node_types = [c for c in _node_types() if c.__module__ == nets.__name__]
    assert nets.SpikeTrain in node_types and len(node_types) >= 22
    assert set(nets._VEC_RULES) == set(node_types)
    by_eval_net = {c for c, rule in nets._VEC_RULES.items()
                   if rule is nets._flag_all}
    assert by_eval_net == {nets.SmoothBlend, nets.GelfandFactor}


def test_every_node_type_has_a_fact_rule():
    # a node's facts are stored when it is built, from the rule of its
    # exact type, so a subclass (SpikeTrain of Indicator) needs its own
    # entry; without one, building the node raises KeyError
    node_types = [c for c in _node_types() if c.__module__ == nets.__name__]
    assert nets.SpikeTrain in node_types and len(node_types) >= 22
    missing = [c.__name__ for c in node_types if c not in nets._FACT_RULES]
    assert not missing, f"node types without a fact rule: {missing}"
    assert set(nets._FACT_RULES) == set(node_types)


# Every module-level cache of src/gnum with its bound: an lru_cache's
# maxsize (None: unbounded), the atom memo's cap in bytes.  A new cache,
# and above all a new unbounded one, is a reviewed decision here.
CACHES = {
    "profiles.info": None,
    "profiles.rat": None,
    "nets._ATOMS": 1024 * 1024,
    # the record templates: one per number of fields, with a
    # __post_init__ call or without (at most 12 for records of 0-5 fields)
    "records._templates": None,
}
# module-level containers that are constant tables, not caches
TABLES = {"asymptotics._UP_RANK", "cli._FLAGS", "cli._TIERS", "dsl._CALLS",
          "harness._LEAF_CONSTS", "harness._OSC_POWERS", "nets._EVAL_RULES",
          "nets._FACT_RULES", "nets._VEC_RULES", "profiles._HALF_PI_SIN",
          "profiles._OSC_POINTS"}


def test_every_module_level_cache_is_listed_with_its_bound():
    caches, tables = {}, set()
    for name in TREES:
        stem = name[:-3]
        mod = importlib.import_module(
            "gnum" if stem == "__init__" else f"gnum.{stem}")
        for attr, v in vars(mod).items():
            where = f"{stem}.{attr}"
            if hasattr(v, "cache_parameters"):
                if v.__module__ == mod.__name__:    # not an import of one
                    caches[where] = v.cache_parameters()["maxsize"]
            elif isinstance(v, nets._AtomMemo):
                caches[where] = nets.ATOM_MEMO_BYTES
            elif isinstance(v, (dict, list, set)) \
                    and not attr.startswith("__"):
                tables.add(where)
    assert caches == CACHES
    assert tables == TABLES


# A polynomial keeps the order its terms sort in (scales.Poly.sorted_terms),
# which holds only while its ``terms`` dict is never changed after
# construction.  Nothing may assign, delete or update an item of a
# ``.terms`` attribute, and only Poly.__init__ may assign the attribute.
TERMS_MUTATORS = {"pop", "popitem", "update", "clear", "setdefault"}


def _scoped(node, scope=()):
    """(enclosing class and function names, node) of every node below."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _scoped(child, inner)


def _terms_writes(tree):
    """(scope, line, kind) of every write to a ``.terms`` attribute."""
    def terms(n):
        return isinstance(n, ast.Attribute) and n.attr == "terms"

    for scope, node in _scoped(tree):
        ctx = type(getattr(node, "ctx", None))
        if terms(node) and ctx in (ast.Store, ast.Del):
            yield scope, node.lineno, f"{ctx.__name__.lower()} .terms"
        elif isinstance(node, ast.Subscript) and terms(node.value) \
                and ctx in (ast.Store, ast.Del):
            yield scope, node.lineno, f"{ctx.__name__.lower()} .terms[...]"
        elif isinstance(node, ast.Call) and terms(
                getattr(node.func, "value", None)) \
                and node.func.attr in TERMS_MUTATORS:
            yield scope, node.lineno, f".terms.{node.func.attr}()"


def test_the_scan_finds_every_kind_of_terms_write():
    src = ("def f(p, q):\n"
           "    p.terms[m] = 1\n    p.terms[m] += 1\n    del p.terms[m]\n"
           "    p.terms.pop(m)\n    p.terms.update(q)\n    p.terms.clear()\n"
           "    p.terms.setdefault(m, 0)\n    p.terms = {}\n"
           "    p.terms, q = {}, 1\n    del p.terms\n"
           "    return dict(p.terms), p.terms.get(m), p.terms[m]\n")
    kinds = [kind for _, _, kind in _terms_writes(ast.parse(src))]
    assert kinds == ["store .terms[...]"] * 2 + ["del .terms[...]"] + [
        f".terms.{name}()" for name in ("pop", "update", "clear",
                                        "setdefault")] + [
        "store .terms"] * 2 + ["del .terms"]


def test_poly_terms_are_never_mutated_after_construction():
    writes = [(module, scope, line, kind)
              for module, tree in TREES.items()
              for scope, line, kind in _terms_writes(tree)]
    init = [w for w in writes if w[:2] == ("scales.py", ("Poly", "__init__"))]
    assert [w[3] for w in init] == ["store .terms"]
    others = [f"{module}:{line} {kind}"
              for module, scope, line, kind in writes
              if (module, scope) != ("scales.py", ("Poly", "__init__"))]
    assert not others, f"writes to a Poly's terms: {others}"


# Scan grids are built once, by the grid type: ``asymptotics.Scan``, its
# subclasses (``harness.GridSpec``) and the ``build`` given to a ``Scan``.
# Nowhere else may code call ``logspace``/``geomspace`` or raise one base
# to a run of exponents over a range: the ways a log scan was built inline.
def _over_range(node) -> bool:
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None)
               == "range" for n in ast.walk(node))


def _inline_scan(node):
    """The kind of log scan ``node`` builds, or None."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("logspace", "geomspace"):
            return f"{name}()"
        if name == "map" and len(node.args) == 3 \
                and getattr(node.args[0], "id", None) == "pow" \
                and isinstance(node.args[1], ast.Call) \
                and getattr(node.args[1].func, "id", None) == "repeat" \
                and _over_range(node.args[2]):
            return "map(pow, repeat(base), exponents)"
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)) \
            and any(_over_range(g.iter) for g in node.generators):
        loop = {n.id for g in node.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
        for n in ast.walk(node.elt):
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow):
                names = [{x.id for x in ast.walk(side)
                          if isinstance(x, ast.Name)} & loop
                         for side in (n.left, n.right)]
                if names[1] and not names[0]:
                    return "base ** exponent over a range"
    return None


def _scan_builds(tree):
    """(scope, line, kind) of every log scan built outside the grid type."""
    grid = {"Scan"} | {c.name for c in ast.walk(tree)
                       if isinstance(c, ast.ClassDef)
                       and any(getattr(b, "id", None) == "Scan"
                               for b in c.bases)}

    def own(node):
        return node.name in grid if isinstance(node, ast.ClassDef) else \
            isinstance(node, ast.Call) and getattr(node.func, "id",
                                                   None) in grid

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if own(child):
                continue
            kind = _inline_scan(child)
            if kind is not None:
                yield scope, child.lineno, kind
            yield from walk(child, scope + (child.name,) if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else scope)

    yield from walk(tree, ())


def test_the_scan_finds_every_inline_log_scan():
    src = ("def f(lo, hi, n, a):\n"
           "    x = np.logspace(-6.0, 0.0, n), np.geomspace(lo, hi, n)\n"
           "    y = [10.0 ** (-6 + 5.7 * i / 239) for i in range(240)]\n"
           "    z = map(pow, repeat(hi / lo), map(truediv, range(n),\n"
           "                                      repeat(n - 1)))\n"
           "    w = (lo * 0.5 ** k for k in range(1, 12))\n"
           "    # not scans: one base per point, or exponents not a range\n"
           "    return ([k ** (1 / n) for k in a], [e ** 2 for e in a],\n"
           "            [i ** 2 for i in range(n)], map(pow, a, repeat(2)),\n"
           "            map(pow, repeat(2.0), a))\n"
           "class Scan:\n"
           "    def _build(self):\n"
           "        return np.logspace(0.0, 1.0, 9)\n"
           "class Grid(Scan):\n"
           "    def _build(self):\n"
           "        return np.logspace(0.0, 1.0, 9)\n"
           "S = Scan(lambda: [10.0 ** (i / 9) for i in range(9)])\n")
    found = [(scope, line, kind)
             for scope, line, kind in _scan_builds(ast.parse(src))]
    assert found == [
        (("f",), 2, "logspace()"), (("f",), 2, "geomspace()"),
        (("f",), 3, "base ** exponent over a range"),
        (("f",), 4, "map(pow, repeat(base), exponents)"),
        (("f",), 6, "base ** exponent over a range")]


def test_no_log_scan_is_built_outside_the_grid_type():
    found = [f"{module}:{line} {'.'.join(scope)} {kind}"
             for module, tree in TREES.items()
             for scope, line, kind in _scan_builds(tree)]
    assert not found, f"log scans built inline: {found}"


def test_stored_grid_values_live_on_grid_objects():
    # fill the stores through a calibration, a replay and a regression,
    # then look again: the module-level containers are still exactly the
    # listed caches and tables, no module holds an array, and each stored
    # array sits on its scan object
    from gnum.asymptotics import Scan, is_strictly_nonzero
    from gnum.harness import estimate_valuation, verify_decision
    from gnum.nets import EPS, powq
    x = powq(EPS, 2)
    assert verify_decision("strictly-nonzero", is_strictly_nonzero(x), x)
    estimate_valuation(x)
    test_every_module_level_cache_is_listed_with_its_bound()
    scans = []
    for name in TREES:
        stem = name[:-3]
        mod = importlib.import_module(
            "gnum" if stem == "__init__" else f"gnum.{stem}")
        for attr, v in vars(mod).items():
            assert not isinstance(v, np.ndarray), f"{stem}.{attr}"
            if isinstance(v, Scan):
                scans.append(v)
    stored = [v.__dict__.get("_arrays", {}) for v in scans]
    assert any(stored)
    for arrays in stored:
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable
                   for a in arrays.values())


def test_no_module_declares_a_dataclass():
    # records are declared by subclassing gnum.records.Record; of
    # dataclasses only the error a frozen record raises is imported
    imported = [(module, a.name) for module, tree in TREES.items()
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names
                if "dataclasses" in (a.name, getattr(node, "module", None))]
    assert imported == [("records.py", "FrozenInstanceError")]


# The compile() calls on generated source while gnum.cli is imported, by
# the function that makes them, in gnum or dataclasses: the record
# templates only, one per number of fields with a __post_init__ call or
# without.  Frozen dataclasses made 321 of them (dataclasses._create_fn).
COMPILES = {"gnum.records._templates": 11}
_COUNT_COMPILES = """
import json, sys
seen = {}
def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        caller = sys._getframe(1)
        where = f"{caller.f_globals.get('__name__')}.{caller.f_code.co_name}"
        seen[where] = seen.get(where, 0) + 1
sys.addaudithook(hook)
import gnum.cli
print(json.dumps(seen))
"""


def test_importing_the_cli_compiles_only_the_record_templates():
    out = subprocess.run([sys.executable, "-c", _COUNT_COMPILES],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    seen = json.loads(out.stdout)
    assert {k: v for k, v in seen.items()
            if k.startswith(("gnum.", "dataclasses."))} == COMPILES
