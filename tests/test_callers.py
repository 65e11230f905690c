"""Every definition in the package has a caller outside the tests, and no sum of
series chains ``+`` through ``sum(..., start)``."""

import ast
from pathlib import Path

import wickjet

PACKAGE = Path(wickjet.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# definitions kept without a caller, each for a stated reason
ALLOWED = {
    # the base-point oracle of ROADMAP items 1 and 3 pulls symbols through it
    "mobius_pullback",
}


def _definitions(tree: ast.AST, scope: str = ""):
    """(qualified name, name) of every non-dunder function, method or class."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}{node.name}."
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield inner[:-1], node.name
        yield from _definitions(node, inner)


def _names_read(tree: ast.AST) -> set:
    """Every name an ``ast.Name`` or ``ast.Attribute`` reads.

    Imports and ``__all__`` strings are no such node, so they name nothing.
    """
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _tracer_targets(tree: ast.AST) -> set:
    """The parts of the dotted attribute paths in the tracer's TARGETS."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {part for target in node.value.elts
                    for part in target.elts[2].value.split(".")}
    raise AssertionError("bench/tracer.py defines no TARGETS")


def uncalled(package: list, callers: list, tracer: ast.AST) -> list:
    """Qualified names of package definitions whose name nothing reads.

    ``package`` and ``callers`` are parsed modules; the package reads its
    own names too.  The scan matches names, not objects, and any read
    counts, even one inside a definition nothing calls.  So a shared name
    hides an unused method: the weight attribute ``is_real`` that ``btrep``
    reads would hide an unused ``is_real`` method on any class.
    Operators call dunders, which the scan leaves out.
    """
    read = _tracer_targets(tracer)
    for tree in package + callers:
        read |= _names_read(tree)
    return sorted(qualified for tree in package
                  for qualified, name in _definitions(tree) if name not in read)


def _parse(paths) -> list:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def test_every_definition_has_a_caller_outside_the_tests():
    found = uncalled(_parse(sorted(PACKAGE.glob("*.py"))),
                     _parse(sorted(BENCH.glob("*.py"))),
                     ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8")))
    assert set(found) == ALLOWED, found


def test_the_caller_scan_flags_an_unread_definition():
    package = [ast.parse(
        "from .b import used\n"
        "__all__ = ['exported']\n"
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "def exported(): pass\n"
        "def traced(): pass\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def unused(self): pass\n"
        "def outer():\n"
        "    def inner(): pass\n")]
    callers = [ast.parse("from pkg import outer\nused()\nBox().method()\nouter()\n")]
    tracer = ast.parse("TARGETS = (('t', 'pkg', 'traced', None, ()),)\n")
    assert uncalled(package, callers, tracer) == \
        ["Box.unused", "exported", "outer.inner"]


def sums_with_start(trees: dict) -> list:
    """``file:line`` of every ``sum()`` call given a start value, by parsed module name.

    A sum of series belongs in ``series.linear_combination``, which builds
    the result once; ``sum(parts, start)`` rebuilds it at every ``+``.
    """
    return [f"{name}:{node.lineno}" for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum" and (len(node.args) > 1 or node.keywords)]


def test_no_sum_in_the_package_takes_a_start_value():
    paths = sorted(PACKAGE.glob("*.py"))
    assert sums_with_start(dict(zip((p.name for p in paths), _parse(paths)))) == []


def test_the_sum_scan_flags_a_start_value():
    tree = ast.parse("sum(x)\nsum(x, zero)\nsum(x, start=zero)\ntotal.sum(x, zero)\n")
    assert sums_with_start({"m.py": tree}) == ["m.py:2", "m.py:3"]


# the operators that read or write bit fields; ``|`` also joins types in
# annotations such as ``WickSeries | None``, so it is left out
_BIT_OPS = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitXor)


def layout_decodes(trees: dict) -> list:
    """``file:line`` of every bit operation or byte conversion, by parsed module name.

    The packed key layout belongs to ``series``: every other module reads
    a key through ``pack``/``unpack`` and the ``WickSeries`` methods.  The
    scan flags ``<<``, ``>>``, ``&``, ``^`` and ``~`` (augmented too) and
    every ``to_bytes``/``from_bytes`` call.
    """
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                flagged = isinstance(node.op, _BIT_OPS)
            elif isinstance(node, ast.UnaryOp):
                flagged = isinstance(node.op, ast.Invert)
            else:
                flagged = (isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Attribute)
                           and node.func.attr in ("to_bytes", "from_bytes"))
            if flagged:
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_series_reads_the_key_layout():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "series.py"]
    assert layout_decodes(dict(zip((p.name for p in paths), _parse(paths)))) == []


def test_the_layout_scan_flags_bit_operations():
    tree = ast.parse(
        "def f(key, dim) -> int | None:\n"
        "    a = key >> 8 & 0xFF\n"
        "    b = key << 2\n"
        "    c = key ^ ~key\n"
        "    key &= 3\n"
        "    d = key.to_bytes(2, 'big')\n"
        "    e = int.from_bytes(d, 'big')\n"
        "    return a | b + c * d - e\n")
    assert layout_decodes({"m.py": tree}) == \
        ["m.py:2", "m.py:2", "m.py:3", "m.py:4", "m.py:4", "m.py:5", "m.py:6", "m.py:7"]
