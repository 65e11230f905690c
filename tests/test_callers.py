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


def setattr_sites(trees: dict) -> list:
    """``file:line`` of every ``__setattr__`` read or definition outside ``Value``.

    ``errors.Value`` is the one place that sets a slot past the immutability
    guard (``_init``) and the one guard; every value type inherits both.
    The slot setters that ``series`` and ``coefficients`` bind are
    ``__set__``, which the scan leaves alone.
    """
    def sites(node: ast.AST, name: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "Value":
                continue
            if (isinstance(child, ast.FunctionDef) and child.name == "__setattr__"
                    or isinstance(child, ast.Attribute) and child.attr == "__setattr__"):
                yield f"{name}:{child.lineno}"
            yield from sites(child, name)
    return [site for name, tree in trees.items() for site in sites(tree, name)]


def test_only_value_sets_slots_past_the_guard():
    paths = sorted(PACKAGE.glob("*.py"))
    assert setattr_sites(dict(zip((p.name for p in paths), _parse(paths)))) == []


def test_the_setattr_scan_flags_guards_and_direct_sets():
    tree = ast.parse(
        "class Value:\n"
        "    def _init(self, **slots):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "    def __setattr__(self, name, value): pass\n"
        "class Box(Value):\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "    def __setattr__(self, name, value):\n"
        "        super().__setattr__(name, value)\n"
        "_SET_A = Box.a.__set__\n"
        "setattr(Box(), 'a', 2)\n")
    assert setattr_sites({"m.py": tree}) == ["m.py:7", "m.py:8", "m.py:9"]


# the value types that keep their own equality (structural on ``num``, and
# equal to ints) and their own repr
OWN_EQUALITY = {"WickSeries", "ComplexRational"}
_VALUE_METHODS = {"_key", "__repr__", "__eq__", "__hash__"}


def value_overrides(trees: dict) -> list:
    """``file:line`` of every ``_key``, ``__repr__``, ``__eq__`` or ``__hash__``
    that a class derived from ``Value`` defines or assigns, outside ``OWN_EQUALITY``.

    ``errors.Value`` derives the key and the repr from the public slots, and
    equality and hash from the key, once for every value type.  A class is
    derived when a base names ``Value`` or a class already found derived.
    """
    classes = [(name, node) for name, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    derived, grown = {"Value"}, True
    while grown:
        grown = False
        for _, node in classes:
            if node.name not in derived and any(
                    isinstance(base, ast.Name) and base.id in derived for base in node.bases):
                derived.add(node.name)
                grown = True
    found = []
    for name, node in classes:
        if node.name in derived - {"Value"} - OWN_EQUALITY:
            for item in node.body:
                names = [item.name] if isinstance(item, ast.FunctionDef) else [
                    target.id for target in getattr(item, "targets", ())
                    if isinstance(target, ast.Name)]
                if _VALUE_METHODS & set(names):
                    found.append(f"{name}:{item.lineno}")
    return found


def test_only_the_own_equality_types_override_the_value_key():
    paths = sorted(PACKAGE.glob("*.py"))
    assert value_overrides(dict(zip((p.name for p in paths), _parse(paths)))) == []


def test_the_value_scan_flags_keys_reprs_and_equality():
    tree = ast.parse(
        "class Value:\n"
        "    def _key(self): pass\n"
        "    def __repr__(self): pass\n"
        "class Box(Value):\n"
        "    def _key(self): pass\n"
        "    def __repr__(self): pass\n"
        "    def size(self): pass\n"
        "class Crate(Box):\n"
        "    def __eq__(self, other): pass\n"
        "    __hash__ = None\n"
        "class Plain:\n"
        "    def __repr__(self): pass\n"
        "class WickSeries(Value):\n"
        "    def __eq__(self, other): pass\n"
        "    def __repr__(self): pass\n")
    assert value_overrides({"m.py": tree}) == ["m.py:5", "m.py:6", "m.py:9", "m.py:10"]


# the scopes that may create an object past its constructor, and those that
# may set a slot through a bound ``_SET_*`` setter
NEW_SCOPES = {"WickSeries._of"}
SETTER_SCOPES = {"WickSeries._of", "WickSeries._sorted_rows", "ComplexRational.__init__"}


def construction_sites(trees: dict) -> list:
    """``file:line`` of every ``object.__new__`` read outside ``NEW_SCOPES``
    and every ``_SET_*`` slot-setter call outside ``SETTER_SCOPES``.

    ``WickSeries._of`` is the one constructor of a series: it creates the
    object and sets its slots.  Besides it only the row cache of
    ``_sorted_rows`` and ``ComplexRational.__init__`` set a slot; the lines
    that bind the setters call none.  A scope is the dotted name of the
    enclosing classes and functions.
    """
    def sites(node: ast.AST, name: str, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            new = (isinstance(child, ast.Attribute) and child.attr == "__new__"
                   and isinstance(child.value, ast.Name) and child.value.id == "object")
            setter = (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                      and child.func.id.startswith("_SET_"))
            if new and scope not in NEW_SCOPES or setter and scope not in SETTER_SCOPES:
                yield f"{name}:{child.lineno}"
            yield from sites(child, name, inner)
    return [site for name, tree in trees.items() for site in sites(tree, name, "")]


def test_only_the_constructor_creates_a_series():
    paths = sorted(PACKAGE.glob("*.py"))
    assert construction_sites(dict(zip((p.name for p in paths), _parse(paths)))) == []


def test_the_construction_scan_flags_new_objects_and_slot_sets():
    tree = ast.parse(
        "class WickSeries:\n"
        "    @classmethod\n"
        "    def _of(cls, num):\n"
        "        series = object.__new__(cls)\n"
        "        _SET_NUM(series, num)\n"
        "        return series\n"
        "    def _sorted_rows(self):\n"
        "        _SET_ROWS(self, [])\n"
        "    def conjugate(self):\n"
        "        flipped = object.__new__(WickSeries)\n"
        "        _SET_NUM(flipped, {})\n"
        "class ComplexRational:\n"
        "    def __init__(self, re):\n"
        "        _SET_RE(self, re)\n"
        "    def conjugate(self):\n"
        "        _SET_RE(self, -self.re)\n"
        "_SET_NUM, _SET_ROWS = WickSeries.num.__set__, WickSeries._rows.__set__\n"
        "new = object.__new__\n")
    assert construction_sites({"m.py": tree}) == ["m.py:10", "m.py:11", "m.py:16", "m.py:18"]
