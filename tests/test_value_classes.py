"""The value classes of ``src/``: every class derived from ``value.Value``.

Each class is checked on instances whose fields hold arbitrary tokens
(written into the instance ``__dict__``, as the package's trusted builders
do), so that no validator runs: equality and hashing read exactly the
compared fields, as a tuple; ``repr`` lists every field; fields cannot be
assigned or deleted; and the constructor refuses a wrong argument count.
The ``repr`` of a few real values is pinned, as the package printed them
when its value classes were dataclasses.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cxtcat import value
from cxtcat.laws import LawReport
from cxtcat.logic import CcpSystem

SRC = Path(value.__file__).resolve().parent

UNCOMPARED = {
    "SemLattice": ("intents",),
    "ConceptLattice": ("intents",),
    "LindenbaumAlgebra": ("classes",),
}
# Classes that keep an equality of their own.
OWN_EQUALITY = ("CcpSystem",)
MUTABLE = ("LawReport",)


def value_classes():
    classes = []
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"cxtcat.{path.stem}")
        classes += [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type)
            and cls.__module__ == module.__name__
            and issubclass(cls, value.Value)
            and cls is not value.Value
        ]
    return classes


CLASSES = value_classes()


def token_instance(cls, tag):
    """A ``cls`` whose field ``f`` holds ``(tag, f)``; no validator runs."""
    x = object.__new__(cls)
    x.__dict__.update((f, (tag, f)) for f in cls._fields)
    return x


def with_field(x, name, v):
    y = object.__new__(type(x))
    y.__dict__.update(x.__dict__)
    y.__dict__[name] = v
    return y


def test_the_walk_finds_every_value_class():
    names = {cls.__name__ for cls in CLASSES}
    assert len(CLASSES) == len(names) == 29
    assert {"FinitePoset", "FormalContext", "ApproximableMapping", "TopSpace", "LawReport"} <= names
    assert set(UNCOMPARED) | set(OWN_EQUALITY) | set(MUTABLE) <= names


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_the_annotations_and_uncompared_ones_are_left_out(cls):
    assert cls._fields == tuple(cls.__annotations__)
    assert cls._compared == tuple(
        f for f in cls._fields if f not in UNCOMPARED.get(cls.__name__, ())
    )


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if c.__name__ not in OWN_EQUALITY], ids=lambda c: c.__name__
)
def test_equality_and_hash_are_those_of_the_compared_tuple(cls):
    x, y = token_instance(cls, 1), token_instance(cls, 1)
    assert x == y and not x != y and x == x
    compared = tuple((1, f) for f in cls._compared)
    if cls.__name__ in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(compared)
    for f in cls._fields:
        z = with_field(y, f, "other")
        if f in cls._compared:
            assert x != z and z != x, f
        else:
            assert x == z and hash(x) == hash(z), f
    # The tuple compares identical members as equal, whatever their ``==``.
    nan = float("nan")
    assert with_field(x, cls._compared[0], nan) == with_field(y, cls._compared[0], nan)
    other = next(c for c in CLASSES if c is not cls and c.__name__ not in OWN_EQUALITY)
    assert x != token_instance(other, 1) and x != compared


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_lists_every_field_unless_the_class_writes_its_own(cls):
    if "__repr__" in vars(cls):
        return
    x = token_instance(cls, 1)
    body = ", ".join(f"{f}={(1, f)!r}" for f in cls._fields)
    assert repr(x) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if c.__name__ not in MUTABLE], ids=lambda c: c.__name__
)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = token_instance(cls, 1)
    for f in cls._fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(x, f, 2)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(x, f)
        assert getattr(x, f) == (1, f)
    with pytest.raises(AttributeError):
        x.not_a_field = 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_wrong_argument_count_raises_type_error(cls):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*range(len(cls._fields) + 1))


def test_defaults_fill_the_trailing_fields():
    from cxtcat.order import Thm36Report

    assert Thm36Report(True, None, None) == Thm36Report(True, None, None, None)
    assert Thm36Report(True, None, None).failure is None
    assert Thm36Report(False, None, None, {"law": "x"}).failure == {"law": "x"}


def test_a_subclass_declaring_no_fields_keeps_its_base_s():
    from cxtcat.order import FinitePoset, JoinSemilattice

    class Sub(JoinSemilattice):
        pass

    P = FinitePoset(("a", "b"), {("a", "a"), ("a", "b"), ("b", "b")})
    assert Sub._fields == Sub._compared == ("poset",)
    S = Sub(P)
    assert S.bottom == "a" and S == Sub(P) and hash(S) == hash((P,))
    assert S != JoinSemilattice(P) and repr(S) == f"{Sub.__qualname__}(poset={P!r})"


def test_declarations_are_checked():
    with pytest.raises(TypeError, match="not all fields"):

        class Typo(value.Value, uncompared=("intent",)):
            intents: dict

    with pytest.raises(TypeError, match="without a default"):

        class Misordered(value.Value):
            a: int = 0
            b: int


def test_ccp_systems_keep_their_own_equality():
    # Equal when they derive the same sequents, though the generators (the
    # ``rules`` field) differ; hashed by the propositions alone.
    props = ("a", "b")
    c1 = CcpSystem(props, [({"a"}, {"b"})])
    c2 = CcpSystem(props, [({"a"}, {"b"}), ({"a", "b"}, {"a"})])
    c3 = CcpSystem(props, [({"b"}, {"a"})])
    assert c1.rules != c2.rules
    assert c1 == c2 and hash(c1) == hash(c2) == hash(props)
    assert c1 != c3


def test_law_reports_are_mutable_and_unhashable():
    r, s = LawReport("x", True), LawReport("x", True)
    assert r.lines == [] and r.lines is not s.lines and r.witness is None
    r.fail("broken", at="e")
    assert not r.ok and r.lines == ["FAIL broken"] and r != s
    r.ok = True
    del r.witness
    assert r.witness is None  # the class default shows through
    with pytest.raises(TypeError):
        hash(s)
    assert LawReport("y", False, ["l"], {"w": 1}) == LawReport("y", False, ["l"], {"w": 1})


PINNED_REPRS = """\
JoinSemilattice(poset=FinitePoset(elements=('c0', 'c1', 'c2'), leq=frozenset({('c0', 'c0'), ('c2', 'c2'), ('c1', 'c2'), ('c1', 'c1'), ('c0', 'c1'), ('c0', 'c2')})))
TopSpace(points=('a', 'b'), open_masks=(0, 1, 3))
SemLattice(context=FormalContext(objects=('o1', 'o2'), attributes=('a', 'b'), rows=(1, 2)), semilattice=JoinSemilattice(poset=FinitePoset(elements=('{a,b}', '{a}', '{b}', '{}'), leq=frozenset({('{}', '{b}'), ('{a,b}', '{a,b}'), ('{}', '{a,b}'), ('{}', '{a}'), ('{b}', '{b}'), ('{a}', '{a,b}'), ('{a}', '{a}'), ('{b}', '{a,b}'), ('{}', '{}')}))), intents={'{a,b}': frozenset({'a', 'b'}), '{a}': frozenset({'a'}), '{b}': frozenset({'b'}), '{}': frozenset()})
LawReport(name='x', ok=True, lines=[], witness=None)
Thm36Report(ok=True, semilattice_map=None, lattice_map=None, failure=None)
"""

REPR_SCRIPT = """\
from cxtcat.context import sem_lattice
from cxtcat.corpus import chain_poset, k2_context
from cxtcat.laws import LawReport
from cxtcat.order import JoinSemilattice, Thm36Report
from cxtcat.topology import TopSpace
print(repr(JoinSemilattice(chain_poset(3))))
print(repr(TopSpace(("a", "b"), [frozenset(), frozenset({"a"}), frozenset({"a", "b"})])))
print(repr(sem_lattice(k2_context())))
print(repr(LawReport("x", True)))
print(repr(Thm36Report(True, None, None)))
"""


def test_repr_strings_are_pinned():
    # Set members print in hash order, so the strings are pinned under one
    # hash seed, in a process of their own.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-c", REPR_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == PINNED_REPRS
