"""Memo keys: ``order._memo`` keeps its caches in the instance ``__dict__``,
the same dictionary that holds the fields, the ``cached_property`` results
and the bounds the constructors store.

Every ``_memo(value, key, build)`` call in ``src/`` is read off the syntax
tree.  The key must be a string literal, and each key must name one builder
wherever it is used.  No key may be a field, property or cached property of
any class of the package, so none of the class ``value`` belongs to, nor an
attribute that any code writes into an instance ``__dict__``.
"""

import ast
import functools
import importlib
from collections import defaultdict
from pathlib import Path

from cxtcat.value import Value

SRC = Path(__file__).resolve().parents[1] / "src" / "cxtcat"


class MemoCalls(ast.NodeVisitor):
    """Collects each ``_memo(...)`` call, and every key written as
    ``x.__dict__["key"]`` or ``x.__dict__.update(key=...)``."""

    def __init__(self):
        self.calls, self.written = [], set()

    def visit_Call(self, node):
        f = node.func
        if getattr(f, "id", getattr(f, "attr", None)) == "_memo":
            self.calls.append(node)
        if isinstance(f, ast.Attribute) and f.attr == "update" and is_instance_dict(f.value):
            self.written.update(k.arg for k in node.keywords)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if is_instance_dict(node.value) and isinstance(node.slice, ast.Constant):
            self.written.add(node.slice.value)
        self.generic_visit(node)


def is_instance_dict(node):
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def attribute_names(cls):
    """Fields, properties and cached properties of ``cls``."""
    names = set(cls._fields) if issubclass(cls, Value) else set()
    for klass in cls.__mro__:
        names.update(
            k for k, v in vars(klass).items() if isinstance(v, (property, functools.cached_property))
        )
    return names


def memo_sites():
    """``(where, key node, builder)`` for every ``_memo`` call in ``src/``;
    the attribute names of every class defined there; and the keys any code
    writes into an instance ``__dict__``."""
    sites, attributes, written = [], set(), set()
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"cxtcat.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                attributes |= attribute_names(cls)
        visitor = MemoCalls()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        written |= visitor.written
        for call in visitor.calls:
            _, key, build = call.args
            if isinstance(build, ast.Name):  # a named builder is one object
                build = getattr(module, build.id)
            else:
                build = ast.dump(build)
            sites.append((f"{path.name}:{call.lineno}", key, build))
    return sites, attributes, written


def test_memo_keys_are_literals_bound_to_one_builder():
    sites, _, _ = memo_sites()
    assert len(sites) > 10
    builders = defaultdict(list)
    for where, key, build in sites:
        assert isinstance(key, ast.Constant) and isinstance(key.value, str), where
        builders[key.value].append(build)
    for key, builds in builders.items():
        assert all(b is builds[0] or b == builds[0] for b in builds), key


def test_memo_keys_do_not_shadow_attributes():
    sites, attributes, written = memo_sites()
    assert {"poset", "join_table", "down_masks", "sorted_opens"} <= attributes
    assert {"bottom", "top", "join_table", "values"} <= written
    for where, key, _ in sites:
        assert key.value not in attributes | written, where
