"""Set names are written, never read back: ``canon.set_id`` names a member
set for a message, for the order of a witness, or for an object of a built
context, and no code in ``src/`` finds an element by rebuilding its name.
Lattices of set families are read by mask (``order.named_masks`` names a
family once, and its callers look elements up by mask or index).

Every ``set_id(...)`` call in ``src/`` is read off the syntax tree with the
function that makes it and what the name is for: a message when the call
sits in an f-string, a witness order when it sits in a ``key=`` argument,
and a name otherwise.  The sites are pinned here, so a new one fails until
it is added with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cxtcat"

ALLOWED = Counter(
    {
        # the objects of the literal function-space context are attribute sets
        ("category.py", "FunctionSpaceContext.literal_context", "name"): 1,
        ("logic.py", "_checked", "message"): 1,
        ("logic.py", "InformationSystem.__post_init__", "message"): 1,
        ("logic.py", "InformationSystem.__post_init__", "witness order"): 1,
        ("logic.py", "close_entailment", "message"): 1,
    }
)


class SetIdCalls(ast.NodeVisitor):
    """Counts ``(enclosing qualified name, use)`` for each ``set_id`` call,
    whether called by name or through ``canon``."""

    def __init__(self):
        self.scope, self.within, self.sites = [], [], Counter()

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_scope

    def visit_within(self, node, use):
        self.within.append(use)
        self.generic_visit(node)
        self.within.pop()

    def visit_JoinedStr(self, node):
        self.visit_within(node, "message")

    def visit_keyword(self, node):
        if node.arg == "key":
            self.visit_within(node, "witness order")
        else:
            self.generic_visit(node)

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "set_id":
            use = self.within[-1] if self.within else "name"
            self.sites[".".join(self.scope), use] += 1
        self.generic_visit(node)


def set_id_sites(source: str) -> Counter:
    visitor = SetIdCalls()
    visitor.visit(ast.parse(source))
    return visitor.sites


def test_set_id_is_called_only_at_the_pinned_sites():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        for (where, use), n in set_id_sites(path.read_text(encoding="utf-8")).items():
            found[path.name, where, use] += n
    assert found == ALLOWED


def test_the_walk_sees_a_lookup_by_rebuilt_name():
    source = (
        "class C:\n"
        "    def f(self, xs):\n"
        "        return self.index[canon.set_id(xs)], f'{set_id(xs)}'\n"
    )
    assert set_id_sites(source) == Counter({("C.f", "name"): 1, ("C.f", "message"): 1})
