"""Cartesian closed structure on formal contexts.

Terminal object, binary products (disjoint-union contexts), the full-row /
full-column tensor alternative, function-space contexts built from pairs of
concept-semilattice elements, and the currying bijection.  Morphisms between
contexts are approximable mappings between their concept semilattices.
``bang``, the projections, pairings and both transposes make monotone tables
by construction and build them through ``mappings._trusted``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .canon import fresh_id, pair_id, set_id
from .context import FormalContext, SemLattice, concept_masks, make_context, sem_lattice
from .errors import ValidationError
from .mappings import ApproximableMapping, _trusted, enumerate_mappings, validate_am
from .order import FiniteLattice, JoinSemilattice, _guard, lattice_from_masks
from .value import Value

LEFT_TAG = "l:"
RIGHT_TAG = "r:"
# Most attributes (concept pairs) of a function space, and of one whose
# literal context, with an object per attribute subset, is built.
FUNCSPACE_ATTRIBUTE_GUARD = 64
LITERAL_OBJECT_GUARD = 12


def tag_left(x: str) -> str:
    return LEFT_TAG + x


def tag_right(x: str) -> str:
    return RIGHT_TAG + x


def untag(x: str) -> tuple[str, str]:
    if x.startswith(LEFT_TAG):
        return "left", x[len(LEFT_TAG):]
    if x.startswith(RIGHT_TAG):
        return "right", x[len(RIGHT_TAG):]
    raise ValidationError(f"{x!r} carries no side tag", law="product:tags")


def terminal() -> FormalContext:
    return make_context([], [], [])


def bang(P: FormalContext) -> ApproximableMapping:
    """The unique mapping into the terminal context's singleton semilattice."""
    src = sem_lattice(P).semilattice
    tgt = sem_lattice(terminal()).semilattice
    return _trusted(ApproximableMapping, src, tgt, (tgt.bottom,) * len(src.elements))


class ProductContext(Value):
    """Disjoint union of two contexts with the cross incidences filled in.

    Every left object bears every right attribute and vice versa, so concept
    closure works sidewise and concepts are tagged unions of one concept from
    each factor.
    """

    context: FormalContext
    left: FormalContext
    right: FormalContext

    @cached_property
    def sem(self) -> SemLattice:
        return sem_lattice(self.context)

    @cached_property
    def left_sem(self) -> SemLattice:
        return sem_lattice(self.left)

    @cached_property
    def right_sem(self) -> SemLattice:
        return sem_lattice(self.right)

    def decompose(self, name: str) -> tuple[str, str]:
        """Split a product concept into its left and right factor concepts."""
        P = self.sem.semilattice.poset
        P.check_members((name,))
        x, y = self._split_pairs[P.index[name]]
        return self.left_sem.elements[x], self.right_sem.elements[y]

    def combine(self, left_name: str, right_name: str) -> str:
        """The product concept whose factor concepts are the two given."""
        L, R = self.left_sem.semilattice.poset, self.right_sem.semilattice.poset
        L.check_members((left_name,))
        R.check_members((right_name,))
        return self.sem.elements[self._combine_rows[L.index[left_name]][R.index[right_name]]]

    @cached_property
    def _split_pairs(self) -> tuple[tuple[int, int], ...]:
        """``decompose`` on indices, in the product's element order: each
        intent mask cut at the left width (``product``), both halves looked
        up by mask."""
        shift, low = len(self.left.attributes), self.left.full_attr_mask
        li = {m: i for i, m in enumerate(concept_masks(self.left))}
        ri = {m: i for i, m in enumerate(concept_masks(self.right))}
        return tuple((li[m & low], ri[m >> shift]) for m in concept_masks(self.context))

    @cached_property
    def _combine_rows(self) -> tuple[tuple[int, ...], ...]:
        """``combine`` on indices: row ``x``, column ``y`` is the index of the
        product concept of left concept ``x`` and right concept ``y``."""
        rows = [[0] * len(self.right_sem.elements) for _ in self.left_sem.elements]
        for z, (x, y) in enumerate(self._split_pairs):
            rows[x][y] = z
        return tuple(map(tuple, rows))

    def attr_sides(self) -> dict[str, tuple[str, str]]:
        return {a: untag(a) for a in self.context.attributes}

    def object_sides(self) -> dict[str, tuple[str, str]]:
        return {o: untag(o) for o in self.context.objects}

    def proj_left(self) -> ApproximableMapping:
        values = tuple(self.left_sem.elements[x] for x, _ in self._split_pairs)
        return _trusted(
            ApproximableMapping, self.sem.semilattice, self.left_sem.semilattice, values
        )

    def proj_right(self) -> ApproximableMapping:
        values = tuple(self.right_sem.elements[y] for _, y in self._split_pairs)
        return _trusted(
            ApproximableMapping, self.sem.semilattice, self.right_sem.semilattice, values
        )

    def pair(self, m_left: ApproximableMapping, m_right: ApproximableMapping) -> ApproximableMapping:
        """The mediating mapping of the product cone."""
        if m_left.source != m_right.source:
            raise ValidationError("cone legs have different sources", law="product:cone")
        if (
            m_left.target != self.left_sem.semilattice
            or m_right.target != self.right_sem.semilattice
        ):
            raise ValidationError("cone legs do not land in the factors", law="product:cone")
        values = tuple(map(self.combine, m_left.values, m_right.values))
        return _trusted(ApproximableMapping, m_left.source, self.sem.semilattice, values)


def product(P: FormalContext, Q: FormalContext) -> ProductContext:
    objects = tuple(tag_left(o) for o in P.objects) + tuple(tag_right(o) for o in Q.objects)
    attributes = tuple(tag_left(a) for a in P.attributes) + tuple(
        tag_right(a) for a in Q.attributes
    )
    # Left attributes take the low bits and right ones the bits above them;
    # each side's objects bear every attribute of the other side.
    shift = len(P.attributes)
    right_full = Q.full_attr_mask << shift
    rows = tuple(r | right_full for r in P.rows) + tuple(
        P.full_attr_mask | r << shift for r in Q.rows
    )
    return ProductContext(FormalContext._from_rows(objects, attributes, rows), P, Q)


def plus(P: FormalContext) -> FormalContext:
    """Adjoin a full row and a full column; no concept is empty afterwards."""
    g = fresh_id("g", P.objects)
    m = fresh_id("m", P.attributes)
    col = 1 << len(P.attributes)
    rows = tuple(r | col for r in P.rows) + (2 * col - 1,)
    return FormalContext._from_rows(P.objects + (g,), P.attributes + (m,), rows)


class TensorContext(Value):
    """Pairwise product of the row/column-extended factors."""

    context: FormalContext
    left: FormalContext
    right: FormalContext
    left_plus: FormalContext
    right_plus: FormalContext

    @cached_property
    def sem(self) -> SemLattice:
        return sem_lattice(self.context)

    @cached_property
    def product(self) -> ProductContext:
        """The disjoint-union product of the same factors, which both
        isomorphisms read."""
        return product(self.left, self.right)

    @cached_property
    def attr_pairs(self) -> dict[str, tuple[str, str]]:
        out = {}
        for a1 in self.left_plus.attributes:
            for a2 in self.right_plus.attributes:
                out[pair_id(a1, a2)] = (a1, a2)
        return out

    @cached_property
    def _projection_masks(self) -> tuple[int, ...]:
        """Each concept's two projections, in element order, as a product
        intent mask (``product``), leaving out the attributes ``plus`` adds.
        Block ``i`` of a tensor intent holds its right attributes paired with
        left attribute ``i``."""
        n, width = len(self.left.attributes), len(self.right_plus.attributes)
        out = []
        for m in concept_masks(self.context):
            p1 = p2 = 0
            for i in range(n + 1):
                part = m >> i * width & (1 << width) - 1
                p1 |= bool(part) << i
                p2 |= part
            out.append(p1 & self.left.full_attr_mask | (p2 & self.right.full_attr_mask) << n)
        return tuple(out)

    def iso_plus(self) -> ApproximableMapping:
        """From the disjoint-union product's semilattice into this one."""
        prod = self.product
        pairs = {
            (x, y)
            for x, m in zip(prod.sem.elements, concept_masks(prod.context))
            for y, t in zip(self.sem.elements, self._projection_masks)
            if t & m == t
        }
        return validate_am(prod.sem.semilattice, self.sem.semilattice, pairs)

    def iso_minus(self) -> ApproximableMapping:
        prod = self.product
        pairs = {
            (y, x)
            for y, t in zip(self.sem.elements, self._projection_masks)
            for x, m in zip(prod.sem.elements, concept_masks(prod.context))
            if m & t == m
        }
        return validate_am(self.sem.semilattice, prod.sem.semilattice, pairs)


def tensor(P: FormalContext, Q: FormalContext) -> TensorContext:
    Pp, Qp = plus(P), plus(Q)
    objects = tuple(pair_id(o1, o2) for o1 in Pp.objects for o2 in Qp.objects)
    attributes = tuple(pair_id(a1, a2) for a1 in Pp.attributes for a2 in Qp.attributes)
    # Attribute (a1, a2) is bit a1 * width + a2: object (o1, o2) bears the
    # row of o2 in the block of each attribute of o1.
    width = len(Qp.attributes)
    blocks = [[i * width for i in range(len(Pp.attributes)) if r >> i & 1] for r in Pp.rows]
    rows = tuple(
        sum(r2 << shift for shift in block) for block in blocks for r2 in Qp.rows
    )
    return TensorContext(FormalContext._from_rows(objects, attributes, rows), P, Q, Pp, Qp)


# ---------------------------------------------------------------------------
# function space


class FunctionSpaceContext(Value):
    """Context whose attributes are step-function pairs of factor concepts.

    Objects are finite sets of such pairs; a set models a pair ``(a, b)``
    when ``b`` is below the join of the second components whose first
    component is below ``a``.  The concepts are the enumerated approximable
    mappings (Lemma 5.9), named by their pair sets.  ``closure`` saturates a
    pair set under the mapping axioms by definition; ``lemma5.9`` checks the
    concepts against its closed sets and against the literal context.
    """

    left: FormalContext
    right: FormalContext

    @cached_property
    def left_sem(self) -> SemLattice:
        return sem_lattice(self.left)

    @cached_property
    def right_sem(self) -> SemLattice:
        return sem_lattice(self.right)

    @cached_property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self.attr_pairs)

    @cached_property
    def attr_pairs(self) -> dict[str, tuple[str, str]]:
        return {
            pair_id(x, y): (x, y)
            for x in self.left_sem.elements
            for y in self.right_sem.elements
        }

    def closure(self, attrs: Iterable[str]) -> frozenset[str]:
        """Least mapping-axiom-closed attribute set containing ``attrs``."""
        attrs = set(attrs)
        if not attrs <= self.attr_pairs.keys():
            a = min(attrs.difference(self.attr_pairs))
            raise ValidationError(
                f"unknown attribute {a!r}", law="unknown-element", witness={"element": a}
            )
        sp, sq = self.left_sem.semilattice, self.right_sem.semilattice
        have: set[tuple[str, str]] = {self.attr_pairs[a] for a in attrs}
        for x in sp.elements:
            have.add((x, sq.bottom))
        changed = True
        while changed:
            changed = False
            by_src: dict[str, set[str]] = {}
            for x, y in have:
                by_src.setdefault(x, set()).add(y)
            for x, ys in list(by_src.items()):
                ys = sorted(ys)
                for y1 in ys:
                    for y2 in ys:
                        j = sq.join(y1, y2)
                        if (x, j) not in have:
                            have.add((x, j))
                            changed = True
            for x, y in list(have):
                for x2 in sp.elements:
                    if not sp.le(x, x2):
                        continue
                    for y2 in sq.elements:
                        if sq.le(y2, y) and (x2, y2) not in have:
                            have.add((x2, y2))
                            changed = True
        return frozenset(pair_id(x, y) for x, y in have)

    @cached_property
    def _mappings(self) -> dict[int, ApproximableMapping]:
        """The hom-set, each mapping keyed by its mask of pair attributes:
        attribute ``(x, y)`` is bit ``x * width + y``, so the mask holds the
        down-cone of each value, shifted into its source element's block."""
        Q = self.right_sem.semilattice.poset
        idx, down, width = Q.index, Q.down_masks, Q.n
        homs = enumerate_mappings(self.left_sem.semilattice, self.right_sem.semilattice)
        return {sum(down[idx[v]] << i * width for i, v in enumerate(m.values)): m for m in homs}

    @cached_property
    def _lattice(self) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
        return lattice_from_masks(self.attributes, self._mappings)

    @cached_property
    def sem(self) -> tuple[JoinSemilattice, dict[str, frozenset[str]]]:
        """Concept semilattice over the mappings' pair sets, plus decoding."""
        lat, names = self._lattice
        return lat.as_join_semilattice(), names

    def concepts(self) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
        """The full concept lattice of the function space."""
        return self._lattice

    def mapping(self, name: str) -> ApproximableMapping:
        """The approximable mapping that a concept is."""
        self.sem[0].poset.check_members((name,))
        return self._mapping_of[name]

    def decode(self, name: str) -> frozenset[tuple[str, str]]:
        return self.mapping(name).pairs

    @cached_property
    def _concept_of_values(self) -> dict[tuple[str, ...], str]:
        """Each concept keyed by its mapping's value table."""
        return {m.values: w for w, m in self._mapping_of.items()}

    @cached_property
    def _mapping_of(self) -> dict[str, ApproximableMapping]:
        """Each concept's mapping, by concept name."""
        bit = {a: 1 << i for i, a in enumerate(self.attributes)}
        return {w: self._mappings[sum(map(bit.__getitem__, xs))] for w, xs in self.sem[1].items()}

    def literal_context(self, guard: int | None = None) -> FormalContext:
        """The context with one object per finite attribute set; ``guard``
        defaults to ``LITERAL_OBJECT_GUARD``."""
        attrs = self.attributes
        cap = LITERAL_OBJECT_GUARD if guard is None else guard
        _guard("funcspace literal objects", len(attrs), cap)
        spo, sqo = self.left_sem.semilattice, self.right_sem.semilattice
        pairs = tuple(self.attr_pairs.values())
        objects, rows = [], []
        for m in range(1 << len(attrs)):
            objects.append(set_id(a for i, a in enumerate(attrs) if m >> i & 1))
            mine = [p for i, p in enumerate(pairs) if m >> i & 1]
            row = 0
            for j, (a, b) in enumerate(pairs):
                if sqo.le(b, sqo.join_all(bi for ai, bi in mine if spo.le(ai, a))):
                    row |= 1 << j
            rows.append(row)
        return FormalContext._from_rows(tuple(objects), attrs, tuple(rows))


def funcspace(P: FormalContext, Q: FormalContext) -> FunctionSpaceContext:
    fs = FunctionSpaceContext(P, Q)
    _guard("funcspace", len(fs.attributes), FUNCSPACE_ATTRIBUTE_GUARD)
    return fs


# ---------------------------------------------------------------------------
# currying


def _check_curry_interfaces(
    m_source: JoinSemilattice | None,
    prod: ProductContext,
    fs: FunctionSpaceContext,
) -> None:
    if fs.left != prod.right:
        raise ValidationError(
            "function space is not over the product's right factor", law="curry:interface"
        )
    if m_source is not None and m_source != prod.sem.semilattice:
        raise ValidationError("mapping is not over the expected product", law="curry:interface")


def curry(
    m: ApproximableMapping, prod: ProductContext, fs: FunctionSpaceContext
) -> ApproximableMapping:
    """Transpose a mapping out of a product into the function space."""
    _check_curry_interfaces(m.source, prod, fs)
    if m.target != fs.right_sem.semilattice:
        raise ValidationError("mapping target is not the function space codomain", law="curry:interface")
    # Row x of the combine table lists the product concepts (x, y) in the
    # order of the right factor, which is the function space's source.
    concept, mv = fs._concept_of_values, m.values
    values = tuple(concept[tuple(map(mv.__getitem__, row))] for row in prod._combine_rows)
    return _trusted(ApproximableMapping, prod.left_sem.semilattice, fs.sem[0], values)


def uncurry(
    m: ApproximableMapping, prod: ProductContext, fs: FunctionSpaceContext
) -> ApproximableMapping:
    """Inverse transpose, back onto the product."""
    _check_curry_interfaces(None, prod, fs)
    if m.source != prod.left_sem.semilattice or m.target != fs.sem[0]:
        raise ValidationError("mapping is not over the expected transpose", law="curry:interface")
    table, mv = fs._mapping_of, m.values
    values = tuple(table[mv[x]].values[y] for x, y in prod._split_pairs)
    return _trusted(ApproximableMapping, prod.sem.semilattice, fs.right_sem.semilattice, values)
