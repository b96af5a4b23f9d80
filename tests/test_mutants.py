"""Mutants the checks must catch: one row per law check or corpus build
that works on index tables, and per finite theorem that serves as an engine
(``compacts`` is the lattice, the ideal completion is the semilattice
renamed, upper and lower sets come from the monotone-map search and enter
their space unchecked, the order of a hom-set is read off per-element
ranks) or definitional fold that cross-checks one, and per fast path of
the contexts held as rows (the product and tensor blocks, the product's
split and the tensor's projections by mask, the CXT parser, the chunked
inclusion tables and the in-order poset writer), of the one namer of set
families and the injective writer of their members, and of the spaces
held as open masks (the trusted space build, the closure walk, the filter
space's membership masks and ψ).

Each row patches one seeded mutant into such a path and names what catches
it: either a law suite, run through the command line at default settings,
exits 1, or an oracle test of ``tests/test_index_oracles.py`` fails.  A row
caught by its oracle only is marked ``oracle`` and names the law suite it
escapes; the off-chain ``curry`` mutant is one, as every product factor in
the ``prop5.10`` corpora is a chain.
"""

import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import pytest
import test_index_oracles as oracles

from cxtcat import (
    canon,
    category,
    context,
    corpus,
    formats,
    kernels,
    laws,
    logic,
    mappings,
    order,
    topology,
)
from cxtcat.cli import main
from cxtcat.corpus import diamond_poset
from cxtcat.errors import ValidationError
from cxtcat.order import _bits


def swap_two(table):
    """``table`` with the first two different entries of its first row that
    has two swapped."""
    rows = [list(row) for row in table]
    for row in rows:
        j = next((j for j in range(1, len(row)) if row[j] != row[0]), None)
        if j is not None:
            row[0], row[j] = row[j], row[0]
            break
    return tuple(map(tuple, rows))


def swap_values(values):
    """``values`` with its first two different entries swapped."""
    vals = list(values)
    j = next((j for j in range(1, len(vals)) if vals[j] != vals[0]), None)
    if j is not None:
        vals[0], vals[j] = vals[j], vals[0]
    return tuple(vals)


def with_swapped_meets(L):
    """A copy of the lattice ``L`` whose meet table has two entries swapped."""
    X = object.__new__(type(L))
    X.__dict__.update(L.__dict__)
    X.__dict__["meet_table"] = swap_two(L.meet_table)
    return X


def on_swapped_meets(real):
    return lambda L: real(with_swapped_meets(L))


def point_on_swapped_meets(mp):
    real = topology.LocalePoint.__post_init__

    def post_init(self):
        view = SimpleNamespace(
            lattice=with_swapped_meets(self.lattice), generator=self.generator, members=self.members
        )
        real(view)

    mp.setattr(topology.LocalePoint, "__post_init__", post_init)


def iso_ignoring_the_first_cone(P, Q, f):
    """``order.is_order_iso`` that never looks at the up-cone of element 0."""
    if set(f) != set(P.elements) or set(f.values()) != set(Q.elements):
        return False
    at = [Q.index[f[x]] for x in P.elements]
    for i, cone in enumerate(P.up_masks):
        image = 0
        for j in _bits(cone):
            image |= 1 << at[j]
        if i and image != Q.up_masks[at[i]]:
            return False
    return True


def mubs_dropping_the_least(real):
    return lambda D, xs: (lambda m: m & (m - 1))(real(D, xs))


def swapped_table(real):
    """A morphism builder whose table has two values swapped."""

    def build(*args):
        t = real(*args)
        return mappings._trusted(type(t), t.source, t.target, swap_values(t.values))

    return build


def curry_off_the_chains(real):
    """``curry`` that swaps its first and last values when the left factor of
    the product is not a chain."""

    def curry(m, prod, fs):
        c = real(m, prod, fs)
        P = prod.left_sem.semilattice.poset
        if all(a | b == a or a | b == b for a in P.up_masks for b in P.up_masks):
            return c
        vals = list(c.values)
        vals[0], vals[-1] = vals[-1], vals[0]
        return mappings._trusted(type(c), c.source, c.target, tuple(vals))

    return curry


def random_poset_closing_forwards(rng, n, prefix="e"):
    """``corpus.random_poset`` whose closure pass runs from the start of the
    linear extension, so a cone can be read before it is closed and the
    masks it enters need not be transitive."""
    els = [f"{prefix}{i}" for i in range(n)]
    rank = list(range(n))
    rng.shuffle(rank)
    p = rng.uniform(0.25, 0.75)
    above = [1 << i for i in range(n)]
    ordered = sorted(range(n), key=lambda i: rank[i])
    for ai, i in enumerate(ordered):
        for j in ordered[ai + 1:]:
            if rng.random() < p:
                above[i] |= 1 << j
    for i in ordered:
        for j in _bits(above[i] & ~(1 << i)):
            above[i] |= above[j]
    return order.FinitePoset._from_masks(tuple(els), above)


def completion_with_two_positions_swapped(S):
    """``order._build_ideal_completion`` whose cones are moved by the name
    order with its first two positions swapped, while the names keep their
    places: two ideals trade cones."""
    P, names, perm = S.poset, order.ideal_names(S), order._ideal_order(S)
    swapped = list(perm)
    swapped[:2] = swapped[1::-1]
    at = [0] * P.n
    for k, i in enumerate(swapped):
        at[i] = k

    def moved(cone):
        m = 0
        for j in _bits(cone):
            m |= 1 << at[j]
        return m

    R = order.FinitePoset._from_masks(
        tuple(names[i] for i in perm),
        [moved(P.up_masks[i]) for i in perm],
        [moved(P.down_masks[i]) for i in perm],
    )
    return order._by_construction(order.FiniteLattice, R)


def first_name_ranks_with_two_swapped(real):
    """``mappings._pair_ranks`` with the first two different ranks of the
    first names swapped."""
    return lambda P, end: list(swap_values(real(P, end))) if end == "," else real(P, end)


def from_masks_without_the_largest_proper_open(mp):
    """``topology.TopSpace._from_masks`` that drops the largest open short of
    the full set, so the opens are no longer closed under unions."""
    real = topology.TopSpace._from_masks

    def build(cls, points, masks):
        masks = list(masks)
        full = (1 << len(points)) - 1
        drop = max((m for m in masks if m != full), default=None)
        return real(points, [m for m in masks if m != drop])

    mp.setattr(topology.TopSpace, "_from_masks", classmethod(build))


def membership_without_the_last_generator(real):
    """``topology._filter_membership`` with the sets of filters holding the
    last element left out of the generators of the filter space."""
    return lambda D, at: real(D, at)[:-1]


def stone_data_with_one_bit_moved(real):
    """``topology._stone_data`` whose ψ sends the first point of σ to the
    bit of the last."""

    def build(S):
        loc, sigma, psi = real(S)
        return loc, sigma, psi[-1:] + psi[1:]

    return build


def with_two_names_swapped(P):
    """The order ``P`` with its first two element names swapped."""
    els = list(P.elements)
    els[:2] = els[1::-1]
    return order.FinitePoset._from_masks(tuple(els), P.up_masks)


def named_masks_in_point_order(points, masks):
    """``order.named_masks`` walking the members in point order, not name
    order."""
    named = []
    for m in set(masks):
        members = [p for j, p in enumerate(points) if m >> j & 1]
        named.append(("{" + ",".join(members) + "}", m, members))
    return sorted(named)


def named_masks_joining_raw_points(points, masks):
    """``order.named_masks`` joining the points as they are named, not as
    ``member_id`` writes them."""
    by_name = sorted((p, 1 << i) for i, p in enumerate(points))
    named = []
    for m in set(masks):
        members = [p for p, bit in by_name if m & bit]
        named.append(("{" + ",".join(members) + "}", m, members))
    return sorted(named)


def member_id_with_raw_commas(real):
    """``canon.member_id`` that writes raw a member whose only special
    characters are commas."""
    return lambda x: x if x and not re.search(r"[\\(){}]", x) else real(x)


def union_family_with_two_names_swapped(real):
    """``order.lattice_from_masks`` as the corpus calls it, on the order with
    its first two element names swapped."""

    def build(points, masks):
        L, decode = real(points, masks)
        return order._by_construction(order.FiniteLattice, with_two_names_swapped(L.poset)), decode

    return build


def k_semilattice_with_two_names_swapped(real):
    """``order.k_semilattice`` on ``L``'s order with its first two element
    names swapped."""
    return lambda L: order._by_construction(
        order.JoinSemilattice, with_two_names_swapped(real(L).poset)
    )


def closure_tested_for_unions_only(points, masks):
    """``topology._closure_breach`` whose walk skips the intersection test."""
    have = set(masks)
    named = order.named_masks(points, masks)
    for i, (_, a, xs) in enumerate(named):
        for _, b, ys in named[i + 1:]:
            if a | b not in have:
                return "space:unions", "union", [xs, ys]
    return None


SPECTRALITY_CHECK = topology.spectrality_check


def spectrality_without_the_bottom(loc):
    """``topology.spectrality_check`` whose meets test leaves the bottom out
    of the compact mask."""
    L = loc.lattice
    rep = SPECTRALITY_CHECK(loc)
    k = L.poset.mask_of(order.compacts(L).elements) & ~(1 << L.poset.index[L.bottom])
    M = L.meet_table
    meets_ok = all(k >> M[a][b] & 1 for a in _bits(k) for b in _bits(k))
    return topology.SpectralityReport(
        rep.algebraic and rep.top_compact and meets_ok, rep.algebraic, rep.top_compact, meets_ok
    )


def compacts_without_the_bottom(L):
    """``order.compacts`` whose engine leaves the bottom out."""
    return order._checked_compacts(L, L.poset.restrict(x for x in L.elements if x != L.bottom))


def upper_sets_without_the_full_set(real):
    return lambda P: [m for m in real(P) if m != (1 << P.n) - 1]


def lower_sets_without_the_empty_set(real):
    """``topology._lower_set_masks``, the stage ``lower_sets`` and the
    lower-set lattice share, with the empty set dropped."""

    def stage(S):
        P, masks = real(S)
        return P, [m for m in masks if m]

    return stage


def compact_fold_without_the_supremum(L):
    """``order._compact_fold`` that leaves the supremum of each directed set
    out of the members whose cones it unions."""
    down = L.poset.down_masks
    compact = (1 << L.poset.n) - 1
    for d, sup in order._directed_sups(L):
        covered = 0
        for i in _bits(d & ~(1 << sup)):
            covered |= down[i]
        compact &= ~(down[sup] & ~covered)
    return compact


def scott_scan_without_the_upper_set_test(L):
    """``topology._scott_open_scan`` that tests only the directed sets."""
    directed = order._directed_sups(L)
    return [
        u
        for u in range(1 << L.poset.n)
        if all(d & u or not u >> sup & 1 for d, sup in directed)
    ]


def algebraic_but_for_the_last(L):
    """``order.is_algebraic`` that never checks the last element."""
    P = L.poset
    J, bottom = L.join_table, P.index[L.bottom]
    k = P.mask_of(order.compacts(L).elements)
    for x, cone in enumerate(P.down_masks[:-1]):
        j = bottom
        for i in _bits(cone & k):
            j = J[j][i]
        if j != x:
            return False
    return True


def product_without_a_cross_block(real):
    """``product`` whose left objects do not bear the right attributes."""

    def product(P, Q):
        prod = real(P, Q)
        C, n = prod.context, len(P.objects)
        rows = tuple(r & P.full_attr_mask for r in C.rows[:n]) + C.rows[n:]
        return category.ProductContext(
            context.FormalContext._from_rows(C.objects, C.attributes, rows), P, Q
        )

    return product


def tensor_with_a_block_shifted(real):
    """``tensor`` that writes the block of the first left attribute one
    block up."""

    def tensor(P, Q):
        t = real(P, Q)
        C, width = t.context, len(t.right_plus.attributes)
        block = (1 << width) - 1
        rows = tuple(r & ~block | (r & block) << width for r in C.rows)
        C = context.FormalContext._from_rows(C.objects, C.attributes, rows)
        return category.TensorContext(C, P, Q, t.left_plus, t.right_plus)

    return tensor


def split_pairs_with_two_swapped(mp):
    """``ProductContext._split_pairs`` with its first two different entries
    swapped: two product concepts trade factor concepts."""
    real = category.ProductContext._split_pairs.func
    mp.setattr(
        category.ProductContext, "_split_pairs", property(lambda self: swap_values(real(self)))
    )


def projection_masks_without_the_fresh_block(self):
    """``TensorContext._projection_masks`` that reads no attribute paired
    with the fresh left attribute of ``plus``."""
    n, width = len(self.left.attributes), len(self.right_plus.attributes)
    out = []
    for m in context.concept_masks(self.context):
        p1 = p2 = 0
        for i in range(n):
            part = m >> i * width & (1 << width) - 1
            p1 |= bool(part) << i
            p2 |= part
        out.append(p1 | (p2 & self.right.full_attr_mask) << n)
    return tuple(out)


def parse_cxt_with_a_bit_shifted(real):
    """``parse_cxt`` that moves the lowest bit of the first row where it can
    move one attribute up."""

    def parse_cxt(text):
        P = real(text)
        rows = list(P.rows)
        for i, r in enumerate(rows):
            low = r & -r
            if low and low << 1 <= P.full_attr_mask and not r & low << 1:
                rows[i] = r ^ low ^ low << 1
                break
        return context.FormalContext._from_rows(P.objects, P.attributes, tuple(rows))

    return parse_cxt


def chunk_tables_with_two_entries_swapped(real):
    """``kernels.chunk_tables`` whose first AND table has the entries of its
    first two points swapped."""

    def chunk_tables(cols, full):
        tables = real(cols, full)
        if tables and len(tables[0][2]) > 2:
            ands = tables[0][2]
            ands[1], ands[2] = ands[2], ands[1]
        return tables

    return chunk_tables


def patch(owners, name, make):
    """An installer that replaces ``name`` in every module of ``owners`` by
    ``make(real)``."""

    def install(mp):
        real = getattr(owners[0], name)
        for owner in owners:
            mp.setattr(owner, name, make(real))

    return install


def replace(owners, name, mutant):
    return patch(owners, name, lambda real: mutant)


@dataclass
class Row:
    path: str
    mutant: str
    install: Callable
    caught_by: str  # "laws <suite>" or "oracle <test>; escapes <suite>"


ROWS = [
    Row(
        "order.is_distributive",
        "two swapped meet-table entries",
        patch([order, topology], "is_distributive", on_swapped_meets),
        "laws cor6.17",
    ),
    Row(
        "order.meet_primes",
        "two swapped meet-table entries",
        patch([order, topology], "meet_primes", on_swapped_meets),
        "laws cor6.17",
    ),
    Row(
        "order.meet_irreducibles",
        "two swapped meet-table entries",
        patch([order], "meet_irreducibles", on_swapped_meets),
        "oracle test_m3_witness_triple_and_non_prime_generators; no suite reads it",
    ),
    Row(
        "topology.LocalePoint point:prime",
        "two swapped meet-table entries",
        point_on_swapped_meets,
        "laws cor6.17",
    ),
    Row(
        "topology.spectrality_check meets",
        "the bottom left out of the compact mask",
        replace([topology, laws], "spectrality_check", spectrality_without_the_bottom),
        "oracle test_spectrality_meets_agree_with_the_name_scan; escapes cor6.17",
    ),
    Row(
        "order.is_order_iso",
        "the up-cone of element 0 ignored",
        replace([order, mappings, topology], "is_order_iso", iso_ignoring_the_first_cone),
        "oracle test_order_iso_agrees_with_the_pair_scan; escapes thm3.6, thm4.4, cor6.17",
    ),
    Row(
        "logic._mub_mask",
        "the least minimal upper bound dropped",
        patch([logic], "_mub_mask", mubs_dropping_the_least),
        "laws thm6.7",
    ),
    Row(
        "category.curry",
        "two values swapped",
        patch([category], "curry", swapped_table),
        "laws prop5.10",
    ),
    Row(
        "category.curry",
        "first and last values swapped off the chains",
        patch([category], "curry", curry_off_the_chains),
        "oracle test_curry_and_uncurry_agree_off_the_chains; escapes prop5.10",
    ),
    Row(
        "category.uncurry",
        "two values swapped",
        patch([category], "uncurry", swapped_table),
        "laws prop5.10",
    ),
    Row(
        "mappings.k_on_morphism",
        "two values swapped",
        patch([mappings, laws], "k_on_morphism", swapped_table),
        "laws thm4.4",
    ),
    Row(
        "order.k_semilattice",
        "two element names swapped",
        patch([order, mappings], "k_semilattice", k_semilattice_with_two_names_swapped),
        "laws thm4.4",
    ),
    Row(
        "mappings.ScottFunction directed sups",
        "the scan finds no breach",
        replace([mappings], "_directed_sup_breach", lambda src, tgt, values: None),
        "oracle test_a_non_scott_table_gets_the_same_witness; escapes thm4.4",
    ),
    Row(
        "corpus.random_join_semilattice union-closed families",
        "two element names swapped",
        patch([corpus], "lattice_from_masks", union_family_with_two_names_swapped),
        "oracle test_union_closed_semilattices_agree_with_the_validated_build; escapes thm3.6, thm4.4",
    ),
    Row(
        "corpus.random_poset",
        "the closure pass runs forwards",
        replace([corpus], "random_poset", random_poset_closing_forwards),
        "oracle test_random_poset_closure_agrees_with_the_set_fixpoint; escapes thm3.6, thm4.4, cor6.17",
    ),
    Row(
        "order.ideal_completion",
        "two positions of the name order swapped in the cones",
        replace([order], "_build_ideal_completion", completion_with_two_positions_swapped),
        "laws thm3.6",
    ),
    Row(
        "mappings._sorted_picks ranks",
        "two first-name ranks swapped",
        patch([mappings], "_pair_ranks", first_name_ranks_with_two_swapped),
        "oracle test_enumerated_mappings_sort_as_their_pair_set_names; escapes every suite",
    ),
    Row(
        "order.compacts",
        "the bottom left out of the engine",
        replace([order, topology], "compacts", compacts_without_the_bottom),
        "laws thm3.6",
    ),
    Row(
        "order._upper_set_masks",
        "the full set dropped",
        patch([order], "_upper_set_masks", upper_sets_without_the_full_set),
        "laws cor6.17",
    ),
    Row(
        "topology.lower_sets",
        "the empty set dropped",
        patch([topology], "_lower_set_masks", lower_sets_without_the_empty_set),
        "laws cor6.17",
    ),
    Row(
        "order._compact_fold",
        "the supremum left out of the covered cones",
        replace([order], "_compact_fold", compact_fold_without_the_supremum),
        "oracle test_compacts_agree_with_the_definitional_fold",
    ),
    Row(
        "topology._scott_open_scan",
        "the upper-set test skipped",
        replace([topology], "_scott_open_scan", scott_scan_without_the_upper_set_test),
        "oracle test_upper_and_lower_sets_agree_with_the_cone_scan",
    ),
    Row(
        "order.is_algebraic",
        "the last element left out of the check",
        replace([order, topology], "is_algebraic", algebraic_but_for_the_last),
        "oracle test_is_algebraic_agrees_when_compacts_fall_short; escapes cor6.17",
    ),
    Row(
        "topology.TopSpace._from_masks",
        "the largest proper open dropped",
        from_masks_without_the_largest_proper_open,
        "laws cor6.17",
    ),
    Row(
        "topology.TopSpace closure",
        "the intersection test skipped",
        replace([topology], "_closure_breach", closure_tested_for_unions_only),
        "oracle test_topspace_closure_agrees_with_the_frozenset_scan; escapes cor6.17",
    ),
    Row(
        "topology._filter_membership",
        "one generator dropped",
        patch([topology], "_filter_membership", membership_without_the_last_generator),
        "laws cor6.17",
    ),
    Row(
        "topology._stone_data ψ",
        "one bit moved",
        patch([topology], "_stone_data", stone_data_with_one_bit_moved),
        "laws cor6.17",
    ),
    Row(
        "category.product rows",
        "one cross block dropped",
        patch([category, laws], "product", product_without_a_cross_block),
        "laws prop5.6",
    ),
    Row(
        "category.tensor rows",
        "the first block shifted one block up",
        patch([category, laws], "tensor", tensor_with_a_block_shifted),
        "laws prop5.7",
    ),
    Row(
        "category.ProductContext._split_pairs",
        "two entries swapped",
        split_pairs_with_two_swapped,
        "laws prop5.6",
    ),
    Row(
        "category.TensorContext projection masks",
        "the fresh-attribute block dropped",
        lambda mp: mp.setattr(
            category.TensorContext,
            "_projection_masks",
            property(projection_masks_without_the_fresh_block),
        ),
        "laws prop5.7",
    ),
    Row(
        "formats.parse_cxt rows",
        "one bit shifted",
        patch([formats], "parse_cxt", parse_cxt_with_a_bit_shifted),
        "oracle test_parse_cxt_agrees_with_the_pair_parser; no suite reads it",
    ),
    Row(
        "kernels.inclusion_cones chunk tables",
        "two entries swapped",
        patch([kernels], "chunk_tables", chunk_tables_with_two_entries_swapped),
        "oracle test_inclusion_cones_agree_with_the_inclusion_scan",
    ),
    Row(
        "order.named_masks",
        "members walked in point order",
        replace([order], "named_masks", named_masks_in_point_order),
        "oracle test_inclusion_cones_agree_with_the_inclusion_scan; escapes every suite",
    ),
    Row(
        "order.named_masks",
        "joins raw points",
        replace([order], "named_masks", named_masks_joining_raw_points),
        "oracle test_inclusion_cones_agree_with_the_inclusion_scan; escapes every suite",
    ),
    Row(
        "canon.member_id",
        "writes a depth-0 comma raw",
        patch([canon, order], "member_id", member_id_with_raw_commas),
        "oracle test_set_names_decode_back_and_tell_sets_apart; escapes every suite",
    ),
    Row(
        "formats._poset_members in-order branch",
        "taken on posets out of name order",
        replace([formats], "_in_name_order", lambda elements: True),
        "oracle test_poset_documents_agree_with_json_dumps; no suite writes a poset",
    ),
]


@pytest.mark.parametrize("row", ROWS, ids=[f"{r.path}: {r.mutant}" for r in ROWS])
def test_the_mutant_is_caught(row, monkeypatch, capsys):
    row.install(monkeypatch)
    kind, what = row.caught_by.split(";")[0].split(" ", 1)
    if kind == "laws":
        assert main(["laws", what]) == 1
        assert f"{what}: PASS" not in capsys.readouterr().out
    else:
        with pytest.raises(AssertionError):
            getattr(oracles, what)()


def test_the_suites_and_oracles_pass_unmutated(capsys):
    for row in ROWS:
        kind, what = row.caught_by.split(";")[0].split(" ", 1)
        if kind == "laws":
            assert main(["laws", what]) == 0, what
        else:
            getattr(oracles, what)()


def test_the_upper_set_mutant_fails_the_scott_cross_check(monkeypatch):
    """In ``cor6.17`` the lemma reads the lower sets first and fails first;
    the Scott topology's own cross-check fails on the same mutant."""
    patch([order], "_upper_set_masks", upper_sets_without_the_full_set)(monkeypatch)
    L = order.FiniteLattice(diamond_poset())
    with pytest.raises(ValidationError) as exc:
        topology.scott_topology(L)
    assert exc.value.law == "scott:upper-sets"
    assert exc.value.witness == {"open": sorted(L.elements)}
