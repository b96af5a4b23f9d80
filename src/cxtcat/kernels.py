"""Bitmask kernels.

Hot inner loops shared by the whole package: derivation-operator closures on
bitmask-encoded incidence rows, exhaustive subset scans (directed sets,
ideals), and monotone-map enumeration.

Conventions: a subset of an ``n``-element universe is an ``int`` with bit
``i`` set for member ``i``.  ``rows[o]`` is the attribute mask of object
``o``.  ``up[i]``/``down[i]`` are the strict-and-reflexive upper/lower cones
of element ``i`` as masks.
"""


def backend_name() -> str:
    """Name of the kernel implementation.

    There is only one; the name stays because benchmark runs record it.
    """
    return "pure"


def closure_mask(rows: list[int], full: int, y: int) -> int:
    """Intent closure of attribute mask ``y``: AND of all rows containing it."""
    c = full
    for r in rows:
        if r & y == y:
            c &= r
    return c


def inclusion_cones(sets: list[int], width: int) -> tuple[list[int], list[int]]:
    """Up- and down-cones of a family of distinct sets under inclusion.

    ``sets[i]`` is a mask over ``width`` points; cone bit ``j`` stands for
    ``sets[j]``.  The column of a point is the mask of the sets containing
    it.  The sets above ``s`` are those in the column of every point of
    ``s``, and the sets below it those outside the column of every other
    point, so the work grows with |family|·width, not |family|².
    """
    full = (1 << len(sets)) - 1
    cols = [0] * width
    for i, s in enumerate(sets):
        while s:
            low = s & -s
            cols[low.bit_length() - 1] |= 1 << i
            s ^= low
    up, down = [], []
    for s in sets:
        u = d = full
        for p, col in enumerate(cols):
            if s >> p & 1:
                u &= col
            else:
                d &= ~col
        up.append(u)
        down.append(d)
    return up, down


def directed_masks(up: list[int]) -> list[int]:
    """All non-empty directed subsets: every two members have an upper bound inside."""
    n = len(up)
    return [d for d in range(1, 1 << n) if _is_directed(d, up, n)]


def _is_directed(d: int, up: list[int], n: int) -> bool:
    members = [i for i in range(n) if d >> i & 1]
    for ai, a in enumerate(members):
        for b in members[ai:]:
            if not up[a] & up[b] & d:
                return False
    return True


def ideal_masks(down: list[int], up: list[int]) -> list[int]:
    """All non-empty directed lower subsets, by full subset scan."""
    n = len(down)
    out = []
    for d in range(1, 1 << n):
        ok = True
        for i in range(n):
            if d >> i & 1 and down[i] & ~d:
                ok = False
                break
        if ok and _is_directed(d, up, n):
            out.append(d)
    return out


def monotone_maps(
    n_src: int, preds: list[list[int]], tgt_up: list[int], limit: int
) -> list[tuple[int, ...]]:
    """All monotone assignments from a source poset into a target poset.

    Source indices must come in a linear-extension order, ``preds[i]``
    listing the indices ``j < i`` with ``j <= i`` in the source order.
    Returns tuples of target indices.  The search stops as soon as it has
    found more than ``limit`` assignments, so a longer result means the
    full output is larger than ``limit``.
    """
    full = (1 << len(tgt_up)) - 1
    out: list[tuple[int, ...]] = []
    pick = [-1] * n_src
    i = 0
    while i >= 0:
        if i == n_src:
            out.append(tuple(pick))
            if len(out) > limit:
                break
            i -= 1
            continue
        # the targets after pick[i] that lie above the picks of its predecessors
        free = full & -1 << pick[i] + 1
        for j in preds[i]:
            free &= tgt_up[pick[j]]
        if free:
            pick[i] = (free & -free).bit_length() - 1
            i += 1
        else:
            pick[i] = -1
            i -= 1
    return out
