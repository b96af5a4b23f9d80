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


# Points per chunk of the column tables of ``inclusion_cones``.
CHUNK = 6
# Smaller families read the columns point by point: building the chunk
# tables costs more than it saves.  The concept families of the law corpora
# hold 1-10 sets, those the CLI verbs order 60-500.
CHUNKED_MIN_SETS = 32


def inclusion_cones(sets: list[int], width: int) -> tuple[list[int], list[int]]:
    """Up- and down-cones of a family of distinct sets under inclusion.

    ``sets[i]`` is a mask over ``width`` points; cone bit ``j`` stands for
    ``sets[j]``.  The column of a point is the mask of the sets containing
    it.  The sets above ``s`` are those in the column of every point of
    ``s``, and the sets below it those outside the column of every other
    point, so the work grows with |family|·width, not |family|².  From
    ``CHUNKED_MIN_SETS`` sets on, each set reads one entry of each chunk's
    tables (``chunk_tables``) instead of one column per point.
    """
    full = (1 << len(sets)) - 1
    if len(sets) < CHUNKED_MIN_SETS:
        return _pointwise_cones(sets, width, full)
    # The sets as bit strings, point 0 first (a sentinel bit keeps the
    # leading zeros), transposed into columns, set 0 last.
    top = 1 << width
    cols = [int("".join(col)[::-1], 2) for col in zip(*[bin(s | top)[:2:-1] for s in sets])]
    tables = chunk_tables(cols, full)
    up, down = [], []
    for s in sets:
        u, d = full, 0
        for start, mask, ands, ors in tables:
            k = s >> start & mask
            u &= ands[k]
            d |= ors[k ^ mask]
        up.append(u)
        down.append(full & ~d)
    return up, down


def _pointwise_cones(sets: list[int], width: int, full: int) -> tuple[list[int], list[int]]:
    """``inclusion_cones`` reading one column per point."""
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


def chunk_tables(cols: list[int], full: int) -> list[tuple[int, int, list[int], list[int]]]:
    """``(start, mask, ands, ors)`` for each chunk of ``CHUNK`` columns:
    its first point, the mask of its points shifted down to bit 0, and for
    each subset ``k`` of them the AND (``full`` for none) and the OR of
    their columns."""
    tables = []
    for start in range(0, len(cols), CHUNK):
        chunk = cols[start : start + CHUNK]
        ands, ors = [full], [0]
        for col in chunk:
            ands += [a & col for a in ands]
            ors += [o | col for o in ors]
        tables.append((start, (1 << len(chunk)) - 1, ands, ors))
    return tables


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
