"""Bitmask kernels.

Hot inner loops shared by the whole package: derivation-operator closures on
bitmask-encoded incidence rows, exhaustive subset scans (directed sets,
ideals, Scott opens, compact elements), and monotone-map enumeration.

Conventions: a subset of an ``n``-element universe is an ``int`` with bit
``i`` set for member ``i``.  ``rows[o]`` is the attribute mask of object
``o``.  ``up[i]``/``down[i]`` are the strict-and-reflexive upper/lower cones
of element ``i`` as masks.  ``join[i][j]`` is the index of the join of
elements ``i`` and ``j``.
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


def closed_masks_powerset(rows: list[int], n_attrs: int) -> list[int]:
    """All closed attribute masks, by scanning the full powerset.

    No library code calls this: it is the definitional oracle that the tests
    check the concept engine in :mod:`cxtcat.context` against.
    """
    full = (1 << n_attrs) - 1
    seen = set()
    for y in range(full + 1):
        c = full
        for r in rows:
            if r & y == y:
                c &= r
        seen.add(c)
    return sorted(seen)


def directed_masks(up: list[int]) -> list[int]:
    """All non-empty directed subsets: every two members have an upper bound inside."""
    n = len(up)
    out = []
    for d in range(1, 1 << n):
        if _is_directed(d, up, n):
            out.append(d)
    return out


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


def compact_mask(up: list[int], down: list[int], join: list[int]) -> int:
    """Mask of compact elements: no directed set violates the access condition.

    ``c`` fails iff some directed ``D`` has ``c <= sup D`` but no member of
    ``D`` above ``c``.
    """
    n = len(up)
    compact = (1 << n) - 1
    for d in range(1, 1 << n):
        if not _is_directed(d, up, n):
            continue
        sup = -1
        covered = 0
        for i in range(n):
            if d >> i & 1:
                covered |= down[i]
                sup = i if sup < 0 else join[sup][i]
        compact &= ~(down[sup] & ~covered)
    return compact


def scott_open_masks(up: list[int], down: list[int], join: list[int]) -> list[int]:
    """All Scott-open subsets, by the definitional test on every candidate.

    A candidate must be an upper set and, for every directed ``D`` whose
    supremum it contains, meet ``D``.
    """
    n = len(up)
    directed = []
    for d in range(1, 1 << n):
        if _is_directed(d, up, n):
            sup = -1
            for i in range(n):
                if d >> i & 1:
                    sup = i if sup < 0 else join[sup][i]
            directed.append((d, sup))
    out = []
    for u in range(1 << n):
        ok = True
        for i in range(n):
            if u >> i & 1 and up[i] & ~u:
                ok = False
                break
        if not ok:
            continue
        for d, sup in directed:
            if u >> sup & 1 and not d & u:
                ok = False
                break
        if ok:
            out.append(u)
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
    n_tgt = len(tgt_up)
    out: list[tuple[int, ...]] = []
    pick = [0] * n_src

    def extend(i: int) -> bool:
        """Fill ``pick[i:]`` every way; True once past ``limit``."""
        if i == n_src:
            out.append(tuple(pick))
            return len(out) > limit
        for t in range(n_tgt):
            ok = True
            for j in preds[i]:
                if not tgt_up[pick[j]] >> t & 1:
                    ok = False
                    break
            if ok:
                pick[i] = t
                if extend(i + 1):
                    return True
        return False

    if n_src == 0:
        return [()]
    extend(0)
    return out
