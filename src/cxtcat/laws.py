"""Named, seeded law suites: each core theorem as an executable check.

Every suite runs over a deterministic corpus ordered small to large, so the
first failing instance reported is a minimal one.  Suites return a report;
the command line maps reports to exit codes and witness JSON.
"""

from __future__ import annotations

from .category import funcspace, product, tag_left, tag_right, tensor
from .context import (
    FormalContext,
    attr_closure,
    context_of_semilattice,
    sem_lattice,
)
from .corpus import (
    chain_context,
    chain_poset,
    corpus,
    diamond_poset,
    interner,
    random_context,
    random_context_with_sem_at_most,
    random_information_system,
    random_join_semilattice,
    random_lattice,
    random_meet_semilattice,
    rng_for,
)
from .logic import ccp_to_is, is_to_ccp, theorem_6_7_check
from .mappings import (
    ScottFunction,
    choose_mapping,
    compose,
    compose_functions,
    enumerate_mappings,
    epsilon,
    epsilon_inverse,
    eta,
    identity_function,
    identity_mapping,
    idl_on_morphism,
    k_on_morphism,
)
from .order import JoinSemilattice, closed_family, ideal_completion, theorem_3_6_isos
from .topology import (
    corollary_6_17_spaces,
    lemma_6_16_check,
    lower_set_locale,
    spectrality_check,
)
from .value import Value


class LawReport(Value):
    """A law's verdict, built up as its checks run: mutable and unhashable."""

    name: str
    ok: bool
    lines: list[str]
    witness: dict | None = None

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, name: str, ok: bool, lines: list[str] | None = None, witness: dict | None = None
    ):
        self.name = name
        self.ok = ok
        self.lines = [] if lines is None else lines
        self.witness = witness

    def fail(self, message: str, **witness) -> "LawReport":
        self.ok = False
        if self.witness is None:
            self.witness = {"law": self.name, "message": message, **witness}
        self.lines.append(f"FAIL {message}")
        return self


def law_thm3_6(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("thm3.6", True)
    sls = corpus(50, lambda r: random_join_semilattice(r, 6), seed)
    lats = corpus(50, lambda r: random_lattice(r, 6), seed)
    for S, L in zip(sls, lats):
        r = theorem_3_6_isos(S, L)
        if not r.ok:
            return rep.fail(
                "completion isomorphism failed",
                semilattice=sorted(S.elements),
                lattice=sorted(L.elements),
                detail=r.failure,
            )
    rep.lines.append(f"instances: {len(sls)} semilattices, {len(lats)} lattices")
    return rep


def law_thm4_4(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("thm4.4", True)
    rng = rng_for(seed)
    intern = interner()  # equal semilattices share their completions and counits
    checked = 0
    while checked < 50:
        S = intern(random_join_semilattice(rng, 4))
        R = intern(random_join_semilattice(rng, 4))
        T = intern(random_join_semilattice(rng, 4))
        m1 = choose_mapping(rng, S, R)
        m2 = choose_mapping(rng, R, T)
        comp = compose(m1, m2)
        f1, f2, fc = idl_on_morphism(m1), idl_on_morphism(m2), idl_on_morphism(comp)
        # The functor's images are built as trusted tables; Scott continuity
        # is checked here by definition (monotone, directed suprema kept).
        for f in (f1, f2, fc):
            ScottFunction(f.source, f.target, f.values)
        if fc.values != compose_functions(f1, f2).values:
            return rep.fail("completion functor breaks composition", pairs=sorted(comp.pairs))
        if idl_on_morphism(identity_mapping(S)).values != identity_function(
            ideal_completion(S)
        ).values:
            return rep.fail("completion functor breaks identity", elements=sorted(S.elements))
        if k_on_morphism(identity_function(ideal_completion(S))) != identity_mapping(
            k_on_morphism(f1).source
        ):
            return rep.fail("compacts functor breaks identity", elements=sorted(S.elements))
        if k_on_morphism(compose_functions(f1, f2)) != compose(
            k_on_morphism(f1), k_on_morphism(f2)
        ):
            return rep.fail("compacts functor breaks composition", pairs=sorted(comp.pairs))
        # unit naturality on the induced lattice function
        L, M = f1.source, f1.target
        lhs = compose_functions(eta(L), idl_on_morphism(k_on_morphism(f1)))
        rhs = compose_functions(f1, eta(M))
        if lhs.values != rhs.values:
            return rep.fail("unit naturality square broke", pairs=sorted(m1.pairs))
        # counit naturality on the mapping itself
        if compose(epsilon(S), k_on_morphism(idl_on_morphism(m1))) != compose(
            m1, epsilon(R)
        ):
            return rep.fail("counit naturality square broke", pairs=sorted(m1.pairs))
        if compose(epsilon(S), epsilon_inverse(S)) != identity_mapping(S):
            return rep.fail("counit is not invertible", elements=sorted(S.elements))
        checked += 1
    rep.lines.append(f"instances: {checked} composable pairs")
    return rep


def _small_sem_contexts(seed: int | None, max_sem: int, count: int = 8) -> list[FormalContext]:
    rng = rng_for(seed)
    out = [chain_context(n) for n in range(1, min(max_sem, 3) + 1)]
    while len(out) < count:
        out.append(random_context_with_sem_at_most(rng, max_sem))
    out.sort(key=lambda P: (len(sem_lattice(P).elements), len(P.attributes)))
    return out


def law_prop5_6(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("prop5.6", True)
    ctxs = _small_sem_contexts(seed, max_sem or 3)
    rng = rng_for(seed)
    triples = [
        (ctxs[i], ctxs[j], ctxs[k])
        for i, j, k in sorted(
            {tuple(rng.randrange(len(ctxs)) for _ in range(3)) for _ in range(8)}
        )
    ]
    for P, Q, R in triples:
        prod = product(P, Q)
        sp, sq, sr = sem_lattice(P), sem_lattice(Q), sem_lattice(R)
        if len(prod.sem.elements) != len(sp.elements) * len(sq.elements):
            return rep.fail(
                "concept count of the product is not the product of counts",
                sizes=[len(prod.sem.elements), len(sp.elements), len(sq.elements)],
            )
        for x in sp.elements:
            for y in sq.elements:
                combined = prod.combine(x, y)
                if prod.sem.intents[combined] != frozenset(
                    {tag_left(a) for a in sp.intents[x]}
                    | {tag_right(a) for a in sq.intents[y]}
                ):
                    return rep.fail("closure is not computed sidewise", at=[x, y])
        pl, pr = prod.proj_left(), prod.proj_right()
        mediating = enumerate_mappings(sr.semilattice, prod.sem.semilattice)
        by_cone: dict[tuple[tuple[str, ...], tuple[str, ...]], list] = {}
        for m in mediating:
            key = (compose(m, pl).values, compose(m, pr).values)
            by_cone.setdefault(key, []).append(m)
        for mP in enumerate_mappings(sr.semilattice, sp.semilattice):
            for mQ in enumerate_mappings(sr.semilattice, sq.semilattice):
                med = prod.pair(mP, mQ)
                if compose(med, pl) != mP or compose(med, pr) != mQ:
                    return rep.fail(
                        "pairing does not commute with projections",
                        legs=[sorted(mP.pairs), sorted(mQ.pairs)],
                    )
                bucket = by_cone.get((mP.values, mQ.values), [])
                if len(bucket) != 1 or bucket[0] != med:
                    return rep.fail(
                        "mediating mapping is not unique",
                        legs=[sorted(mP.pairs), sorted(mQ.pairs)],
                        count=len(bucket),
                    )
    rep.lines.append(f"instances: {len(triples)} context triples")
    return rep


def law_prop5_7(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("prop5.7", True)
    ctxs = _small_sem_contexts(seed, max_sem or 3, count=6)
    pairs = [(ctxs[i], ctxs[j]) for i in range(0, len(ctxs), 2) for j in (0, 1)]
    for P, Q in pairs:
        tens = tensor(P, Q)
        prod = tens.product
        ip, im = tens.iso_plus(), tens.iso_minus()
        for name in tens.sem.elements:
            members = tens.sem.intents[name]
            p1 = frozenset(tens.attr_pairs[a][0] for a in members)
            p2 = frozenset(tens.attr_pairs[a][1] for a in members)
            if attr_closure(tens.left_plus, p1) != p1 or attr_closure(tens.right_plus, p2) != p2:
                return rep.fail("tensor concept is not a product of closed sets", at=name)
            rect = {a for a, (x, y) in tens.attr_pairs.items() if x in p1 and y in p2}
            if members != frozenset(rect):
                return rep.fail("tensor concept is not a full rectangle", at=name)
        if compose(ip, im) != identity_mapping(prod.sem.semilattice):
            return rep.fail("round trip through the tensor is not the identity")
        if compose(im, ip) != identity_mapping(tens.sem.semilattice):
            return rep.fail("round trip through the product is not the identity")
    rep.lines.append(f"instances: {len(pairs)} context pairs")
    return rep


def law_lemma5_9(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("lemma5.9", True)
    ctxs = _small_sem_contexts(seed, max_sem or 3, count=5)
    pairs = [(P, Q) for P in ctxs[:3] for Q in ctxs[:3]]
    for P, Q in pairs:
        fs = funcspace(P, Q)
        closed = closed_family(fs.closure, fs.attributes)  # by definition, not the hom-set
        carrier = {frozenset(map(fs.attr_pairs.__getitem__, s)) for s in closed}
        homs = {fs.mapping(w).pairs for w in fs.sem[0].elements}
        if carrier != homs:
            return rep.fail(
                "function-space concepts differ from the mapping hom-set",
                sizes=[len(carrier), len(homs)],
            )
        if len(fs.attributes) <= 12:
            lit = fs.literal_context()
            if sem_lattice(lit).semilattice != fs.sem[0]:
                return rep.fail("closure engines disagree", attrs=len(fs.attributes))
    C2 = chain_context(2)
    fs = funcspace(C2, C2)
    lat, _ = fs.concepts()
    chainlike = all(
        lat.le(a, b) or lat.le(b, a) for a in lat.elements for b in lat.elements
    )
    if len(lat.elements) != 3 or not chainlike:
        return rep.fail("two-chain function space is not a three-chain")
    rep.lines.append(f"instances: {len(pairs)} context pairs")
    return rep


def law_prop5_10(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    from .category import curry, uncurry

    rep = LawReport("prop5.10", True)
    max_sem = max_sem or 2
    ctxs = _small_sem_contexts(seed, max_sem, count=3)
    triples = [(ctxs[-1], ctxs[-1], ctxs[-1])]
    if len(ctxs) >= 2:
        triples.append((ctxs[-1], ctxs[-2], ctxs[-1]))
    for P, Q, R in triples:
        prod = product(P, Q)
        fs = funcspace(Q, R)
        semR = sem_lattice(R).semilattice
        homs_prod = enumerate_mappings(prod.sem.semilattice, semR)
        homs_curry = enumerate_mappings(sem_lattice(P).semilattice, fs.sem[0])
        rep.lines.append(f"hom-sets: {len(homs_prod)} = {len(homs_curry)}")
        if len(homs_prod) != len(homs_curry):
            return rep.fail("hom-set sizes differ")
        seen = set()
        for m in homs_prod:
            c = curry(m, prod, fs)
            if uncurry(c, prod, fs) != m:
                return rep.fail("transpose round trip broke", pairs=sorted(m.pairs))
            seen.add(c.values)
        if seen != {m.values for m in homs_curry}:
            return rep.fail("transpose is not onto the exponential hom-set")
        for m in homs_curry:
            if curry(uncurry(m, prod, fs), prod, fs) != m:
                return rep.fail("reverse transpose round trip broke", pairs=sorted(m.pairs))
    return rep


def law_prop6_9(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("prop6.9", True)
    systems = corpus(50, lambda r: random_information_system(r, 6), seed)
    for system in systems:
        C = is_to_ccp(system)
        if ccp_to_is(C) != system:
            return rep.fail(
                "information-system round trip is not the identity",
                propositions=sorted(system.propositions),
            )
        if is_to_ccp(ccp_to_is(C)) != C:
            return rep.fail(
                "sequent-system round trip is not the identity",
                propositions=sorted(system.propositions),
            )
    rep.lines.append(f"instances: {len(systems)} information systems")
    return rep


def law_thm6_7(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("thm6.7", True)
    ctxs = corpus(50, lambda r: random_context(r, 4, 4), seed)
    for n in range(1, 5):
        ctxs.append(context_of_semilattice(JoinSemilattice(chain_poset(n))))
    ctxs.append(context_of_semilattice(JoinSemilattice(diamond_poset())))
    for P in ctxs:
        r = theorem_6_7_check(P)
        if not r.ok:
            return rep.fail(
                "closure disagrees with bound entailment",
                failures=list(r.failures),
            )
    rep.lines.append(f"instances: {len(ctxs)} contexts")
    return rep


def law_cor6_17(seed: int | None = None, max_sem: int | None = None) -> LawReport:
    rep = LawReport("cor6.17", True)
    sls = corpus(12, lambda r: random_meet_semilattice(r, 5), seed)
    sls.extend(
        JoinSemilattice(chain_poset(n)).dual() for n in range(1, 5)
    )
    sls.append(JoinSemilattice(diamond_poset()).dual())
    for S in sls:
        if not lemma_6_16_check(S).ok:
            return rep.fail(
                "filter complements differ from the primes", elements=sorted(S.elements)
            )
        loc = lower_set_locale(S)
        if not spectrality_check(loc).ok:
            return rep.fail("lower-set locale is not spectral", elements=sorted(S.elements))
        r = corollary_6_17_spaces(S)
        if not r.ok:
            return rep.fail(
                "spaces are not homeomorphic",
                elements=sorted(S.elements),
                details=list(r.details),
            )
    rep.lines.append(f"instances: {len(sls)} meet-semilattices")
    return rep


LAWS = {
    "thm3.6": law_thm3_6,
    "thm4.4": law_thm4_4,
    "prop5.6": law_prop5_6,
    "prop5.7": law_prop5_7,
    "lemma5.9": law_lemma5_9,
    "prop5.10": law_prop5_10,
    "prop6.9": law_prop6_9,
    "thm6.7": law_thm6_7,
    "cor6.17": law_cor6_17,
}


def run_law(name: str, seed: int | None = None, max_sem: int | None = None) -> LawReport:
    if name not in LAWS:
        raise KeyError(name)
    return LAWS[name](seed=seed, max_sem=max_sem)
