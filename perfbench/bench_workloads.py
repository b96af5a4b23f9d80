"""The workloads: seeded inputs, the timed operations, and answers computed
independently of cxtcat.

``draw(seed)`` makes a workload's inputs, the answers to check against and
the inputs' digest; it runs once per run, outside the timed set-up.  The
workload is then built from the drawn inputs and the imported package
modules (writing any input files) and yields *rounds* of operations: every
round of a run is the same list of operations, so a run that stops only
between rounds measures a fixed mix.  Each operation is split into
``invoke`` (the timed call into the package), ``collect`` (untimed: turns
the raw return value and any output file into a comparable result) and
``check`` (compares that result with the answer the benchmark computed on
its own; returns an error message or ``None``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    kind: str
    invoke: Callable[[], object]
    collect: Callable[[object], object]
    check: Callable[[object], str | None]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``cxtcat.cli.main`` in process; stdout captured, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# cxt-cli: CLI verbs on seeded random 40-object contexts

N_OBJECTS = 40
# Files of one round: (attributes, target closed-set count, files).  Each
# file is drawn until its count is within CXT_BAND of the target, so a round
# costs about the same at every seed (cost grows with the square of the
# count).  The five verbs on one file cost about the same, so a round's 100
# latencies form clusters by size: the median op falls in the middle of the
# 25 ops on 90-set files, the 90th percentile in the middle of the 20 on
# 180-set files.  ``None`` marks files over the CLI's 512 closed-set guard.
CXT_SLOTS = ((8, 60, 4), (9, 90, 5), (10, 130, 4), (11, 180, 4), (12, None, 3))
CXT_BAND = 0.02
GUARD_MIN = 640  # comfortably over the guard of 512
CLI_GUARD_EXIT = 3


def closed_sets(rows: list[int], full: int, cap: int) -> set[int] | None:
    """All intersections of object rows (the empty family gives ``full``),
    or ``None`` once there are more than ``cap`` of them."""
    fam = {full}
    for r in rows:
        fam |= {s & r for s in fam}
        if len(fam) > cap:
            return None
    return fam


def set_name(attrs: list[str], mask: int) -> str:
    return "{" + ",".join(sorted(a for j, a in enumerate(attrs) if mask >> j & 1)) + "}"


def cxt_text(objects: list[str], attrs: list[str], rows: list[int]) -> str:
    lines = ["B", "", str(len(objects)), str(len(attrs)), ""] + objects + attrs
    lines += ["".join("X" if r >> j & 1 else "." for j in range(len(attrs))) for r in rows]
    return "\n".join(lines) + "\n"


@dataclass
class CxtInput:
    n_attrs: int
    text: str
    names: list[str] | None  # sorted closed-set names; None when over the guard
    n_leq: int  # inclusion pairs among the closed sets


def _draw_rows(rng: random.Random, na: int, target: int | None) -> list[int]:
    """Rows of a 40-object context over ``na`` attributes at a density drawn
    from 0.3-0.7, redrawn until its closed-set count fits ``target``."""
    while True:
        p = rng.uniform(0.3, 0.7)
        rows = [sum(1 << j for j in range(na) if rng.random() < p) for _ in range(N_OBJECTS)]
        fam = closed_sets(rows, (1 << na) - 1, GUARD_MIN - 1)
        if target is None:
            if fam is None:
                return rows
        elif fam is not None and abs(len(fam) - target) <= CXT_BAND * target:
            return rows


def _cxt_input(na: int, rows: list[int]) -> CxtInput:
    objects = [f"o{i}" for i in range(N_OBJECTS)]
    attrs = [f"a{j}" for j in range(na)]
    text = cxt_text(objects, attrs, rows)
    fam = closed_sets(rows, (1 << na) - 1, 512)
    if fam is None:
        return CxtInput(na, text, None, 0)
    names = sorted(set_name(attrs, m) for m in fam)
    n_leq = sum(1 for a in fam for b in fam if a & b == a)
    return CxtInput(na, text, names, n_leq)


class CxtCli:
    """One op = one CLI verb on one file; a round = every verb on every file."""

    name = "cxt-cli"
    VERBS = ("validate", "concepts", "concepts-sem", "convert", "dot")

    @staticmethod
    def draw(seed: int) -> tuple[list[CxtInput], str]:
        rng = random.Random(f"cxt-cli:{seed}")
        inputs = [
            _cxt_input(na, _draw_rows(rng, na, target))
            for na, target, files in CXT_SLOTS
            for _ in range(files)
        ]
        return inputs, digest([f.text for f in inputs])

    def __init__(self, pkg, inputs: list[CxtInput], workdir: Path):
        self.cli = pkg.cli
        self.workdir = workdir
        self.files: list[tuple[Path, CxtInput]] = []
        for i, f in enumerate(inputs):
            path = workdir / f"k{i}.cxt"
            path.write_text(f.text, encoding="utf-8")
            self.files.append((path, f))

    def _op(self, path: Path, f: CxtInput, verb: str) -> Op:
        out = self.workdir / f"{path.stem}.{verb}.out"
        argv = {
            "validate": ["validate", str(path)],
            "concepts": ["concepts", str(path)],
            "concepts-sem": ["concepts", str(path), "--which", "sem"],
            "convert": ["convert", str(path), "--to", "semilattice", "-o", str(out)],
            "dot": ["dot", str(path), "-o", str(out)],
        }[verb]

        def collect(raw):
            rc, stdout = raw
            text = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            return rc, stdout, text

        def check(res):
            rc, stdout, text = res
            if f.names is None:
                return _expect((rc, text), (CLI_GUARD_EXIT, None), f"{verb} over the guard")
            if rc != 0:
                return f"{verb}: exit {rc}"
            if verb == "validate":
                want = (
                    f"OK context: {N_OBJECTS} objects, {f.n_attrs} attributes; "
                    f"Sem size {len(f.names)}\n"
                )
                return _expect(stdout, want, verb)
            if verb.startswith("concepts"):
                return _expect(stdout.splitlines(), f.names, verb)
            if verb == "convert":
                doc = json.loads(text)
                return _expect(
                    (doc["kind"], doc["elements"], len(doc["leq"])),
                    ("poset", f.names, f.n_leq),
                    verb,
                )
            return _check_dot(text, f.names)

        return Op(verb, lambda: run_cli(self.cli, argv), collect, check)

    def round(self) -> list[Op]:
        return [self._op(path, f, verb) for path, f in self.files for verb in self.VERBS]

    def warmup(self) -> Op:
        return self._op(*self.files[0], "validate")


def _parse_name(name: str) -> frozenset[str]:
    inner = name[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def _check_dot(text: str | None, names: list[str]) -> str | None:
    if text is None:
        return "dot: no output file"
    nodes, edges = [], []
    for line in text.splitlines()[3:-1]:
        parts = [p.strip('"') for p in line.strip().rstrip(";").split(" -> ")]
        (nodes if len(parts) == 1 else edges).append(parts)
    err = _expect(sorted(n[0] for n in nodes), names, "dot nodes")
    if err:
        return err
    known = set(names)
    for a, b in edges:
        if a not in known or b not in known or not _parse_name(a) < _parse_name(b):
            return f"dot: edge {a} -> {b} is not a strict inclusion of closed sets"
    if len(edges) < len(names) - 1:
        return f"dot: {len(edges)} edges cannot connect {len(names)} concepts"
    return None


# ---------------------------------------------------------------------------
# laws: every law suite through the CLI

LAW_SUITES = (
    "thm3.6", "thm4.4", "prop5.6", "prop5.7", "lemma5.9", "prop5.10", "prop6.9", "thm6.7", "cor6.17",
)
# The ops run at each law seed: every suite, and prop5.10 at a raised bound.
# thm4.4 and the raised prop5.10 cost ten times the others, so they are the
# top fifth of the ops and the 90th percentile falls inside their cluster.
LAW_SPECS = (*[(name,) for name in LAW_SUITES], ("prop5.10", "--max-sem", "3"))
# Law seeds per run.  The cost of some suites varies fourfold with the seed;
# more seeds per round average that out, so runs at other workload seeds cost
# about the same.
LAW_SEEDS = 10


class Laws:
    """One op = one law suite at one seed.  A round = every spec of
    ``LAW_SPECS`` at each law seed of the run; the law seeds are drawn once
    from the workload seed, so every round does the same work."""

    name = "laws"

    @staticmethod
    def draw(seed: int) -> tuple[list[int], str]:
        rng = random.Random(f"laws:{seed}")
        # The last seed is the warm-up's.
        law_seeds = [rng.randrange(1, 1 << 31) for _ in range(LAW_SEEDS + 1)]
        return law_seeds, digest(law_seeds)

    def __init__(self, pkg, law_seeds: list[int], workdir: Path):
        self.cli = pkg.cli
        self.law_seeds = law_seeds[:-1]
        self.warmup_seed = law_seeds[-1]

    def _op(self, spec: tuple, law_seed: int) -> Op:
        name, *extra = spec
        argv = ["laws", name, "--seed", str(law_seed), *extra]

        def check(res):
            rc, stdout = res
            last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
            return _expect((rc, last), (0, f"{name}: PASS"), " ".join(argv))

        return Op(" ".join([name, *extra]), lambda: run_cli(self.cli, argv), lambda raw: raw, check)

    def round(self) -> list[Op]:
        return [self._op(spec, s) for s in self.law_seeds for spec in LAW_SPECS]

    def warmup(self) -> Op:
        # lemma5.9 costs about the same at every seed, so set-up time does
        # not vary with the workload seed.
        return self._op(("lemma5.9",), self.warmup_seed)


WORKLOADS = {w.name: w for w in (CxtCli, Laws)}
