"""End-to-end benchmark of cxtcat.

    python3 perfbench/run.py --workload {cxt-cli,laws} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory.  Load is a closed loop: one in-process
caller issues one operation at a time, in rounds that repeat the same
operations, and starts no new round once ``--seconds`` have passed.  Every
output is checked against an answer the benchmark computes itself.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one round
untraced and then traced (see ``bench_trace.py``) and reports the per-layer
metrics.  The last line of stdout is the JSON result; the line before it
records the inputs' digest, backend and interpreter.  The exit code is 0
only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from bench_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up (importing cxtcat, writing the inputs, one warm-up op) is repeated
# this many times per run, spread over the run, and its median reported.
# Drawing the inputs and computing the answers is the benchmark's own work,
# so it runs once before and is not part of set-up time.
SETUP_REPS = 11
# Tail percentile: the highest of these that has at least TAIL_MIN samples
# beyond it.  Decades only, so that a run's op count can vary tenfold (100 to
# 999 ops gives p90) without the reported percentile changing.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN = 10

# Op times are CPU time of this process.  The loop is single-threaded and
# CPU-bound, so on an idle machine this equals wall time; on a shared
# virtual machine it leaves out the time the host ran something else on this
# virtual CPU, which otherwise moves wall times by 10-20% between runs.
# Wall time is recorded beside it in ``bench_info``.
clock = time.process_time


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def fresh_import() -> SimpleNamespace:
    """Import cxtcat from ``src/`` anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "cxtcat" or n.startswith("cxtcat.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module(f"cxtcat.{n}")
            for n in ("cli", "formats", "context", "category", "mappings", "kernels")}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "cxtcat":
        raise RuntimeError(f"cxtcat imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def run_op(op, timer=clock) -> tuple[float, object, str | None]:
    """Time ``op.invoke``; then collect and check outside the timed region."""
    t0 = timer()
    try:
        raw = op.invoke()
    except Exception:
        return timer() - t0, None, f"{op.kind}: {traceback.format_exc(limit=3)}"
    dt = timer() - t0
    try:
        res = op.collect(raw)
        return dt, res, op.check(res)
    except Exception:
        return dt, None, f"{op.kind}: check raised {traceback.format_exc(limit=3)}"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by nearest rank."""
    s = sorted(latencies)
    n = len(s)
    for p in TAIL_LADDER:
        k = math.ceil(n * p / 100)
        if n - k >= TAIL_MIN:
            return p, s[k - 1], n - k
    return 100.0, s[-1], 0


class Run:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.attempted = 0
        self.errors: list[str] = []
        self.cls = WORKLOADS[args.workload]
        self.drawn, self.input_digest = self.cls.draw(args.seed)
        self.setup_times: list[float] = []

    def record(self, err: str | None) -> None:
        self.attempted += 1
        if err is not None:
            self.errors.append(err)

    def set_up(self):
        """One timed set-up; returns the workload built on the fresh import."""
        sub = self.workdir / f"setup{len(self.setup_times)}"
        sub.mkdir()
        t0 = clock()
        self.pkg = fresh_import()
        wl = self.cls(self.pkg, self.drawn, sub)
        _, _, err = run_op(wl.warmup())
        self.setup_times.append(clock() - t0)
        self.record(err)
        return wl

    def measure(self, wl) -> dict:
        rounds: list[list[float]] = []  # op latencies of each round
        kinds: dict[str, list[float]] = {}
        wall0, cpu0 = time.perf_counter(), clock()
        deadline = wall0 + self.args.seconds
        while not rounds or time.perf_counter() < deadline:
            # Set-ups are spread over the run, so that their median is taken
            # on the same machine state as the ops; the rounds after one run
            # on its import.
            done = (time.perf_counter() - wall0) / self.args.seconds
            while len(self.setup_times) < 1 + (SETUP_REPS - 1) * done:
                wl = self.set_up()
            ops = wl.round()
            lat = []
            for op in ops:
                dt, _, err = run_op(op)
                self.record(err)
                lat.append(dt)
                kinds.setdefault(op.kind, []).append(dt)
            rounds.append(lat)
        while len(self.setup_times) < SETUP_REPS:
            self.set_up()
        wall = time.perf_counter() - wall0
        cpu = clock() - cpu0
        every = [dt for lat in rounds for dt in lat]
        # Every round runs the same ops, so each op has one latency per
        # round.  The metrics use the fastest quarter (rounded up) of each
        # op's repeats: on a shared machine the CPU switches between a fast
        # and a slower state within a second, and the share of time in the
        # slow state drifts over minutes, which moves figures over all
        # repeats by up to 25% between runs.  Every op keeps as many repeats
        # as the others.
        keep = (len(rounds) + 3) // 4
        kept = [dt for i in range(len(rounds[0]))
                for dt in sorted(lat[i] for lat in rounds)[:keep]]
        p, tail_s, beyond = tail(kept)
        self.info.update(
            rounds=len(rounds),
            round_cpu_s=[round(sum(lat), 4) for lat in rounds],
            ops=len(every),
            ops_kept=len(kept),
            all_repeats={
                "ops_per_s": len(every) / sum(every),
                "op_p50_ms": statistics.median(every) * 1e3,
                "op_tail_ms": tail(every)[1] * 1e3,
            },
            wall_s=wall,
            cpu_over_wall=cpu / wall,
            op_tail_percentile=p,
            op_tail_samples_beyond=beyond,
            op_kind_median_ms={k: round(statistics.median(v) * 1e3, 3) for k, v in kinds.items()},
        )
        metrics = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "ops_per_s": (len(kept) / sum(kept), "1/s"),
            "op_p50_ms": (statistics.median(kept) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def trace(self, wl) -> dict:
        from bench_trace import LayerTracer

        # Wall time here, as in the wrappers, so that self times, the time
        # outside wrapped calls and the overhead ratio share one clock.
        ops = wl.round()
        plain = [run_op(op, time.perf_counter) for op in ops]
        tracer = LayerTracer()
        traced = []
        with tracer:
            for op in ops:
                traced.append(run_op(op, time.perf_counter))
                tracer.end_op()
        for op, (_, res_u, err_u), (_, res_t, err_t) in zip(ops, plain, traced):
            self.record(err_u)
            if err_t is None and res_t != res_u:
                err_t = f"{op.kind}: traced output differs from untraced output"
            self.record(err_t)
        plain_s = sum(dt for dt, _, _ in plain)
        traced_s = sum(dt for dt, _, _ in traced)
        self.info.update(ops=len(ops), untraced_wall_s=plain_s, traced_wall_s=traced_s,
                         note="single thread: no layer waits on another")
        return tracer.per_layer_metrics(traced_s, plain_s)

    def main(self) -> int:
        wl = self.set_up()
        kernels = self.pkg.kernels
        self.info = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "inputs_digest": self.input_digest,
            "backend": kernels.backend_name(),
            "CXTCAT_PURE": os.environ.get("CXTCAT_PURE", ""),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "load": "closed loop, 1 in-process caller",
        }
        metrics = self.trace(wl) if self.args.trace else self.measure(wl)
        self.info["setup_s_reps"] = self.setup_times
        failed = len(self.errors)
        self.info["failed_frac"] = failed / self.attempted
        for err in self.errors[:5]:
            print(f"FAILED {err}", file=sys.stderr)
        print(json.dumps({"bench_info": self.info}, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "cxtcat" / "__init__.py").is_file():
        print(f"error: no cxtcat sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing makes set iteration, and so every call count,
        # repeat exactly between runs at the same seed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    sys.path.insert(0, str(SRC))
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        return Run(args, workdir).main()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
