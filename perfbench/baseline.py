"""Record a baseline: each workload at seeds 1..10 untraced, then once traced.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Workloads and run length are those of ``BENCHMARK.json``.  Runs
``perfbench/run.py`` one process at a time from the checkout root and
writes, per workload, each end-to-end metric's median, quartiles and
spread (interquartile distance over median) across the seeds, the traced
per-layer metrics at seed 1, and the run environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{p.stderr}")
    return json.loads(lines[-2])["bench_info"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    doc = {"seeds": list(range(1, SEEDS + 1)), "seconds": BENCH["run_seconds"], "workloads": {}}
    for w in (w["name"] for w in BENCH["workloads"]):
        per_metric: dict[str, list[float]] = {}
        units = {}
        for seed in doc["seeds"]:
            info, res = bench(w, seed, 0)
            print(w, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  file=sys.stderr, flush=True)
            for k, v in res["metrics"].items():
                per_metric.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        trace_info, traced = bench(w, 1, 1)
        doc["environment"] = {k: info[k] for k in ("backend", "CXTCAT_PURE", "python", "nproc")}
        doc["workloads"][w] = {
            "end_to_end": {k: {"unit": units[k], **summarize(v)} for k, v in per_metric.items()},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "inputs_digest_seed1": trace_info["inputs_digest"],
        }
        for k, s in doc["workloads"][w]["end_to_end"].items():
            print(f"{w:8s} {k:12s} median {s['median']:10.4f} spread {s['spread']:.4f}",
                  file=sys.stderr, flush=True)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
