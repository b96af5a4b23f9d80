"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root.

They check that tracing leaves the package exactly as it found it and does
not change any output, that the independent answers agree with their
definitions, and that each workload runs end to end.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_workloads as W  # noqa: E402
import run as bench_run  # noqa: E402
from bench_trace import LAYERS, LayerTracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = sorted(m["name"] for m in BENCH["end_to_end"])
LAYER_NAMES = sorted(m["name"] for m in BENCH["per_layer"])


def _small_ops(name: str, pkg, workdir: Path) -> list:
    """A quick slice of a round: the smallest and the over-guard cxt files,
    the cheapest law suites."""
    cls = W.WORKLOADS[name]
    wl = cls(pkg, cls.draw(7)[0], workdir)
    ops = wl.round()
    if name == "cxt-cli":
        return ops[:5] + ops[-5:]
    return [op for op in ops if op.kind in ("prop5.7", "lemma5.9", "thm6.7", "prop5.10")]


def _snapshot():
    """Every attribute of every layer module and of the classes they define."""
    snap = {}
    for layer in LAYERS:
        mod = sys.modules[f"cxtcat.{layer}"]
        snap[mod] = dict(vars(mod))
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                snap[obj] = dict(vars(obj))
    return snap


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_trace_restores_originals_and_keeps_outputs(name, tmp_path):
    pkg = bench_run.fresh_import()
    ops = _small_ops(name, pkg, tmp_path)
    before = _snapshot()
    plain = [bench_run.run_op(op) for op in ops]
    tracer = LayerTracer()
    with tracer:
        patches = list(tracer.patches)
        traced = [bench_run.run_op(op) for op in ops]
    assert patches and not tracer.patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert vars(owner).keys() == attrs.keys()
        for attr, val in attrs.items():
            assert vars(owner)[attr] is val, f"{owner!r}.{attr} changed"
    for (_, res_u, err_u), (_, res_t, err_t) in zip(plain, traced):
        assert err_u is None and err_t is None
        assert res_t == res_u
    assert tracer.wrapped_ns > 0


def test_tracer_counts_calls_across_modules(tmp_path):
    pkg = bench_run.fresh_import()
    ops = _small_ops("laws", pkg, tmp_path)
    tracer = LayerTracer()
    with tracer:
        for op in ops:
            bench_run.run_op(op)
            tracer.end_op()
    m = tracer.per_layer_metrics(1.0, 1.0)
    assert sorted(m) == LAYER_NAMES
    # cli.main is called through its module, enumerate_mappings and set_id
    # through names imported into laws, category and order: both kinds of
    # reference must be seen.
    assert m["cli.self_s"]["value"] > 0
    assert m["mappings.enumerate.calls"]["value"] > 0
    assert m["canon.id.calls"]["value"] > 0
    assert m["category.fs_closure.calls"]["value"] > 0
    assert 0 < m["category.fs_closure_new_ratio"]["value"] <= 1
    layer_self = sum(m[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert layer_self == pytest.approx(tracer.wrapped_ns / 1e9)
    assert all(m[f"{layer}.self_s"]["value"] >= 0 for layer in LAYERS)


def test_independent_answers():
    # Brute force on a small context: closed sets are the fixed points of
    # the intent closure.
    rows = [0b1011, 0b0110, 0b1100, 0b0011, 0b1110]
    full = 0b1111

    def closure(y):
        ext = [r for r in rows if r & y == y]
        out = full
        for r in ext:
            out &= r
        return out

    assert W.closed_sets(rows, full, 99) == {y for y in range(16) if closure(y) == y}
    assert W.closed_sets(rows, full, 2) is None


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_smoke_end_to_end(name):
    p = _bench("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "0")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 1
    assert sorted(res["metrics"]) == E2E_NAMES
    assert all(v["value"] > 0 for v in res["metrics"].values())
    info = json.loads(lines[-2])["bench_info"]
    assert info["backend"] in ("pure", "compiled") and info["inputs_digest"]


def test_traced_counts_repeat():
    runs = [_bench("--workload", "laws", "--seed", "9", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    results = []
    for p in runs:
        assert p.returncode == 0, p.stderr
        res = json.loads(p.stdout.strip().splitlines()[-1])
        assert res["correct"] and sorted(res["metrics"]) == LAYER_NAMES
        results.append(res["metrics"])
    counts = [k for k in LAYER_NAMES if k.endswith((".calls", "_ratio", "_per_closed_set"))
              and k != "trace.overhead_ratio"]
    assert counts
    for k in counts:
        assert results[0][k] == results[1][k], k


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench("--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
