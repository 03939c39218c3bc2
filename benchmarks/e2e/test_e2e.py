"""Self-tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import check
import compare
import inputs
import oracle
import run
from measure import PROBE_REF_S, Tracer, covered, host_slowdown, nearest_rank, probe_host, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_status() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick`` run of all four workloads plus the traced run."""
    out = tmp_path_factory.mktemp("quick")
    before = _git_status()
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--quick",
         "--out", str(out / "e2e.json"), "--trace-out", str(out / "trace.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - t
    return proc, out, elapsed, before


def test_benchmark_json_matches_the_metrics_run_py_emits():
    assert [m["name"] for m in BENCH["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.per_layer_catalogue()
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_quick_run_emits_every_metric_and_no_failures(quick):
    proc, out, elapsed, before = quick
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    report = json.loads((out / "e2e.json").read_text())
    assert set(report["workloads"]) == set(run.WORKLOADS)
    for w, entry in report["workloads"].items():
        assert entry["metrics"]["fail_rate"]["value"] == 0, (w, entry["failures"])
        for m in BENCH["end_to_end"]:
            metric = entry["metrics"][m["name"]]
            assert metric["unit"] == m["unit"]
            assert metric["value"] is not None and metric["value"] > 0, (w, m["name"])
    for m in BENCH["per_layer"]:
        metric = report["per_layer"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert metric["value"] is not None, m["name"]
    events = json.loads((out / "trace.json").read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"op", "engine.plan", "engine.execute", "core.stream.apply"}
    assert _git_status() == before


def test_quick_trace_accounts_for_the_traced_op(quick):
    _, out, _, _ = quick
    layers = json.loads((out / "e2e.json").read_text())["per_layer"]
    events = json.loads((out / "trace.json").read_text())["traceEvents"]
    for w in ("count_suite", "peel_tip", "stream_mixed"):
        pid = run.WORKLOADS.index(w) + 1
        op_s = sorted(e["dur"] for e in events if e["name"] == "op" and e["pid"] == pid)
        assert layers[f"unattributed_s.{w}"]["value"] <= 0.1 * op_s[len(op_s) // 2] * 1e-6


def test_corrupted_oracle_gives_fail_rate_one(tmp_path):
    ctx = run.Context(run.parse_args(["--quick"]), tmp_path)
    trial_dir = tmp_path / "trial"
    result, code, _ = run.run_child_trial(
        ctx, "count_suite", trial_dir, 3, 0, False, time.monotonic() + 120)
    assert code == 0
    records = result["records"]
    truth = check.Oracle(ctx.inputs("count_suite"))
    for expected, fail_rate in ((truth.count, 0.0), (lambda g: truth.count(g) + 1, 1.0)):
        outcome = run.Outcome()
        outcome.add(records, check.check_counts(records, expected), len(records))
        assert outcome.metrics()["fail_rate"]["value"] == fail_rate


def test_p75_has_ten_samples_beyond_it_at_n40():
    values = [float(v) for v in range(40)]
    p75 = nearest_rank(values, 75)
    assert sum(v > p75 for v in values) == 10
    assert nearest_rank(values, 50) == 19.0
    # a failed op counts as +inf latency and lands in the tail
    assert nearest_rank(values[:-1] + [math.inf], 75) == p75
    assert nearest_rank([1.0] * 30 + [math.inf] * 10, 75) == 1.0
    assert nearest_rank([1.0] * 29 + [math.inf] * 11, 75) == math.inf


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 3.0},
        {"id": "b", "parent": "p", "start": 2.0, "end": 5.0},   # overlaps a
        {"id": "c", "parent": "p", "start": 8.0, "end": 12.0},  # runs past p
        {"id": "d", "parent": "b", "start": 2.5, "end": 3.0},
    ]
    selfs = self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs["b"] == pytest.approx(3.0 - 0.5)
    assert selfs["a"] == pytest.approx(2.0)
    assert covered([], 0.0, 1.0) == 0.0

    tr = Tracer()
    with tr.span("op", op=7):
        with tr.span("child"):
            time.sleep(0.01)
        time.sleep(0.01)
    by_name = {s["name"]: s for s in tr.spans}
    assert by_name["child"]["parent"] == by_name["op"]["id"] and by_name["child"]["op"] == 7
    child = by_name["child"]["end"] - by_name["child"]["start"]
    whole = by_name["op"]["end"] - by_name["op"]["start"]
    assert self_times(tr.spans)[by_name["op"]["id"]] == pytest.approx(whole - child)


def test_host_probe_covers_every_cpu_and_restores_affinity():
    before = os.sched_getaffinity(0)
    probes = probe_host(2)
    assert set(probes) == before
    assert all(len(v) == 2 and min(v) > 0 for v in probes.values())
    assert os.sched_getaffinity(0) == before
    assert probe_host(1, probes) is probes and all(len(v) == 3 for v in probes.values())
    slow = {cpu: [PROBE_REF_S * 2] * 3 for cpu in before}
    assert host_slowdown(slow) == pytest.approx(2.0)
    outcome = run.Outcome()
    outcome.add([{"i": 1, "phase": "op", "wall": 3.0}], [None], 1, slowdown=2.0, setup=4.0)
    metrics = outcome.metrics()
    assert metrics["op_p50_s"]["value"] == 1.5 and metrics["setup_s"]["value"] == 2.0
    assert metrics["wall_op_p50_s"]["value"] == 3.0


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    for name, seed in (("a", 0), ("b", 0), ("c", 1)):
        inputs.write_inputs(tmp_path / name, workload, seed, 0.05, 6)
    a, b, c = (_tree_bytes(tmp_path / n) for n in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert any(a[k] != c[k] for k in a if k != "manifest.json")


def test_oracle_matches_brute_force():
    rng = np.random.default_rng(3)
    dense = rng.random((9, 11)) < 0.45
    edges = np.argwhere(dense)
    a = oracle.biadjacency(edges, 9, 11)
    per_left = np.zeros(9, dtype=np.int64)
    total = 0
    for u, w in itertools.combinations(range(9), 2):
        for v, x in itertools.combinations(range(11), 2):
            if dense[u, v] and dense[u, x] and dense[w, v] and dense[w, x]:
                total += 1
                per_left[[u, w]] += 1
    assert oracle.butterflies(a) == total
    assert oracle.butterflies(oracle.biadjacency(edges[:, ::-1], 11, 9)) == total
    assert oracle.left_vertex_butterflies(a).tolist() == per_left.tolist()
    k = int(np.median(per_left[per_left > 0]))
    kept = oracle.k_tip_kept(a, k)
    sub = oracle.biadjacency(edges[kept[edges[:, 0]]], 9, 11)
    assert (oracle.left_vertex_butterflies(sub)[kept] >= k).all()


def test_stream_script_deletes_only_present_edges(tmp_path):
    edges, n_left, n_right = inputs.graph_edges("skewed", 0, 0.05)
    script = inputs.stream_script(edges, n_left, n_right, seed=0, n_batches=8)
    keys = edges[:, 0] * n_right + edges[:, 1]
    for i, (ins, dele) in enumerate(inputs.iter_batches(script)):
        assert np.isin(dele[:, 0] * n_right + dele[:, 1], keys).all()
        if i % inputs.STREAM_BLOCK_EVERY == inputs.STREAM_BLOCK_EVERY - 1:
            assert len(ins) == inputs.STREAM_BLOCK[0] * inputs.STREAM_BLOCK[1]
        keys = inputs.apply_batch(keys, n_right, ins, dele)


def test_compare_verdicts():
    bound = 0.1
    assert compare.verdict([1.0, 1.01, 0.99], [1.0, 1.02, 0.98], "lower", bound)[0] == "ok"
    assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", bound)[0] == "regressed"
    assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "higher", bound)[0] == "improved"
    assert compare.verdict([1.0, 2.0, 0.5, 1.5], [1.0, 1.1, 0.9], "lower", bound)[0] == "unresolved"
    assert compare.verdict([2.0, 4.0, 1.5, 3.0], [1.0, 1.1, 0.9], "lower", bound)[0] == "improved"
