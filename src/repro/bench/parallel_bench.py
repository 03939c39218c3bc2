"""Shared-pool parallel dispatch benchmark (writes ``BENCH_parallel.json``).

Measures the *per-call dispatch overhead* of the warm shared-memory pool
(:class:`~repro.parallel.ButterflyExecutor`: workers attached zero-copy
to one published segment, so a call costs a handful of
``(meta, side, reference, strategy, lo, hi)`` task tuples) on a
≥10⁵-edge generated graph.

Dispatch overhead is isolated as ``t_shared − t_inproc`` where
``t_inproc`` runs the *identical* chunked sweep in-process (an
``n_workers=1`` executor, which short-circuits to serial), clamped at a
timing-noise floor.  The measurement graph is wide but shallow (few
pivots, ≥10⁵ edges) so transport and pool costs dominate compute; a
power-law *throughput* section on a second ≥10⁵-edge graph is recorded
alongside for context.

Run as::

    python -m repro.bench.parallel_bench --out BENCH_parallel.json

(the ``make bench-quick`` target), or call :func:`run_benchmark` from the
benchmark suite (``benchmarks/test_parallel_sharedmem.py`` asserts the
warm pool starts once and publishes once).
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.core import count_butterflies_parallel
from repro.graphs import gnm_bipartite, power_law_bipartite
from repro.parallel import ButterflyExecutor

__all__ = [
    "run_benchmark",
    "main",
    "OVERHEAD_FLOOR_SECONDS",
    "KERNEL_SPAN_PREFIXES",
]

#: Timer-noise floor for overhead estimates (seconds).  Overheads are
#: clamped here from below so a ratio never divides by jitter.
OVERHEAD_FLOOR_SECONDS = 5e-4

#: Span-name prefixes counted as "kernel work" when attributing profiler
#: samples (the CI profile smoke asserts at least one lands here).
KERNEL_SPAN_PREFIXES = ("family.", "blocked.", "worker.", "peel.")


def _best_of(fn, repeats: int):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _dispatch_overhead_section(n_workers: int, repeats: int) -> dict:
    """The criterion measurement: wide sparse graph, compute ≈ tens of ms."""
    g = gnm_bipartite(400, 200_000, 150_000, seed=11)

    with ButterflyExecutor(n_workers=1) as ex1:
        t_inproc, expected = _best_of(lambda: ex1.count(g), repeats)

    with ButterflyExecutor(n_workers=n_workers) as ex:
        warm_value = ex.count(g)  # warm-up: starts pool, publishes segment
        assert warm_value == expected, "shared path disagrees"
        t_shared, v_shared = _best_of(lambda: ex.count(g), repeats)
        telemetry = {
            "pool_starts": ex.pool_starts,
            "publish_count": ex.publish_count,
            "dispatch_count": ex.dispatch_count,
        }
    assert v_shared == expected

    overhead_shared = max(t_shared - t_inproc, OVERHEAD_FLOOR_SECONDS)
    return {
        "graph": {
            "generator": "gnm_bipartite(400, 200000, 150000, seed=11)",
            "n_left": g.n_left,
            "n_right": g.n_right,
            "n_edges": g.n_edges,
            "butterflies": expected,
        },
        "seconds_inproc": t_inproc,
        "seconds_shared_warm_per_call": t_shared,
        "overhead_shared_seconds": overhead_shared,
        "executor_telemetry": telemetry,
    }


def _throughput_section(n_workers: int, repeats: int) -> dict:
    """Context: end-to-end per-call times on a butterfly-heavy graph."""
    g = power_law_bipartite(3_000, 4_000, 150_000, seed=7)

    with ButterflyExecutor(n_workers=1) as ex1:
        t_serial, expected = _best_of(lambda: ex1.count(g), repeats)
    with ButterflyExecutor(n_workers=n_workers) as ex:
        ex.count(g)
        t_shared, v_shared = _best_of(lambda: ex.count(g), repeats)
    assert v_shared == expected
    return {
        "graph": {
            "generator": "power_law_bipartite(3000, 4000, 150000, seed=7)",
            "n_edges": g.n_edges,
            "butterflies": expected,
        },
        "seconds_serial": t_serial,
        "seconds_shared_warm_per_call": t_shared,
    }


def _wedge_section(n_workers: int, repeats: int) -> dict:
    """Wedge-partitioned backend vs the default shared path.

    The graph is a *skewed* power law with many low-degree pivots on
    both sides — the shape where the per-pivot dispatch of the unblocked
    strategies pays the most interpreter overhead and the wedge backend's
    fused per-shard reductions pay the least.  ``wedge_speedup_ratio``
    (shared-default ÷ wedge wall-clock; higher is better) is flattened
    into ``BENCH_history.jsonl`` where the ``bench --compare`` gate
    watches it, and ``planner_choice`` records whether a pool-pinned plan
    picks the wedge candidate on cost-model merit (not because it was
    pinned).
    """
    from repro import engine

    g = power_law_bipartite(30_000, 40_000, 120_000, seed=17)
    with ButterflyExecutor(n_workers=n_workers) as ex:
        expected = ex.count(g, strategy="wedge")  # warm pool + segment
        t_wedge, v_wedge = _best_of(
            lambda: ex.count(g, strategy="wedge"), repeats
        )
        t_shared, v_shared = _best_of(lambda: ex.count(g), repeats)
    assert v_wedge == expected, "wedge path disagrees"
    assert v_shared == expected, "shared default path disagrees"
    table = engine.calibrate(repeats=1, persist=False)
    chosen = engine.plan(g, "count", workers=n_workers, calibration=table)
    return {
        "graph": {
            "generator": "power_law_bipartite(30000, 40000, 120000, seed=17)",
            "n_left": g.n_left,
            "n_right": g.n_right,
            "n_edges": g.n_edges,
            "butterflies": expected,
        },
        "seconds_shared_default_per_call": t_shared,
        "seconds_wedge_per_call": t_wedge,
        "wedge_speedup_ratio": t_shared / t_wedge,
        "planner_choice": {
            "chosen_plan": chosen.label,
            "wedge_chosen": chosen.strategy == "wedge",
        },
    }


def _planner_regret_section(repeats: int) -> dict:
    """Engine-planner regret: auto plan time ÷ best hand-picked member.

    The auto path pays planning (graph stats + cost model) *and*
    execution; the baseline is the best-of grid over the hand-picked
    family members (invariants 2/6 × the three unblocked strategies,
    plus the blocked panel kernel at its default width and the serial
    wedge-partitioned shard walk).  The planner
    runs with a *measured* calibration table (``calibrate(repeats=1)``,
    not persisted) — the shipped defaults are deliberately generic, and
    this section grades the engine as deployed: calibrated once per
    machine, then planning from the table.  Calibration happens outside
    the timed region; per-plan cost with a provided table is ~0.4 ms.
    A regret of 1.0 means the planner matched the oracle pick; values
    < 1.0 mean it found a shape the grid missed (e.g. a better panel
    width).  The ``regret`` key is flattened into
    ``BENCH_history.jsonl`` and the ``bench --compare`` gate treats it
    as lower-is-better.
    """
    from repro import engine
    from repro.core import count_butterflies_blocked, count_butterflies_unblocked

    g = power_law_bipartite(800, 1_000, 20_000, seed=9)
    table = engine.calibrate(repeats=1, persist=False)

    hand_picked: dict[str, float] = {}
    expected = None
    for number in (2, 6):
        for strategy in ("adjacency", "scratch", "spmv"):
            t, v = _best_of(
                lambda n=number, s=strategy: count_butterflies_unblocked(
                    g, n, strategy=s
                ),
                repeats,
            )
            hand_picked[f"inv{number}-{strategy}"] = t
            if expected is None:
                expected = v
            assert v == expected, "family members disagree"
        t, v = _best_of(
            lambda n=number: count_butterflies_blocked(g, n, block_size=64),
            repeats,
        )
        hand_picked[f"inv{number}-blocked-b64"] = t
        assert v == expected
        t, v = _best_of(
            lambda n=number: count_butterflies_parallel(
                g, n_workers=1, executor="serial", invariant=n,
                strategy="wedge",
            ),
            repeats,
        )
        hand_picked[f"inv{number}-wedge"] = t
        assert v == expected

    def auto():
        return engine.plan(g, "count", calibration=table).execute(g)

    t_auto, v_auto = _best_of(auto, repeats)
    assert v_auto == expected, "auto plan disagrees with the family"
    chosen = engine.plan(g, "count", calibration=table)
    best_label, best_t = min(hand_picked.items(), key=lambda kv: kv[1])
    return {
        "graph": {
            "generator": "power_law_bipartite(800, 1000, 20000, seed=9)",
            "n_edges": g.n_edges,
            "butterflies": expected,
        },
        "chosen_plan": chosen.label,
        "calibrated": True,
        "best_member": best_label,
        "seconds_auto_per_call": t_auto,
        "seconds_best_member": best_t,
        "regret": t_auto / best_t,
    }


def _stream_section(repeats: int) -> dict:
    """Streaming tier: batched incremental apply vs its two baselines.

    The batch is a *dense arrival* — a K_{40×50} community block landing
    on a skewed power-law graph — the regime the closed-form batched
    update is built for: the per-edge counter enumerates every one of the
    ~10⁶ created butterflies individually, while the batched path touches
    each affected vertex pair once.  ``stream_speedup_vs_edge_ratio`` (per-edge
    ÷ batched wall-clock) and ``stream_speedup_vs_recount_ratio`` (from-scratch
    recount of the global + both per-vertex counts ÷ batched) are
    flattened into ``BENCH_history.jsonl`` where the ``bench --compare``
    gate watches them; the ISSUE bars are ≥10× and ≥5×.
    """
    import numpy as np

    from repro.core.family import count_butterflies
    from repro.core.local_counts import vertex_butterfly_counts
    from repro.core.stream import DynamicButterflyCounter, StreamingButterflyCounter
    from repro.graphs import BipartiteGraph

    g = power_law_bipartite(30_000, 40_000, 120_000, seed=17)
    rng = np.random.default_rng(5)
    left = rng.choice(g.n_left, size=40, replace=False)
    right = rng.choice(g.n_right, size=50, replace=False)
    probe = StreamingButterflyCounter(g)
    batch = [
        (int(u), int(v))
        for u in left
        for v in right
        if not probe.has_edge(int(u), int(v))
    ]
    probe.apply(insert=[(0, 0)], delete=[(0, 0)])  # warm lazy numpy paths

    def recount():
        rows = np.concatenate([g.coo.rows, np.array([e[0] for e in batch])])
        cols = np.concatenate([g.coo.cols, np.array([e[1] for e in batch])])
        g2 = BipartiteGraph(
            np.stack([rows, cols], axis=1),
            n_left=g.n_left, n_right=g.n_right,
        )
        total = count_butterflies(g2)
        vertex_butterfly_counts(g2, "left")
        vertex_butterfly_counts(g2, "right")
        return total

    # time the update call alone — counters are built outside the timed
    # region: a live stream keeps its counter, so construction cost is
    # paid once, not per batch
    t_batched = float("inf")
    created = None
    for _ in range(repeats):
        counter = StreamingButterflyCounter(g)
        t0 = time.perf_counter()
        created = counter.apply(insert=batch)["created"]
        t_batched = min(t_batched, time.perf_counter() - t0)
    t_edge = float("inf")
    created_edge = None
    for _ in range(max(repeats - 2, 1)):
        dyn = DynamicButterflyCounter(g)
        t0 = time.perf_counter()
        created_edge = dyn.add_edges(batch)
        t_edge = min(t_edge, time.perf_counter() - t0)
    t_recount, _ = _best_of(recount, 1)
    assert created == created_edge, "batched and per-edge disagree"
    return {
        "graph": {
            "generator": "power_law_bipartite(30000, 40000, 120000, seed=17)",
            "n_edges": g.n_edges,
        },
        "batch": {
            "kind": "community block K_{40x50} (dense arrival)",
            "edges": len(batch),
            "butterflies_created": created,
        },
        "seconds_batched_apply": t_batched,
        "seconds_per_edge": t_edge,
        "seconds_recount": t_recount,
        "updates_per_sec": len(batch) / t_batched,
        "stream_speedup_vs_edge_ratio": t_edge / t_batched,
        "stream_speedup_vs_recount_ratio": t_recount / t_batched,
    }


def _profiler_section(repeats: int, profile_out: str | None = None) -> dict:
    """Sampling-profiler overhead plus a real collapsed-stack artifact.

    Times the same unblocked count with the profiler off and on (obs
    enabled in both arms, so the delta is the sampler alone) and reports
    ``profiler_overhead = max(t_on/t_off − 1, 0)`` — flattened into
    ``BENCH_history.jsonl`` where the ``bench --compare`` gate treats it
    as lower-is-better (the ISSUE bar is ≤5% at the default hz).  The
    samples gathered in the *on* arm become ``profile.collapsed`` (the
    CI artifact) and the attribution counts the profile smoke asserts on.
    """
    from repro import obs
    from repro.core import count_butterflies_unblocked
    from repro.obs import profile as obs_profile

    g = power_law_bipartite(3_000, 4_000, 150_000, seed=7)
    was_enabled = obs._enabled
    if not was_enabled:
        obs.enable()
    try:
        def work():
            # family.count span opens inside: samples taken during the
            # kernel attribute to it (KERNEL_SPAN_PREFIXES)
            return count_butterflies_unblocked(g, 6, strategy="adjacency")

        t_off, expected = _best_of(work, repeats)
        obs_profile.clear_samples()
        obs.start_profiler()
        try:
            t_on, v = _best_of(work, repeats)
        finally:
            obs.stop_profiler()
        assert v == expected, "profiled count disagrees"
        records = obs_profile.samples()
        if profile_out:
            obs_profile.write_collapsed(profile_out, records)
    finally:
        if not was_enabled:
            obs.disable()
    attributed = [s for s in records if s.get("span")]
    kernel = [
        s for s in attributed
        if str(s["span"]).startswith(KERNEL_SPAN_PREFIXES)
    ]
    t_off = max(t_off, OVERHEAD_FLOOR_SECONDS)
    return {
        "hz": obs_profile.DEFAULT_PROFILE_HZ,
        "graph": {
            "generator": "power_law_bipartite(3000, 4000, 150000, seed=7)",
            "n_edges": g.n_edges,
        },
        "seconds_profiler_off": t_off,
        "seconds_profiler_on": t_on,
        "profiler_overhead": max(t_on / t_off - 1.0, 0.0),
        "samples": len(records),
        "attributed_samples": len(attributed),
        "kernel_samples": len(kernel),
        "profile_out": profile_out,
    }


def _drift_section(repeats: int) -> dict:
    """Cost-model drift: execute planned runs, then read the ledger back.

    Runs a handful of planned executions with observability on so
    ``engine.execute`` appends real (est, actual) pairs to the
    persistent ledger, then summarises it via ``engine.drift_report()``
    — the same data ``repro-butterfly explain --drift`` renders.
    """
    from repro import engine, obs

    g = power_law_bipartite(800, 1_000, 20_000, seed=9)
    table = engine.calibrate(repeats=1, persist=False)
    was_enabled = obs._enabled
    if not was_enabled:
        obs.enable()
    try:
        expected = None
        for _ in range(max(repeats, 2)):
            value = engine.plan(g, "count", calibration=table).execute(g)
            if expected is None:
                expected = value
            assert value == expected, "planned executions disagree"
    finally:
        if not was_enabled:
            obs.disable()
    report = engine.drift_report()
    return {
        "ledger": report["path"],
        "records": report["count"],
        "median_rel_error": report["median_rel_error"],
        "mean_rel_error": report["mean_rel_error"],
        "plans": len(report["plans"]),
    }


def _storage_section(repeats: int) -> dict:
    """The storage axis: locality speedup, publication shrink, auto choice.

    Four claims, measured on the same power-law preset as the throughput
    section (index working set ≈ 1.2 MB — past L2 on the reference
    machines, so layout-induced locality differences are visible):

    - ``reorder_speedup_ratio`` (raw ÷ reorder wall-clock, best strategy;
      higher is better): the degree-ordered relabeling must win on at
      least one exact counting strategy.  Kernel-only — the storage
      objects are prebuilt, exactly as a warm executor holds them; the
      planner's cost model charges the one-off relabel separately.
    - ``publish_bytes`` (lower is better): the shared-memory segment
      footprint when the compact layout is published, next to the raw
      footprint it replaces — ``bench --compare`` trips when the varint
      codec regresses.
    - ``auto_layout``: which layout the planner picks unpinned — the
      storage axis competing on cost-model merit.
    - ``cachesim_locality_ratio`` (reorder ÷ raw modelled hit rate,
      deterministic): the cache-model validation of *why* the relabeling
      wins, on a small replayable graph.
    """
    from repro import engine
    from repro.bench.cachesim import simulate_storage_locality
    from repro.core.blocked import count_butterflies_blocked
    from repro.core.family import count_butterflies_unblocked
    from repro.parallel.shm import SharedGraphBuffers
    from repro.storage import make_storage

    g = power_law_bipartite(3_000, 4_000, 150_000, seed=7)
    raw = make_storage(g, "raw")
    reorder = make_storage(g, "reorder")
    strategies = {
        "blocked_b64": lambda s: count_butterflies_blocked(s, 2, block_size=64),
        "scratch": lambda s: count_butterflies_unblocked(s, 2, strategy="scratch"),
    }
    per_strategy = {}
    best_ratio = 0.0
    expected = None
    for name, fn in strategies.items():
        t_raw, v_raw = _best_of(lambda: fn(raw), repeats)
        t_reorder, v_reorder = _best_of(lambda: fn(reorder), repeats)
        assert v_raw == v_reorder, f"{name}: layouts disagree"
        if expected is None:
            expected = v_raw
        assert v_raw == expected, f"{name}: strategies disagree"
        ratio = t_raw / t_reorder
        best_ratio = max(best_ratio, ratio)
        per_strategy[name] = {
            "seconds_raw": t_raw,
            "seconds_reorder": t_reorder,
            "reorder_speedup_ratio": ratio,
        }

    with SharedGraphBuffers.publish(g) as pub_raw:
        publish_bytes_raw = pub_raw.nbytes
    with SharedGraphBuffers.publish(make_storage(g, "compact")) as pub_compact:
        publish_bytes = pub_compact.nbytes

    chosen = engine.plan(g, "count", executor="serial")

    sim = power_law_bipartite(300, 400, 8_000, seed=13)
    hit_raw = simulate_storage_locality(sim, "raw").hit_rate
    hit_reorder = simulate_storage_locality(sim, "reorder").hit_rate

    return {
        "graph": {
            "generator": "power_law_bipartite(3000, 4000, 150000, seed=7)",
            "n_edges": g.n_edges,
            "butterflies": expected,
        },
        "strategies": per_strategy,
        "reorder_speedup_ratio": best_ratio,
        "publish_bytes": publish_bytes,
        "publish_bytes_raw": publish_bytes_raw,
        "publish_shrink_ratio": publish_bytes_raw / publish_bytes,
        "planner_choice": {
            "chosen_plan": chosen.label,
            "auto_layout": chosen.layout,
        },
        "cachesim": {
            "graph": "power_law_bipartite(300, 400, 8000, seed=13)",
            "hit_rate_raw": hit_raw,
            "hit_rate_reorder": hit_reorder,
        },
        "cachesim_locality_ratio": hit_reorder / hit_raw,
    }


def _analysis_section() -> dict:
    """Static-analyzer self-scan cost over the installed ``repro`` tree.

    One cold in-process scan.  ``scan_ms`` rides into
    ``BENCH_parallel.json`` and the flattened ``BENCH_history.jsonl`` so
    analyzer slowdowns show up in the same trend file as the counting
    kernels; ``findings`` must stay 0 (the lint gate in CI enforces it —
    here it is informational).
    """
    import repro
    from repro import analysis

    tree = os.path.dirname(os.path.abspath(repro.__file__))
    report = analysis.analyze_paths([tree])
    return {
        "tree": tree,
        "files": report.files,
        "findings": len(report.findings),
        "suppressed": report.suppressed,
        "scan_ms": round(report.elapsed_ms, 3),
    }


def run_benchmark(
    n_workers: int = 2,
    repeats: int = 5,
    throughput: bool = True,
    profile_out: str | None = None,
) -> dict:
    """Run all sections and return the JSON-ready payload."""
    payload = {
        "benchmark": "parallel_sharedmem_dispatch",
        "n_workers": n_workers,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "dispatch_overhead": _dispatch_overhead_section(n_workers, repeats),
        "planner_regret": _planner_regret_section(repeats),
        "wedge": _wedge_section(n_workers, repeats),
        "stream": _stream_section(repeats),
        "profiler": _profiler_section(repeats, profile_out),
        "plan_drift": _drift_section(repeats),
        "storage": _storage_section(repeats),
        "analysis": _analysis_section(),
    }
    if throughput:
        payload["throughput"] = _throughput_section(n_workers, repeats)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.parallel_bench",
        description="Measure warm shared-pool parallel dispatch overhead.",
    )
    parser.add_argument("--out", default="BENCH_parallel.json",
                        help="output JSON path (default: BENCH_parallel.json)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--no-throughput", action="store_true",
                        help="skip the power-law throughput section")
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable repro.obs for the run and append the registry to "
        "PATH as JSON lines (the CI artifact; REPRO_OBS=0 force-disables "
        "so the no-op overhead criterion stays measurable)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable repro.obs and write the run's span tree to PATH as "
        "Chrome trace-event JSON (Perfetto-loadable CI artifact)",
    )
    parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="append this run's flattened payload to a bench-history "
        "JSONL (the `bench --compare` trend file)",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the profiler section's collapsed stacks to PATH "
        "(the CI profile artifact; render with `repro-butterfly "
        "profile PATH`)",
    )
    args = parser.parse_args(argv)

    from repro import obs

    if args.metrics_out or args.trace_out:
        obs.enable()
    payload = run_benchmark(
        n_workers=args.workers,
        repeats=args.repeats,
        throughput=not args.no_throughput,
        profile_out=args.profile_out,
    )
    if args.metrics_out:
        records = obs.dump_jsonl(args.metrics_out, benchmark="parallel_bench")
        payload["metrics"] = {
            "path": args.metrics_out,
            "distinct_names": len(records),
            "layers": sorted(obs.registry().layers()),
        }
    if args.trace_out:
        obs.dump_trace(args.trace_out, benchmark="parallel_bench")
    if args.metrics_out or args.trace_out:
        obs.disable()
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if args.history:
        from repro.bench.history import append_history

        append_history(args.history, payload)

    d = payload["dispatch_overhead"]
    print(f"wrote {args.out}")
    print(f"per-call dispatch overhead ({args.workers} workers, "
          f"{d['graph']['n_edges']} edges):")
    print(f"  shared warm pool  : {d['overhead_shared_seconds'] * 1e3:8.2f} ms/call")
    r = payload["planner_regret"]
    print(f"planner regret ({r['graph']['n_edges']} edges):")
    print(f"  auto plan [{r['chosen_plan']}] : "
          f"{r['seconds_auto_per_call'] * 1e3:8.2f} ms/call")
    print(f"  best member [{r['best_member']}] : "
          f"{r['seconds_best_member'] * 1e3:8.2f} ms/call")
    print(f"  regret            : {r['regret']:8.2f}x  (lower is better)")
    w = payload["wedge"]
    print(f"wedge backend ({w['graph']['n_edges']} edges, skewed):")
    print(f"  shared default    : "
          f"{w['seconds_shared_default_per_call'] * 1e3:8.2f} ms/call")
    print(f"  wedge shards      : "
          f"{w['seconds_wedge_per_call'] * 1e3:8.2f} ms/call")
    print(f"  speedup           : {w['wedge_speedup_ratio']:8.2f}x  "
          f"(planner chose {w['planner_choice']['chosen_plan']})")
    s = payload["stream"]
    print(f"streaming tier ({s['batch']['edges']}-edge dense-arrival batch, "
          f"{s['batch']['butterflies_created']} butterflies created):")
    print(f"  batched apply     : "
          f"{s['seconds_batched_apply'] * 1e3:8.2f} ms  "
          f"({s['updates_per_sec']:,.0f} updates/s)")
    print(f"  per-edge counter  : {s['seconds_per_edge'] * 1e3:8.2f} ms  "
          f"({s['stream_speedup_vs_edge_ratio']:.1f}x slower)")
    print(f"  full recount      : {s['seconds_recount'] * 1e3:8.2f} ms  "
          f"({s['stream_speedup_vs_recount_ratio']:.1f}x slower)")
    pr = payload["profiler"]
    print(f"sampling profiler ({pr['hz']} Hz, {pr['samples']} samples, "
          f"{pr['kernel_samples']} in kernel spans):")
    print(f"  overhead          : {pr['profiler_overhead'] * 100:8.2f} %  "
          f"(lower is better)")
    dr = payload["plan_drift"]
    median = dr["median_rel_error"]
    shown = "n/a" if median is None else f"{median:.1%}"
    print(f"plan-drift ledger ({dr['records']} records, {dr['plans']} "
          f"plans): median rel error {shown}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
