"""Command-line interface.

::

    repro-butterfly info       GRAPH [--json]   # structural statistics
    repro-butterfly count      GRAPH [options]  # exact butterfly count
    repro-butterfly explain    GRAPH [options]  # engine plan table (no run)
    repro-butterfly explain    --drift          # cost-model drift ledger report
    repro-butterfly calibrate  [--if-drifted T] # re-measure the cost coefficients
    repro-butterfly profile    PROFILE          # render collapsed-stack samples
    repro-butterfly peel       GRAPH --k K [--mode tip|wing] [--side left|right]
    repro-butterfly decompose  GRAPH [--mode tip|wing] [--top N]
    repro-butterfly bench      [--dataset NAME] # fig10-style sweep on a stand-in
    repro-butterfly algorithms [--executor E] [--run GRAPH]  # pinned count members
    repro-butterfly generate   OUT --n-left M --n-right N --edges E
    repro-butterfly stats      --from-metrics metrics.jsonl  # render metrics
    repro-butterfly stream     GRAPH SCRIPT [--strategy S] [--snapshot-out P]

GRAPH is either a path to a KONECT-format edge list (optionally ``.gz``;
see :mod:`repro.graphs.io`) or ``dataset:<name>`` for one of the synthetic
Fig. 9 stand-ins.

Every command accepts a global ``--metrics-out PATH`` (before the
subcommand): it enables :mod:`repro.obs` for the run and appends one JSON
line per metric to PATH on exit — ``stats --from-metrics PATH`` renders
the accumulated file as a human table (``--run``/``--list-runs`` select
a single flush out of a multi-run file).

``--trace-out PATH`` (global, also accepted after ``count``) likewise
enables observability and writes the run's span tree as Chrome
trace-event JSON on exit; the whole command runs under a ``cli.<command>``
root span, so the file loads in Perfetto as one tree — with
``count --blocked`` the nesting is family → invariant → panel, and
parallel runs re-parent worker spans under their dispatch span.

``--profile-out PATH`` (global) enables observability plus the
background sampling profiler (:mod:`repro.obs.profile`) and writes the
run's samples as collapsed stacks on exit — ``profile PATH`` renders the
file as a self/total frame table, and the same data loads directly in
speedscope / ``flamegraph.pl``.  ``--profile-hz`` tunes the sampling
rate.

Bad input (a missing file, an unknown rule id, a malformed JSON file, a
graph too large to allocate) prints ``repro-butterfly: error: <msg>`` to
stderr and exits 2, the same code as an argparse usage error; exit 1
stays reserved for "the command ran and failed its check" (analyzer
findings, disagreeing family members).
A closed stdout pipe (``... | head -1``) exits 141 (128 + SIGPIPE)
without an error line.

The installed ``repro-butterfly`` script and ``python -m repro.cli`` call
:func:`run`: once a command returns its exit code, it joins threads, runs
the exit hooks (the pool's, the shared-memory registry's,
multiprocessing's) and flushes stdout and stderr as the interpreter
would, then ends with ``os._exit``.  That skips only interpreter
teardown, the freeing of numpy's and every other module's objects: about
20 ms a run.  An uncaught exception still leaves through the normal exit.
Before the command, :func:`run` defaults ``OPENBLAS_NUM_THREADS`` to 1,
since no command calls a floating-point BLAS routine and OpenBLAS would
otherwise start a thread pool inside ``import numpy``; export the
variable to override it (``OPENBLAS_NUM_THREADS=4 repro-butterfly ...``).
Code that embeds the CLI should call :func:`main`, which returns the code,
exits nothing and leaves the environment alone.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from repro.graphs import BipartiteGraph

# Every handler imports what it runs, so a command pays only for its own
# modules: ``count`` never loads the pool, the peels, the stream tier,
# the analyzer or the bench harness (pinned by tests/test_import_set.py).

__all__ = ["main", "run", "build_parser"]


def _load(spec: str) -> BipartiteGraph:
    """The graph named by a GRAPH argument (path, dataset:NAME, empty:MxN)."""
    if spec.startswith("dataset:"):
        from repro.graphs import load_dataset

        try:
            return load_dataset(spec.split(":", 1)[1])
        except KeyError as exc:  # an unknown name is bad input
            raise ValueError(exc.args[0]) from None
    if spec.startswith("empty:"):
        from repro.graphs import BipartiteGraph

        # empty:MxN — a fresh edge-free graph for stream replays
        dims = spec.split(":", 1)[1]
        try:
            m, n = (int(part) for part in dims.lower().split("x"))
        except ValueError:
            raise ValueError(
                f"bad empty-graph spec {spec!r}; expected empty:MxN"
            ) from None
        return BipartiteGraph.empty(m, n)
    from repro.graphs import load_konect

    return load_konect(spec)


def _non_negative(text: str) -> int:
    """argparse type: an int >= 0 (a negative ``--top`` would slice from
    the end)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for the CLI tests)."""
    # the dataset table only: no generator loads until a dataset is built
    from repro.graphs import dataset_names

    p = argparse.ArgumentParser(
        prog="repro-butterfly",
        description="Butterfly counting and peeling for bipartite graphs "
        "(linear-algebra algorithm family).",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable observability (repro.obs) and append one JSON line "
        "per metric to PATH when the command finishes",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable observability and write the run's span tree to PATH "
        "as Chrome trace-event JSON (load at https://ui.perfetto.dev)",
    )
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="enable observability plus the background sampling profiler "
        "and write collapsed stacks to PATH on exit (render with the "
        "'profile' subcommand, speedscope, or flamegraph.pl)",
    )
    p.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="sampling rate for --profile-out (default: "
        "repro.obs.DEFAULT_PROFILE_HZ)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print structural statistics")
    p_info.add_argument("graph", help="KONECT file path or dataset:<name>")
    p_info.add_argument("--json", action="store_true", help="machine-readable output")

    p_count = sub.add_parser("count", help="exact butterfly count")
    p_count.add_argument("graph")
    p_count.add_argument("--json", action="store_true", help="machine-readable output")
    p_count.add_argument(
        "--invariant",
        type=int,
        choices=range(1, 9),
        default=None,
        help="pin family member 1-8 (alone: its unblocked scratch "
        "sweep; default: the engine's rule, which needs no member)",
    )
    p_count.add_argument(
        "--strategy",
        choices=("scratch", "spmv", "wedge", "priority"),
        default=None,
        help="pin the update strategy (default: the engine's rule, the "
        "serial vertex-priority kernel unless a flag pins a fixed-side "
        "plan); 'scratch'/'spmv' run the unblocked family member, "
        "'wedge' the wedge-partitioned shard backend, 'priority' takes "
        "no --invariant",
    )
    p_count.add_argument(
        "--auto",
        action="store_true",
        help="accepted for compatibility and ignored: every count is "
        "planned by the engine's rule",
    )
    p_count.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="count in parallel over N workers on the warm shared-memory "
        "pool (default: sequential)",
    )
    p_count.add_argument(
        "--storage",
        choices=("auto", "raw", "mmap"),
        default="auto",
        help="graph storage layout (auto: raw; mmap = out-of-core column "
        "files)",
    )
    p_count.add_argument(
        "--blocked",
        action="store_true",
        help="pin the blocked (panel) member — with --trace-out the "
        "trace nests family → invariant → panel",
    )
    p_count.add_argument(
        "--block-size", type=int, default=None, metavar="B",
        help="pin the blocked member at panel width B (--blocked alone: "
        "sized to a cache-resident wedge budget)",
    )
    # SUPPRESS: a subparser default would overwrite the value the global
    # --trace-out already parsed onto the namespace
    p_count.add_argument(
        "--trace-out", default=argparse.SUPPRESS, metavar="PATH",
        help="write this run's span tree as Chrome trace-event JSON "
        "(same as the global --trace-out, accepted after the subcommand)",
    )

    p_peel = sub.add_parser("peel", help="k-tip / k-wing subgraph extraction")
    p_peel.add_argument("graph")
    p_peel.add_argument("--k", type=int, required=True)
    p_peel.add_argument("--mode", choices=("tip", "wing"), default="tip")
    p_peel.add_argument("--side", choices=("left", "right"), default="left")
    p_peel.add_argument(
        "--auto",
        action="store_true",
        help="print the engine's plan (kernel and modelled work) "
        "before peeling",
    )

    p_explain = sub.add_parser(
        "explain",
        help="print the engine's plan for a graph (the rule that fired "
        "and the chosen row) without executing it",
    )
    p_explain.add_argument(
        "graph", nargs="?", default=None,
        help="graph to plan for (not needed with --drift)",
    )
    p_explain.add_argument(
        "--workload", choices=("count", "vertex-counts", "tip", "wing"),
        default="count",
    )
    p_explain.add_argument("--k", type=int, default=None,
                           help="peeling threshold for tip/wing workloads")
    p_explain.add_argument("--side", choices=("left", "right"), default=None)
    p_explain.add_argument(
        "--invariant", type=int, choices=range(1, 9), default=None,
        help="pin the family member (default: the smaller side's suffix "
        "member once any pin is given; the rule fills the rest)",
    )
    p_explain.add_argument(
        "--strategy",
        choices=("scratch", "spmv", "blocked", "wedge", "priority"),
        default=None, help="pin the update strategy",
    )
    p_explain.add_argument("--workers", type=int, default=None, metavar="N",
                           help="pin the pool size")
    p_explain.add_argument("--block-size", type=int, default=None, metavar="B",
                           help="pin the panel width")
    p_explain.add_argument(
        "--storage",
        choices=("auto", "raw", "mmap"),
        default="auto",
        help="pin the storage layout (auto: raw)",
    )
    p_explain.add_argument(
        "--calibrate", action="store_true",
        help="measure this machine's ns/op coefficients first (persisted "
        "under results/, used by every later plan)",
    )
    p_explain.add_argument(
        "--drift", action="store_true",
        help="report the cost model's predicted-vs-actual drift from the "
        "persistent ledger instead of planning a graph",
    )
    p_explain.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="drift ledger path for --drift (default: "
        "results/plan_drift.jsonl, or $REPRO_DRIFT_LEDGER)",
    )

    p_cal = sub.add_parser(
        "calibrate",
        help="measure this machine's ns/op cost-model coefficients "
        "(optionally only when the drift ledger says they are stale)",
    )
    p_cal.add_argument(
        "--if-drifted", type=float, default=None, metavar="THRESHOLD",
        help="only recalibrate when the ledger's median relative error "
        "exceeds THRESHOLD (e.g. 0.5 = 50%%); otherwise keep the "
        "current table",
    )
    p_cal.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="measurement repeats per micro-benchmark (default 3)",
    )
    p_cal.add_argument(
        "--no-persist", action="store_true",
        help="measure but do not write results/engine_calibration.json",
    )
    p_cal.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="drift ledger consulted by --if-drifted (default: "
        "results/plan_drift.jsonl, or $REPRO_DRIFT_LEDGER)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="render a collapsed-stack profile written by --profile-out "
        "as a self/total frame table",
    )
    p_prof.add_argument("input", help="collapsed-stack file (--profile-out)")
    p_prof.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="show the N hottest frames (default 20)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="time all 8 invariants on a dataset (Fig. 10-style sweep)",
    )
    p_bench.add_argument(
        "--dataset", choices=dataset_names(), default="arxiv"
    )
    p_bench.add_argument(
        "--strategy", choices=("scratch", "spmv"), default="scratch"
    )

    p_dec = sub.add_parser(
        "decompose", help="tip-number or wing-number decomposition"
    )
    p_dec.add_argument("graph")
    p_dec.add_argument("--mode", choices=("tip", "wing"), default="tip")
    p_dec.add_argument("--side", choices=("left", "right"), default="left")
    p_dec.add_argument(
        "--top", type=_non_negative, default=10,
        help="show the N highest-numbered items",
    )

    p_gen = sub.add_parser(
        "generate", help="write a synthetic bipartite graph in KONECT format"
    )
    p_gen.add_argument("output", help="output file path")
    p_gen.add_argument("--n-left", type=int, required=True)
    p_gen.add_argument("--n-right", type=int, required=True)
    p_gen.add_argument("--edges", type=int, required=True)
    p_gen.add_argument(
        "--model", choices=("powerlaw", "uniform"), default="powerlaw"
    )
    p_gen.add_argument("--seed", type=int, default=0)

    p_alg = sub.add_parser(
        "algorithms",
        help="list every pinned count member the engine's planner accepts",
    )
    p_alg.add_argument("--executor", default=None, choices=("serial", "shared"))
    p_alg.add_argument("--run", default=None, metavar="GRAPH",
                       help="also plan and run every listed member on this "
                       "graph and assert agreement")

    p_stats = sub.add_parser(
        "stats", help="render a metrics JSONL file as a human table"
    )
    p_stats.add_argument(
        "--from-metrics",
        dest="from_metrics",
        required=True,
        metavar="PATH",
        help="metrics.jsonl written by --metrics-out (without --run the "
        "runs are merged: counters/histograms add, gauges apply their "
        "merge policy)",
    )
    p_stats.add_argument(
        "--run", default=None, metavar="RUN",
        help="render exactly one run id instead of merging every flush "
        "in the file (see --list-runs)",
    )
    p_stats.add_argument(
        "--list-runs", action="store_true",
        help="print the distinct run ids in the file and exit",
    )
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable merged snapshot")

    p_stream = sub.add_parser(
        "stream",
        help="replay an edge-script against the streaming counter",
    )
    p_stream.add_argument(
        "graph",
        help="starting graph: KONECT path, dataset:<name>, or empty:MxN",
    )
    p_stream.add_argument(
        "script",
        help="edge-script file: '+ u v' / '- u v' lines, 'flush' ends a "
        "batch (see docs/streaming.md)",
    )
    p_stream.add_argument(
        "--strategy", choices=("auto", "incremental", "recount"),
        default="auto",
        help="per-batch maintenance strategy (auto: the engine's cost "
        "model chooses between incremental and recount per batch)",
    )
    p_stream.add_argument(
        "--snapshot-in", default=None, metavar="PATH",
        help="restore counter state from a snapshot file before replaying",
    )
    p_stream.add_argument(
        "--snapshot-out", default=None, metavar="PATH",
        help="write the final counter state as a snapshot file",
    )
    p_stream.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_an = sub.add_parser(
        "analyze",
        help="run the project-native static analyzer (docs/analysis.md)",
    )
    p_an.add_argument(
        "paths", nargs="*", default=["src/repro"], metavar="PATH",
        help="files or directories to scan (default: src/repro)",
    )
    p_an.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json follows schema repro.analysis.report/v3)",
    )
    p_an.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run, e.g. RPR001,RPR006 "
        "(default: all)",
    )
    return p


def _cmd_info(args) -> int:
    from repro import engine
    from repro.graphs import graph_stats
    from repro.metrics import bipartite_clustering_coefficient

    g = _load(args.graph)
    stats = graph_stats(g)
    count = engine.execute(engine.plan(g), g)  # the kernel `count` runs
    cc = bipartite_clustering_coefficient(g, butterflies=count)
    if args.json:
        import json

        payload = dict(stats.as_dict())
        payload["butterflies"] = count
        payload["clustering_c4"] = cc
        print(json.dumps(payload, indent=2))
        return 0
    print(f"graph        : {g!r}")
    for key, value in stats.as_dict().items():
        print(f"{key:24s}: {value}")
    print(f"{'butterflies':24s}: {count}")
    print(f"{'clustering (C4)':24s}: {cc:.6f}")
    return 0


def _count_plan_from_args(args, g):
    """Translate the ``count`` flag set into engine pins and plan them.

    Every flag is a pinned plan field and the engine's rule fills the
    rest, so a count without pins plans the vertex-priority kernel.
    ``--invariant`` alone pins the member's unblocked ``scratch`` sweep;
    ``--blocked`` and ``--block-size`` pin the panel kernel; ``--workers
    N`` pins the pool (N > 1) or the serial executor; ``--auto`` pins
    nothing.
    """
    from repro import engine

    strategy = args.strategy
    if args.blocked or args.block_size is not None:
        if strategy is not None:
            raise ValueError(
                f"conflicting pins: --strategy {strategy} with a panel "
                "width (--blocked/--block-size pin strategy 'blocked')"
            )
        strategy = "blocked"
    elif strategy is None and args.invariant is not None and args.workers is None:
        strategy = "scratch"
    return engine.plan(
        g, "count", invariant=args.invariant, strategy=strategy,
        workers=args.workers, block_size=args.block_size,
        layout=_layout_arg(args),
    )


def _layout_arg(args):
    """``--storage`` flag value → planner ``layout`` pin (auto → None)."""
    return None if args.storage == "auto" else args.storage


def _describe_mode(plan) -> str:
    if plan.strategy == "blocked":
        return f"blocked (b={plan.block_size})"
    if plan.workers > 1 or plan.executor != "serial":
        return f"parallel ({plan.workers} workers, {plan.executor})"
    return "sequential"


def _cmd_count(args) -> int:
    from repro import engine

    g = _load(args.graph)
    plan = _count_plan_from_args(args, g)
    result = engine.execute(plan, g)
    if args.invariant is not None:
        invariant_desc = str(args.invariant)
    elif plan.invariant is not None:
        invariant_desc = f"auto (chose {plan.invariant})"
    else:
        invariant_desc = "auto"
    mode = _describe_mode(plan)
    if args.json:
        import json

        print(json.dumps({
            "invariant": invariant_desc,
            "strategy": plan.strategy,
            "mode": mode,
            "plan": plan.label,
            "butterflies": result,
        }))
        return 0
    print(f"plan       : {plan.label} — {plan.reason}")
    print(f"invariant  : {invariant_desc}")
    print(f"strategy   : {plan.strategy}")
    print(f"mode       : {mode}")
    print(f"butterflies: {result}")
    return 0


def _cmd_peel(args) -> int:
    from repro import engine
    from repro.core import k_tip, k_wing

    g = _load(args.graph)
    if args.auto:  # neither peel has a choice left: the plan is printed
        plan = engine.plan(g, args.mode, side=args.side, k=args.k)
        print(f"plan       : {plan.label} — {plan.reason}")
    if args.mode == "tip":
        res = k_tip(g, args.k, side=args.side)
        print(f"{args.k}-tip ({args.side} side): kept {res.n_kept} vertices, "
              f"{res.subgraph.n_edges} edges, {res.rounds} rounds")
    else:
        res = k_wing(g, args.k)
        print(f"{args.k}-wing: kept {res.n_edges} edges, {res.rounds} rounds")
    return 0


def _cmd_explain(args) -> int:
    from repro import engine

    if args.drift:
        report = engine.drift_report(path=args.ledger)
        print(engine.render_drift_report(report))
        return 0
    if args.graph is None:
        print("error: explain needs a GRAPH (or --drift)", file=sys.stderr)
        return 2
    g = _load(args.graph)
    calibration = None
    if args.calibrate:
        calibration = engine.calibrate()
        print(f"calibrated this machine -> {calibration.source}")
    plan = engine.plan(
        g,
        args.workload,
        invariant=args.invariant,
        strategy=args.strategy,
        workers=args.workers,
        block_size=args.block_size,
        side=args.side,
        k=args.k,
        layout=_layout_arg(args),
        calibration=calibration,
    )
    print(engine.explain(plan, g, calibration=calibration))
    return 0


def _cmd_calibrate(args) -> int:
    from repro import engine

    persist = not args.no_persist
    if args.if_drifted is not None:
        table, report = engine.calibrate_if_drifted(
            args.if_drifted, path=args.ledger,
            repeats=args.repeats, persist=persist,
        )
        median = report.get("median_rel_error")
        shown = "n/a (empty ledger)" if median is None else f"{median:.1%}"
        print(f"drift ledger : {report['path']} ({report['count']} records)")
        print(f"median error : {shown} (threshold {args.if_drifted:.1%})")
        if table is None:
            print("calibration  : kept (not drifted)")
            return 0
        print(f"calibration  : re-measured -> {table.source}")
        return 0
    table = engine.calibrate(repeats=args.repeats, persist=persist)
    print(f"calibrated this machine -> {table.source or '(not persisted)'}")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import parse_collapsed, render_profile_report

    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read profile {args.input}: {exc}",
              file=sys.stderr)
        return 2
    try:
        counts = parse_collapsed(text)
    except ValueError as exc:
        print(f"error: {args.input} is not a collapsed-stack file: {exc}",
              file=sys.stderr)
        return 2
    print(render_profile_report(counts, top=args.top))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import Sweep, time_callable
    from repro.core import ALL_INVARIANTS, count_butterflies_unblocked
    from repro.graphs import load_dataset

    g = load_dataset(args.dataset)
    sweep = Sweep(title=f"dataset {args.dataset}, strategy {args.strategy}")
    for inv in ALL_INVARIANTS:
        result = time_callable(
            lambda inv=inv: count_butterflies_unblocked(
                g, inv, strategy=args.strategy
            ),
            repeats=1,
            label=f"inv{inv.number}",
        )
        sweep.record(args.dataset, f"Inv. {inv.number}", result)
    print(sweep.render())
    if not sweep.values_agree():
        print("ERROR: family members disagree!", file=sys.stderr)
        return 1
    first = sweep.get(args.dataset, "Inv. 1")
    print(f"butterflies: {first.value}")
    return 0


def _cmd_decompose(args) -> int:
    g = _load(args.graph)
    if args.mode == "tip":
        from repro.core import tip_numbers_bucket_parallel

        numbers = tip_numbers_bucket_parallel(g, side=args.side)
        order = numbers.argsort()[::-1][: args.top]
        print(f"tip numbers ({args.side} side), top {args.top}:")
        for v in order:
            print(f"  vertex {int(v):6d}: {int(numbers[v])}")
        print(f"max tip number: {int(numbers.max()) if numbers.size else 0}")
    else:
        from repro.core import wing_numbers_bucket

        wn = wing_numbers_bucket(g)
        # ties rank by edge, not by the path's dict order
        ranked = sorted(wn.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]
        print(f"wing numbers, top {args.top}:")
        for (u, v), w in ranked:
            print(f"  edge ({u}, {v}): {w}")
        print(f"max wing number: {max(wn.values()) if wn else 0}")
    return 0


def _cmd_generate(args) -> int:
    from repro.graphs import gnm_bipartite, power_law_bipartite, save_konect

    if args.model == "powerlaw":
        g = power_law_bipartite(
            args.n_left, args.n_right, args.edges, seed=args.seed
        )
    else:
        g = gnm_bipartite(args.n_left, args.n_right, args.edges, seed=args.seed)
    save_konect(g, args.output)
    print(f"wrote {g!r} to {args.output}")
    return 0


def _cmd_algorithms(args) -> int:
    from repro import engine
    from repro.core import INVARIANTS

    members = [
        pins for pins in engine.count_members()
        if args.executor in (None, pins["executor"])
    ]
    graph = _load(args.run) if args.run else None
    results = set()
    for pins in members:
        number = pins["invariant"]
        name = f"{pins['strategy']}-{pins['executor']}"
        if number is None:
            description = "both sides ranked together (no invariant)"
        else:
            name = f"inv{number}-{name}"
            description = INVARIANTS[number].description
        line = f"{name:22s} {description}"
        if graph is not None:
            value = engine.execute(engine.plan(graph, "count", **pins), graph)
            results.add(value)
            line += f"  -> {value}"
        print(line)
    print(f"{len(members)} members")
    if graph is not None:
        if len(results) != 1:
            print("ERROR: members disagree!", file=sys.stderr)
            return 1
        print(f"all agree: {results.pop()}")
    return 0


def _cmd_stats(args) -> int:
    from repro import obs

    if args.list_runs:
        for run in obs.jsonl_runs(args.from_metrics):
            print(run)
        return 0
    try:
        registry = obs.read_jsonl(args.from_metrics, run=args.run)
    except ValueError as exc:  # unknown --run id
        print(f"error: {exc}", file=sys.stderr)
        return 2
    title = f"metrics: {args.from_metrics}"
    if args.run is not None:
        title += f" (run {args.run})"
    if args.json:
        import json

        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        return 0
    print(obs.render_table(registry, title=title))
    return 0


def _cmd_stream(args) -> int:
    """``repro-butterfly stream`` — replay an edge script (docs/streaming.md)."""
    from repro import engine
    from repro.core.stream import StreamingButterflyCounter
    from repro.core.stream.script import iter_batches, load_script

    g = _load(args.graph)
    counter = StreamingButterflyCounter(g)
    if args.snapshot_in:
        # a corrupt or mismatched snapshot raises SnapshotError, a
        # ValueError: bad input, exit 2 through main's handler
        with open(args.snapshot_in, "rb") as fh:
            counter.restore(fh.read())
    # an id outside the graph is bad input naming its script line
    ops = load_script(args.script, shape=(g.n_left, g.n_right))
    batches = []
    for index, (insert, delete) in enumerate(iter_batches(ops)):
        strategy = args.strategy
        if strategy == "auto":
            chosen = engine.plan(
                counter.to_graph(), "stream_apply", batch=(insert, delete)
            )
            strategy = chosen.strategy
        stats = counter.apply(insert=insert, delete=delete, strategy=strategy)
        row = dict(stats, batch=index, strategy=strategy)
        batches.append(row)
        if not args.json:
            print(
                f"batch {index}: +{stats['inserted']} -{stats['deleted']} "
                f"created {stats['created']} destroyed {stats['destroyed']} "
                f"({strategy})"
            )
    if args.snapshot_out:
        with open(args.snapshot_out, "wb") as fh:
            fh.write(counter.snapshot())
    if args.json:
        import json

        payload = {
            "graph": args.graph,
            "script": args.script,
            "batches": batches,
            "n_edges": counter.n_edges,
            "butterflies": counter.count,
        }
        if args.snapshot_out:
            payload["snapshot_out"] = args.snapshot_out
        print(json.dumps(payload, indent=2))
        return 0
    print(f"edges       : {counter.n_edges}")
    print(f"butterflies : {counter.count}")
    if args.snapshot_out:
        print(f"snapshot    : {args.snapshot_out}")
    return 0


def _cmd_analyze(args) -> int:
    """``repro-butterfly analyze`` — the domain lint gate (docs/analysis.md)."""
    from repro import analysis

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    report = analysis.analyze_paths(list(args.paths), rules=rules)
    if args.format == "json":
        print(analysis.render_json(report))
    else:
        print(analysis.render_text(report))
    return report.exit_code


def main(argv=None) -> int:
    """CLI entry point (installed as ``repro-butterfly``)."""
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "count": _cmd_count,
        "peel": _cmd_peel,
        "explain": _cmd_explain,
        "calibrate": _cmd_calibrate,
        "profile": _cmd_profile,
        "bench": _cmd_bench,
        "decompose": _cmd_decompose,
        "generate": _cmd_generate,
        "algorithms": _cmd_algorithms,
        "stats": _cmd_stats,
        "stream": _cmd_stream,
        "analyze": _cmd_analyze,
    }[args.command]
    try:
        code = _dispatch(handler, args)
        sys.stdout.flush()  # surface a closed pipe here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``stats ... | head -1``): not bad
        # input.  Point stdout at devnull so the interpreter's exit flush
        # cannot raise again, and exit as a SIGPIPE kill would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        # bad input (missing file, unknown rule id, malformed JSON) is a
        # usage error, exit 2 like argparse's — never 1, which means
        # "the analyzer gate ran and found something"
        print(f"repro-butterfly: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a graph too large to hold (an edge file naming vertex 10**11,
        # empty:10**11x1) is bad input too, not a crash
        print(f"repro-butterfly: error: out of memory: {exc}", file=sys.stderr)
        return 2


def _dispatch(handler, args) -> int:
    """Run one command handler, wrapped in obs capture when asked for."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    profile_out = getattr(args, "profile_out", None)
    if not metrics_out and not trace_out and not profile_out:
        return handler(args)
    from repro import obs

    obs.enable()
    if profile_out:
        obs.start_profiler(hz=getattr(args, "profile_hz", None))
    try:
        # root span: every command's trace renders as one cli.<command>
        # tree (worker spans re-parent under their dispatch span inside)
        with obs.span(f"cli.{args.command}", command=args.command):
            return handler(args)
    finally:
        if profile_out:
            obs.stop_profiler()
            obs.dump_profile(profile_out)
        if metrics_out:
            obs.dump_jsonl(metrics_out, command=args.command)
        if trace_out:
            obs.dump_trace(trace_out, command=args.command)
        obs.disable()
        obs.reset()  # keep back-to-back in-process invocations hermetic


def run() -> NoReturn:
    """Console entry point: :func:`main`, then exit without interpreter teardown.

    What a normal exit does that anyone can observe happens first, in the
    interpreter's order: non-daemon threads are joined, the ``atexit``
    hooks run (they stop worker processes and unlink shared memory), and
    stdout and stderr are flushed, a closed stdout pipe exiting 141 as in
    :func:`main`.  ``os._exit`` then skips only the module teardown.

    Before :func:`main` it defaults ``OPENBLAS_NUM_THREADS`` to 1: no
    count, peel or stream path calls a floating-point BLAS routine, yet
    OpenBLAS starts a thread pool inside ``import numpy`` (~60 ms of wall
    time, more of CPU).  Nothing imports numpy before this line
    (``import repro.cli`` loads none), a value the user exported wins,
    and the pool's workers inherit the setting.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    if "threading" in sys.modules:  # as at exit: joined only once imported
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
