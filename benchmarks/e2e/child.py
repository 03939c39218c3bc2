"""One workload trial in a fresh process: the program's side of the benchmark.

Usage (``run.py`` writes the spec and reads the result)::

    python child.py SPEC.json            # one trial of count_suite/peel_tip/stream_mixed
    python child.py --cli-op FILE OUT    # one traced, decomposed `repro-butterfly count`

A trial loads its inputs, then times ``import repro`` + program state + one
warm-up op as ``setup_s``, then runs untraced ops with a host-speed probe
between them (outside the op's time), then traced ops (the same calls
decomposed, each layer call inside a span), then the optional per-layer
analysis.  Results are written raw; ``check.py`` checks them
afterwards, outside every timed region.

Module-level imports stay stdlib-only so that the ``cli.import`` span of
``--cli-op`` sees the numpy and repro import work ``python -m repro.cli`` pays.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

from measure import Tracer, probe_host

#: the planner's pool width: min(nproc, 6), as repro.engine uses it
N_WORKERS = min(os.cpu_count() or 1, 6)

#: least time between two host-speed probes, run between untraced ops
PROBE_EVERY_S = 0.4

#: stream batches whose reads are checked against the oracle
CHECK_EVERY = 25

#: repetitions of each call in the per-layer analysis (median taken)
ANALYSIS_REPS = 3


def _timed(fn, reps):
    """Median wall time of ``reps`` calls of ``fn`` and the results."""
    times, results = [], []
    for _ in range(reps):
        t = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - t)
    return statistics.median(times), results


class CountSuite:
    """Fresh graphs from edge arrays, then auto plan + execute, per Fig. 9 shape."""

    def __init__(self, inputs: Path, spec: dict) -> None:
        from inputs import load_graph
        from shapes import SUITE

        self.graphs = {g: load_graph(inputs, g) for g in SUITE}
        self.extra = {"skewed": load_graph(inputs, "skewed")} if spec["analysis"] else {}

    def setup(self, tracer: Tracer) -> None:
        from repro import BipartiteGraph, engine
        from repro.storage import make_storage

        self.BG, self.engine, self.make_storage = BipartiteGraph, engine, make_storage

    def op(self, i: int):
        out = {}
        for g, (edges, n_left, n_right) in self.graphs.items():
            graph = self.BG(edges, n_left=n_left, n_right=n_right)
            out[g] = self.engine.plan(graph, "count").execute(graph)
        return out

    def traced_op(self, i: int, tr: Tracer):
        out = {}
        for g, (edges, n_left, n_right) in self.graphs.items():
            with tr.span("graphs.build", graph=g):
                graph = self.BG(edges, n_left=n_left, n_right=n_right)
                graph.csr, graph.csc
            with tr.span("engine.plan", graph=g):
                plan = self.engine.plan(graph, "count")
            with tr.span("storage.build", graph=g):
                view = self.make_storage(graph, plan.layout)
            with tr.span("engine.execute", graph=g):
                out[g] = self.engine.execute(plan, view)
        return out

    def encode(self, i: int, result) -> dict:
        return {g: int(v) for g, v in result.items()}

    def analysis(self, tr: Tracer) -> dict:
        """Per graph: publish, warm auto execute, serial kernel, pinned plans."""
        from repro.parallel import ButterflyExecutor, SharedGraphBuffers

        engine = self.engine
        out = {}
        dense_view = dense_plan = None
        for g, (edges, n_left, n_right) in {**self.graphs, **self.extra}.items():
            graph = self.BG(edges, n_left=n_left, n_right=n_right)
            plan = engine.plan(graph, "count")
            view = self.make_storage(graph, plan.layout)
            publish = []
            for _ in range(ANALYSIS_REPS):
                t = time.perf_counter()
                buffers = SharedGraphBuffers.publish(view)
                publish.append(time.perf_counter() - t)
                nbytes = buffers.nbytes
                buffers.unlink()
            results = [engine.execute(plan, view)]  # warms the pool publication
            auto_s, res = _timed(lambda: engine.execute(plan, view), ANALYSIS_REPS)
            results += res
            serial = plan.with_(executor="serial", workers=1)
            kernel_s, res = _timed(lambda: engine.execute(serial, view), ANALYSIS_REPS)
            results += res
            pinned = {}
            for invariant in (2, 6):
                for strategy in ("scratch", "blocked", "wedge"):
                    fixed = engine.plan(
                        graph, "count", invariant=invariant, strategy=strategy,
                        executor="serial", layout="raw",
                    )
                    pinned[fixed.label], res = _timed(lambda: engine.execute(fixed, graph), 1)
                    results += res
            out[g] = {
                "plan": plan.label,
                "publish_s": statistics.median(publish),
                "publish_bytes": nbytes,
                "auto_s": auto_s,
                "kernel_s": kernel_s,
                "pinned_s": pinned,
                "modeled_ops": plan.modeled_ops,
                "est_s": plan.est_seconds,
                "results": [int(r) for r in results],
            }
            if g == "dense":
                dense_view, dense_plan = view, plan
        starts = []
        for _ in range(ANALYSIS_REPS):
            with ButterflyExecutor(n_workers=N_WORKERS) as ex:
                first, res1 = _timed(
                    lambda: ex.count(dense_view, invariant=dense_plan.invariant, strategy="wedge"), 1
                )
                warm, res2 = _timed(
                    lambda: ex.count(dense_view, invariant=dense_plan.invariant, strategy="wedge"), 1
                )
            starts.append(first - warm)
            out["dense"]["results"] += [int(res1[0]), int(res2[0])]
        return {"graphs": out, "pool_start_s": statistics.median(starts)}


class PeelTip:
    """Fresh occupations-shape graph, bucket tip numbers, then a planned k-tip."""

    def __init__(self, inputs: Path, spec: dict) -> None:
        from inputs import load_graph

        self.edges, self.n_left, self.n_right = load_graph(inputs, "occupations")
        self.out_dir = Path(spec["out"]).parent
        self.k = None

    def setup(self, tracer: Tracer) -> None:
        from repro import BipartiteGraph, engine
        from repro.core.peeling import tip_numbers_bucket_parallel

        self.BG, self.engine, self.tip_numbers = BipartiteGraph, engine, tip_numbers_bucket_parallel

    def _k_from(self, tip):
        """K = median nonzero tip number of the warm-up op (fixed afterwards)."""
        if self.k is None:
            import numpy as np

            nonzero = tip[tip > 0]
            self.k = int(np.median(nonzero)) if nonzero.size else 1
        return self.k

    def op(self, i: int):
        graph = self.BG(self.edges, n_left=self.n_left, n_right=self.n_right)
        tip = self.tip_numbers(graph, "left", n_workers=min(2, os.cpu_count() or 1))
        result = self.engine.plan(graph, "tip", side="left", k=self._k_from(tip)).execute(graph)
        return tip, result

    def traced_op(self, i: int, tr: Tracer):
        with tr.span("graphs.build"):
            graph = self.BG(self.edges, n_left=self.n_left, n_right=self.n_right)
            graph.csr, graph.csc
        with tr.span("core.tip_numbers"):
            tip = self.tip_numbers(graph, "left", n_workers=min(2, os.cpu_count() or 1))
        with tr.span("engine.plan", graph="tip"):
            plan = self.engine.plan(graph, "tip", side="left", k=self._k_from(tip))
        with tr.span("core.k_tip"):
            result = self.engine.execute(plan, graph)
        return tip, result

    def encode(self, i: int, result) -> dict:
        import hashlib

        import numpy as np

        tip, res = result
        kept = np.asarray(res.kept, dtype=bool)
        if not (self.out_dir / "tip.npy").exists():
            np.save(self.out_dir / "tip.npy", np.asarray(tip, dtype=np.int64))
            np.save(self.out_dir / "kept.npy", kept)
        return {
            "k": self.k,
            "rounds": int(res.rounds),
            "tip": hashlib.sha1(np.asarray(tip, dtype=np.int64).tobytes()).hexdigest(),
            "kept": hashlib.sha1(kept.tobytes()).hexdigest(),
        }

    def analysis(self, tr: Tracer) -> dict:
        graph = self.BG(self.edges, n_left=self.n_left, n_right=self.n_right)
        serial_s, _ = _timed(lambda: self.tip_numbers(graph, "left", n_workers=1), ANALYSIS_REPS)
        return {"serial_tip_numbers_s": serial_s}


class StreamMixed:
    """One streaming counter over `skewed`; an op is one batch plus reads."""

    def __init__(self, inputs: Path, spec: dict) -> None:
        from inputs import iter_batches, load_graph, load_script

        self.edges, self.n_left, self.n_right = load_graph(inputs, "skewed")
        script = load_script(inputs)
        self.batches = list(iter_batches(script))
        self.reads = script["reads"].tolist()

    def setup(self, tracer: Tracer) -> None:
        from repro import BipartiteGraph, StreamingButterflyCounter, engine

        self.engine = engine
        graph = BipartiteGraph(self.edges, n_left=self.n_left, n_right=self.n_right)
        with tracer.span("core.stream.ctor"):
            self.counter = StreamingButterflyCounter(graph)

    def op(self, i: int):
        insert, delete = self.batches[i]
        counter = self.counter
        plan = self.engine.plan(counter.to_graph(), "stream_apply", batch=(insert, delete))
        stats = counter.apply(insert=insert, delete=delete, strategy=plan.strategy)
        return stats, counter.count, [counter.vertex_count(u) for u in self.reads[i]]

    def traced_op(self, i: int, tr: Tracer):
        insert, delete = self.batches[i]
        counter = self.counter
        with tr.span("graphs.to_graph"):
            graph = counter.to_graph()
        with tr.span("engine.plan", graph="stream"):
            plan = self.engine.plan(graph, "stream_apply", batch=(insert, delete))
        with tr.span("core.stream.apply"):
            stats = counter.apply(insert=insert, delete=delete, strategy=plan.strategy)
        with tr.span("core.stream.read"):
            count = counter.count
            reads = [counter.vertex_count(u) for u in self.reads[i]]
        return stats, count, reads

    def encode(self, i: int, result) -> dict:
        stats, count, reads = result
        insert, delete = self.batches[i]
        out = {
            "applied": int(stats["inserted"] + stats["deleted"]),
            "requested": int(len(insert) + len(delete)),
        }
        if i % CHECK_EVERY == CHECK_EVERY - 1:
            out["check"] = {"count": int(count), "reads": [int(v) for v in reads]}
        return out

    def final_check(self, last: int) -> dict:
        counter = self.counter
        return {
            "batch": last,
            "count": int(counter.count),
            "n_edges": int(counter.n_edges),
            "reads": [int(counter.vertex_count(u)) for u in self.reads[last]],
        }

    def analysis(self, tr: Tracer) -> dict:
        return {}


WORKLOADS = {"count_suite": CountSuite, "peel_tip": PeelTip, "stream_mixed": StreamMixed}


def _attempt(records: list, phase: str, i: int, run, encode) -> None:
    """Run one op; an exception is recorded as that op's failure."""
    t = time.perf_counter()
    try:
        result = run()
    except Exception:  # op boundary: record the failure, keep the trial going
        records.append({"i": i, "phase": phase, "wall": time.perf_counter() - t,
                        "error": traceback.format_exc(limit=4)})
        return
    wall = time.perf_counter() - t
    records.append({"i": i, "phase": phase, "wall": wall, "result": encode(i, result)})


def _executor_counts():
    from repro.parallel import get_default_executor

    ex = get_default_executor(N_WORKERS)
    return ex.dispatch_count, ex.publish_count, ex.pool_starts


def run_trial(spec: dict) -> dict:
    tracer = Tracer(id_prefix=f"{spec['workload']}:")
    work = WORKLOADS[spec["workload"]](Path(spec["inputs"]), spec)
    deadline = spec["deadline"]
    records: list[dict] = []
    t0 = time.perf_counter()
    with tracer.span("setup", op="setup"):
        work.setup(tracer)
        _attempt(records, "warmup", 0, lambda: work.op(0), work.encode)
    setup_s = time.perf_counter() - t0
    probes: dict[int, list[float]] = {}
    probed = 0.0
    for i in range(1, 1 + spec["ops"]):
        if time.monotonic() > deadline:
            break
        _attempt(records, "op", i, lambda: work.op(i), work.encode)
        if time.monotonic() - probed >= PROBE_EVERY_S:
            probe_host(1, probes)
            probed = time.monotonic()
    telemetry = []
    for j in range(spec["traced_ops"]):
        if time.monotonic() > deadline:
            break
        i = 1 + spec["ops"] + j
        before = _executor_counts()
        with tracer.span("op", op=i):
            _attempt(records, "traced", i, lambda: work.traced_op(i, tracer), work.encode)
        telemetry.append([b - a for a, b in zip(before, _executor_counts())])
    analysis = {}
    if spec["analysis"] and time.monotonic() > deadline:
        analysis = {"error": "skipped: the trial ran past its deadline"}
    elif spec["analysis"]:
        try:
            analysis = work.analysis(tracer)
        except Exception:  # reported as a failed check by run.py
            analysis = {"error": traceback.format_exc(limit=4)}
    out = {"setup_s": setup_s, "records": records, "spans": tracer.spans,
           "telemetry": telemetry, "analysis": analysis, "probes": probes}
    if isinstance(work, StreamMixed):
        last = max((r["i"] for r in records if "result" in r), default=0)
        out["final_check"] = work.final_check(last)
    from repro.parallel import live_segment_names, shutdown_default_executors

    shutdown_default_executors()
    out["live_segments"] = live_segment_names()
    return out


def cli_op(graph_file: str, out_file: str) -> None:
    """What `repro-butterfly count FILE --auto --json` does, layer by layer."""
    tracer = Tracer(id_prefix=f"cli{os.getpid()}:")
    with tracer.span("cli.import"):
        import repro.cli  # noqa: F401  (the import the CLI pays)
        from repro import engine
        from repro.graphs import load_konect
        from repro.storage import make_storage
    with tracer.span("graphs.load"):
        graph = load_konect(graph_file)
    with tracer.span("engine.plan", graph="skewed"):
        plan = engine.plan(graph, "count")
    with tracer.span("storage.build", graph="skewed"):
        view = make_storage(graph, plan.layout)
    with tracer.span("engine.execute", graph="skewed"):
        count = engine.execute(plan, view)
    with open(out_file, "w") as fh:
        json.dump({"butterflies": int(count), "spans": tracer.spans}, fh)


def main(argv: list[str]) -> int:
    if argv[0] == "--cli-op":
        cli_op(argv[1], argv[2])
        return 0
    with open(argv[0]) as fh:
        spec = json.load(fh)
    out = run_trial(spec)
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
