"""End-to-end benchmark of the butterfly-counting program: four workloads.

    python3 benchmarks/e2e/run.py --workload count_suite --seed 0 --seconds 9 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --out e2e.json --trace-out trace.json
    python3 benchmarks/e2e/run.py --quick --out quick.json --trace-out trace.json

Without ``--workload`` every workload runs.  ``--trace 1`` runs only the
traced decomposition (always all four workloads, so a traced run reports
the whole per-layer catalogue); ``--trace-out`` adds it to an untraced run
and writes the spans as Chrome trace JSON.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end ones, or per-layer ones with ``--trace 1``).  The exit
code is 1 when any check failed and 2 when the program is not there.

Load is a closed loop with one client.  Each trial is a fresh child
process (``child.py``) with observability off, the drift ledger off and
a calibration path that does not exist, so plans come from the shipped
defaults.  Inputs are generated from ``--seed`` by benchmark-owned code
(``inputs.py``) into a temporary directory under ``.e2e_tmp/``, and
``check.py`` checks every output against ``oracle.py`` after the trials.

Op and set-up times are corrected for the host's speed: each is divided
by its trial's ``host_slowdown``, the time of a fixed benchmark-owned
kernel (``measure.probe_host``) run on every CPU around and between the
trial's ops, relative to that kernel's time on the reference host.  On a
shared VM the speed of a CPU moves by a third from one minute to the
next, and this is what keeps those swings out of the end-to-end metrics.
The uncorrected median (``wall_op_p50_s``) and the slowdown itself are in
the ``--out`` report.

This script imports nothing beyond the standard library: Linux carries a
process's peak RSS into ``ru_maxrss`` of every program it execs, so a
lean parent is what keeps ``peak_rss_mb`` a measure of the program alone.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from measure import Tracer, chrome_trace, host_slowdown, nearest_rank, probe_host, quartiles, self_times
from shapes import SUITE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("cli_count", "count_suite", "peel_tip", "stream_mixed")

#: trials per workload, each in a fresh process; setup_s is their median
TRIALS = 3
#: 3 x 14 = 42 ops, so p75 has at least ten samples beyond it
MIN_OPS_PER_TRIAL = 14
#: op wall time on the reference host (2 CPUs); fixes the op count of a
#: run from --seconds, so both sides of a comparison do the same work
NOMINAL_OP_S = {"cli_count": 0.55, "count_suite": 0.6, "peel_tip": 0.6, "stream_mixed": 0.04}
#: traced run: traced ops per workload, plus untraced ops for the overhead
TRACE_OPS, TRACE_UNTRACED_OPS = 5, 3
#: `python -c ...` repetitions behind cli.interpreter_s / cli.import_s
PROBES = 5
#: wall-clock budget of one workload (or of the traced run), seconds
BUDGET_S = 165.0
#: per-subprocess cap of one CLI op
CLI_OP_TIMEOUT_S = 30.0
#: host-speed probes per CPU before and after each trial, and after each
#: CLI op (a trial child probes between its own ops)
PROBE_REPS, CLI_PROBE_REPS = 5, 1

QUICK = {"scale": 0.1, "trials": 1, "ops": 3, "stream_ops": 26, "trace_ops": 2, "trace_untraced": 1}

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_p75_s", "s"),
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

GRAPHS = SUITE + ("skewed",)


def per_layer_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    cat = [("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("graphs.load_s", "s")]
    cat += [(f"graphs.build_s.{g}", "s") for g in SUITE]
    cat += [("graphs.to_graph_s", "s")]
    cat += [(f"engine.plan_s.{g}", "s") for g in GRAPHS + ("stream", "tip")]
    cat += [(f"engine.execute_s.{g}", "s") for g in GRAPHS]
    cat += [(f"engine.plan_regret.{g}", "ratio") for g in GRAPHS]
    cat += [(f"engine.est_rel_err.{g}", "ratio") for g in GRAPHS]
    cat += [(f"storage.build_s.{g}", "s") for g in GRAPHS]
    cat += [("parallel.pool_start_s", "s")]
    cat += [(f"parallel.publish_s.{g}", "s") for g in GRAPHS]
    cat += [(f"parallel.publish_bytes.{g}", "B") for g in GRAPHS]
    for w in ("count_suite", "peel_tip"):
        cat += [(f"parallel.{c}_per_op.{w}", "count") for c in ("dispatches", "publishes", "pool_starts")]
    cat += [(f"parallel.speedup_x.{g}", "x") for g in GRAPHS]
    cat += [("parallel.peel_speedup_x", "x")]
    cat += [(f"core.kernel_s.{g}", "s") for g in GRAPHS]
    cat += [(f"core.modeled_ops.{g}", "count") for g in GRAPHS]
    cat += [(f"core.ns_per_op.{g}", "ns") for g in GRAPHS]
    cat += [("core.tip_numbers_s", "s"), ("core.k_tip_s", "s"), ("core.k_tip_rounds", "count")]
    cat += [("core.stream.ctor_s", "s"), ("core.stream.apply_s", "s"), ("core.stream.read_s", "s"),
            ("core.stream.updates_per_op", "count"), ("core.stream.apply_yield", "ratio")]
    cat += [(f"unattributed_s.{w}", "s") for w in WORKLOADS]
    cat += [(f"trace.overhead_ratio.{w}", "ratio") for w in WORKLOADS]
    return cat


#: span names whose per-op self time is a metric: <span>_s[.<graph>]
SPAN_METRICS = frozenset({
    "graphs.build", "graphs.load", "graphs.to_graph", "engine.plan", "storage.build",
    "engine.execute", "core.tip_numbers", "core.k_tip", "core.stream.ctor",
    "core.stream.apply", "core.stream.read",
})


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def child_env(tmp: Path) -> dict:
    """Hermetic environment: obs off, no drift ledger, no calibration file."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_OBS="0",
        REPRO_DRIFT_LEDGER="off",
        REPRO_CALIBRATION=str(tmp / "no-calibration.json"),
        TMPDIR=str(tmp),
        PYTHONHASHSEED="0",
    )
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(argv: list[str], env: dict, cwd: Path, timeout: float, log: Path):
    """Run ``argv`` to completion; returns (exit code, rusage, stdout, wall s).

    The child gets its own process group, killed whole on timeout, so pool
    workers cannot outlive it.  ``os.wait4`` reaps it and reports its
    peak RSS, which covers the pool workers it reaped.
    """
    out_path, err_path = log.with_name(log.name + ".out"), log.with_name(log.name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stragglers of a child that died without its pool
    return proc.returncode, usage, out_path.read_text(errors="replace"), wall


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
class Outcome:
    """Op records, failures and resource use gathered over trials.

    ``failures`` name failed ops; ``problems`` are failed checks that are
    not ops (a leaked segment, a wrong analysis result, a dead child).
    """

    def __init__(self) -> None:
        self.walls: list[float] = []       # timed ops, math.inf if failed
        self.measured: list[float] = []    # timed ops as measured
        self.raw: list[float] = []         # timed ops before the host-speed correction
        self.setups: list[float] = []
        self.slowdowns: list[float] = []
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def add(self, records: list[dict], reasons: list[str | None], planned: int, timed: str = "op",
            slowdown: float = 1.0, setup: float | None = None) -> None:
        """Fold one trial in; ops planned but never run count as failures.

        Op and set-up times are divided by the trial's host ``slowdown``.
        """
        self.slowdowns.append(slowdown)
        if setup is not None:
            self.setups.append(setup / slowdown)
        for r, why in zip(records, reasons):
            self.attempted += 1
            if why is not None:
                self.failed += 1
                self.failures.append(f"op {r['i']}: {why}")
            if r["phase"] == timed:
                self.raw.append(r["wall"])
                self.measured.append(r["wall"] / slowdown)
                self.walls.append(r["wall"] / slowdown if why is None else math.inf)
        missing = planned - len(records)
        if missing > 0:
            self.attempted += missing
            self.failed += missing
            self.failures.append(f"{missing} op(s) never completed")
            self.walls += [math.inf] * missing

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def messages(self) -> list[str]:
        return (self.problems + self.failures)[:20]

    def metrics(self) -> dict:
        finite = [w for w in self.walls if math.isfinite(w)] or [math.nan]
        q1, _, q3 = quartiles(finite)
        s1, s2, s3 = quartiles(self.setups or [math.nan])
        total = sum(self.measured)
        n = len(self.walls)
        return {
            "op_p50_s": {"value": nearest_rank(self.walls, 50), "unit": "s", "n": n, "q1": q1, "q3": q3},
            "op_p75_s": {"value": nearest_rank(self.walls, 75), "unit": "s", "n": n, "q1": q1, "q3": q3},
            "ops_per_s": {"value": len(self.measured) / total if total else math.nan,
                          "unit": "ops/s", "n": len(self.measured)},
            "setup_s": {"value": s2, "unit": "s", "n": len(self.setups), "q1": s1, "q3": s3},
            "peak_rss_mb": {"value": self.rss_kb / 1024.0, "unit": "MB", "n": len(self.setups)},
            "fail_rate": {"value": self.failed / max(self.attempted, 1), "unit": "ratio", "n": self.attempted},
            "wall_op_p50_s": {"value": nearest_rank(self.raw, 50) if self.raw else math.nan,
                              "unit": "s", "n": len(self.raw)},
            "host_slowdown": {"value": statistics.median(self.slowdowns) if self.slowdowns else math.nan,
                              "unit": "x", "n": len(self.slowdowns)},
        }


# ----------------------------------------------------------------------
# inputs, trials, checks
# ----------------------------------------------------------------------
class Context:
    """Settings and scratch space shared by one benchmark invocation."""

    def __init__(self, args, tmp: Path) -> None:
        self.seed = args.seed
        self.quick = args.quick
        self.tmp = tmp
        self.env = child_env(tmp)
        self.scale = QUICK["scale"] if args.quick else 1.0
        self.trials = QUICK["trials"] if args.quick else TRIALS
        self.trace_ops = QUICK["trace_ops"] if args.quick else TRACE_OPS
        self.trace_untraced = QUICK["trace_untraced"] if args.quick else TRACE_UNTRACED_OPS
        self.seconds = args.seconds

    def ops_per_trial(self, workload: str) -> int:
        if self.quick:
            return QUICK["stream_ops"] if workload == "stream_mixed" else QUICK["ops"]
        return max(MIN_OPS_PER_TRIAL, round(self.seconds / TRIALS / NOMINAL_OP_S[workload]))

    def inputs(self, workload: str) -> Path:
        """Generate (once, in a helper process) the workload's input directory."""
        directory = self.tmp / workload / "inputs"
        if not (directory / "manifest.json").exists():
            batches = 1 + max(self.ops_per_trial(workload), self.trace_untraced + self.trace_ops)
            argv = [sys.executable, str(HERE / "inputs.py"), str(directory), workload,
                    str(self.seed), str(self.scale), str(batches)]
            code, _, _, _ = run_process(argv, self.env, self.tmp, 120.0, self.tmp / f"inputs-{workload}")
            if code != 0:
                raise RuntimeError(f"generating {workload} inputs failed with exit code {code}")
        return directory

    def check(self, workload: str, trials: list[dict], analysis_counts=None) -> dict:
        """Run ``check.py`` over the trials' records; reasons per record."""
        request = self.tmp / workload / "check-request.json"
        response = self.tmp / workload / "check-response.json"
        request.write_text(json.dumps({"workload": workload, "inputs": str(self.inputs(workload)),
                                       "trials": trials, "analysis_counts": analysis_counts or {}}))
        argv = [sys.executable, str(HERE / "check.py"), str(request), str(response)]
        code, _, _, _ = run_process(argv, self.env, self.tmp, 300.0, self.tmp / workload / "check")
        if code != 0:
            return {"reasons": [["the check itself failed"] * len(t["records"]) for t in trials],
                    "problems": [f"check.py exited with code {code}"]}
        return json.loads(response.read_text())


def trial_deadline(end: float, trials_left: int) -> float:
    now = time.monotonic()
    return now + max(1.0, (end - now - 5.0) / max(trials_left, 1))


def run_child_trial(ctx: Context, workload: str, trial_dir: Path, ops: int, traced: int,
                    analysis: bool, deadline: float):
    """One fresh child process; returns (its result dict or None, exit code, rusage)."""
    trial_dir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "inputs": str(ctx.inputs(workload)), "out": str(trial_dir / "result.json"),
            "ops": ops, "traced_ops": traced, "analysis": analysis, "deadline": deadline}
    (trial_dir / "spec.json").write_text(json.dumps(spec))
    code, usage, _, _ = run_process(
        [sys.executable, str(HERE / "child.py"), str(trial_dir / "spec.json")],
        ctx.env, ctx.tmp, deadline - time.monotonic() + 15.0, trial_dir / "child",
    )
    result = None
    if code == 0 and (trial_dir / "result.json").exists():
        result = json.loads((trial_dir / "result.json").read_text())
    return result, code, usage


def cli_op(ctx: Context, i: int, phase: str, log: Path, end: float) -> tuple[dict, int]:
    """One `repro-butterfly count` subprocess as an op record (+ its peak RSS)."""
    graph = ctx.inputs("cli_count") / "skewed.konect"
    argv = [sys.executable, "-m", "repro.cli", "count", str(graph), "--auto", "--json"]
    code, usage, stdout, wall = run_process(
        argv, ctx.env, ctx.tmp, min(CLI_OP_TIMEOUT_S, end - time.monotonic()), log)
    record = {"i": i, "phase": phase, "wall": wall}
    try:
        if code != 0:
            raise ValueError(f"exit code {code}")
        record["result"] = {"skewed": json.loads(stdout.strip().splitlines()[-1])["butterflies"]}
    except (ValueError, KeyError, IndexError) as exc:
        record["error"] = f"cli count failed: {exc}"
    return record, usage.ru_maxrss


def measure_workload(ctx: Context, workload: str) -> dict:
    """Untraced trials of one workload; returns its report entry."""
    end = time.monotonic() + BUDGET_S
    ops = ctx.ops_per_trial(workload)
    ctx.inputs(workload)
    shm_before = shm_entries()
    outcome = Outcome()
    trials = []
    for t in range(ctx.trials):
        trial_dir = ctx.tmp / workload / f"trial{t}"
        trial_dir.mkdir(parents=True, exist_ok=True)
        trial = {"dir": str(trial_dir), "records": [], "setup": None}
        probes = probe_host(PROBE_REPS)
        if workload == "cli_count":
            for i in range(ops + 1):
                if time.monotonic() > end - CLI_OP_TIMEOUT_S / 3:
                    break
                record, rss = cli_op(ctx, i, "warmup" if i == 0 else "op", trial_dir / f"op{i}", end)
                probe_host(CLI_PROBE_REPS, probes)
                outcome.rss_kb = max(outcome.rss_kb, rss)
                trial["records"].append(record)
            if trial["records"]:
                trial["setup"] = trial["records"][0]["wall"]
        else:
            result, code, usage = run_child_trial(
                ctx, workload, trial_dir, ops, 0, False, trial_deadline(end, ctx.trials - t))
            probe_host(PROBE_REPS, probes)
            outcome.rss_kb = max(outcome.rss_kb, usage.ru_maxrss)
            if result is None:
                outcome.problems.append(f"trial {t}: child exited with code {code}")
            else:
                if result["live_segments"]:
                    outcome.problems.append(
                        f"trial {t}: shared-memory segments left live: {result['live_segments']}")
                trial.update(records=result["records"], setup=result["setup_s"],
                             final_check=result.get("final_check"))
                for cpu, times in result["probes"].items():
                    probes.setdefault(int(cpu), []).extend(times)
        trial["slowdown"] = host_slowdown(probes)
        trial["probe_s"] = {cpu: statistics.median(v) for cpu, v in sorted(probes.items())}
        trials.append(trial)
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        outcome.problems.append(f"new /dev/shm entries after the workload: {leaked}")
    checked = ctx.check(workload, trials)
    outcome.problems += checked["problems"]
    for trial, reasons in zip(trials, checked["reasons"]):
        outcome.add(trial["records"], reasons, ops + 1, slowdown=trial["slowdown"], setup=trial["setup"])
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.correct,
        "failures": outcome.messages(),
        "ops_per_trial": ops,
        "trials": ctx.trials,
        "probe_s": [t["probe_s"] for t in trials],
        "metrics": outcome.metrics(),
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _med(values) -> float:
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def traced_cli(ctx: Context, end: float, outcome: Outcome, spans: list[dict]) -> tuple[dict, list[float]]:
    """Probes, untraced CLI ops, then CLI ops decomposed by ``child.py --cli-op``."""
    cli_dir = ctx.tmp / "trace" / "cli_count"
    cli_dir.mkdir(parents=True, exist_ok=True)
    probe = {}
    for name, code in (("interpreter", "pass"), ("import", "import repro.cli")):
        walls = []
        for p in range(PROBES):
            rc, _, _, wall = run_process([sys.executable, "-c", code], ctx.env, ctx.tmp, 30.0,
                                         cli_dir / f"probe-{name}{p}")
            walls.append(wall if rc == 0 else math.nan)
            if rc != 0:
                outcome.problems.append(f"`python -c {code!r}` exited with code {rc}")
        probe[name] = _med(walls)
    metrics = {"cli.interpreter_s": probe["interpreter"],
               "cli.import_s": probe["import"] - probe["interpreter"]}
    records = [cli_op(ctx, i, "warmup" if i == 0 else "op", cli_dir / f"op{i}", end)[0]
               for i in range(1 + ctx.trace_untraced)]
    untraced = [r["wall"] for r in records if r["phase"] == "op"]
    tracer = Tracer(id_prefix="cli_count:")
    graph = ctx.inputs("cli_count") / "skewed.konect"
    for j in range(ctx.trace_ops):
        i = 1 + ctx.trace_untraced + j
        out = cli_dir / f"traced{j}.json"
        with tracer.span("op", op=i):
            rc, _, _, wall = run_process(
                [sys.executable, str(HERE / "child.py"), "--cli-op", str(graph), str(out)],
                ctx.env, ctx.tmp, min(CLI_OP_TIMEOUT_S, end - time.monotonic()), cli_dir / f"traced{j}")
        record = {"i": i, "phase": "traced", "wall": wall}
        if rc == 0:
            payload = json.loads(out.read_text())
            record["result"] = {"skewed": payload["butterflies"]}
            for s in payload["spans"]:
                spans.append(dict(s, parent=s["parent"] or tracer.spans[-1]["id"], op=i, pid=1))
        else:
            record["error"] = f"traced cli op exited with code {rc}"
        records.append(record)
    spans += [dict(s, pid=1) for s in tracer.spans]
    checked = ctx.check("cli_count", [{"dir": str(cli_dir), "records": records}])
    outcome.problems += checked["problems"]
    outcome.add(records, checked["reasons"][0], len(records), timed="traced")
    return metrics, untraced


def traced_run(ctx: Context) -> tuple[dict, list[dict], Outcome]:
    """Decompose every workload's op into layer calls; per-layer metrics + spans."""
    end = time.monotonic() + BUDGET_S
    outcome = Outcome()
    spans: list[dict] = []
    shm_before = shm_entries()
    metrics, cli_untraced = traced_cli(ctx, end, outcome, spans)
    untraced_walls = {"cli_count": cli_untraced}
    analysis, telemetry, traced_records = {}, {}, {}
    for pid, workload in enumerate(WORKLOADS[1:], start=2):
        trial_dir = ctx.tmp / "trace" / workload
        deadline = trial_deadline(end, len(WORKLOADS) - pid + 1)
        result, code, _ = run_child_trial(
            ctx, workload, trial_dir, ctx.trace_untraced, ctx.trace_ops, True, deadline)
        planned = 1 + ctx.trace_untraced + ctx.trace_ops
        if result is None:
            outcome.problems.append(f"traced {workload}: child exited with code {code}")
            outcome.add([], [], planned)
            continue
        if "error" in result["analysis"]:
            outcome.problems.append(f"traced {workload} analysis: {result['analysis']['error'].splitlines()[-1]}")
        if result["live_segments"]:
            outcome.problems.append(f"traced {workload}: shared-memory segments left live")
        records = result["records"]
        counts = {g: a["results"] for g, a in result["analysis"].get("graphs", {}).items()}
        checked = ctx.check(workload, [{"dir": str(trial_dir), "records": records,
                                        "final_check": result.get("final_check")}], counts)
        outcome.problems += checked["problems"]
        outcome.add(records, checked["reasons"][0], planned, timed="traced")
        untraced_walls[workload] = [r["wall"] for r in records if r["phase"] == "op"]
        spans += [dict(s, pid=pid) for s in result["spans"]]
        analysis[workload] = result["analysis"]
        telemetry[workload] = result["telemetry"]
        traced_records[workload] = [r for r in records if r["phase"] == "traced" and "result" in r]
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        outcome.problems.append(f"new /dev/shm entries after the traced run: {leaked}")
    metrics.update(layer_metrics(spans, untraced_walls, analysis, telemetry, traced_records))
    report = {name: {"value": metrics.get(name, math.nan), "unit": unit}
              for name, unit in per_layer_catalogue()}
    return report, spans, outcome


def layer_metrics(spans, untraced_walls, analysis, telemetry, traced_records) -> dict[str, float]:
    """Per-layer metrics from span self times, the analysis and telemetry."""
    selfs = self_times(spans)
    per_op: dict[str, dict] = {}
    for s in spans:
        if s["name"] in SPAN_METRICS:
            name = f"{s['name']}_s" + (f".{s['graph']}" if s.get("graph") else "")
            ops = per_op.setdefault(name, {})
            ops[s["op"]] = ops.get(s["op"], 0.0) + selfs[s["id"]]
    out = {name: _med(ops.values()) for name, ops in per_op.items()}
    for pid, w in enumerate(WORKLOADS, start=1):
        ops = [s for s in spans if s["name"] == "op" and s["pid"] == pid]
        if ops:
            out[f"unattributed_s.{w}"] = _med(selfs[s["id"]] for s in ops)
            traced = _med(s["end"] - s["start"] for s in ops)
            out[f"trace.overhead_ratio.{w}"] = traced / _med(untraced_walls.get(w, [])) - 1.0
    suite = analysis.get("count_suite", {})
    for g, a in suite.get("graphs", {}).items():
        out[f"parallel.publish_s.{g}"] = a["publish_s"]
        out[f"parallel.publish_bytes.{g}"] = a["publish_bytes"]
        out[f"engine.plan_regret.{g}"] = a["auto_s"] / min(a["pinned_s"].values())
        out[f"engine.est_rel_err.{g}"] = abs(a["est_s"] - a["auto_s"]) / a["auto_s"]
        out[f"parallel.speedup_x.{g}"] = a["kernel_s"] / a["auto_s"]
        out[f"core.kernel_s.{g}"] = a["kernel_s"]
        out[f"core.modeled_ops.{g}"] = a["modeled_ops"]
        out[f"core.ns_per_op.{g}"] = a["kernel_s"] / max(a["modeled_ops"], 1) * 1e9
    if "pool_start_s" in suite:
        out["parallel.pool_start_s"] = suite["pool_start_s"]
    serial_tip = analysis.get("peel_tip", {}).get("serial_tip_numbers_s")
    if serial_tip is not None and "core.tip_numbers_s" in out:
        out["parallel.peel_speedup_x"] = serial_tip / out["core.tip_numbers_s"]
    for w in ("count_suite", "peel_tip"):
        deltas = telemetry.get(w) or []
        for k, name in enumerate(("dispatches", "publishes", "pool_starts")):
            if deltas:
                out[f"parallel.{name}_per_op.{w}"] = statistics.mean(d[k] for d in deltas)
    peel = traced_records.get("peel_tip") or []
    if peel:
        out["core.k_tip_rounds"] = _med(r["result"]["rounds"] for r in peel)
    stream = traced_records.get("stream_mixed") or []
    if stream:
        out["core.stream.updates_per_op"] = _med(r["result"]["applied"] for r in stream)
        requested = sum(r["result"]["requested"] for r in stream)
        out["core.stream.apply_yield"] = sum(r["result"]["applied"] for r in stream) / max(requested, 1)
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _clean(obj):
    """``obj`` with non-finite floats as null, so the JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        extra = f"  n={m['n']}" if "n" in m else ""
        if "q1" in m and math.isfinite(m["q1"]):
            extra += f"  q1={m['q1']:.6g} q3={m['q3']:.6g}"
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:40s} {shown:>14s} {m['unit']:6s}{extra}")


def parse_args(argv):
    bench = ROOT / "BENCHMARK.json"
    default_seconds = json.loads(bench.read_text())["run_seconds"] if bench.exists() else 9
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", "--workloads", nargs="+", choices=WORKLOADS, default=None,
                   help="workloads to run (default: all four)")
    p.add_argument("--seed", type=int, default=0, help="drives every input generator")
    p.add_argument("--seconds", type=float, default=default_seconds,
                   help="nominal op time of one run; fixes the op count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: run only the traced decomposition and report per-layer metrics")
    p.add_argument("--trace-out", type=Path, default=None, help="write the traced run's spans here")
    p.add_argument("--out", type=Path, default=None, help="write the full report (JSON) here")
    p.add_argument("--quick", action="store_true", help="tiny inputs, one trial (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "repro"), quiet=1)  # the build: warm .pyc files
    scratch_root = ROOT / ".e2e_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        return execute(args, Context(args, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass


def execute(args, ctx: Context) -> int:
    selected = args.workload or list(WORKLOADS)
    report = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
              "cpu_count": os.cpu_count(), "python": platform.python_version(),
              "machine": platform.machine(), "workloads": {}}
    attempted = failed = 0
    correct = True
    final_metrics = {}
    if args.trace == 0:
        for w in selected:
            entry = measure_workload(ctx, w)
            report["workloads"][w] = entry
            attempted += entry["attempted"]
            failed += entry["failed"]
            correct &= entry["correct"]
            print_table(f"{w} ({entry['trials']} trial(s) x {entry['ops_per_trial']} ops)", entry["metrics"])
            for why in entry["failures"]:
                print(f"  FAILED: {why}", file=sys.stderr)
            prefix = "" if len(selected) == 1 else f"{w}."
            for name, unit in END_TO_END:
                final_metrics[prefix + name] = {"value": entry["metrics"][name]["value"], "unit": unit}
    if args.trace == 1 or args.trace_out is not None:
        layers, spans, outcome = traced_run(ctx)
        report["per_layer"] = layers
        report["trace"] = {"attempted": outcome.attempted, "failed": outcome.failed,
                           "failures": outcome.messages()}
        attempted += outcome.attempted
        failed += outcome.failed
        correct &= outcome.correct
        print_table("per-layer (traced run)", layers)
        for why in outcome.messages():
            print(f"  FAILED: {why}", file=sys.stderr)
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps(_clean(chrome_trace(spans))))
        if args.trace == 1:
            final_metrics = dict(layers)
    report["correct"] = correct
    if args.out is not None:
        args.out.write_text(json.dumps(_clean(report), indent=1))
    print(json.dumps(_clean({"correct": correct, "attempted": attempted, "failed": failed,
                             "metrics": final_metrics})))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
