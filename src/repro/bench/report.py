"""One-shot evaluation report generator.

``python -m repro.bench.report [--out report.md] [--datasets a,b] [--quick]``
runs the Fig. 9 / Fig. 10 / Fig. 11 sweeps programmatically and writes a
markdown report in the layout EXPERIMENTS.md quotes — useful for
regenerating the record on new hardware without going through pytest.

The same functions are importable, so the tests drive them on a reduced
dataset list.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import Sweep, TimedResult, time_callable
from repro.bench.tables import format_markdown_table
from repro.core import (
    ALL_INVARIANTS,
    count_butterflies_parallel,
    count_butterflies_unblocked,
)
from repro.graphs import dataset_names, graph_stats, load_dataset, paper_stats

__all__ = ["fig9_report", "fig10_report", "fig11_report", "full_report", "main"]


def fig9_report(datasets: list[str]) -> str:
    """The dataset-statistics table (Fig. 9), stand-ins vs paper."""
    header = [
        "Dataset", "|V1|", "|V2|", "|E|", "butterflies",
        "paper |V1|", "paper |V2|", "paper |E|", "paper bf",
    ]
    rows = []
    for name in datasets:
        g = load_dataset(name)
        s = graph_stats(g)
        p = paper_stats(name)
        count = count_butterflies_unblocked(g, 2)
        rows.append([
            name, s.n_left, s.n_right, s.n_edges, count,
            p["n_left"], p["n_right"], p["n_edges"], p["butterflies"],
        ])
    return format_markdown_table(header, rows, title="fig9 — dataset statistics")


def _grid_sweep(
    datasets: list[str], runner, title: str, repeats: int = 1
) -> tuple[Sweep, str]:
    sweep = Sweep(title=title)
    for name in datasets:
        g = load_dataset(name)
        for inv in ALL_INVARIANTS:
            res = time_callable(
                lambda g=g, inv=inv: runner(g, inv), repeats=repeats
            )
            sweep.record(name, f"Inv. {inv.number}", TimedResult(
                label=f"{name}/inv{inv.number}",
                seconds=res.seconds,
                value=res.value,
            ))
    header = ["Dataset"] + sweep.columns
    rows = []
    for name in sweep.rows:
        rows.append(
            [name] + [f"{sweep.get(name, c).seconds:.4f}" for c in sweep.columns]
        )
    return sweep, format_markdown_table(header, rows, title=title)


def fig10_report(datasets: list[str], repeats: int = 1) -> str:
    """The sequential 8-invariant timing grid (Fig. 10), spmv strategy."""
    sweep, md = _grid_sweep(
        datasets,
        lambda g, inv: count_butterflies_unblocked(g, inv, strategy="spmv"),
        "fig10 — sequential times (spmv), seconds",
        repeats,
    )
    if not sweep.values_agree():
        raise AssertionError("family members disagree — do not publish this run")
    return md


def fig11_report(
    datasets: list[str], n_workers: int = 6, repeats: int = 1
) -> str:
    """The parallel 8-invariant timing grid (Fig. 11), shared pool."""
    sweep, md = _grid_sweep(
        datasets,
        lambda g, inv: count_butterflies_parallel(
            g, n_workers=n_workers, executor="shared", invariant=inv,
            strategy="spmv",
        ),
        f"fig11 — parallel times ({n_workers} shared workers, spmv), seconds",
        repeats,
    )
    if not sweep.values_agree():
        raise AssertionError("parallel counts disagree — do not publish this run")
    return md


def full_report(datasets: list[str] | None = None, n_workers: int = 6) -> str:
    """All three tables concatenated as one markdown document."""
    datasets = datasets or dataset_names()
    parts = [
        "# Evaluation report (generated by repro.bench.report)",
        "",
        fig9_report(datasets),
        "",
        fig10_report(datasets),
        "",
        fig11_report(datasets, n_workers=n_workers),
        "",
    ]
    return "\n".join(parts)


def record_run(datasets: list[str] | None = None, n_workers: int = 6) -> dict:
    """Run the fig10 and fig11 grids and return the sweeps (for saving).

    The shipped ``results/reference_run.json`` is produced by this
    function; ``repro.bench.results.compare_runs`` diffs a fresh run
    against it.
    """
    datasets = datasets or dataset_names()
    fig10, _ = _grid_sweep(
        datasets,
        lambda g, inv: count_butterflies_unblocked(g, inv, strategy="spmv"),
        "fig10 — sequential times (spmv), seconds",
    )
    fig11, _ = _grid_sweep(
        datasets,
        lambda g, inv: count_butterflies_parallel(
            g, n_workers=n_workers, executor="shared", invariant=inv,
            strategy="spmv",
        ),
        f"fig11 — parallel times ({n_workers} shared workers, spmv), seconds",
    )
    return {"fig10": fig10, "fig11": fig11}


def main(argv=None) -> int:
    """CLI for the report generator."""
    parser = argparse.ArgumentParser(prog="python -m repro.bench.report")
    parser.add_argument("--out", default=None, help="write markdown here "
                        "(default: stdout)")
    parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated subset (default: all five Fig. 9 stand-ins)",
    )
    parser.add_argument("--workers", type=int, default=6)
    parser.add_argument(
        "--save-json",
        default=None,
        help="additionally record the fig10/fig11 sweeps to this JSON file",
    )
    parser.add_argument(
        "--compare-to",
        default=None,
        help="JSON file from a previous --save-json run; prints time-ratio "
        "tables (this run / recorded run)",
    )
    args = parser.parse_args(argv)
    datasets = args.datasets.split(",") if args.datasets else None
    report = full_report(datasets, n_workers=args.workers)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    if args.save_json or args.compare_to:
        from repro.bench.results import compare_runs, load_run, save_run

        sweeps = record_run(datasets, n_workers=args.workers)
        if args.save_json:
            save_run(sweeps, args.save_json)
            print(f"recorded sweeps to {args.save_json}")
        if args.compare_to:
            recorded = load_run(args.compare_to)
            for name in sorted(set(sweeps) & set(recorded)):
                cmpn = compare_runs(recorded[name], sweeps[name],
                                    title=f"{name}: this run / recorded")
                print()
                print(cmpn.render())
                print(f"geometric mean: {cmpn.geometric_mean():.2f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
