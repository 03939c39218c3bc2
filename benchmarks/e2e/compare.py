"""Compare two sets of benchmark runs, metric by metric, against BENCHMARK.json bounds.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are each a report written by ``run.py --out`` or a
directory of them (one run per file, e.g. one per seed and workload).  For
every workload both sides ran and every end-to-end metric it prints each
side's median and quartiles over its runs, the change of B against A, and
a verdict:

- ``unresolved``: either side's run-to-run spread (IQR / median) is wider
  than the bound, unless every run of B reads better than every run of A;
- ``regressed`` / ``improved``: B's median is worse / better than A's by
  more than the bound;
- ``ok``: otherwise.

Failed ops are listed per side; any failed op in B is a regression.  The
exit code is 1 when anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import quartiles
from run import ROOT, WORKLOADS


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise SystemExit(f"no reports found at {path}")
    return runs


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict for one metric, and B's change against A (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    worse = sign * (mb - ma) / ma
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
    if spread > bound and not b_always_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound or (spread > bound and b_always_better):
        return "improved", worse
    return "ok", worse


def values(runs: list[dict], workload: str, key) -> list:
    return [key(r["workloads"][workload]) for r in runs if workload in r.get("workloads", {})]


def compare(runs_a: list[dict], runs_b: list[dict], bench: dict) -> tuple[list[str], bool]:
    """Table lines for every workload both sets ran, and whether anything regressed."""
    lines, regressed = [], False
    lines.append(f"{'workload':13s} {'metric':12s} {'A median [q1, q3]':>34s} "
                 f"{'B median [q1, q3]':>34s} {'B vs A':>8s}  verdict")
    seen_a = {w for r in runs_a for w in r.get("workloads", {})}
    seen_b = {w for r in runs_b for w in r.get("workloads", {})}
    for w in [w for w in WORKLOADS if w in seen_a and w in seen_b]:
        for m in bench["end_to_end"]:
            name = m["name"]
            a = values(runs_a, w, lambda e: e["metrics"][name]["value"])
            b = values(runs_b, w, lambda e: e["metrics"][name]["value"])
            if None in a or None in b:
                lines.append(f"{w:13s} {name:12s} missing values")
                regressed = True
                continue
            what, change = verdict(a, b, m["better"], m["bound"])
            regressed |= what == "regressed"
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            lines.append(
                f"{w:13s} {name:12s} {ma:12.5g} [{qa1:9.5g}, {qa3:9.5g}] "
                f"{mb:12.5g} [{qb1:9.5g}, {qb3:9.5g}] {change:+8.2%}  {what} (bound {m['bound']:.0%})"
            )
        fail_a = f"{sum(values(runs_a, w, lambda e: e['failed']))}/{sum(values(runs_a, w, lambda e: e['attempted']))}"
        failed_b = sum(values(runs_b, w, lambda e: e["failed"]))
        fail_b = f"{failed_b}/{sum(values(runs_b, w, lambda e: e['attempted']))}"
        regressed |= failed_b > 0
        lines.append(f"{w:13s} {'failed ops':12s} {fail_a:>34s} {fail_b:>34s} {'':8s}  "
                     f"{'regressed' if failed_b else 'ok'}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    print(f"A: {len(runs_a)} run(s) from {argv[0]}; B: {len(runs_b)} run(s) from {argv[1]}")
    lines, regressed = compare(runs_a, runs_b, bench)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
