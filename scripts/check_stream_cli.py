"""Replay every committed stream script under three ``stream`` strategies.

Each ``tests/data/stream_scripts/<m>x<n>__<name>.txt`` is replayed with

    python -m repro.cli stream empty:MxN SCRIPT --json --strategy incremental
    python -m repro.cli stream empty:MxN SCRIPT --json --strategy recount
    python -m repro.cli stream empty:MxN SCRIPT --json --strategy auto

(``auto``, the CLI default, plans every batch through ``engine.plan``)
and the three reports must agree on ``butterflies``, ``n_edges`` and every
field of every batch row but ``strategy``, the one that names how the
batch ran.  Exits 1 on any disagreement or CLI failure, 0 otherwise:

    PYTHONPATH=src python scripts/check_stream_cli.py [SCRIPT_DIR]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "stream_scripts"
STRATEGIES = ("incremental", "recount", "auto")


def replay(script: Path, strategy: str) -> dict:
    """The ``stream --json`` report of one script under one strategy."""
    shape = script.stem.split("__", 1)[0]
    argv = [
        sys.executable, "-m", "repro.cli", "stream", f"empty:{shape}",
        str(script), "--json", "--strategy", strategy,
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(report: dict) -> dict:
    """The fields every strategy must agree on."""
    return {
        "butterflies": report["butterflies"],
        "n_edges": report["n_edges"],
        "batches": [
            {key: value for key, value in row.items() if key != "strategy"}
            for row in report["batches"]
        ],
    }


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else SCRIPT_DIR
    scripts = sorted(directory.glob("*x*__*.txt"))
    if not scripts:
        print(f"no stream scripts under {directory}", file=sys.stderr)
        return 1
    failed = 0
    for script in scripts:
        try:
            reports = {s: summary(replay(script, s)) for s in STRATEGIES}
        except subprocess.CalledProcessError as exc:
            print(f"FAIL {script.name}: exit {exc.returncode}\n{exc.stderr}")
            failed += 1
            continue
        inc = reports[STRATEGIES[0]]
        differ = [s for s in STRATEGIES[1:] if reports[s] != inc]
        if differ:
            print(f"FAIL {script.name}: " + " != ".join(
                f"{s} {reports[s]}" for s in (STRATEGIES[0], *differ)
            ))
            failed += 1
            continue
        print(
            f"ok   {script.name}: {inc['butterflies']} butterflies, "
            f"{inc['n_edges']} edges, {len(inc['batches'])} batches"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
