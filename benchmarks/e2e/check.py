"""Checks trial outputs against the oracle; run as its own process.

    python check.py REQUEST.json RESPONSE.json

``run.py`` stays free of numpy and scipy so that its small memory
footprint is all an exec'd child inherits into ``ru_maxrss``; the checks
therefore run here, after the trials, outside every timed region.

REQUEST: ``{"workload", "inputs", "trials": [{"dir", "records",
"final_check"}], "analysis_counts": {graph: [counts]}}``.
RESPONSE: ``{"reasons": [[reason or null per record] per trial],
"problems": [...]}``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import inputs
import oracle


class Oracle:
    """Lazily computed reference answers for one workload's inputs."""

    def __init__(self, directory: Path) -> None:
        self.dir = Path(directory)
        self._counts: dict[str, int] = {}
        self._tips: dict[int, np.ndarray] = {}
        self._stream: dict[int, tuple[int, np.ndarray, int]] = {}

    def count(self, graph: str) -> int:
        if graph not in self._counts:
            edges, n_left, n_right = inputs.load_graph(self.dir, graph)
            self._counts[graph] = oracle.butterflies(oracle.biadjacency(edges, n_left, n_right))
        return self._counts[graph]

    def k_tip(self, k: int) -> np.ndarray:
        if k not in self._tips:
            edges, n_left, n_right = inputs.load_graph(self.dir, "occupations")
            self._tips[k] = oracle.k_tip_kept(oracle.biadjacency(edges, n_left, n_right), k)
        return self._tips[k]

    def stream_state(self, batches: set[int]) -> dict[int, tuple[int, np.ndarray, int]]:
        """(count, per-left-vertex counts, n_edges) after each listed batch."""
        todo = sorted(set(batches) - set(self._stream))
        if todo:
            edges, n_left, n_right = inputs.load_graph(self.dir, "skewed")
            keys = edges[:, 0] * n_right + edges[:, 1]
            for b, (ins, dele) in enumerate(inputs.iter_batches(inputs.load_script(self.dir))):
                if b > todo[-1]:
                    break
                keys = inputs.apply_batch(keys, n_right, ins, dele)
                if b in todo:
                    pairs = np.stack([keys // n_right, keys % n_right], axis=1)
                    per_left = oracle.left_vertex_butterflies(oracle.biadjacency(pairs, n_left, n_right))
                    self._stream[b] = (int(per_left.sum() // 2), per_left, int(keys.size))
        return {b: self._stream[b] for b in batches}


def _error(record: dict) -> str:
    return record["error"].strip().splitlines()[-1]


def check_counts(records: list[dict], expected) -> list[str | None]:
    """count_suite / cli_count: every graph's count equals ``expected(graph)``."""
    out = []
    for r in records:
        if "error" in r:
            out.append(_error(r))
            continue
        bad = [g for g, v in r["result"].items() if v != expected(g)]
        out.append(f"wrong count on {', '.join(bad)}" if bad else None)
    return out


def _digest(array: np.ndarray) -> str:
    return hashlib.sha1(array.tobytes()).hexdigest()


def check_peel(records: list[dict], trial_dir: Path, orc: Oracle) -> list[str | None]:
    """Tip numbers >= k <=> kept by the oracle fixpoint at three k, and the
    planned k-tip keeps the oracle's set; every op must repeat that result."""
    try:
        tip = np.load(trial_dir / "tip.npy").astype(np.int64)
        kept = np.load(trial_dir / "kept.npy").astype(bool)
    except OSError:
        verdict = "no tip numbers were written"
    else:
        verdict = None
        k = next(r["result"]["k"] for r in records if "result" in r)
        nonzero = tip[tip > 0]
        lo, hi = np.percentile(nonzero, [25, 90]).astype(int).tolist() if nonzero.size else (1, 1)
        for threshold in sorted({lo, k, hi}):
            if not np.array_equal(tip >= threshold, orc.k_tip(threshold)):
                verdict = f"tip numbers disagree with the {threshold}-tip"
        if verdict is None and not np.array_equal(kept, orc.k_tip(k)):
            verdict = f"k-tip (k={k}) kept set disagrees with the oracle"
        good = (_digest(tip), _digest(kept))
    out = []
    for r in records:
        if "error" in r:
            out.append(_error(r))
        elif verdict is not None:
            out.append(verdict)
        elif (r["result"]["tip"], r["result"]["kept"]) != good:
            out.append("result differs from the checked one")
        else:
            out.append(None)
    return out


def check_stream(records: list[dict], final: dict | None, orc: Oracle) -> list[str | None]:
    """Checkpoint reads and the final state against the replayed key set.

    A wrong checkpoint fails every op since the previous checkpoint: the
    state went wrong somewhere in that window.
    """
    reads = inputs.load_script(orc.dir)["reads"]
    checks = {r["i"]: r["result"]["check"] for r in records if "check" in r.get("result", {})}
    if final is not None:
        checks[final["batch"]] = dict(final, final=True)
    states = orc.stream_state(set(checks))
    reasons, window_start = {}, 0
    for b in sorted(checks):
        chk, (count, per_left, n_edges) = checks[b], states[b]
        why = None
        if chk["count"] != count:
            why = "wrong butterfly count"
        elif chk["reads"] != per_left[reads[b]].tolist():
            why = "wrong vertex_count reads"
        elif chk.get("final") and chk["n_edges"] != n_edges:
            why = "wrong edge count"
        if why is not None:
            reasons.update((i, why) for i in range(window_start, b + 1))
        window_start = b + 1
    return [_error(r) if "error" in r else reasons.get(r["i"]) for r in records]


def check(request: dict) -> dict:
    workload, orc = request["workload"], Oracle(request["inputs"])
    reasons = []
    for trial in request["trials"]:
        records = trial["records"]
        if workload in ("cli_count", "count_suite"):
            reasons.append(check_counts(records, orc.count))
        elif workload == "peel_tip":
            reasons.append(check_peel(records, Path(trial["dir"]), orc))
        else:
            reasons.append(check_stream(records, trial.get("final_check"), orc))
    problems = [
        f"{workload} analysis: wrong count on {g}"
        for g, values in request.get("analysis_counts", {}).items()
        if any(v != orc.count(g) for v in values)
    ]
    return {"reasons": reasons, "problems": problems}


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        response = check(json.load(fh))
    with open(sys.argv[2], "w") as fh:
        json.dump(response, fh)
