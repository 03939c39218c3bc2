"""Chrome trace-event export for :mod:`repro.obs`.

:func:`chrome_trace` / :func:`write_chrome_trace` render a span-record
list as Chrome trace-event (Perfetto-loadable) JSON; this is what
``repro-butterfly count --trace-out trace.json`` and ``obs.dump_trace``
emit.  Every span becomes one complete (``"ph": "X"``) event with
microsecond timestamps.  Load the file at https://ui.perfetto.dev or
``chrome://tracing``.
"""

from __future__ import annotations

import json

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
]


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ----------------------------------------------------------------------
def chrome_trace_events(records: list[dict]) -> list[dict]:
    """Span records → Chrome trace events, sorted by ascending ``ts``.

    One complete event (``ph="X"``, required fields ``name/ph/ts/pid/tid``
    plus ``dur``) per span.  Timestamps are microseconds on the span's
    own monotonic clock; ``args`` carries the span/trace ids, status and
    attributes so Perfetto's detail pane shows the full node.
    """
    events: list[dict] = []
    for r in records:
        args = {
            "trace_id": r.get("trace_id"),
            "span_id": r.get("span_id"),
            "parent_id": r.get("parent_id"),
            "status": r.get("status", "ok"),
        }
        args.update(r.get("attrs") or {})
        events.append(
            {
                "name": r["name"],
                "cat": r["name"].split(".", 1)[0],
                "ph": "X",
                "ts": r["ts"] * 1e6,
                "dur": max(r.get("dur", 0.0), 0.0) * 1e6,
                "pid": r.get("pid", 0),
                "tid": r.get("tid", 0),
                "args": args,
            }
        )
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    return events


def chrome_trace(records: list[dict], **meta) -> dict:
    """The JSON-object (dict) form of the Chrome trace for ``records``."""
    payload = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }
    if meta:
        payload["otherData"] = {k: v for k, v in meta.items() if v is not None}
    return payload


def write_chrome_trace(path, records: list[dict], **meta) -> dict:
    """Write the Chrome trace JSON for ``records`` to ``path``."""
    payload = chrome_trace(records, **meta)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=_json_default)
        fh.write("\n")
    return payload


def _json_default(obj):  # numpy scalars etc.
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)
