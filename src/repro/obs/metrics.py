"""Metric primitives and the thread-safe :class:`Metrics` registry.

Three metric kinds, deliberately minimal (zero dependencies, exact
integer counters, no background threads):

- :class:`Counter` — monotonically increasing int64-exact total.
- :class:`Gauge` — last-write-wins instantaneous value.
- :class:`Histogram` — streaming summary (count / total / min / max)
  plus fixed log-scale buckets answering :meth:`Histogram.quantile`
  (p50/p90/p99); what :func:`repro.obs.span` records durations into.

The registry is the single aggregation point.  It is

- **thread-safe**: every mutation takes one lock (the hot no-op path in
  :mod:`repro.obs` never reaches the registry, so the lock is only paid
  when observability is on), and
- **process-safe by value**: worker processes accumulate into their own
  registry and ship a :meth:`Metrics.snapshot` dict back over the
  existing result path; the owner folds it in with :meth:`Metrics.merge`
  (counters and histograms add, gauges take the incoming value).
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "GAUGE_POLICIES",
    "BUCKETS_PER_OCTAVE",
]

#: Log-scale bucket resolution: buckets per factor of 2.  Four per octave
#: bounds the relative error of any bucket-derived quantile at
#: ``2**(1/4) - 1`` ≈ 19% — plenty for latency percentiles, and small
#: enough that a duration histogram spanning ns..minutes stays under a
#: hundred occupied buckets.
BUCKETS_PER_OCTAVE = 4


class Counter:
    """A monotonic counter (exact Python ints — no float drift)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, value: int = 1) -> None:
        self.value += value

    def as_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}

    def merge_dict(self, record: dict) -> None:
        self.value += record["value"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


#: Valid gauge merge policies (see :class:`Gauge`).
GAUGE_POLICIES: tuple[str, ...] = ("last", "max", "sum")


class Gauge:
    """An instantaneous value with an explicit cross-snapshot merge policy.

    ``set`` always overwrites — a gauge is instantaneous *within* one
    process.  What ``policy`` governs is :meth:`merge_dict`, i.e. how
    worker snapshot deltas (and multi-run JSONL files) fold together:

    - ``"last"`` (default) — take the incoming value.  Correct when
      exactly one process sets the gauge (the owner-side fixpoint gauges)
      but **order-dependent** when several snapshots carry it, so prefer
      an explicit policy for anything a worker might report.
    - ``"max"`` — keep the maximum; deterministic under any merge order.
    - ``"sum"`` — add; deterministic, and the right semantics for
      shard-additive quantities (``peel.*.kept`` counts over disjoint
      vertex shards).

    The policy travels inside :meth:`as_dict`, so a registry that first
    sees a gauge through ``merge`` adopts the sender's policy.
    """

    kind = "gauge"
    __slots__ = ("value", "policy")

    def __init__(self, policy: str = "last") -> None:
        if policy not in GAUGE_POLICIES:
            raise ValueError(
                f"unknown gauge policy {policy!r}; expected one of "
                f"{GAUGE_POLICIES}"
            )
        self.value = 0
        self.policy = policy

    def set(self, value) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": self.kind, "value": self.value, "policy": self.policy}

    def merge_dict(self, record: dict) -> None:
        incoming = record["value"]
        if self.policy == "max":
            self.value = max(self.value, incoming)
        elif self.policy == "sum":
            self.value += incoming
        else:  # "last"
            self.value = incoming

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value}, policy={self.policy!r})"


class Histogram:
    """Streaming summary of a sample stream with log-scale buckets.

    Keeps the exact count / total / min / max reductions of the original
    summary *and* a sparse dict of fixed log-scale buckets (``idx →
    occurrences`` where ``idx = floor(log2(value) * BUCKETS_PER_OCTAVE)``
    for positive samples; non-positive samples land in ``underflow``).
    The buckets answer :meth:`quantile` (p50/p90/p99) to within one
    bucket width, and every field is an associative, commutative
    reduction — integer adds plus min/max — so worker deltas merge
    loss-free in any order.  Records written before buckets existed
    (no ``"buckets"`` key) still merge: their samples contribute to
    count/total/min/max exactly as before and simply carry no quantile
    information.
    """

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max", "underflow", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.underflow = 0
        self.buckets: dict[int, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0:
            idx = math.floor(math.log2(value) * BUCKETS_PER_OCTAVE)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.underflow += 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0

    @staticmethod
    def bucket_bound(idx: int) -> float:
        """Inclusive upper bound of bucket ``idx`` (its ``le`` edge)."""
        return 2.0 ** ((idx + 1) / BUCKETS_PER_OCTAVE)

    def quantile(self, q: float):
        """The ``q``-quantile from the buckets, or None without samples.

        Answers from the log-scale buckets: walk the cumulative counts
        (underflow first, then ascending bucket index) to the bucket
        holding the empirical-quantile rank ``ceil(q·n) − 1`` and report
        its upper bound, clamped to the exact observed ``[min, max]``.
        Accurate to one bucket width (≈19% relative at
        :data:`BUCKETS_PER_OCTAVE` = 4); tail quantiles round *up* to
        the observed extreme rather than interpolating below it.
        Returns None when no bucketed samples exist — e.g. a histogram
        re-aggregated purely from pre-bucket records.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        n = self.underflow + sum(self.buckets.values())
        if n == 0:
            return None
        rank = max(math.ceil(q * n) - 1, 0)
        cum = self.underflow
        if rank < cum:
            return float(self.min) if self.min is not None else 0.0
        value = None
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if rank < cum:
                value = self.bucket_bound(idx)
                break
        if value is None:  # rank == n - 1 exactly: the last bucket
            value = self.bucket_bound(max(self.buckets))
        if self.max is not None:
            value = min(value, float(self.max))
        if self.min is not None:
            value = max(value, float(self.min))
        return value

    def percentiles(self) -> dict:
        """The standard latency trio: ``{"p50": .., "p90": .., "p99": ..}``."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "underflow": self.underflow,
            # string keys so the record survives a JSON round-trip intact
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Histogram":
        """Rebuild a histogram from one :meth:`as_dict` record."""
        h = cls()
        h.merge_dict(record)
        return h

    def merge_dict(self, record: dict) -> None:
        self.count += record["count"]
        self.total += record["total"]
        for key in ("min", "max"):
            incoming = record.get(key)
            if incoming is None:
                continue
            current = getattr(self, key)
            if current is None:
                setattr(self, key, incoming)
            elif key == "min":
                self.min = min(current, incoming)
            else:
                self.max = max(current, incoming)
        # pre-bucket records (old snapshots / JSONL files) stop here: the
        # count/total/min/max folds above are bitwise-identical to the
        # original summary merge.
        self.underflow += record.get("underflow", 0)
        for key, occurrences in (record.get("buckets") or {}).items():
            idx = int(key)
            self.buckets[idx] = self.buckets.get(idx, 0) + occurrences

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, total={self.total}, "
            f"min={self.min}, max={self.max}, buckets={len(self.buckets)})"
        )


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class Metrics:
    """Thread-safe name → metric registry with snapshot/merge transport.

    Names are free-form dotted strings (``"executor.pool_healed"``);
    the convention in this package is ``<layer>.<subsystem>.<what>`` so
    sinks can group by prefix.  A name is bound to one metric kind for
    the registry's lifetime; re-using it with a different kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    # creation / lookup
    # ------------------------------------------------------------------
    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def _gauge_locked(self, name: str, policy: str | None) -> Gauge:
        """Create-or-fetch a gauge; the policy binds at creation time."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(policy or "last")
            self._metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a gauge"
            )
        elif policy is not None and metric.policy != policy:
            raise ValueError(
                f"gauge {name!r} is bound to policy {metric.policy!r}; "
                f"cannot rebind to {policy!r}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._get(name, Counter)

    def gauge(self, name: str, policy: str | None = None) -> Gauge:
        with self._lock:
            return self._gauge_locked(name, policy)

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._get(name, Histogram)

    def get(self, name: str):
        """The metric registered under ``name``, or None."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._get(name, Counter).value += value

    def set(self, name: str, value, policy: str | None = None) -> None:
        with self._lock:
            self._gauge_locked(name, policy).value = value

    def observe(self, name: str, value) -> None:
        with self._lock:
            self._get(name, Histogram).observe(value)

    def reset(self) -> None:
        """Drop every registered metric."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """A plain-dict copy of every metric — picklable, mergeable."""
        with self._lock:
            return {name: m.as_dict() for name, m in self._metrics.items()}

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` (e.g. a worker's delta) into this registry.

        Counters and histograms add; gauges take the incoming value.
        """
        with self._lock:
            for name, record in snapshot.items():
                cls = _KINDS[record["type"]]
                if cls is Gauge and name not in self._metrics:
                    # adopt the sender's merge policy on first sight
                    metric = self._gauge_locked(name, record.get("policy"))
                else:
                    metric = self._get(name, cls)
                metric.merge_dict(record)

    def value(self, name: str, default=0):
        """Convenience: the scalar value of a counter/gauge (tests, CLI)."""
        metric = self.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.total
        return metric.value

    def layers(self, names: Iterable[str] | None = None) -> set[str]:
        """Distinct first-dot prefixes ("layers") of the registered names."""
        source = self.names() if names is None else names
        return {name.split(".", 1)[0] for name in source}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Metrics({len(self._metrics)} metrics)"
