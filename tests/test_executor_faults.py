"""Fault injection for the shared-memory executor.

Three failure classes, each with a documented containment behaviour:

- **Worker killed mid-dispatch** — the pool raises
  ``BrokenProcessPool``; :meth:`ButterflyExecutor._map` rebuilds the pool
  *once* and re-dispatches (tasks are pure), bumping ``pool_healed`` and
  the ``executor.pool_healed`` metric.
- **Publish failure** (``/dev/shm`` unavailable / quota) — the shared
  path raises ``OSError`` on the owner side;
  :func:`count_butterflies_parallel` reruns the call in-process and
  records ``parallel.shared_fallback``.
- **Worker-side attach failure** — the segment exists but a worker
  cannot map it; the task's ``OSError`` propagates through the pool and
  triggers the same documented fallback.

The kill task lives at module level so the fork-based pool can pickle it
by reference (``tests`` is a package).
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro import obs
from repro.core import (
    count_butterflies,
    count_butterflies_parallel,
)
from repro.graphs import power_law_bipartite
from repro.parallel import (
    ButterflyExecutor,
    shutdown_default_executors,
)
from repro.parallel.shm import SharedGraphBuffers


@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """Leave no warm default executor (and no published /dev/shm segment)
    behind — the sharedmem suite asserts segment-leak-freedom globally."""
    yield
    shutdown_default_executors()


@pytest.fixture(scope="module")
def graph():
    return power_law_bipartite(200, 300, 2000, seed=21)


@pytest.fixture(scope="module")
def expected(graph):
    return count_butterflies(graph)


def _die_if_flag(path: str) -> int:
    """Pool task: SIGKILL-equivalent abort while the flag file exists.

    The first worker to see the flag removes it and dies without cleanup
    (``os._exit`` skips atexit and exception handling, like a crash); the
    healed re-dispatch finds no flag and completes.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        return 42
    os._exit(1)


# ----------------------------------------------------------------------
# worker death mid-dispatch -> heal once, re-dispatch, succeed
# ----------------------------------------------------------------------
def test_worker_killed_mid_dispatch_heals_once(tmp_path, graph, expected):
    flag = tmp_path / "die-now"
    flag.touch()
    with ButterflyExecutor(n_workers=2) as ex:
        warm = ex.count(graph)  # warm the pool, publish the graph
        assert warm == expected
        assert (ex.pool_starts, ex.pool_healed) == (1, 0)

        with obs.capture() as metrics:
            results = ex._map(_die_if_flag, [str(flag)])

        assert results == [42]
        assert ex.pool_healed == 1
        assert ex.pool_starts == 2  # the healed pool is a fresh start
        assert not flag.exists()
        assert metrics.value("executor.pool_healed") == 1
        assert metrics.value("executor.pool_starts") == 1  # the rebuild

        # the healed pool still computes correctly (fresh workers re-attach
        # the published segment on demand)
        assert ex.count(graph) == expected
        assert ex.pool_starts == 2  # no further rebuilds


def test_worker_killed_between_dispatches_heals_on_next(graph, expected):
    with ButterflyExecutor(n_workers=2) as ex:
        assert ex.count(graph) == expected
        # crash one worker outside any dispatch: the executor only notices
        # (and heals) when the next dispatch hits the broken pool
        future = ex._pool.submit(os._exit, 1)
        with contextlib.suppress(Exception):
            future.result(timeout=30)
        assert ex.count(graph) == expected
        assert ex.pool_healed == 1


def _always_die(_task) -> int:
    os._exit(1)


def test_persistent_killer_exhausts_single_heal(graph):
    """A fault that survives the heal propagates: heal-once, not forever."""
    from concurrent.futures.process import BrokenProcessPool

    with ButterflyExecutor(n_workers=2) as ex:
        ex.count(graph)
        with pytest.raises(BrokenProcessPool):
            ex._map(_always_die, [0])
        assert ex.pool_healed == 1
        assert ex.pool_starts == 2  # initial + the single heal


# ----------------------------------------------------------------------
# publish failure -> documented in-process fallback
# ----------------------------------------------------------------------
def test_publish_failure_falls_back_in_process(monkeypatch, graph, expected):
    shutdown_default_executors()  # drop any cached publication of `graph`

    def _refuse(cls_graph):
        raise OSError("simulated: shared memory unavailable")

    monkeypatch.setattr(SharedGraphBuffers, "publish", staticmethod(_refuse))
    try:
        with obs.capture() as metrics:
            got = count_butterflies_parallel(
                graph, n_workers=2, executor="shared"
            )
        assert got == expected
        assert metrics.value("parallel.shared_fallback") == 1
        assert metrics.value("parallel.executor.shared") == 1
        # the fallback ran in-process: no pool was ever started
        assert metrics.value("executor.pool_starts") == 0
    finally:
        shutdown_default_executors()


# ----------------------------------------------------------------------
# worker-side attach failure -> same fallback, via the task exception
# ----------------------------------------------------------------------
def test_worker_attach_failure_falls_back(monkeypatch, graph, expected):
    """Patch the attach hook *before* the pool forks, so every worker
    inherits a broken attach path; the resulting OSError propagates
    through ``pool.map`` and the call reruns in-process."""
    import repro.parallel.executor as executor_mod

    shutdown_default_executors()  # force a fresh (post-patch) fork

    def _broken_attach(meta):
        raise OSError("simulated: cannot map segment")

    monkeypatch.setattr(executor_mod, "attach_graph", _broken_attach)
    try:
        with obs.capture() as metrics:
            got = count_butterflies_parallel(
                graph, n_workers=2, executor="shared"
            )
        assert got == expected
        assert metrics.value("parallel.shared_fallback") == 1
    finally:
        # the pooled workers inherited the broken attach; retire them so
        # later tests get a clean default executor
        shutdown_default_executors()


def test_clean_state_after_fault_suite(graph, expected):
    """After all injected faults, the default shared path works again."""
    got = count_butterflies_parallel(graph, n_workers=2, executor="shared")
    assert got == expected


# ----------------------------------------------------------------------
# wedge-shard dispatch under worker death
# ----------------------------------------------------------------------
def _kill_once_then(real, flag_path):
    """Wrapper for a shm task: first call that sees the flag dies like a
    crash; every other call runs the real task.  The dunder rewrites make
    the fork pool pickle the wrapper *by reference* as the patched module
    global, so forked workers resolve it to this wrapper too."""

    def wrapper(args):
        try:
            os.unlink(flag_path)
        except FileNotFoundError:
            return real(args)
        os._exit(1)

    wrapper.__module__ = "repro.parallel.executor"
    wrapper.__qualname__ = "_shm_wedge_shard"
    wrapper.__name__ = "_shm_wedge_shard"
    return wrapper


def test_wedge_shard_worker_killed_heals_once(
    tmp_path, monkeypatch, graph, expected
):
    import repro.parallel.executor as executor_mod

    shutdown_default_executors()  # force a fresh (post-patch) fork
    flag = tmp_path / "die-wedge"
    monkeypatch.setattr(
        executor_mod,
        "_shm_wedge_shard",
        _kill_once_then(executor_mod._shm_wedge_shard, str(flag)),
    )
    with ButterflyExecutor(n_workers=2) as ex:
        assert ex.count(graph, strategy="wedge") == expected  # no flag yet
        assert (ex.pool_starts, ex.pool_healed) == (1, 0)

        flag.touch()
        with obs.capture() as metrics:
            got = ex.count(graph, strategy="wedge")

        assert got == expected
        assert not flag.exists()
        assert (ex.pool_starts, ex.pool_healed) == (2, 1)
        assert metrics.value("executor.pool_healed") == 1

        # the healed pool keeps serving wedge dispatches
        assert ex.count(graph, strategy="wedge") == expected
        assert ex.pool_starts == 2  # no further rebuilds


def test_wedge_shard_kill_marks_dispatch_span_aborted(
    tmp_path, monkeypatch, graph, expected
):
    """A wedge-shard SIGKILL leaves the dispatch span ``aborted`` and the
    healed retry's worker spans re-parent under a fresh ``executor.map``."""
    import repro.parallel.executor as executor_mod

    shutdown_default_executors()
    flag = tmp_path / "die-wedge-traced"
    monkeypatch.setattr(
        executor_mod,
        "_shm_wedge_shard",
        _kill_once_then(executor_mod._shm_wedge_shard, str(flag)),
    )
    with ButterflyExecutor(n_workers=2) as ex:
        ex.count(graph, strategy="wedge")  # warm pool + publish
        flag.touch()
        with obs.capture():
            assert ex.count(graph, strategy="wedge") == expected
            records = obs.trace_records()

    maps = [r for r in records if r["name"] == "executor.map"]
    assert len(maps) == 2, [r["name"] for r in records]
    killed, healed = maps
    assert killed["status"] == "aborted"
    assert killed["attrs"].get("aborted") is True
    assert healed["status"] == "ok"
    assert healed["attrs"].get("healed") is True
    # shipped worker spans (from either dispatch) adopt a map span as
    # parent — shard bounds ride along as span attributes
    map_ids = {m["span_id"] for m in maps}
    workers = [r for r in records if r["name"] == "worker.wedge_shard"]
    assert workers
    for r in workers:
        assert r["parent_id"] in map_ids
        assert r["attrs"]["hi"] > r["attrs"]["lo"]


# ----------------------------------------------------------------------
# trace propagation under faults (PR 3)
# ----------------------------------------------------------------------
def test_worker_kill_marks_dispatch_span_aborted(tmp_path, graph):
    """A SIGKILL mid-dispatch must leave the dispatch span recorded as
    ``aborted`` (not dangling), with the healed retry as a fresh span."""
    from repro.obs.trace import span_tree

    flag = tmp_path / "die-now-traced"
    flag.touch()
    with ButterflyExecutor(n_workers=2) as ex:
        ex.count(graph)  # warm pool + publish outside the capture
        with obs.capture():
            results = ex._map(_die_if_flag, [str(flag)])
            records = obs.trace_records()
        assert results == [42]

    maps = [r for r in records if r["name"] == "executor.map"]
    assert len(maps) == 2, [r["name"] for r in records]
    killed, healed = maps
    assert killed["status"] == "aborted"
    assert killed["attrs"].get("aborted") is True
    assert healed["status"] == "ok"
    assert healed["attrs"].get("healed") is True
    # both spans are complete records: positive-duration, same pid/tid
    assert killed["dur"] >= 0 and healed["dur"] >= 0
    # nothing dangles: every recorded span resolves into the tree
    tree = span_tree(records)
    indexed = len(tree["roots"]) + sum(
        len(ch) for ch in tree["children"].values()
    )
    assert indexed == len(records)


def test_publish_failure_trace_is_single_tree(monkeypatch, graph, expected):
    """The OSError fallback path must still emit one well-formed trace
    tree rooted at ``parallel.count`` — no orphaned spans."""
    from repro.obs.trace import span_tree

    shutdown_default_executors()
    monkeypatch.setattr(
        SharedGraphBuffers,
        "publish",
        staticmethod(lambda g: (_ for _ in ()).throw(OSError("no shm"))),
    )
    try:
        with obs.capture() as metrics:
            got = count_butterflies_parallel(
                graph, n_workers=2, executor="shared"
            )
            records = obs.trace_records()
        assert got == expected
        assert metrics.value("parallel.shared_fallback") == 1
    finally:
        shutdown_default_executors()

    tree = span_tree(records)
    assert len(tree["roots"]) == 1
    root = tree["roots"][0]
    assert root["name"] == "parallel.count"
    assert root["status"] == "ok"
    # every span shares the root's trace id — a single tree, not fragments
    assert all(r["trace_id"] == root["trace_id"] for r in records)


def test_worker_spans_reparented_under_dispatch(graph, expected):
    """Happy-path cross-process adoption: worker spans ship through the
    metric delta and re-parent under the owner's dispatch span."""
    with ButterflyExecutor(n_workers=2) as ex:
        with obs.capture():
            assert ex.count(graph) == expected
            records = obs.trace_records()

    maps = [r for r in records if r["name"] == "executor.map"]
    workers = [r for r in records if r["name"] == "worker.count_range"]
    assert len(maps) == 1 and workers
    for r in workers:
        assert r["parent_id"] == maps[0]["span_id"]
        assert r["trace_id"] == maps[0]["trace_id"]
        assert r["attrs"]["worker_pid"] != os.getpid()
