"""Shared-memory executor: lifecycle, equivalence, and warm-pool reuse.

The contract under test (ISSUE acceptance criteria):

- ``executor="shared"`` produces the bit-identical Ξ_G on every
  invariant × strategy combination (vs. the serial family, the serial
  executor's in-process tiling, and a cold caller-owned pool);
- no shared-memory segments survive any executor lifecycle — normal
  close, context-manager exit, mid-sweep exceptions, or publication-cache
  eviction;
- the pool is started once and reused across calls (warm pool), and a
  graph is published once and reused across sweeps (zero-copy cache).
"""

from __future__ import annotations

import gc
import glob
import os

import numpy as np
import pytest

from repro.core import (
    ALL_INVARIANTS,
    count_butterflies,
    count_butterflies_parallel,
    count_butterflies_unblocked,
)
from repro.graphs import power_law_bipartite
from repro.parallel import (
    ButterflyExecutor,
    SharedGraphBuffers,
    attach_graph,
    get_default_executor,
    live_segment_names,
    shutdown_default_executors,
)
from repro.parallel import executor as executor_module
from repro.parallel.shm import SEGMENT_PREFIX

from .conftest import TINY_EXPECTED, tiny_named_graphs

# Correctness does not need physical parallelism — a 2-worker pool is
# valid on a single core — only a working process-pool implementation.
needs_multicore = pytest.mark.skipif(
    not os.path.isdir("/dev/shm") and os.name != "nt",
    reason="POSIX shared memory unavailable",
)


def _shm_dir_segments() -> set[str]:
    """Names of our segments visible in /dev/shm (POSIX only)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX
        return set()
    return {
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_*")
    }


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test in this module must leave /dev/shm as it found it."""
    before_live = set(live_segment_names())
    before_fs = _shm_dir_segments()
    yield
    shutdown_default_executors()
    assert set(live_segment_names()) == before_live
    assert _shm_dir_segments() == before_fs


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------


class TestSharedGraphBuffers:
    def test_publish_roundtrip(self, medium_graph):
        with SharedGraphBuffers.publish(medium_graph) as buffers:
            shm, csr, csc = attach_graph(buffers.meta)
            try:
                assert np.array_equal(csr.indptr, medium_graph.csr.indptr)
                assert np.array_equal(csr.indices, medium_graph.csr.indices)
                assert np.array_equal(csc.indptr, medium_graph.csc.indptr)
                assert np.array_equal(csc.indices, medium_graph.csc.indices)
            finally:
                shm.close()
            assert buffers.name in live_segment_names()
        assert buffers.name not in live_segment_names()

    def test_attach_sees_same_data(self, medium_graph):
        with SharedGraphBuffers.publish(medium_graph) as buffers:
            shm, csr, csc = attach_graph(buffers.meta)
            try:
                assert np.array_equal(csr.indices, medium_graph.csr.indices)
                assert np.array_equal(csc.indices, medium_graph.csc.indices)
                assert not csr.indices.flags.writeable
            finally:
                shm.close()

    def test_unlink_is_idempotent(self, medium_graph):
        buffers = SharedGraphBuffers.publish(medium_graph)
        try:
            buffers.unlink()
            buffers.unlink()  # must not raise
            assert buffers.name not in live_segment_names()
        finally:
            buffers.unlink()  # idempotent, so safe on every path

    def test_exception_inside_context_still_unlinks(self, medium_graph):
        with pytest.raises(RuntimeError):
            with SharedGraphBuffers.publish(medium_graph) as buffers:
                raise RuntimeError("mid-sweep failure")
        assert buffers.name not in live_segment_names()
        assert buffers.name not in _shm_dir_segments()

    def test_empty_graph_publishes(self):
        from repro.graphs import BipartiteGraph

        g = BipartiteGraph.empty(3, 4)
        with SharedGraphBuffers.publish(g) as buffers:
            shm, csr, _csc = attach_graph(buffers.meta)
            try:
                assert csr.nnz == 0
            finally:
                shm.close()

    def test_meta_is_plain_tuple(self, medium_graph):
        with SharedGraphBuffers.publish(medium_graph) as buffers:
            name, n_left, n_right, nnz = buffers.meta
            assert name.startswith(SEGMENT_PREFIX)
            assert (n_left, n_right) == (medium_graph.n_left, medium_graph.n_right)
            assert nnz == medium_graph.n_edges

    def test_publish_bytes_exact(self):
        """The segment footprint is an exact function of the graph: four
        int64 arrays, whatever storage view is published."""
        from repro.storage import make_storage

        g = power_law_bipartite(300, 400, 8_000, seed=13)
        assert g.n_edges == 8_000
        with SharedGraphBuffers.publish(g) as raw:
            # (301 + 401) offsets + 2 * 8000 entries, 8 bytes each
            assert raw.nbytes == 133_616
        with SharedGraphBuffers.publish(make_storage(g, "mmap")) as view:
            assert view.nbytes == 133_616
            assert len(view.meta) == 4


# ----------------------------------------------------------------------
# executor lifecycle
# ----------------------------------------------------------------------


@needs_multicore
class TestExecutorLifecycle:
    def test_close_unlinks_publications(self, medium_graph):
        ex = ButterflyExecutor(n_workers=2)
        ex.count(medium_graph)
        assert live_segment_names()  # published while live
        ex.close()
        assert live_segment_names() == []
        assert ex.closed

    def test_context_manager(self, medium_graph):
        with ButterflyExecutor(n_workers=2) as ex:
            ex.count(medium_graph)
        assert live_segment_names() == []

    def test_close_is_idempotent(self):
        ex = ButterflyExecutor(n_workers=2)
        ex.close()
        ex.close()

    def test_closed_executor_rejects_dispatch(self, medium_graph):
        ex = ButterflyExecutor(n_workers=2)
        ex.close()
        with pytest.raises(RuntimeError):
            ex.count(medium_graph)

    def test_collected_graph_unlinks_its_segment(self):
        g = power_law_bipartite(60, 80, 300, seed=1)
        with ButterflyExecutor(n_workers=2) as ex:
            ex.count(g)
            assert len(live_segment_names()) == 1
            del g
            gc.collect()
            assert live_segment_names() == []

    def test_publication_cache_evicts_lru(self):
        graphs = [
            power_law_bipartite(60, 80, 300, seed=s) for s in range(6)
        ]
        with ButterflyExecutor(n_workers=2) as ex:
            for g in graphs:
                ex.count(g)
            # cache cap is 4: older segments must have been unlinked
            assert len(live_segment_names()) <= executor_module._PUBLISH_CACHE_SIZE
        assert live_segment_names() == []

    def test_warm_pool_reused_across_calls(self, medium_graph):
        invariants = (1, 2, 5, 6, 3)
        with ButterflyExecutor(n_workers=2) as ex:
            for inv in invariants:
                ex.count(medium_graph, invariant=inv)
            assert ex.pool_starts == 1
            assert ex.publish_count == 1  # same graph -> one segment
            assert ex.dispatch_count == len(invariants)

    def test_default_executor_is_shared_and_shut_down(self, medium_graph):
        ex1 = get_default_executor(n_workers=2)
        ex2 = get_default_executor(n_workers=2)
        assert ex1 is ex2
        ex1.count(medium_graph)
        shutdown_default_executors()
        assert ex1.closed
        assert live_segment_names() == []
        # a fresh default is handed out after shutdown
        ex3 = get_default_executor(n_workers=2)
        assert ex3 is not ex1 and not ex3.closed
        shutdown_default_executors()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ButterflyExecutor(n_workers=0)

    def test_serial_shortcut_uses_no_pool(self, medium_graph):
        with ButterflyExecutor(n_workers=1) as ex:
            totals = [ex.count(medium_graph, invariant=inv) for inv in (1, 6)]
        assert totals == [count_butterflies(medium_graph)] * 2
        assert ex.pool_starts == 0
        assert ex.publish_count == 0
        assert live_segment_names() == []


# ----------------------------------------------------------------------
# equivalence: shared == cold pool == serial, all invariants x strategies
# ----------------------------------------------------------------------


@needs_multicore
class TestEquivalence:
    @pytest.mark.parametrize("strategy", ["scratch", "spmv"])
    def test_all_invariants_match_serial(self, medium_graph, strategy):
        expected = count_butterflies(medium_graph)
        with ButterflyExecutor(n_workers=2) as ex:
            for inv in ALL_INVARIANTS:
                assert ex.count(
                    medium_graph, invariant=inv.number, strategy=strategy
                ) == expected
                assert count_butterflies_unblocked(
                    medium_graph, inv.number, strategy=strategy
                ) == expected

    def test_shared_matches_process_executor(self, medium_graph):
        """The warm default pool, a cold caller-owned process pool and the
        serial executor's in-process tiling agree."""
        serial = count_butterflies_parallel(
            medium_graph, n_workers=2, executor="serial"
        )
        shared = count_butterflies_parallel(
            medium_graph, n_workers=2, executor="shared"
        )
        with ButterflyExecutor(n_workers=2) as ex:
            process = ex.count(medium_graph)
        assert serial == shared == process == count_butterflies(medium_graph)

    def test_tiny_graphs(self):
        with ButterflyExecutor(n_workers=2) as ex:
            for name, g in tiny_named_graphs().items():
                assert ex.count(g) == TINY_EXPECTED[name], name

    def test_invalid_strategy_and_side(self, medium_graph):
        with ButterflyExecutor(n_workers=2) as ex:
            with pytest.raises(ValueError):
                ex.count(medium_graph, strategy="nope")
            with pytest.raises(ValueError):
                ex.count(medium_graph, side="middle")
            assert ex.pool_starts == 0  # rejected before any dispatch


# ----------------------------------------------------------------------
# worker side: the buffers a worker keeps per segment
# ----------------------------------------------------------------------


def test_worker_keeps_one_buffer_per_state_factory(medium_graph):
    """A worker running ``scratch`` and ``wedge`` ranges of one segment
    holds one cache entry: both table rows build the same zeroed
    accumulator.  ``spmv`` builds its own.  The pool task runs in this
    process, which then plays one worker."""
    from repro.core.family import Reference, Side

    expected = count_butterflies(medium_graph)
    with SharedGraphBuffers.publish(medium_graph) as buffers:
        name = buffers.meta[0]
        try:
            for strategy in ("scratch", "wedge", "scratch", "wedge"):
                value, _ = executor_module._shm_count_range((
                    buffers.meta, Side.ROWS.value, Reference.SUFFIX.value,
                    strategy, 0, medium_graph.n_left, False,
                ))
                assert value == expected, strategy
            states = executor_module._ATTACHED[name][3]
            assert len(states) == 1
            (accumulator,) = states.values()
            assert not accumulator.any()  # left as it was found
            executor_module._shm_count_range((
                buffers.meta, Side.ROWS.value, Reference.SUFFIX.value,
                "spmv", 0, medium_graph.n_left, False,
            ))
            assert len(states) == 2
        finally:
            entry = executor_module._ATTACHED.pop(name, None)
            if entry is not None:
                entry[0].close()
