"""Tests for the LRU cache simulator."""

import numpy as np
import pytest

from repro.bench import CacheStats, LRUCache, simulate_invariant_cache
from repro.graphs import power_law_bipartite


# --------------------------------------------------------------- LRU cache
def test_lru_basic_hit_miss():
    c = LRUCache(n_sets=1, ways=2)
    assert not c.access(1)  # miss
    assert not c.access(2)  # miss
    assert c.access(1)  # hit
    assert not c.access(3)  # miss, evicts 2 (LRU)
    assert not c.access(2)  # miss again
    assert c.stats.accesses == 5 and c.stats.hits == 1


def test_lru_eviction_order_is_lru_not_fifo():
    c = LRUCache(n_sets=1, ways=2)
    c.access(1)
    c.access(2)
    c.access(1)  # refresh 1; LRU is now 2
    c.access(3)  # evicts 2
    assert c.access(1)  # 1 still resident
    assert not c.access(2)


def test_lru_set_mapping():
    c = LRUCache(n_sets=2, ways=1)
    c.access(0)  # set 0
    c.access(1)  # set 1
    assert c.access(0) and c.access(1)  # disjoint sets, both resident
    c.access(2)  # set 0: evicts 0
    assert not c.access(0)


def test_lru_validation():
    with pytest.raises(ValueError):
        LRUCache(0, 1)
    with pytest.raises(ValueError):
        LRUCache(1, 0)


def test_access_run_coalesces_consecutive_repeats():
    c = LRUCache(n_sets=1, ways=4)
    c.access_run(np.array([5, 5, 5, 6, 6, 5]))
    # coalesced stream: 5, 6, 5 -> 2 misses + 1 hit
    assert c.stats.accesses == 3
    assert c.stats.hits == 1


def test_cache_stats_properties():
    s = CacheStats(accesses=10, hits=4)
    assert s.misses == 6
    assert s.hit_rate == pytest.approx(0.4)
    assert CacheStats().hit_rate == 0.0


def test_simulator_fully_cached_graph_hits():
    """When the whole indices array fits in cache, all but compulsory
    misses are hits."""
    g = power_law_bipartite(30, 40, 150, seed=1)
    stats = simulate_invariant_cache(g, 2, cache_lines=4096, line_elements=8)
    compulsory = (g.n_edges // 8) + 2
    assert stats.misses <= compulsory + 8


def test_simulator_thrashing_cache_misses():
    """A 1-line cache makes nearly every line transition a miss."""
    g = power_law_bipartite(30, 40, 150, seed=1)
    stats = simulate_invariant_cache(
        g, 2, cache_lines=1, ways=1, max_pivots=20
    )
    assert stats.hit_rate < 0.6


def test_simulator_max_pivots_truncates():
    g = power_law_bipartite(30, 40, 150, seed=1)
    full = simulate_invariant_cache(g, 1, cache_lines=64, max_pivots=None)
    part = simulate_invariant_cache(g, 1, cache_lines=64, max_pivots=5)
    assert part.accesses < full.accesses


def test_simulator_access_volume_matches_work_model():
    """The simulated access stream's length is the work model's op count
    (plus the pivot slices), line-compressed — a consistency check between
    the two instruments."""
    from repro.core.workinfo import work_profile

    g = power_law_bipartite(25, 30, 120, seed=2)
    stats = simulate_invariant_cache(g, 2, cache_lines=8, line_elements=1)
    wp = work_profile(g, 2, "spmv")
    # with 1 element per line and no coalescing across equal neighbours,
    # accesses = reference scans + pivot slice touches (each <= nnz)
    assert stats.accesses >= wp.total_ops
    assert stats.accesses <= wp.total_ops + g.n_edges


