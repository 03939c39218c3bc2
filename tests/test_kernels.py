"""Unit tests for the vectorised kernels."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.sparsela import (
    PatternCSR,
    choose2,
    choose2_sum,
    gather_slices,
    kernels,
    segment_sums,
)


def _gather_reference(indptr, indices, ids):
    out = []
    for i in ids:
        out.extend(indices[indptr[i] : indptr[i + 1]].tolist())
    return out


def test_gather_slices_matches_python_reference(rng):
    dense = (rng.random((12, 17)) < 0.3).astype(int)
    m = PatternCSR.from_dense(dense)
    for ids in ([0], [3, 3, 1], list(range(12)), [11, 0, 5]):
        got = gather_slices(m.indptr, m.indices, np.array(ids))
        assert got.tolist() == _gather_reference(m.indptr, m.indices, ids)


def test_gather_slices_empty_ids():
    m = PatternCSR.from_pairs([(0, 0)], shape=(2, 2))
    assert gather_slices(m.indptr, m.indices, np.array([], dtype=np.int64)).size == 0


def test_gather_slices_all_empty_slices():
    m = PatternCSR.empty((3, 3))
    got = gather_slices(m.indptr, m.indices, np.array([0, 1, 2]))
    assert got.size == 0


def test_gather_slices_preserves_order_and_multiplicity():
    m = PatternCSR.from_pairs([(0, 1), (0, 2), (1, 0)], shape=(2, 3))
    got = gather_slices(m.indptr, m.indices, np.array([1, 0, 1]))
    assert got.tolist() == [0, 1, 2, 0]


def test_choose2_values():
    assert choose2(np.array([0, 1, 2, 3, 10])).tolist() == [0, 0, 1, 3, 45]


def test_choose2_sum():
    assert choose2_sum(np.array([2, 2, 3])) == 1 + 1 + 3
    assert choose2_sum(np.array([], dtype=np.int64)) == 0
    assert choose2_sum(np.array([1])) == 0


def test_choose2_sum_returns_python_int():
    assert isinstance(choose2_sum(np.array([5, 7])), int)


def test_choose2_sum_large_values_exact():
    # would overflow int32: C(10^5, 2) ≈ 5e9
    assert choose2_sum(np.array([100_000])) == 100_000 * 99_999 // 2


def test_run_starts_empty_single_and_runs():
    assert kernels.run_starts(np.array([], dtype=np.int64)).tolist() == []
    assert kernels.run_starts(np.array([7], dtype=np.int32)).tolist() == [0]
    keys = np.array([1, 1, 2, 5, 5, 5, 9], dtype=np.int64)
    assert kernels.run_starts(keys).tolist() == [0, 2, 3, 6]


def test_segment_sums_basic():
    vals = np.array([1, 2, 3, 4, 5])
    indptr = np.array([0, 2, 2, 5])
    assert segment_sums(vals, indptr).tolist() == [3, 0, 12]


def test_segment_sums_empty_values():
    assert segment_sums(np.array([]), np.array([0, 0, 0])).tolist() == [0, 0]


def test_segment_sums_bool_values_promote():
    vals = np.array([True, True, False])
    out = segment_sums(vals, np.array([0, 3]))
    assert out.tolist() == [2]
    assert out.dtype == np.int64


# ----------------------------------------------------- fused panel reductions
def _brute_choose2(owners, endpoints):
    c = Counter(zip(owners.tolist(), endpoints.tolist()))
    return sum(m * (m - 1) // 2 for m in c.values())


def _brute_choose2_per_owner(owners, endpoints, n_pivots):
    c = Counter(zip(owners.tolist(), endpoints.tolist()))
    out = np.zeros(n_pivots, dtype=np.int64)
    for (p, _u), m in c.items():
        out[p] += m * (m - 1) // 2
    return out


BRANCHES = ("sort", "bincount", "scratch")


def _force_branch(branch, monkeypatch, n_pivots):
    """Wedge count that drives the panel kernel into ``branch``.

    A key space within ``DEFAULT_KEYSPACE_CAP`` picks ``bincount``; with
    the cap at 0, fewer than 256 wedges per owner pick ``sort`` and
    256 or more pick ``scratch``.  ``auto`` leaves the kernel its own
    choice.
    """
    if branch in ("sort", "scratch"):
        monkeypatch.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
    return {"sort": 8, "scratch": 300}.get(branch, 40) * n_pivots


def _fired(metrics):
    """The reduction branches the captured kernel calls took."""
    return {b for b in BRANCHES if metrics.value(f"kernels.panel.method.{b}")}


@pytest.mark.parametrize("branch", ["auto", *BRANCHES])
def test_panel_choose2_sum_matches_brute(branch, rng, monkeypatch):
    from repro.sparsela import panel_choose2_sum

    n_pivots, n = 7, 23
    size = _force_branch(branch, monkeypatch, n_pivots)
    owners = np.sort(rng.integers(0, n_pivots, size=size))
    endpoints = rng.integers(0, n, size=size)
    with obs.capture() as metrics:
        got = panel_choose2_sum(owners, endpoints, n_pivots, n)
    assert got == _brute_choose2(owners, endpoints)
    assert isinstance(got, int)
    fired = _fired(metrics)
    assert len(fired) == 1 and (branch == "auto" or fired == {branch})


@pytest.mark.parametrize("branch", ["auto", *BRANCHES])
def test_panel_choose2_per_owner_matches_brute(branch, rng, monkeypatch):
    from repro.sparsela import panel_choose2_per_owner

    n_pivots, n = 5, 17
    size = _force_branch(branch, monkeypatch, n_pivots)
    owners = np.sort(rng.integers(0, n_pivots, size=size))
    endpoints = rng.integers(0, n, size=size)
    with obs.capture() as metrics:
        got = panel_choose2_per_owner(owners, endpoints, n_pivots, n)
    want = _brute_choose2_per_owner(owners, endpoints, n_pivots)
    assert np.array_equal(got, want)
    assert got.dtype == np.int64
    fired = _fired(metrics)
    assert len(fired) == 1 and (branch == "auto" or fired == {branch})


def test_panel_choose2_empty_inputs():
    from repro.sparsela import panel_choose2_per_owner, panel_choose2_sum

    empty = np.array([], dtype=np.int64)
    assert panel_choose2_sum(empty, empty, 4, 10) == 0
    assert panel_choose2_per_owner(empty, empty, 4, 10).tolist() == [0] * 4


def test_panel_choose2_owner_with_no_wedges(monkeypatch):
    from repro.sparsela import panel_choose2_per_owner

    # owners 0 and 3 have wedges, 1 and 2 do not; each wedge repeated
    # ``reps`` times so the scratch branch sees >= 256 wedges per owner
    for branch, reps in (("bincount", 1), ("sort", 1), ("scratch", 256)):
        if branch != "bincount":
            monkeypatch.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
        owners = np.repeat([0, 0, 3, 3, 3], reps)
        endpoints = np.repeat([5, 5, 2, 2, 2], reps)
        with obs.capture() as metrics:
            out = panel_choose2_per_owner(owners, endpoints, 4, 8)
        assert _fired(metrics) == {branch}
        m0, m3 = 2 * reps, 3 * reps
        assert out.tolist() == [m0 * (m0 - 1) // 2, 0, 0, m3 * (m3 - 1) // 2]


def test_panel_choose2_scratch_buffer_reuse_and_rezero(monkeypatch):
    from repro.sparsela import panel_choose2_sum

    monkeypatch.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
    n = 12
    scratch = np.zeros(n, dtype=np.int64)
    # owner 0 meets endpoint 3 300 times, owner 1 meets endpoint 7 400 times
    owners = np.repeat([0, 1], [300, 400])
    endpoints = np.repeat([3, 7], [300, 400])
    expected = 300 * 299 // 2 + 400 * 399 // 2
    with obs.capture() as metrics:
        got = panel_choose2_sum(owners, endpoints, 2, n, scratch=scratch)
    assert _fired(metrics) == {"scratch"}
    assert got == expected
    assert not scratch.any()  # returned zeroed, ready for the next panel
    # second call on the same buffer stays correct
    assert panel_choose2_sum(owners, endpoints, 2, n, scratch=scratch) == expected


def test_panel_auto_dispatch_respects_keyspace_cap(monkeypatch):
    from repro.sparsela.kernels import _panel_reduction  # repro: noqa[RPR001] white-box test of the private dispatch heuristic

    # tiny key space, plenty of items -> dense histogram
    assert _panel_reduction(4, 100, 5000) == "bincount"
    # key space beyond the cap, wedges too sparse to amortise the
    # per-owner scratch loop -> vectorised sort reduction
    assert _panel_reduction(10**4, 10**4, 5000) == "sort"
    # key space beyond the cap, dense owner segments -> scratch discipline
    assert _panel_reduction(10**4, 10**4, 10**7) == "scratch"
    # the crossover: 256 wedges per owner
    assert _panel_reduction(10**4, 10**4, 256 * 10**4 - 1) == "sort"
    assert _panel_reduction(10**4, 10**4, 256 * 10**4) == "scratch"
    # the cap is read at call time, not bound at definition
    monkeypatch.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
    assert _panel_reduction(4, 100, 5000) == "scratch"


def test_panel_choose2_large_multiplicity_exact(monkeypatch):
    from repro.sparsela import panel_choose2_sum

    # C(200000, 2) overflows int32 comfortably; must stay exact in int64
    m = 200_000
    owners = np.zeros(m, dtype=np.int64)
    endpoints = np.zeros(m, dtype=np.int64)
    expected = m * (m - 1) // 2
    # one owner -> bincount (tiny key space), then scratch once the cap is
    # 0; enough empty owners to fall under 256 wedges each -> sort
    for branch, n_pivots in (("bincount", 1), ("scratch", 1), ("sort", m)):
        if branch != "bincount":
            monkeypatch.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
        with obs.capture() as metrics:
            got = panel_choose2_sum(owners, endpoints, n_pivots, 3)
        assert _fired(metrics) == {branch}
        assert got == expected


# ----------------------------------------------------------- keyed reduction
@st.composite
def _key_arrays(draw):
    """``(keys, keyspace, n_groups)``: one key, one run, all-distinct or any keys."""
    n_groups, span = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    keyspace = n_groups * span
    key = st.integers(0, keyspace - 1)
    kind = draw(st.sampled_from(["single", "one_run", "distinct", "random"]))
    if kind == "single":
        keys = [draw(key)]
    elif kind == "one_run":
        keys = [draw(key)] * draw(st.integers(2, 300))
    elif kind == "distinct":
        keys = draw(st.lists(key, min_size=1, max_size=keyspace, unique=True))
    else:
        keys = draw(st.lists(key, max_size=300))
    return keys, keyspace, n_groups


@pytest.mark.parametrize("branch", ["bincount", "sort"])
@given(case=_key_arrays())
@example(case=([5], 8, 1))  # W = 1
@example(case=([3] * 200, 8, 2))  # one run
@example(case=(list(range(24)), 24, 3))  # all distinct
@settings(max_examples=150, deadline=None)
def test_keyed_choose2_sum_matches_counter(branch, case):
    keys, keyspace, n_groups = case
    want = [0] * n_groups
    for key, mult in Counter(keys).items():
        want[key // (keyspace // n_groups)] += mult * (mult - 1) // 2
    with pytest.MonkeyPatch.context() as mp, obs.capture() as metrics:
        if branch == "sort":
            mp.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
        arr = np.array(keys, dtype=np.int64)
        got = kernels.keyed_choose2_sum(arr, keyspace, n_groups)
    assert got.dtype == np.int64 and got.tolist() == want
    assert _fired(metrics) == ({branch} if keys else set())


@st.composite
def _small_graphs(draw):
    """Random biadjacency patterns up to 12 x 12, any density."""
    from repro.graphs import BipartiteGraph

    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = (rng.random((m, n)) < draw(st.floats(0.0, 1.0))).astype(int)
    if not dense.any():
        return BipartiteGraph.empty(m, n)
    return BipartiteGraph.from_biadjacency(dense)


@pytest.mark.parametrize("cap", ["default", 0], ids=["histogram", "sort"])
@pytest.mark.parametrize("budget", [1, 1 << 15], ids=["one-top", "multi-top"])
@given(g=_small_graphs())
@settings(max_examples=60, deadline=None)
def test_priority_kernels_match_oracles_at_any_panel_budget(budget, cap, g):
    """Budget 1 gives every top its own panel; 2^15 packs many tops into one."""
    from repro.baselines import count_butterflies_bruteforce
    from repro.core import priority
    from repro.core.local_counts import vertex_butterfly_counts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(priority, "PRIORITY_PANEL_BUDGET", budget)
        if cap != "default":
            mp.setattr(kernels, "DEFAULT_KEYSPACE_CAP", cap)
        count = priority.count_butterflies_priority(g)
        left, right = priority.vertex_butterfly_counts_priority(g)
    assert count == count_butterflies_bruteforce(g)
    np.testing.assert_array_equal(left, vertex_butterfly_counts(g, "left"))
    np.testing.assert_array_equal(right, vertex_butterfly_counts(g, "right"))
