"""repro.storage — the GraphStorage layouts behind the planner's storage axis.

Two concerns, each pinned separately:

- every layout keeps the caller's vertex ids: per-vertex results from a
  prebuilt view come back in user order;
- :class:`MmapCSR` runs the counting kernels out-of-core: the rlimit
  subprocess test counts a graph whose index arrays exceed the process'
  ``RLIMIT_DATA`` budget, which only works because the column files are
  paged in by the OS instead of living on the heap.

The work-model regression (2⁴⁰ wedges on a hub graph, computed directly
on a storage view) guards the int64 prefix-sum discipline of
:func:`repro.core.workinfo.wedge_work_prefix`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import engine
from repro.core import count_butterflies
from repro.core.blocked import count_butterflies_blocked
from repro.core.local_counts import vertex_butterfly_counts
from repro.core.workinfo import wedge_work_prefix
from repro.engine.calibration import CalibrationTable
from repro.engine.plan import LAYOUTS as PLAN_LAYOUTS
from repro.graphs import (
    BipartiteGraph,
    power_law_bipartite,
)
from repro.sparsela import PatternCSR
from repro.storage import (
    LAYOUTS,
    MmapCSR,
    RawCSR,
    make_storage,
    resolve_storage,
)

DEFAULTS = CalibrationTable()


def _graph() -> BipartiteGraph:
    return power_law_bipartite(60, 80, 500, seed=31)


# ----------------------------------------------------------------------
# layouts behind the protocol
# ----------------------------------------------------------------------


class TestGraphStorage:
    def test_factory_builds_each_layout(self):
        g = _graph()
        classes = {"raw": RawCSR, "mmap": MmapCSR}
        # the plan record keeps its own literal copy of the axis
        assert LAYOUTS == PLAN_LAYOUTS == tuple(classes)
        for layout in LAYOUTS:
            store = make_storage(g, layout)
            assert isinstance(store, classes[layout])
            assert store.layout == layout
            assert (store.n_left, store.n_right) == g.shape
            assert store.n_edges == g.n_edges

    def test_factory_rejects_unknown_and_rewrap(self):
        g = _graph()
        for retired in ("csr", "compact", "reorder"):
            with pytest.raises(ValueError, match="unknown storage layout"):
                make_storage(g, retired)
        store = make_storage(g, "mmap")
        with pytest.raises(TypeError, match="already"):
            make_storage(store, "raw")
        assert make_storage(store, "mmap") is store

    def test_resolve_passthrough_and_default(self):
        g = _graph()
        store = resolve_storage(g, None)
        assert isinstance(store, RawCSR)
        again = resolve_storage(store, "mmap")  # existing object wins
        assert again is store

    def test_counts_agree_across_layouts(self):
        g = _graph()
        truth = count_butterflies(g)
        for layout in LAYOUTS:
            store = make_storage(g, layout)
            assert count_butterflies_blocked(store, 2, block_size=16) == truth

    def test_repr_mentions_layout(self):
        assert "mmap" in repr(make_storage(_graph(), "mmap"))


class TestMmapCSR:
    def test_from_graph_counts_and_cleans_up(self):
        g = _graph()
        store = MmapCSR.from_graph(g)
        directory = store.directory
        assert count_butterflies_blocked(store, 2, 16) == count_butterflies(g)
        assert store.file_bytes > 0
        with pytest.raises(TypeError, match="no in-memory"):
            store.graph
        del store
        assert not os.path.exists(directory)  # finalizer removed the tempdir

    def test_save_then_load_explicit_directory(self, tmp_path):
        g = _graph()
        MmapCSR.save(g, str(tmp_path / "g"))
        store = MmapCSR.load(str(tmp_path / "g"))
        assert store.shape == g.shape
        assert store.n_edges == g.n_edges
        np.testing.assert_array_equal(
            store.csr.entries(0, store.n_edges), g.csr.indices
        )
        del store
        assert (tmp_path / "g").exists()  # caller-provided dir is kept


# ----------------------------------------------------------------------
# out-of-core: count under an RLIMIT_DATA budget smaller than the arrays
# ----------------------------------------------------------------------

_RLIMIT_SCRIPT = textwrap.dedent(
    """
    import resource, sys
    cap = int(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
    from repro.core.blocked import count_butterflies_blocked
    from repro.storage import MmapCSR
    store = MmapCSR.load(sys.argv[2])
    print(count_butterflies_blocked(store, 2, block_size=1 << 16))
    """
)


def _write_band_columns(directory: str, n: int) -> int:
    """Write band-graph column files (row i → {i, i+1, i+2}) directly.

    Built straight on disk via ``open_memmap`` so the *test* process never
    holds the arrays either.  Returns the total index bytes written.
    """
    import json

    from repro._types import INDEX_DTYPE  # repro: noqa[RPR001] white-box: dtype constant is not re-exported publicly

    os.makedirs(directory, exist_ok=True)
    itemsize = np.dtype(INDEX_DTYPE).itemsize
    n_right = n + 2
    # csr: entry e belongs to row e // 3, offset e % 3 → index row + offset
    chunk = 1 << 20
    out = np.lib.format.open_memmap(
        os.path.join(directory, "csr_indptr.npy"),
        mode="w+", dtype=INDEX_DTYPE, shape=(n + 1,),
    )
    for lo in range(0, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        out[lo:hi] = 3 * np.arange(lo, hi, dtype=np.int64)
    out.flush(); del out

    out = np.lib.format.open_memmap(
        os.path.join(directory, "csr_indices.npy"),
        mode="w+", dtype=INDEX_DTYPE, shape=(3 * n,),
    )
    for lo in range(0, 3 * n, chunk):
        hi = min(lo + chunk, 3 * n)
        e = np.arange(lo, hi, dtype=np.int64)
        out[lo:hi] = e // 3 + e % 3
    out.flush(); del out

    # csc: column j has max(0, min(j, n - 1, 2, n + 1 - j) ...) — easier by
    # degree: deg(j) = #{i in [0, n) : j - 2 <= i <= j} = min(j, 2) -
    # max(0, j - n + 1) + 1 clipped to >= 0
    out = np.lib.format.open_memmap(
        os.path.join(directory, "csc_indptr.npy"),
        mode="w+", dtype=INDEX_DTYPE, shape=(n_right + 1,),
    )
    carry = 0
    for lo in range(0, n_right, chunk):
        hi = min(lo + chunk, n_right)
        j = np.arange(lo, hi, dtype=np.int64)
        deg = np.minimum(j, 2) - np.maximum(j - n + 1, 0) + 1
        np.clip(deg, 0, None, out=deg)
        out[lo] = carry
        csum = carry + deg.cumsum()
        out[lo + 1 : hi + 1] = csum
        carry = int(csum[-1])
    out.flush(); del out

    out = np.lib.format.open_memmap(
        os.path.join(directory, "csc_indices.npy"),
        mode="w+", dtype=INDEX_DTYPE, shape=(3 * n,),
    )
    # rows of column j are j-2, j-1, j clipped to [0, n); generate per
    # column-chunk using the same degree formula
    pos = 0
    for lo in range(0, n_right, chunk):
        hi = min(lo + chunk, n_right)
        j = np.arange(lo, hi, dtype=np.int64)
        deg = np.clip(np.minimum(j, 2) - np.maximum(j - n + 1, 0) + 1, 0, None)
        first = np.maximum(j - 2, 0)
        offsets = np.arange(int(deg.sum()), dtype=np.int64)
        starts = np.repeat(deg.cumsum() - deg, deg)
        rows = np.repeat(first, deg) + (offsets - starts)
        out[pos : pos + rows.size] = rows
        pos += rows.size
    out.flush(); del out

    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(
            {"n_left": n, "n_right": n_right, "n_edges": 3 * n}, fh
        )
    return itemsize * ((n + 1) + 3 * n + (n_right + 1) + 3 * n)


def test_mmap_counts_beyond_rlimit_budget(tmp_path):
    """The out-of-core guarantee, pinned with a hard rlimit.

    Row i of the band graph connects to columns {i, i+1, i+2}; adjacent
    rows share exactly 2 columns, rows two apart share 1, so the count is
    closed-form N − 1.  The subprocess caps ``RLIMIT_DATA`` *below* the
    total index bytes: loading the four arrays onto the heap is
    impossible, yet the memory-mapped blocked count succeeds because
    read-only file-backed pages are the page cache's, not the heap's.
    """
    n = 4_000_000
    directory = str(tmp_path / "band")
    index_bytes = _write_band_columns(directory, n)
    assert index_bytes > 240 * 1024 * 1024

    # sanity: the layout is a valid CSR/CSC pair of the same graph
    store = MmapCSR.load(directory)
    assert store.n_edges == 3 * n
    np.testing.assert_array_equal(
        store.csr.slice(5), np.array([5, 6, 7])
    )
    np.testing.assert_array_equal(store.csc.slice(0), np.array([0]))
    np.testing.assert_array_equal(store.csc.slice(2), np.array([0, 1, 2]))
    del store

    cap = 192 * 1024 * 1024  # well below index_bytes, ample for python+numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RLIMIT_SCRIPT, str(cap), directory],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) == n - 1


# ----------------------------------------------------------------------
# work model on a storage view: int64 discipline at 2^40 wedges
# ----------------------------------------------------------------------


def test_wedge_work_prefix_2_pow_40_on_raw_view():
    """Hub graph: 2²⁰ left vertices each adjacent to one hub of degree 2²⁰.

    Every left pivot expands deg(hub) = 2²⁰ wedge endpoints, so the total
    is exactly 2⁴⁰ — far past float64-safe integer territory for sums of
    this scale and a regression trap for any float intermediate.  Computed
    directly on the RawCSR view's patterns through the accessor protocol.
    """
    n = 1 << 20
    csr = PatternCSR(
        np.arange(n + 1, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        (n, 1),
        check=False,
    )
    store = RawCSR(BipartiteGraph.from_csr(csr))
    prefix = wedge_work_prefix(store.csr, store.csc)
    assert prefix.dtype == np.int64
    assert prefix[0] == 0
    assert int(prefix[-1]) == 2**40
    # exact triangular growth: pivot p contributes exactly 2^20
    assert int(prefix[1]) == 2**20
    assert int(prefix[n // 2]) == (n // 2) * 2**20


# ----------------------------------------------------------------------
# the storage axis through plan → execute
# ----------------------------------------------------------------------


class TestPlannerStorageAxis:
    def test_execute_agrees_across_layout_pins(self):
        g = _graph()
        truth = count_butterflies(g)
        for layout in LAYOUTS:
            p = engine.plan(g, "count", layout=layout, calibration=DEFAULTS)
            assert p.layout == layout
            assert engine.execute(p, g) == truth

    def test_mmap_pin_is_serial_only(self):
        g = _graph()
        p = engine.plan(g, "count", layout="mmap", calibration=DEFAULTS)
        assert p.executor == "serial"

    def test_family_only_auto_stays_raw(self):
        """The sequential-family pins (count_butterflies, the CLI's
        default count) and any pin without a layout plan raw."""
        g = _graph()
        for pins in ({"strategy": "scratch", "executor": "serial"},
                     {"invariant": 6}, {"workers": 2}):
            p = engine.plan(g, "count", calibration=DEFAULTS, **pins)
            assert p.layout == "raw", pins

    def test_layout_rejected_for_peeling_workloads(self):
        g = _graph()
        with pytest.raises(ValueError, match="storage-layout"):
            engine.plan(g, "tip", side="left", layout="mmap",
                        calibration=DEFAULTS)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="unknown layout 'compact'"):
            engine.plan(_graph(), "count", layout="compact",
                        calibration=DEFAULTS)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_vertex_counts_in_user_order_on_prebuilt_views(self, layout):
        """A view built before ``execute`` gets no map-back step, so every
        layout must hand per-vertex counts back in the caller's ids."""
        g = _graph()
        for side in ("left", "right"):
            truth = vertex_butterfly_counts(g, side)
            p = engine.plan(g, "vertex-counts", side=side, calibration=DEFAULTS)
            view = make_storage(g, layout)
            np.testing.assert_array_equal(engine.execute(p, view), truth)

    def test_label_and_explain_show_the_layout(self):
        g = _graph()
        p = engine.plan(g, "count", layout="mmap", calibration=DEFAULTS)
        assert "mmap" in p.label
        text = engine.explain(p, g, calibration=DEFAULTS)
        assert "layout" in text
        assert "mmap" in text

    def test_execute_accepts_prebuilt_storage(self):
        g = _graph()
        store = make_storage(g, "mmap")
        p = engine.plan(g, "count", layout="mmap", calibration=DEFAULTS)
        assert engine.execute(p, store) == count_butterflies(g)
