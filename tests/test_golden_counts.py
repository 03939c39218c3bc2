"""Golden regression tests.

The synthetic stand-ins are fully seeded, so their butterfly counts are
reproducible constants.  Pinning them catches silent regressions anywhere
in the stack — generators, sparse kernels, or counting algorithms — that
the self-consistency tests alone could miss (all implementations drifting
together is implausible, a generator drifting is not).

If a pinned value changes *intentionally* (e.g. a generator fix), update
the constant and note it in EXPERIMENTS.md.
"""

import pytest

from repro.core import count_butterflies
from repro.graphs import (
    gnm_bipartite,
    load_dataset,
    planted_bicliques,
    power_law_bipartite,
)

#: dataset stand-in -> (n_edges, butterflies) pinned at generator seed time
GOLDEN_DATASETS = {
    "arxiv": 3123,
    "producers": 5927,
    "recordlabels": 61522,
    "occupations": 899649,
    "github": 4726082,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DATASETS))
def test_dataset_butterfly_counts_pinned(name):
    g = load_dataset(name)
    assert count_butterflies(g) == GOLDEN_DATASETS[name]


def test_generator_outputs_pinned():
    assert count_butterflies(gnm_bipartite(100, 100, 800, seed=1)) == 1197
    assert count_butterflies(
        power_law_bipartite(100, 150, 700, seed=2)
    ) == count_butterflies(power_law_bipartite(100, 150, 700, seed=2))


def test_vertex_counts_fingerprint_pinned():
    """SHA-256 of the github stand-in's per-vertex count vector — catches
    regressions in the local-count kernels that total-count agreement
    could mask (errors that cancel in the sum)."""
    import hashlib

    from repro.core import vertex_butterfly_counts

    counts = vertex_butterfly_counts(load_dataset("arxiv"), "left")
    digest = hashlib.sha256(counts.tobytes()).hexdigest()
    assert counts.sum() == 2 * GOLDEN_DATASETS["arxiv"]
    assert digest == VERTEX_COUNTS_SHA256


#: pinned at generator-seed time; update only with a deliberate generator
#: or kernel change, noted in EXPERIMENTS.md
VERTEX_COUNTS_SHA256 = (
    "ca4f30db2385df3307577e68b8379c38f510547bc1475fb61bce58dd28f57d72"
)


def test_planted_biclique_closed_form():
    """Planted K_{a,b} bicliques have exactly n·C(a,2)·C(b,2) butterflies."""
    for n, a, b in [(1, 2, 2), (3, 4, 5), (2, 6, 3)]:
        g = planted_bicliques(30, 30, n, a, b, background_edges=0, seed=0)
        expected = n * (a * (a - 1) // 2) * (b * (b - 1) // 2)
        assert count_butterflies(g) == expected
