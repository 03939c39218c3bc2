"""Tests for KONECT / edge-list I/O."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    BipartiteGraph,
    gnm_bipartite,
    load_edge_list,
    load_konect,
    save_edge_list,
    save_konect,
)


def test_konect_roundtrip(tmp_path):
    g = gnm_bipartite(12, 17, 60, seed=3)
    path = tmp_path / "g.konect"
    save_konect(g, path)
    assert load_konect(path) == g


def test_konect_roundtrip_empty(tmp_path):
    g = BipartiteGraph.empty(3, 4)
    path = tmp_path / "empty.konect"
    save_konect(g, path)
    loaded = load_konect(path)
    assert loaded == g
    assert loaded.shape == (3, 4)  # header preserves isolated vertices


def test_konect_header_sizes_honoured(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("% bip unweighted\n% 1 5 7\n1 1\n")
    g = load_konect(path)
    assert g.shape == (5, 7)
    assert g.n_edges == 1


def test_konect_sizes_inferred_without_header(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("2 3\n1 1\n")
    g = load_konect(path)
    assert g.shape == (2, 3)


def test_konect_ignores_comments_blanks_and_extra_columns(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("% a comment\n\n1 2 99 1234567\n2 1 5\n")
    g = load_konect(path)
    assert g.n_edges == 2


def test_konect_merges_duplicate_edges(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("1 1\n1 1\n1 1\n")
    assert load_konect(path).n_edges == 1


def test_konect_rejects_zero_based_ids(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0 1\n")
    with pytest.raises(ValueError, match="1-based"):
        load_konect(path)


def test_konect_rejects_malformed_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("42\n")
    with pytest.raises(ValueError, match="malformed"):
        load_konect(path)


def test_konect_gzip_roundtrip(tmp_path):
    g = gnm_bipartite(8, 9, 30, seed=5)
    path = tmp_path / "g.konect.gz"
    save_konect(g, path)
    # confirm it's actually gzip on disk
    import gzip

    with gzip.open(path, "rt") as fh:
        assert fh.readline().startswith("%")
    assert load_konect(path) == g


def test_edge_list_gzip_roundtrip(tmp_path):
    g = gnm_bipartite(6, 7, 20, seed=6)
    path = tmp_path / "g.edges.gz"
    save_edge_list(g, path)
    assert load_edge_list(path).edges().tolist() == g.edges().tolist()


@pytest.mark.parametrize("loader", [load_konect, load_edge_list])
def test_truncated_gzip_is_a_value_error(tmp_path, loader):
    path = tmp_path / "cut.gz"
    path.write_bytes(b"\x1f\x8b\xff")  # a gzip magic, then nothing whole
    with pytest.raises(ValueError, match="cut.gz"):
        loader(path)


def test_edge_list_roundtrip(tmp_path):
    g = gnm_bipartite(9, 11, 30, seed=4)
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    loaded = load_edge_list(path)
    # plain format drops trailing isolated vertices; compare edges
    assert loaded.edges().tolist() == g.edges().tolist()


def test_edge_list_explicit_sizes(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# header\n0 0\n")
    g = load_edge_list(path, n_left=4, n_right=6)
    assert g.shape == (4, 6)


def test_edge_list_skips_hash_comments(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# c1\n0 1\n# c2\n1 0\n")
    assert load_edge_list(path).n_edges == 2


# -- the path route against the text route ---------------------------------
#
# A plain file is parsed by numpy from its path, a ``.gz`` file from its
# decoded text.  Each case below must load to the same graph, or fail with
# the same exception type and message, along both routes.

_PARITY_CASES = {
    "crlf": b"% bip unweighted\r\n% 2 3 4\r\n1 1\r\n2 3\r\n",
    "cr_only": b"% bip unweighted\r% 2 3 4\r1 1\r2 3\r",
    "tabs_weights_timestamps": b"1\t2\t1\t1234567890\n2\t1\t-3\t1234567891\n",
    "mid_and_trailing_comments": b"1 1\n% mid-file\n2 2 % trailing\n3 1\n%\n",
    "non_ascii_comment": "% café ☕ \U0001f98b\n1 1\n2 2\n".encode(),
    "non_ascii_row": "1 1\n2 é\n".encode(),
    "non_bmp_row": "1 1\n1\U000e0000\n".encode(),
    "bom": b"\xef\xbb\xbf1 1\n2 2\n",
    "empty": b"",
    "header_only": b"% bip unweighted\n% 0 3 4\n",
    "one_column": b"1 1\n42\n",
    "fractional_id": b"1 1\n1 1.5\n",
    "zero_id": b"1 1\n0 2\n",
    "negative_id": b"% bip unweighted\n1 1\n-3 2\n",
    "id_beyond_header": b"% bip unweighted\n% 2 2 2\n1 1\n3 1\n",
}


def _outcome(loader, path):
    """``("graph", edges, shape)`` or ``("error", type, message)``."""
    try:
        g = loader(path)
    except Exception as exc:  # the type and message are the observation
        return ("error", type(exc), str(exc))
    return ("graph", g.edges().tolist(), g.shape)


def _twins(tmp_path, name, raw):
    """The same bytes as a plain file and as its gzip twin."""
    import gzip

    plain = tmp_path / name
    plain.write_bytes(raw)
    zipped = tmp_path / f"{name}.gz"
    zipped.write_bytes(gzip.compress(raw))
    return plain, zipped


@pytest.mark.parametrize("case", sorted(_PARITY_CASES))
@pytest.mark.parametrize("loader", [load_konect, load_edge_list], ids=["konect", "edges"])
def test_path_route_matches_text_route(tmp_path, case, loader):
    plain, zipped = _twins(tmp_path, case, _PARITY_CASES[case])
    assert _outcome(loader, plain) == _outcome(loader, zipped)


def test_parity_cases_load_as_the_format_says(tmp_path):
    """What the KONECT loader makes of each case, on the path route."""
    graphs, errors = {}, {}
    for case, raw in _PARITY_CASES.items():
        kind, *rest = _outcome(load_konect, _twins(tmp_path, case, raw)[0])
        (graphs if kind == "graph" else errors)[case] = rest
    # the size header is found whatever ends its line
    assert graphs["crlf"] == graphs["cr_only"] == [[[0, 0], [1, 2]], (3, 4)]
    assert graphs["tabs_weights_timestamps"] == [[[0, 1], [1, 0]], (2, 2)]
    assert graphs["mid_and_trailing_comments"] == [[[0, 0], [1, 1], [2, 0]], (3, 2)]
    assert graphs["non_ascii_comment"] == [[[0, 0], [1, 1]], (2, 2)]
    assert graphs["empty"] == [[], (0, 0)]
    assert graphs["header_only"] == [[], (3, 4)]
    for case in ("non_ascii_row", "non_bmp_row", "bom"):
        assert errors[case][0] is ValueError and "non-ASCII" in errors[case][1]
    for case in ("one_column", "fractional_id"):
        assert errors[case][0] is ValueError and "malformed" in errors[case][1]
    assert errors["zero_id"][0] is ValueError and "1-based" in errors["zero_id"][1]
    assert errors["negative_id"][1].endswith("line 3 has id -3")
    assert errors["id_beyond_header"][0] is ValueError


@pytest.mark.parametrize(
    "raw,where",
    [
        (b"1 1\n0 2\n", "line 2 has id 0"),
        (b"% bip unweighted\n1 1\n-3 2\n", "line 3 has id -3"),
        (b"1 1\n\n% note\n  % indented note\n2 -7 % tail\n-1 -1\n", "line 5 has id -7"),
        (b"% 3 4 4\r\n1 1\r\n\r\n4 0\r\n", "line 4 has id 0"),
        (b"% 3 4 4\r1 1\r\r4 0\r", "line 4 has id 0"),
    ],
    ids=["zero", "negative", "comments_and_blanks", "crlf", "cr_only"],
)
def test_konect_error_names_the_line_and_id_below_1(tmp_path, raw, where):
    for path in _twins(tmp_path, "bad.konect", raw):
        with pytest.raises(ValueError, match=f"^KONECT files are 1-based; {where}$"):
            load_konect(path)


def test_plain_file_is_parsed_by_path(tmp_path, monkeypatch):
    """numpy gets a plain file's absolute path, a ``.gz`` file's text."""
    import os

    import numpy as np

    from repro.graphs import io as graph_io

    seen = []
    real = np.loadtxt

    def spy(source, *args, **kwargs):
        seen.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(graph_io.np, "loadtxt", spy)
    monkeypatch.chdir(tmp_path)
    plain, zipped = _twins(tmp_path, "g.konect", b"% 1 2 2\n1 2\n")
    assert load_konect("g.konect") == load_konect(zipped)
    assert os.path.isabs(seen[0]) and os.path.samefile(seen[0], plain)
    assert not isinstance(seen[1], str)


def test_fifo_is_parsed_from_its_text(tmp_path):
    """A pipe cannot be read twice, so it takes the text route."""
    import os
    import threading

    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes")
    fifo = tmp_path / "g.pipe"
    os.mkfifo(fifo)
    loaded = []
    reader = threading.Thread(target=lambda: loaded.append(load_konect(fifo)), daemon=True)
    reader.start()
    fifo.write_bytes(b"% 2 2 2\n1 2\n2 1\n")
    reader.join(timeout=30)
    if reader.is_alive():  # a second open of the pipe waits for a writer
        fifo.write_bytes(b"")
        reader.join()
        pytest.fail("the pipe was opened a second time")
    (g,) = loaded
    assert g.edges().tolist() == [[0, 1], [1, 0]] and g.shape == (2, 2)


@st.composite
def _konect_dialects(draw):
    """A graph plus the line ending and separator its file is rewritten with."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(m - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=40))
    g = BipartiteGraph.empty(m, n)
    if m and n and pairs:
        g = BipartiteGraph(pairs, n_left=m, n_right=n)
    return g, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.sampled_from([" ", "\t"]))


@given(case=_konect_dialects())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_konect_roundtrip_along_both_routes(tmp_path, case):
    g, newline, sep = case
    path = tmp_path / "r.konect"
    save_konect(g, path)
    assert load_konect(path) == g and load_konect(path).shape == g.shape
    text = path.read_text().replace(" ", sep).replace("\n", newline)
    plain, zipped = _twins(tmp_path, "d.konect", text.encode())
    for loaded in (load_konect(plain), load_konect(zipped)):
        assert loaded == g and loaded.shape == g.shape
