"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.graphs import gnm_bipartite, save_konect


@pytest.fixture()
def konect_file(tmp_path):
    g = gnm_bipartite(10, 12, 40, seed=1)
    path = tmp_path / "g.konect"
    save_konect(g, path)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info_command(konect_file, capsys):
    assert main(["info", konect_file]) == 0
    out = capsys.readouterr().out
    assert "butterflies" in out
    assert "clustering" in out


def test_info_on_dataset(capsys):
    assert main(["info", "dataset:arxiv"]) == 0
    out = capsys.readouterr().out
    assert "n_edges" in out


def test_count_auto(konect_file, capsys):
    assert main(["count", konect_file]) == 0
    out = capsys.readouterr().out
    assert "auto" in out and "butterflies:" in out


def test_count_explicit_invariant_consistency(konect_file, capsys):
    values = set()
    for inv in ("1", "5", "8"):
        main(["count", konect_file, "--invariant", inv])
        out = capsys.readouterr().out
        values.add(out.strip().splitlines()[-1])
    assert len(values) == 1  # all invariants print the same count


def test_count_spmv_strategy(konect_file, capsys):
    assert main(["count", konect_file, "--strategy", "spmv"]) == 0
    assert "spmv" in capsys.readouterr().out


def test_count_rejects_bad_invariant(konect_file):
    with pytest.raises(SystemExit):
        main(["count", konect_file, "--invariant", "9"])


def test_peel_tip(konect_file, capsys):
    assert main(["peel", konect_file, "--k", "1"]) == 0
    assert "-tip" in capsys.readouterr().out


def test_peel_wing(konect_file, capsys):
    assert main(["peel", konect_file, "--k", "1", "--mode", "wing"]) == 0
    assert "-wing" in capsys.readouterr().out


def test_peel_requires_k(konect_file):
    with pytest.raises(SystemExit):
        main(["peel", konect_file])


def test_info_json(konect_file, capsys):
    import json

    assert main(["info", konect_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_edges"] == 40
    assert "butterflies" in payload and "clustering_c4" in payload


def test_count_json(konect_file, capsys):
    import json

    assert main(["count", konect_file, "--json", "--invariant", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant"] == "3"
    assert isinstance(payload["butterflies"], int)


def test_decompose_tip(konect_file, capsys):
    assert main(["decompose", konect_file, "--mode", "tip", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "tip numbers" in out and "max tip number" in out


def test_decompose_wing(konect_file, capsys):
    assert main(["decompose", konect_file, "--mode", "wing"]) == 0
    out = capsys.readouterr().out
    assert "wing numbers" in out and "max wing number" in out


def test_decompose_right_side(konect_file, capsys):
    assert main(["decompose", konect_file, "--side", "right"]) == 0
    assert "right side" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["tip", "wing"])
def test_decompose_output_independent_of_workers(konect_file, capsys, mode):
    """``decompose`` peels in-process: a warm two-worker pool neither
    changes what it prints (ties included) nor receives a dispatch."""
    from repro.parallel import get_default_executor, shutdown_default_executors

    argv = ["decompose", konect_file, "--mode", mode, "--top", "50"]
    outputs = []
    try:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        pool = get_default_executor(2)
        before = pool.dispatch_count
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert pool.dispatch_count == before
    finally:
        shutdown_default_executors()
    assert outputs[0] == outputs[1]
    assert "max" in outputs[0]


def test_generate_roundtrip(tmp_path, capsys):
    out_file = str(tmp_path / "generated.konect")
    assert main([
        "generate", out_file,
        "--n-left", "20", "--n-right", "30", "--edges", "100",
        "--model", "uniform", "--seed", "5",
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    from repro.graphs import load_konect

    g = load_konect(out_file)
    assert g.shape == (20, 30) and g.n_edges == 100


def test_generate_powerlaw(tmp_path):
    out_file = str(tmp_path / "pl.konect")
    assert main([
        "generate", out_file,
        "--n-left", "25", "--n-right", "25", "--edges", "120",
    ]) == 0
    from repro.graphs import load_konect

    assert load_konect(out_file).shape == (25, 25)


def test_algorithms_listing(capsys):
    assert main(["algorithms"]) == 0
    out = capsys.readouterr().out
    assert "inv1-adjacency-unblocked" in out
    assert "56 members" in out


def test_algorithms_filtered(capsys):
    assert main(["algorithms", "--executor", "blocked"]) == 0
    out = capsys.readouterr().out
    assert "8 members" in out
    assert "panel" in out


def test_algorithms_run_agreement(konect_file, capsys):
    assert main(["algorithms", "--executor", "blocked",
                 "--run", konect_file]) == 0
    out = capsys.readouterr().out
    assert "all agree:" in out


def test_bench_smallest_dataset(capsys):
    assert main(["bench", "--dataset", "arxiv"]) == 0
    out = capsys.readouterr().out
    assert "Inv. 1" in out and "Inv. 8" in out
    assert "butterflies:" in out


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["analyze", "{tmp}", "--rules", "RPR099"], "RPR099"),
        (["analyze", "{tmp}/nonexistent"], "nonexistent"),
        (["count", "{tmp}/nonexistent.tsv"], "nonexistent"),
        (["peel", "{tmp}/g.tsv", "--k", "1", "--storage", "mmap"],
         "unrecognized arguments"),
        (["count", "{tmp}/g.tsv", "--storage", "reorder"], "invalid choice"),
        (["explain", "{tmp}/g.tsv", "--workload", "tip", "--storage", "mmap"],
         "storage-layout axis"),
        (["explain", "{tmp}/g.tsv", "--workload", "vertex-counts",
          "--workers", "2"], "'vertex-counts' is serial-only"),
        (["count", "{tmp}/g.tsv", "--workers", "0"], "n_workers must be >= 1"),
        (["count", "{tmp}/g.tsv", "--workers", "-3"], "n_workers must be >= 1"),
        (["explain", "{tmp}/g.tsv", "--workers", "0"], "n_workers must be >= 1"),
        (["decompose", "{tmp}/g.tsv", "--workers", "2"],
         "unrecognized arguments"),
        (["count", "dataset:nope"], "unknown dataset 'nope'"),
        (["info", "dataset:nope"], "unknown dataset 'nope'"),
        (["peel", "dataset:nope", "--k", "1"], "unknown dataset 'nope'"),
        (["explain", "dataset:nope"], "unknown dataset 'nope'"),
        (["decompose", "{tmp}/g.tsv", "--top", "-1"], "must be >= 0"),
        (["generate", "{tmp}/out.tsv", "--n-left", "-1", "--n-right", "5",
          "--edges", "10"], "n_left must be >= 0"),
        (["generate", "{tmp}/out.tsv", "--n-left", "5", "--n-right", "5",
          "--edges", "-3"], "n_edges must be >= 0"),
        (["stream", "empty:axb", "{tmp}/g.tsv"], "bad empty-graph spec"),
    ],
    ids=["unknown-rule", "missing-scan-path", "missing-graph",
         "peel-mmap-storage", "count-reorder-storage", "explain-tip-mmap",
         "explain-vertex-counts-pool", "count-zero-workers",
         "count-negative-workers", "explain-zero-workers",
         "decompose-workers", "count-unknown-dataset", "info-unknown-dataset",
         "peel-unknown-dataset", "explain-unknown-dataset",
         "decompose-negative-top", "generate-negative-n-left",
         "generate-negative-edges", "stream-bad-empty-spec"],
)
def test_bad_input_exits_2_without_traceback(argv, reason, tmp_path, capsys):
    """Bad input is a usage error (exit 2), distinct from findings (exit 1).
    ``{tmp}/g.tsv`` exists, so its rows fail on the flags, not the file."""
    save_konect(gnm_bipartite(10, 12, 40, seed=1), tmp_path / "g.tsv")
    try:
        code = main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse rejected the argv: usage + error line
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(("repro-butterfly: error: ", "usage: repro-butterfly"))
    assert re.match(r"repro-butterfly( \w+)?: error: ", err.splitlines()[-1])
    assert reason in err.splitlines()[-1]
    assert "Traceback" not in err


def _cli_subprocess_env() -> dict:
    """Environment that runs this checkout's ``repro`` in a fresh interpreter."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_closed_stdout_pipe_exits_141_without_error(tmp_path):
    """``stats ... | head -1``: the reader leaving early is not bad input."""
    from repro.obs import JsonlSink, Metrics, flush

    metrics = Metrics()
    for i in range(5_000):  # a table far larger than one pipe buffer
        metrics.inc(f"test.pipe.metric_{i:05d}", i)
    path = tmp_path / "m.jsonl"
    flush(metrics, JsonlSink(path))

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "stats", "--from-metrics", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_subprocess_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert (code, err) == (141, "")

