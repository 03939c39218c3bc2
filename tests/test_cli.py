"""Tests for the command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.graphs import BipartiteGraph, gnm_bipartite, save_konect


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


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_count_prints_the_same_bytes_with_and_without_auto(
    konect_file, capsys, fmt
):
    """Plain ``count`` plans with the engine's rule; ``--auto`` is a no-op."""
    assert main(["count", konect_file, *fmt]) == 0
    plain = capsys.readouterr().out
    assert main(["count", konect_file, "--auto", *fmt]) == 0
    assert capsys.readouterr().out == plain
    assert "priority-serial" in plain


def test_count_invariant_pin_plans_the_same_with_and_without_auto(
    konect_file, capsys
):
    plans = set()
    for extra in ([], ["--auto"]):
        assert main(["count", konect_file, "--invariant", "3", "--json",
                     *extra]) == 0
        plans.add(json.loads(capsys.readouterr().out)["plan"])
    assert plans == {"inv3-scratch-serial"}


def test_count_block_size_pins_the_blocked_member(konect_file, capsys):
    assert main(["count", konect_file, "--block-size", "32", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["strategy"], payload["mode"]) == ("blocked", "blocked (b=32)")
    assert payload["plan"].endswith("-blocked-b32-serial")


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
    assert main(["info", konect_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_edges"] == 40
    assert "butterflies" in payload and "clustering_c4" in payload


def test_count_json(konect_file, capsys):
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
    assert "inv1-scratch-serial" in out
    assert "inv8-wedge-shared" in out
    assert "priority-serial" in out
    assert "57 members" in out


def test_algorithms_filtered(capsys):
    assert main(["algorithms", "--executor", "shared"]) == 0
    out = capsys.readouterr().out
    assert "24 members" in out
    assert "blocked" not in out and "priority" not in out


def test_algorithms_run_agreement(konect_file, capsys):
    """The shared members run on the warm pool, retired afterwards."""
    from repro.parallel import shutdown_default_executors

    try:
        assert main(["algorithms", "--executor", "shared",
                     "--run", konect_file]) == 0
    finally:
        shutdown_default_executors()
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
        (["count", "{tmp}/g.tsv", "--blocked", "--block-size", "0"],
         "block_size must be >= 1, got 0"),
        (["explain", "{tmp}/g.tsv", "--strategy", "blocked", "--block-size",
          "0"], "block_size must be >= 1, got 0"),
        (["explain", "{tmp}/g.tsv", "--workload", "tip", "--k", "-2"],
         "k must be non-negative, got -2"),
        (["explain", "{tmp}/g.tsv", "--workload", "tip", "--block-size", "8"],
         "workload 'tip' runs only the vertex-priority kernel"),
        (["explain", "{tmp}/g.tsv", "--workload", "vertex-counts",
          "--strategy", "blocked"],
         "workload 'vertex-counts' runs only the vertex-priority kernel"),
        (["count", "{tmp}/g.tsv", "--strategy", "wedge", "--block-size", "8"],
         "conflicting pins: --strategy wedge"),
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
        (["stream", "empty:3x3", "{tmp}/insert_99.txt"],
         "right vertex 99 out of range [0, 3)"),
        (["stream", "empty:3x3", "{tmp}/delete_99.txt", "--strategy",
          "incremental"], "left vertex 99 out of range [0, 3)"),
        (["stream", "empty:3x3", "{tmp}/delete_99.txt", "--strategy", "auto"],
         "line 2: left vertex 99 out of range [0, 3)"),
        (["stream", "empty:3x3", "{tmp}/negative.txt"], "must be non-negative"),
        (["stream", "empty:3x3", "{tmp}/flush.txt", "--snapshot-in",
          "{tmp}/truncated.rbsn"], "snapshot prefix needs 14 bytes"),
        (["stream", "empty:4x3", "{tmp}/flush.txt", "--snapshot-in",
          "{tmp}/3x3.rbsn"], "does not match counter shape 4x3"),
        (["calibrate", "--repeats", "0"], "repeats must be >= 1, got 0"),
        (["calibrate", "--if-drifted", "0.5", "--repeats", "-1", "--ledger",
          "{tmp}/ledger.jsonl"], "repeats must be >= 1, got -1"),
    ],
    ids=["unknown-rule", "missing-scan-path", "missing-graph",
         "peel-mmap-storage", "count-reorder-storage", "explain-tip-mmap",
         "explain-vertex-counts-pool", "count-zero-workers",
         "count-negative-workers", "explain-zero-workers",
         "count-zero-block-size", "explain-zero-block-size",
         "explain-tip-negative-k", "explain-tip-block-size",
         "explain-vertex-counts-blocked", "count-wedge-block-size",
         "decompose-workers", "count-unknown-dataset", "info-unknown-dataset",
         "peel-unknown-dataset", "explain-unknown-dataset",
         "decompose-negative-top", "generate-negative-n-left",
         "generate-negative-edges", "stream-bad-empty-spec",
         "stream-out-of-range-insert", "stream-out-of-range-delete",
         "stream-out-of-range-names-line",
         "stream-negative-id", "stream-truncated-snapshot",
         "stream-snapshot-shape-mismatch", "calibrate-zero-repeats",
         "calibrate-if-drifted-negative-repeats"],
)
def test_bad_input_exits_2_without_traceback(argv, reason, tmp_path, capsys):
    """Bad input is a usage error (exit 2), distinct from findings (exit 1).
    ``{tmp}/g.tsv`` exists, so its rows fail on the flags, not the file;
    so do the stream scripts and snapshots below, which fail on content."""
    from repro.core.stream import StreamingButterflyCounter

    save_konect(gnm_bipartite(10, 12, 40, seed=1), tmp_path / "g.tsv")
    scripts = {"insert_99": "+ 0 99\n", "delete_99": "+ 0 1\n- 99 0\n",
               "negative": "+ -1 0\n", "flush": "flush\n"}
    for name, text in scripts.items():
        (tmp_path / f"{name}.txt").write_text(text)
    blob = StreamingButterflyCounter(BipartiteGraph.empty(3, 3)).snapshot()
    (tmp_path / "3x3.rbsn").write_bytes(blob)
    (tmp_path / "truncated.rbsn").write_bytes(blob[:10])
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



# -- how a finished command exits -------------------------------------------
#
# ``python -m repro.cli`` (and the installed script) end through
# ``repro.cli.run``: exit hooks and a flush, then ``os._exit``.


def _cli(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=_cli_subprocess_env(), timeout=120, **kwargs,
    )


def test_main_returns_an_int_in_process(konect_file, capsys):
    code = main(["count", konect_file, "--json"])
    assert type(code) is int and code == 0
    assert '"butterflies"' in capsys.readouterr().out


def test_count_json_reaches_a_file_and_a_pipe_whole(konect_file, tmp_path, capsys):
    assert main(["count", konect_file, "--json"]) == 0
    expected = capsys.readouterr().out.encode()
    out = tmp_path / "out.json"
    with open(out, "wb") as fh:
        to_file = _cli(["count", konect_file, "--json"], stdout=fh)
    to_pipe = _cli(["count", konect_file, "--json"], stdout=subprocess.PIPE)
    assert to_file.returncode == to_pipe.returncode == 0
    assert out.read_bytes() == to_pipe.stdout == expected


def test_exit_hooks_run_and_their_output_is_flushed():
    """Hooks registered by the program run before ``os._exit``."""
    code = (
        "import atexit, sys\n"
        "from repro.cli import run\n"
        "atexit.register(print, 'hook ran')\n"
        "sys.argv = ['repro-butterfly', 'algorithms']\n"
        "run()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("hook ran\n")


def test_missing_graph_exits_2_by_subprocess(tmp_path):
    proc = _cli(["count", str(tmp_path / "nope.konect")], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("repro-butterfly: error: ")
    assert "Traceback" not in proc.stderr


class TestBlasThreadDefault:
    """``run()`` defaults ``OPENBLAS_NUM_THREADS`` to 1 before any numpy
    import: no command calls BLAS, so the default only skips OpenBLAS's
    thread pool; what the user exported wins."""

    @staticmethod
    def _env(**blas) -> dict:
        env = _cli_subprocess_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        env.update(blas)
        return env

    # ``main`` swapped for a probe that reports what ``run()`` handed it
    _PROBE = (
        "import json, os, sys\n"
        "import repro.cli as cli\n"
        "cli.main = lambda argv=None: print(json.dumps({\n"
        "    'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "    'numpy_loaded': 'numpy' in sys.modules})) or 0\n"
        "cli.run()\n"
    )

    def _probe(self, **blas) -> dict:
        proc = subprocess.run([sys.executable, "-c", self._PROBE],
                              env=self._env(**blas), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_run_sets_the_default_before_numpy_loads(self):
        assert self._probe() == {"blas": "1", "numpy_loaded": False}

    def test_an_exported_value_reaches_the_process_unchanged(self):
        assert self._probe(OPENBLAS_NUM_THREADS="4") == {
            "blas": "4", "numpy_loaded": False,
        }

    def test_main_leaves_the_environment_alone(self, konect_file, monkeypatch,
                                               capsys):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["count", konect_file]) == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_count_json_is_byte_identical_with_and_without_the_user_value(
        self, konect_file
    ):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "count", konect_file,
                 "--json"],
                env=self._env(**blas), capture_output=True, timeout=120,
            )
            for blas in ({}, {"OPENBLAS_NUM_THREADS": "4"})
        ]
        assert [p.returncode for p in outs] == [0, 0], outs[0].stderr
        assert outs[0].stdout == outs[1].stdout
        assert b'"butterflies"' in outs[0].stdout

    def test_pooled_count_agrees_under_the_default(self, konect_file):
        counts = []
        for extra in ([], ["--workers", "2"]):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "count", konect_file,
                 "--json", *extra],
                env=self._env(), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            counts.append(json.loads(proc.stdout))
        assert counts[1]["plan"].endswith("-sharedx2")
        assert counts[0]["butterflies"] == counts[1]["butterflies"]


def _live_session_members(sid: int) -> list[int]:
    """Processes of session ``sid`` still running (zombies excluded)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # it exited while we looked
            continue
        # fields[0] is the state, fields[3] the session id
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _wait_for_empty_session(sid: int, timeout: float = 10.0) -> list[int]:
    """Live members left in session ``sid`` once it empties or ``timeout``
    passes: multiprocessing's resource tracker only exits on seeing the
    parent's end of its pipe close."""
    import time

    deadline = time.monotonic() + timeout
    while (members := _live_session_members(sid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members


@pytest.mark.skipif(not os.path.isdir("/proc") or not os.path.isdir("/dev/shm"),
                    reason="needs /proc and /dev/shm")
def test_observed_pooled_count_exits_clean(konect_file, tmp_path):
    """Three obs files written whole, no segment left, no worker alive."""
    metrics, trace, profile = (tmp_path / n for n in
                               ("metrics.jsonl", "trace.json", "profile.collapsed"))
    shm_before = set(os.listdir("/dev/shm"))
    # files, not pipes: a worker left alive would hold a pipe open
    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--metrics-out", str(metrics),
             "--trace-out", str(trace), "--profile-out", str(profile),
             "count", konect_file, "--workers", "2"],
            env=_cli_subprocess_env(), stdout=out_fh, stderr=err_fh,
            start_new_session=True,
        )
    try:
        assert proc.wait(timeout=120) == 0, err.read_text()
        assert _wait_for_empty_session(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert "butterflies" in out.read_text()
    assert set(os.listdir("/dev/shm")) - shm_before == set()
    lines = metrics.read_text().splitlines()
    assert lines and all(isinstance(json.loads(line), dict) for line in lines)
    assert json.loads(trace.read_text())
    for line in profile.read_text().splitlines():
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) > 0
