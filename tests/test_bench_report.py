"""Tests for the one-shot evaluation report generator."""

from repro.bench.report import fig9_report, fig10_report, fig11_report, full_report, main


def test_fig9_report_contains_paper_columns():
    md = fig9_report(["arxiv"])
    assert "fig9" in md
    assert "| arxiv |" in md
    assert "70549" in md  # the paper's arXiv butterfly count echoed


def test_fig10_report_grid():
    md = fig10_report(["arxiv"])
    assert "Inv. 1" in md and "Inv. 8" in md
    assert md.count("| arxiv |") == 1


def test_fig11_report_grid():
    md = fig11_report(["arxiv"], n_workers=2)
    assert "2 shared workers" in md
    assert "| arxiv |" in md


def test_full_report_concatenates():
    md = full_report(["arxiv"], n_workers=2)
    assert "fig9" in md and "fig10" in md and "fig11" in md


def test_main_writes_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["--datasets", "arxiv", "--workers", "2",
                 "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert "fig10" in out.read_text()


def test_main_stdout(capsys):
    assert main(["--datasets", "arxiv", "--workers", "2"]) == 0
    assert "Evaluation report" in capsys.readouterr().out


def test_record_save_and_compare(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["--datasets", "arxiv", "--workers", "2",
                 "--out", str(tmp_path / "r.md"),
                 "--save-json", str(out)]) == 0
    capsys.readouterr()
    assert main(["--datasets", "arxiv", "--workers", "2",
                 "--out", str(tmp_path / "r2.md"),
                 "--compare-to", str(out)]) == 0
    text = capsys.readouterr().out
    assert "this run / recorded" in text
    assert "geometric mean" in text


def test_shipped_reference_run_loads():
    """The repository's recorded reference run must stay loadable and
    carry the full fig10/fig11 grids."""
    import pathlib

    from repro.bench.results import load_run

    path = pathlib.Path(__file__).parent.parent / "results" / "reference_run.json"
    runs = load_run(path)
    assert set(runs) == {"fig10", "fig11"}
    for sweep in runs.values():
        assert len(sweep.rows) == 5 and len(sweep.columns) == 8
        assert sweep.values_agree()
