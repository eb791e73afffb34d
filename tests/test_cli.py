"""CLI: every subcommand runs and prints the expected tables."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "inline1" in out and "mawi_201512020130" in out
    assert "1,909,906,755" in out  # sk-2005 nonzeros from Table 1


def test_solve_lobpcg(capsys):
    assert main(["solve", "--matrix", "inline1", "--scale", "16384",
                 "--solver", "lobpcg", "--nev", "2",
                 "--maxiter", "40"]) == 0
    out = capsys.readouterr().out
    assert "smallest eigenvalues" in out


def test_solve_lanczos(capsys):
    assert main(["solve", "--matrix", "inline1", "--scale", "16384",
                 "--solver", "lanczos"]) == 0
    assert "extreme eigenvalues" in capsys.readouterr().out


def test_solve_cg(capsys):
    assert main(["solve", "--matrix", "inline1", "--scale", "16384",
                 "--solver", "cg"]) == 0
    out = capsys.readouterr().out
    assert "converged: True" in out


def test_compare_command(capsys):
    assert main(["compare", "--matrix", "inline1", "--solver", "lanczos",
                 "--machine", "broadwell", "--block-count", "32",
                 "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    for v in ("libcsr", "libcsb", "deepsparse", "hpx", "regent"):
        assert v in out


def _bench_trace_args(out_dir, jobs):
    return ["bench", "--machine", "broadwell", "--matrix", "inline1",
            "--solver", "lanczos", "--version", "libcsr", "deepsparse",
            "--iterations", "2", "--no-cache",
            "--trace", str(out_dir), "--jobs", str(jobs)]


def test_bench_trace_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "seq"
    assert main(_bench_trace_args(out, 1)) == 0
    table = capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    # one Chrome trace + one metrics CSV per grid cell
    assert sum(n.endswith(".trace.json") for n in names) == 2
    assert sum(n.endswith(".metrics.csv") for n in names) == 2
    assert any("libcsr" in n for n in names)
    assert any("deepsparse" in n for n in names)
    assert "t/iter (ms)" in table and "deepsparse" in table


def test_bench_trace_jobs_fanout_matches_sequential(tmp_path, capsys):
    """--trace with --jobs > 1 fans cells out over a process pool; the
    per-cell artifacts and the results table must be byte-identical to
    the single-process run (traces record simulated time only)."""
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(_bench_trace_args(seq, 1)) == 0
    seq_table = capsys.readouterr().out
    assert main(_bench_trace_args(par, 2)) == 0
    par_table = capsys.readouterr().out

    seq_names = sorted(p.name for p in seq.iterdir())
    par_names = sorted(p.name for p in par.iterdir())
    assert seq_names == par_names and seq_names
    for name in seq_names:
        assert (seq / name).read_bytes() == (par / name).read_bytes(), name
    assert seq_table == par_table


def test_bench_trace_failing_cell_prints_failure_table(tmp_path, capsys,
                                                      monkeypatch):
    """A traced cell that fails every attempt (--retries honoured)
    prints the sweep failure table and exits 1; the healthy cell still
    writes its artifact pair."""
    import repro.cli as cli

    real = cli._traced_bench_cell
    calls = []

    def failing(out_dir, cell):
        calls.append(cell.version)
        if cell.version == "deepsparse":
            raise ValueError("injected traced failure")
        return real(out_dir, cell)

    monkeypatch.setattr(cli, "_traced_bench_cell", failing)
    out = tmp_path / "t"
    assert main(_bench_trace_args(out, 1) + ["--retries", "1"]) == 1
    err = capsys.readouterr().err
    assert "1 cell(s) failed after retries:" in err
    assert ("broadwell/inline1/lanczos/deepsparse@48x2  attempts=2  "
            "ValueError: injected traced failure") in err
    assert "stderr| Traceback (most recent call last)" in err
    assert calls.count("deepsparse") == 2
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 2 and all("libcsr" in n for n in names)


def test_chaos_command_table_and_artifact(tmp_path, capsys):
    import json

    report = tmp_path / "chaos.json"
    assert main(["chaos", "--matrix", "inline1", "--solver", "lanczos",
                 "--machine", "broadwell", "--block-count", "48",
                 "--iterations", "5", "--spec", "core-loss",
                 "--seed", "0", "--version", "libcsb", "deepsparse",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "fault plan 'core-loss' (seed 0)" in out
    for col in ("healthy ms", "faulted ms", "slowdown", "recov µs",
                "retries", "stall ms"):
        assert col in out
    assert "slowdown = faulted/healthy" in out  # column legend
    doc = json.loads(report.read_text())
    assert doc["spec"] == "core-loss" and doc["seed"] == 0
    assert set(doc["versions"]) == {"libcsb", "deepsparse"}
    for v in doc["versions"].values():
        assert v["faulted_total_time"] > 0
        assert v["fault_report"]["core_losses"]


def test_chaos_rejects_unknown_spec(capsys):
    assert main(["chaos", "--spec", "meteor-strike"]) == 2
    assert "unknown fault spec" in capsys.readouterr().err


def test_tune_command(capsys):
    assert main(["tune", "--matrix", "inline1", "--runtime", "deepsparse",
                 "--machine", "broadwell", "--solver", "lanczos"]) == 0
    out = capsys.readouterr().out
    assert "best bucket" in out
    assert "rule of thumb" in out
