import numpy as np
import pytest

from evosylv.cli import (CSV_HEADER, RunConfig, build_parser, convergence_study,
                         emit_plot_data, emit_report, main, run)
from evosylv.errors import ConfigError


def test_run_example1_record():
    rec = run(RunConfig(preset="example1", n=48, ell=24, tol=1e-10))
    assert rec.preset == "example1" and rec.d == 1
    assert rec.final_residual <= 1e-10
    assert rec.error_vs_oracle <= 1e-8
    assert rec.error_vs_analytic is not None
    assert rec.iterations >= 1


def test_run_uses_tensorized_path_when_separable():
    rec = run(RunConfig(preset="example2", n=16, ell=16, tol=1e-8))
    assert rec.error_vs_oracle <= 1e-6
    rec_off = run(RunConfig(preset="example2", n=16, ell=16, tol=1e-8,
                            separable="off"))
    assert rec_off.error_vs_oracle <= 1e-6


@pytest.mark.parametrize("method", ["eksm", "rksm"])
def test_example3_boundary_data_matches_oracle(method):
    # the hot wall enters only through the streamed boundary-row source
    rec = run(RunConfig(preset="example3", n=16, ell=64, epsilon=0.01,
                        method=method))
    assert rec.error_vs_oracle <= 1e-5


def test_separable_on_rejected_when_not_separable(tmp_path):
    with pytest.raises(ConfigError):
        run(RunConfig(preset="example3", n=8, ell=8, separable="on"))


def test_oracle_methods():
    rec = run(RunConfig(preset="example1", n=16, ell=8, method="timestep-oracle"))
    assert rec.final_residual is None
    assert rec.error_vs_analytic is not None
    rec2 = run(RunConfig(preset="example1", n=16, ell=8, method="dense-oracle"))
    assert abs(rec2.error_vs_analytic - rec.error_vs_analytic) < 1e-12


def test_invalid_preset():
    with pytest.raises(ConfigError):
        run(RunConfig(preset="example9"))


def test_invalid_preset_exit_code(capsys):
    assert main(["--preset", "example9"]) == 2
    assert "error" in capsys.readouterr().err


def test_numerical_error_exit_code(capsys):
    # BDF3 on example2, which has no known solution for the extra initial
    # values: MissingInitialValues is reported, not raised
    assert main(["--preset", "example2", "--n", "16", "--ell", "64", "--s", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_csv_header_exact():
    assert CSV_HEADER == ("preset,d,n,ell,s,method,inner,iterations,"
                          "final_residual,wall_time_s,memory_units,"
                          "error_vs_oracle,error_vs_analytic")


def test_emit_report_single_record(tmp_path):
    rec = run(RunConfig(preset="example1", n=16, ell=8, tol=1e-8))
    path = tmp_path / "out.csv"
    summary = emit_report([rec], str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert "example1" in summary


def test_emit_report_sorted(tmp_path):
    recs = [run(RunConfig(preset="example1", n=n, ell=ell, tol=1e-8))
            for n, ell in ((32, 8), (16, 16), (16, 8))]
    path = tmp_path / "out.csv"
    emit_report(recs, str(path))
    rows = path.read_text().strip().split("\n")[1:]
    keys = [(int(r.split(",")[2]), int(r.split(",")[3])) for r in rows]
    assert keys == sorted(keys)


def test_emit_report_requires_records(tmp_path):
    with pytest.raises(ConfigError):
        emit_report([], str(tmp_path / "x.csv"))


def test_determinism_excluding_wall_time():
    def row_without_time(rec):
        parts = rec.csv_row().split(",")
        del parts[9]
        return parts

    r1 = run(RunConfig(preset="example2", n=12, ell=12, tol=1e-8, seed=3))
    r2 = run(RunConfig(preset="example2", n=12, ell=12, tol=1e-8, seed=3))
    assert row_without_time(r1) == row_without_time(r2)


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = example1\nn = 16\nell = 8\ntol = 1e-8\n# comment\n")
    parser = build_parser()
    args = parser.parse_args(["--config", str(cfg), "--ell", "12"])
    from evosylv.cli import _config_from_args
    config = _config_from_args(args)
    assert config.preset == "example1"
    assert config.n == 16
    assert config.ell == 12          # flag overrides file
    assert config.tol == 1e-8


def test_main_single_run(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["--preset", "example1", "--n", "16", "--ell", "8",
                 "--tol", "1e-8", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_convergence_study_space_slope():
    # order-3 time stepping keeps the temporal error far below the spatial
    # one over this range
    base = RunConfig(preset="example1", s=3, ell=128, tol=1e-11)
    records, pairs, slope = convergence_study(base, "space", points=[17, 33, 65])
    assert len(records) == 3
    assert 1.85 <= slope <= 2.15


def test_convergence_study_rejects_other_presets():
    with pytest.raises(ConfigError):
        convergence_study(RunConfig(preset="example2"), "space")


def test_plot_data_file(tmp_path):
    path = tmp_path / "p.csv"
    emit_plot_data([(0.1, 1e-3), (0.05, 2.5e-4)], str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "refinement,error"
    assert len(lines) == 3
    x, e = lines[1].split(",")
    assert float(x) == pytest.approx(0.1)


def test_main_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["--preset", "example1", "--sweep", "time", "--n", "257",
                 "--points", "8,16", "--tol", "1e-11", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "slope" in captured
    assert (tmp_path / "sweep.csv.plotdata.csv").exists()


def test_parallel_sweep_matches_sequential():
    base = RunConfig(preset="example1", s=1, ell=32, tol=1e-10)
    seq = convergence_study(base, "space", points=[17, 33], jobs=1)
    par = convergence_study(base, "space", points=[17, 33], jobs=2)
    assert seq[1] == par[1]
    assert seq[2] == par[2]
