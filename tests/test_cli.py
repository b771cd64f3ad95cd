import numpy as np

from shrinkcut import dense_closure, solve_cycle_relaxation
from shrinkcut.cli import main
from shrinkcut.graph import format_instance, parse_instance
from shrinkcut.instances import build, grid_pairs, sign_weights


def write_instance(tmp_path, name="g.txt", seed=0, rows=2, cols=3):
    rng = np.random.default_rng(seed)
    pairs = grid_pairs(rows, cols)
    g = build(rows * cols, pairs, sign_weights(len(pairs), rng))
    path = tmp_path / name
    path.write_text(format_instance(g))
    return path, g


def record_of(output):
    rec = {}
    for line in output.strip().splitlines():
        key, _, value = line.partition(" ")
        rec[key] = value
    return rec


def test_oracle_command(tmp_path, capsys):
    path, g = write_instance(tmp_path)
    assert main(["oracle", str(path)]) == 0
    rec = record_of(capsys.readouterr().out)
    assert rec["vertices"] == "6"
    assert "max_value" in rec and "min_value" in rec


def test_relax_command_with_dump(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    out = tmp_path / "point.txt"
    assert main(["relax", str(path), "--solution-out", str(out)]) == 0
    rec = record_of(capsys.readouterr().out)
    assert "objective_value" in rec
    assert len(out.read_text().strip().splitlines()) == 15  # all pairs of 6 vertices


def test_shrink_command_outputs(tmp_path, capsys):
    path, g = write_instance(tmp_path)
    trace = tmp_path / "trace.txt"
    reduced = tmp_path / "reduced.txt"
    code = main([
        "shrink", str(path), "--target", "4",
        "--trace-out", str(trace), "--reduced-out", str(reduced),
    ])
    assert code == 0
    rec = record_of(capsys.readouterr().out)
    assert rec["reduced_vertices"] == "4"
    assert len(trace.read_text().strip().splitlines()) == 2
    parse_instance(reduced.read_text())


def test_landscape_command(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    out = tmp_path / "landscape.csv"
    assert main(["qaoa-landscape", str(path), "--step", "0.3", "--out", str(out)]) == 0
    rec = record_of(capsys.readouterr().out)
    assert "deviation_ratio" in rec
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,beta,value"
    assert len(lines) == 1 + 6 * 6


def test_pipeline_command(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    report_path = tmp_path / "report.txt"
    code = main([
        "pipeline", str(path), "--target", "4", "--subsolver", "exact",
        "--samples", "1", "--out", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    rec = record_of(out)
    assert rec["approximation_ratio"] == "1"
    assert report_path.read_text() == out


def test_sweep_command(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", str(path), "--max-deleted", "2", "--subsolvers", "exact",
        "--samples", "1", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 2 * 3


def test_missing_file_fails(tmp_path, capsys):
    assert main(["oracle", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_fails(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    for edge, message in (("1 2 zzz", "malformed"), ("1 2 nan", "non-finite"), ("1 2 -inf", "non-finite")):
        path.write_text(f"2 1\n{edge}\n")
        assert main(["oracle", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and message in err


def test_stage_error_exit_code(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    # target 2 with qaoa-sim: reduced average degree 1, estimate undefined
    assert main(["pipeline", str(path), "--target", "2", "--subsolver", "qaoa-sim"]) == 1
    assert "stage 'solve'" in capsys.readouterr().err


def test_relax_command_reports_rounds(tmp_path, capsys):
    path, g = write_instance(tmp_path)
    assert main(["relax", str(path)]) == 0
    rec = record_of(capsys.readouterr().out)
    assert "iterations" not in rec
    assert int(rec["rounds"]) >= 1


def test_relax_command_reports_pivots(tmp_path, capsys):
    path, g = write_instance(tmp_path)
    assert main(["relax", str(path)]) == 0
    rec = record_of(capsys.readouterr().out)
    sol = solve_cycle_relaxation(dense_closure(g))
    assert int(rec["pivots"]) == sum(sol.round_pivots) > 0


def test_bad_tolerance_fails(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    assert main(["relax", str(path), "--tol", "nan"]) == 1
    assert "tol must be finite" in capsys.readouterr().err
    assert main(["relax", str(path), "--tol", "0"]) == 1
    assert "at least the simplex's feasibility tolerance 1e-06, got 0.0" in capsys.readouterr().err


def test_zero_samples_fail(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    assert main(["pipeline", str(path), "--target", "4", "--samples", "0"]) == 1
    assert "n_samples" in capsys.readouterr().err
