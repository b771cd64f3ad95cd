import numpy as np

from shrinkcut import (
    correlations_from_relaxation,
    estimate_parameters,
    format_trace,
    shrink_to_target,
    solve_cycle_relaxation,
    zero_correlations,
)
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
    path, g = write_instance(tmp_path, rows=3, cols=3)
    out = tmp_path / "point.txt"
    assert main(["relax", str(path), "--solution-out", str(out)]) == 0
    rec = record_of(capsys.readouterr().out)
    sol = solve_cycle_relaxation(g)
    assert rec["objective_value"] == f"{sol.objective_value:.12g}"
    lines = out.read_text().strip().splitlines()
    assert len(lines) == g.edge_count == 12  # one line per edge of the 3x3 grid
    for line, (u, v, _), x in zip(lines, g.edges, sol.x):
        assert line == f"{u} {v} {x:.12g}"


def test_shrink_command_uses_the_relaxation(tmp_path, capsys):
    path, g = write_instance(tmp_path, rows=3, cols=3)
    trace = tmp_path / "trace.txt"
    assert main(["shrink", str(path), "--target", "4", "--mode", "relaxation", "--trace-out", str(trace)]) == 0
    state = shrink_to_target(g, correlations_from_relaxation(solve_cycle_relaxation(g)), 4)
    assert trace.read_text() == format_trace(state)
    assert record_of(capsys.readouterr().out)["offset"] == f"{state.offset:.12g}"


def test_shrink_command_counts_opposite_merges(tmp_path, capsys):
    path, g = write_instance(tmp_path, rows=3, cols=3)
    for mode, correlations in (
        ("relaxation", correlations_from_relaxation(solve_cycle_relaxation(g))),
        ("zero", zero_correlations(g.vertex_count)),
    ):
        assert main(["shrink", str(path), "--target", "2", "--mode", mode]) == 0
        rec = record_of(capsys.readouterr().out)
        signs = [r.sign for r in shrink_to_target(g, correlations, 2).records]
        assert rec["opposite_merges"] == str(signs.count(-1))
        assert rec["contractions"] == str(len(signs))
        # the grid's relaxation puts some pairs on opposite sides; zero mode never does
        assert (signs.count(-1) > 0) == (mode == "relaxation")


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


def test_landscape_statevector_matches_analytic(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    rows, records = {}, {}
    for evaluator in ("analytic", "statevector"):
        out = tmp_path / f"{evaluator}.csv"
        assert main(["qaoa-landscape", str(path), "--evaluator", evaluator, "--step", "0.3", "--out", str(out)]) == 0
        records[evaluator] = record_of(capsys.readouterr().out)
        rows[evaluator] = [line.split(",") for line in out.read_text().splitlines()]
    analytic, statevector = rows["analytic"], rows["statevector"]
    assert len(statevector) == len(analytic) == 1 + 6 * 6
    assert statevector[0] == analytic[0] == ["gamma", "beta", "value"]
    for want, got in zip(analytic[1:], statevector[1:]):
        assert got[:2] == want[:2]
        assert abs(float(got[2]) - float(want[2])) <= 1e-9
    at_estimate = [float(records[e]["value_at_estimate"]) for e in ("analytic", "statevector")]
    assert abs(at_estimate[0] - at_estimate[1]) <= 1e-9


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


def test_pipeline_record_carries_qaoa_parameters(tmp_path, capsys):
    path, g = write_instance(tmp_path, rows=3, cols=3)
    args = ["pipeline", str(path), "--target", "5", "--mode", "zero", "--samples", "50"]
    assert main(args) == 0
    rec = record_of(capsys.readouterr().out)
    params = estimate_parameters(shrink_to_target(g, zero_correlations(9), 5).reduced)
    assert rec["qaoa_gamma"] == f"{params.gamma:.12g}"
    assert rec["qaoa_beta"] == f"{params.beta:.12g}"
    assert main(args + ["--subsolver", "coin"]) == 0
    rec = record_of(capsys.readouterr().out)
    assert "qaoa_gamma" not in rec and "qaoa_beta" not in rec


def test_sweep_command(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", str(path), "--max-deleted", "2", "--subsolvers", "exact",
        "--samples", "1", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 2 * 3


def test_negative_max_deleted_fails(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    assert main(["sweep", str(path), "--max-deleted", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--max-deleted must be at least 0, got -1" in err


def test_malformed_deleted_counts_fail(tmp_path, capsys):
    # each exited with int()'s message, which names no flag
    path, _ = write_instance(tmp_path)
    for deleted in ("1,,2", "a", "1.5"):
        assert main(["sweep", str(path), "--deleted", deleted]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"--deleted must be comma-separated integers, got {deleted!r}" in err


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


def test_oracle_rejects_weights_whose_cut_values_overflow(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("3 2\n1 2 1e308\n2 3 1\n")
    assert main(["oracle", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "total absolute weight 1e+308 exceeds" in err


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
    sol = solve_cycle_relaxation(g)
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


def test_non_finite_landscape_step_fails(tmp_path, capsys):
    path, _ = write_instance(tmp_path)
    out = tmp_path / "landscape.csv"
    for step in ("inf", "nan"):
        assert main(["qaoa-landscape", str(path), "--step", step, "--out", str(out)]) == 1
        assert f"grid step must be finite and positive, got {step}" in capsys.readouterr().err
        assert not out.exists()
