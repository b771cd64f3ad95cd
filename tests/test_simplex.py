import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import simplex
from shrinkcut.simplex import InfeasibleError, LpProblem, SimplexError, solve_box_lp

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_bounds_only():
    x, value = solve_box_lp(LpProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0)))
    assert x[0] == pytest.approx(1.0)
    assert value == pytest.approx(1.0)


def test_single_constraint():
    x, value = solve_box_lp(LpProblem(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([0.5])))
    assert value == pytest.approx(0.5)
    assert x[0] == pytest.approx(0.5)


def test_mixed_signs_objective():
    # max x1 - x2 with x1 + x2 <= 1.5: push x1 to 1, drop x2 to 0
    x, value = solve_box_lp(LpProblem(np.array([1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.5])))
    assert value == pytest.approx(1.0)
    assert x.tolist() == pytest.approx([1.0, 0.0])


def test_negative_rhs_needs_phase_one():
    # x1 >= 0.25 written as -x1 <= -0.25; maximize -x1
    x, value = solve_box_lp(LpProblem(np.array([-1.0]), np.array([[-1.0]]), np.array([-0.25])))
    assert x[0] == pytest.approx(0.25)
    assert value == pytest.approx(-0.25)


def test_infeasible_detected():
    # x1 <= 0.2 and x1 >= 0.8 cannot both hold
    with pytest.raises(InfeasibleError):
        solve_box_lp(LpProblem(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([0.2, -0.8])))


def test_iteration_cap_raises(monkeypatch):
    # x = 1, where every cost is favoured, breaks every row: the solve needs
    # more than one dual pivot
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(10, 6))
    problem = LpProblem(np.ones(6), a, a.sum(axis=1) / 3)
    solve_box_lp(problem)
    assert problem.pivots >= 2
    assert simplex.iteration_cap(10, 6) == 20000 + 40 * 16
    monkeypatch.setattr(simplex, "iteration_cap", lambda m, n: 1)
    with pytest.raises(SimplexError, match="iteration cap 1 exceeded"):
        solve_box_lp(LpProblem(np.ones(6), a, a.sum(axis=1) / 3))


# the data in c, a_ub, b_ub terms; each is an LpProblem argument of another name
@pytest.mark.parametrize("name", ["c", "a_ub", "b_ub"])
def test_non_finite_data_rejected(name):
    problem = {"c": np.ones(2), "a_ub": np.array([[1.0, 1.0]]), "b_ub": np.array([1.0])}
    problem[name] = problem[name].copy()
    problem[name].flat[0] = np.nan
    argument = {"c": "objective", "a_ub": "rows", "b_ub": "rhs"}[name]
    with pytest.raises(ValueError, match=f"^{argument} holds a non-finite entry"):
        LpProblem(problem["c"], problem["a_ub"], problem["b_ub"])


def test_matches_vertex_solutions_on_random_problems():
    # Cross-check against enumeration of {0, 1}-corner candidates on problems
    # whose optimum is at a box corner (diagonally dominant rows).
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        a = rng.uniform(0.0, 1.0, size=(m, n))
        b = a.sum(axis=1) + rng.uniform(0.1, 1.0, size=m)  # every corner feasible
        c = rng.normal(size=n)
        x, value = solve_box_lp(LpProblem(c, a, b))
        best = max(
            float(c @ np.array(bits))
            for bits in np.ndindex(*([2] * n))
        )
        assert value == pytest.approx(best, abs=1e-8)


def test_deterministic():
    rng = np.random.default_rng(2)
    a = rng.uniform(size=(8, 5))
    b = rng.uniform(0.5, 2.0, size=8)
    c = rng.normal(size=5)
    x1, v1 = solve_box_lp(LpProblem(c, a, b))
    x2, v2 = solve_box_lp(LpProblem(c, a, b))
    assert np.array_equal(x1, x2)
    assert v1 == v2


def test_feasibility_of_returned_point():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = 6, 10
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m)
        c = rng.normal(size=n)
        x, _ = solve_box_lp(LpProblem(c, a, b))
        assert np.all(a @ x <= b + 1e-6)
        assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)


@st.composite
def box_lps(draw, max_rows=6):
    """Small unit-box LPs with coefficients on a half-integer grid and
    right-hand sides of both signs (negative ones make the start basis
    infeasible)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, max_rows))
    coef = st.integers(-4, 4).map(lambda k: k / 2)
    c = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    a = np.array(draw(st.lists(coef, min_size=m * n, max_size=m * n))).reshape(m, n)
    b = np.array(draw(st.lists(st.integers(-6, 8).map(lambda k: k / 2), min_size=m, max_size=m)))
    return c, a, b


def highs_verdict(c, a, b):
    """("optimal", value) or ("infeasible", None) from HiGHS; a box LP is never unbounded."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    ref = linprog(-c, A_ub=a if a.size else None, b_ub=b if a.size else None, bounds=(0, 1), method="highs")
    assert ref.status in (0, 2), ref.message
    return ("optimal", -ref.fun) if ref.status == 0 else ("infeasible", None)


def bundled_verdict(c, a, b, problem=None):
    """The same verdict from solve_box_lp, cold on (c, a, b) or warm on a problem
    whose rows are a and b; an optimal point is checked feasible."""
    try:
        x, value = solve_box_lp(LpProblem(c, a, b) if problem is None else problem)
    except InfeasibleError:
        return "infeasible", None
    assert np.all(a @ x <= b + 1e-6)
    assert np.all((x >= 0) & (x <= 1))
    return "optimal", value


def same_verdict(got, expected, **tolerance):
    assert got[0] == expected[0]
    if expected[0] == "optimal":
        assert got[1] == pytest.approx(expected[1], **tolerance)


@settings(max_examples=300, deadline=None)
@given(box_lps())
def test_objective_matches_highs(lp):
    same_verdict(bundled_verdict(*lp), highs_verdict(*lp), abs=1e-7)


@settings(max_examples=200, deadline=None)
@given(box_lps(max_rows=12), st.lists(st.integers(0, 12), max_size=4))
def test_warm_resolve_matches_cold_and_highs(lp, cuts):
    # a cutting-plane loop: the rows arrive in batches and each re-solve starts
    # from the dictionary the previous one left
    c, a, b = lp
    problem, start = LpProblem(c), 0
    for end in sorted({min(k, len(b)) for k in cuts} | {len(b)}):
        problem.add_rows(a[start:end], b[start:end])
        start = end
        assert np.array_equal(problem.rows, a[:end]) and np.array_equal(problem.rhs, b[:end])
        warm = bundled_verdict(c, a[:end], b[:end], problem)
        same_verdict(warm, bundled_verdict(c, a[:end], b[:end]), rel=1e-7, abs=1e-9)
        same_verdict(warm, highs_verdict(c, a[:end], b[:end]), rel=1e-7, abs=1e-9)


def test_problem_data_cannot_be_reassigned_or_written():
    # the dictionary is built from objective, rows and rhs, so none of them
    # may change behind its back
    problem = LpProblem(np.ones(2), np.array([[1.0, 1.0]]), np.array([1.0]))
    for name in ("objective", "rows", "rhs"):
        with pytest.raises(AttributeError):
            setattr(problem, name, getattr(problem, name).copy())
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem, name).flat[0] = 0.5
    empty = LpProblem(np.ones(2))
    assert empty.rows.shape == (0, 2) and empty.rhs.shape == (0,)
    with pytest.raises(ValueError, match="read-only"):
        empty.objective[0] = 0.5


def test_caller_edits_after_add_rows_change_nothing():
    c, a, b = np.ones(2), np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.5])
    problem = LpProblem(c, a[:1], b[:1])
    _, value = solve_box_lp(problem)
    problem.add_rows(a[1:], b[1:])
    c[0], a[:], b[:] = -1.0, 0.0, -1.0
    assert problem.objective.tolist() == [1.0, 1.0]
    assert problem.rows.tolist() == [[1.0, 1.0], [1.0, -1.0]] and problem.rhs.tolist() == [1.0, 0.5]
    _, warm = solve_box_lp(problem)
    assert warm == value == pytest.approx(1.0)
    problem.add_rows(np.array([[0.0, 1.0]]), np.array([0.1]))
    _, value = solve_box_lp(problem)
    assert value == pytest.approx(0.7)
    assert problem.pivots >= 1


@pytest.mark.parametrize(
    ("rows", "rhs", "message"),
    [
        (np.ones((1, 3)), np.ones(1), r"rows of shape \(1, 3\) for 2 variables"),
        (np.ones((2, 2)), np.ones(1), r"rhs of shape \(1,\) for 2 rows"),
        (np.array([[1.0, np.nan]]), np.ones(1), "^rows holds a non-finite entry"),
        (np.ones((1, 2)), np.array([np.inf]), "^rhs holds a non-finite entry"),
    ],
    ids=["wrong-width", "short-rhs", "nan-row", "inf-rhs"],
)
def test_add_rows_rejects_a_bad_block_and_keeps_the_problem(rows, rhs, message):
    problem = LpProblem(np.ones(2), np.array([[1.0, 1.0]]), np.array([1.0]))
    solve_box_lp(problem)
    before = [problem.tab.copy(), problem.beta.copy(), problem.basis.copy()]
    with pytest.raises(ValueError, match=message):
        problem.add_rows(rows, rhs)
    assert problem.rows.shape == (1, 2) and problem.rhs.shape == (1,)
    for held, kept in zip([problem.tab, problem.beta, problem.basis], before):
        assert np.array_equal(held, kept)
    assert solve_box_lp(problem)[1] == pytest.approx(1.0)


def test_drifted_reduced_costs_fail_loudly():
    # max x1 + 2 x2 s.t. x1 + x2 <= 1 ends with x1 basic at 0 and x2 nonbasic
    # at its upper bound 1. Drop x2 to 0 and corrupt its stored column so that
    # its reduced cost reads -3: the next warm solve then sees a feasible
    # point of value 0 that its reduced costs call optimal. The row price of
    # that basis (1) bounds the optimum by 2, which exposes it.
    problem = LpProblem(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    _, value = solve_box_lp(problem)
    assert value == pytest.approx(2.0)
    assert problem.basis.tolist() == [0] and problem.nonbasic.tolist() == [2, 1]
    problem.at_upper[1] = False
    problem.tab[0, 1] = 5.0
    with pytest.raises(SimplexError, match="not optimal"):
        solve_box_lp(problem)


def test_package_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing it costs tens of MB of RSS.
    code = "import sys, shrinkcut, shrinkcut.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})
