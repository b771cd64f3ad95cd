import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut.simplex import InfeasibleError, SimplexError, Tableau, solve_box_lp

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_bounds_only():
    x, value = solve_box_lp(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))
    assert x[0] == pytest.approx(1.0)
    assert value == pytest.approx(1.0)


def test_single_constraint():
    x, value = solve_box_lp(
        np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([0.5])
    )
    assert value == pytest.approx(0.5)
    assert x[0] == pytest.approx(0.5)


def test_mixed_signs_objective():
    # max x1 - x2 with x1 + x2 <= 1.5: push x1 to 1, drop x2 to 0
    x, value = solve_box_lp(
        np.array([1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.5])
    )
    assert value == pytest.approx(1.0)
    assert x.tolist() == pytest.approx([1.0, 0.0])


def test_negative_rhs_needs_phase_one():
    # x1 >= 0.25 written as -x1 <= -0.25; maximize -x1
    x, value = solve_box_lp(
        np.array([-1.0]), np.array([[-1.0]]), np.array([-0.25])
    )
    assert x[0] == pytest.approx(0.25)
    assert value == pytest.approx(-0.25)


def test_infeasible_detected():
    # x1 <= 0.2 and x1 >= 0.8 cannot both hold
    with pytest.raises(InfeasibleError):
        solve_box_lp(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([0.2, -0.8]),
        )


def test_iteration_cap_raises():
    # x = 1, where every cost is favoured, breaks every row: the solve needs
    # more than one dual pivot
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(10, 6))
    with pytest.raises(SimplexError, match="iteration cap"):
        solve_box_lp(np.ones(6), a, a.sum(axis=1) / 3, max_iterations=1)
    tableau = Tableau()
    solve_box_lp(np.ones(6), a, a.sum(axis=1) / 3, tableau=tableau)
    assert tableau.pivots >= 2


@pytest.mark.parametrize("name", ["c", "a_ub", "b_ub"])
def test_non_finite_data_rejected(name):
    problem = {"c": np.ones(2), "a_ub": np.array([[1.0, 1.0]]), "b_ub": np.array([1.0])}
    problem[name] = problem[name].copy()
    problem[name].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"^{name} holds a non-finite entry"):
        solve_box_lp(**problem)


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
        x, value = solve_box_lp(c, a, b)
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
    x1, v1 = solve_box_lp(c, a, b)
    x2, v2 = solve_box_lp(c, a, b)
    assert np.array_equal(x1, x2)
    assert v1 == v2


def test_feasibility_of_returned_point():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = 6, 10
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m)
        c = rng.normal(size=n)
        x, _ = solve_box_lp(c, a, b)
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


def bundled_verdict(c, a, b, tableau=None):
    """The same verdict from solve_box_lp; an optimal point is checked feasible."""
    try:
        x, value = solve_box_lp(c, a, b, tableau=tableau)
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
    # from the tableau the previous one left
    c, a, b = lp
    tableau = Tableau()
    for end in sorted({min(k, len(b)) for k in cuts} | {len(b)}):
        warm = bundled_verdict(c, a[:end], b[:end], tableau)
        same_verdict(warm, bundled_verdict(c, a[:end], b[:end]), rel=1e-7, abs=1e-9)
        same_verdict(warm, highs_verdict(c, a[:end], b[:end]), rel=1e-7, abs=1e-9)


def test_warm_tableau_rejects_another_problem():
    c, a, b = np.ones(2), np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.5])
    tableau = Tableau()
    solve_box_lp(c, a, b, tableau=tableau)
    for args in ((c, a[::-1], b), (c, a, b[::-1]), (c, a[:1], b[:1]), (-c, a, b)):
        with pytest.raises(ValueError, match="prefix"):
            solve_box_lp(*args, tableau=tableau)
    _, value = solve_box_lp(c, np.vstack((a, [[0.0, 1.0]])), np.append(b, 0.1), tableau=tableau)
    assert value == pytest.approx(0.7)
    assert tableau.pivots >= 1


def test_warm_tableau_rejects_rows_changed_in_place():
    # the tableau keeps its own copy of the rows, so a caller's in-place edit
    # shows up as a different problem rather than a stale warm start
    c, a, b = np.ones(2), np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.5])
    tableau = Tableau()
    solve_box_lp(c, a, b, tableau=tableau)
    b[0] = 3.0
    with pytest.raises(ValueError, match="prefix"):
        solve_box_lp(c, a, b, tableau=tableau)
    a[1, 1] = 0.0
    with pytest.raises(ValueError, match="prefix"):
        solve_box_lp(c, a, np.array([1.0, 0.5]), tableau=tableau)


def test_drifted_reduced_costs_fail_loudly():
    # max x1 + 2 x2 s.t. x1 + x2 <= 1 ends with x1 basic at 0 and x2 nonbasic
    # at its upper bound 1. Drop x2 to 0 and corrupt its stored column so that
    # its reduced cost reads -3: the next warm solve then sees a feasible
    # point of value 0 that its reduced costs call optimal. The row price of
    # that basis (1) bounds the optimum by 2, which exposes it.
    c, a, b = np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    tableau = Tableau()
    _, value = solve_box_lp(c, a, b, tableau=tableau)
    assert value == pytest.approx(2.0)
    assert tableau.basis.tolist() == [0] and tableau.nonbasic.tolist() == [2, 1]
    tableau.at_upper[1] = False
    tableau.tab[0, 1] = 5.0
    with pytest.raises(SimplexError, match="not optimal"):
        solve_box_lp(c, a, b, tableau=tableau)


def test_package_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing it costs tens of MB of RSS.
    code = "import sys, shrinkcut, shrinkcut.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})
