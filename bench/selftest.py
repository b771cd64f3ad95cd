"""Self-test of the benchmark's references and checks.

    python3 bench/selftest.py

Each reference is compared with values worked out by hand or by a plain
loop, and each check is shown to accept a correct answer and to reject the
same answer perturbed.
Needs only numpy; shrinkcut is not imported. Exits 1 if anything is wrong.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

import reference as ref


@dataclass(frozen=True)
class Report:
    best_cut_value: float
    mean_cut_value: float
    best_assignment: np.ndarray
    upper_bound: float | None = None
    n_samples: int = 10000


@dataclass(frozen=True)
class Summary:
    max_value: float
    min_value: float
    argmax: np.ndarray


@dataclass(frozen=True)
class Cell:
    deleted_vertices: int
    correlation_mode: str
    subsolver: str
    mean_cut_value: float
    best_cut_value: float
    ratio: float


FAILURES: list[str] = []


def expect(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if not ok:
        FAILURES.append(name)


def accepts_then_rejects(name: str, check, good, bad) -> None:
    expect(f"{name} accepts the correct answer", check(good) == [])
    for label, answer in bad:
        expect(f"{name} rejects {label}", check(answer) != [])


def main() -> int:
    # 4-cycle 0-1-2-3-0 with weights 1, 2, 3, -1, and a chord 0-2 of weight 0.5.
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, -1.0), (0, 2, 0.5)]
    w = ref.weight_matrix(4, edges)
    side = np.array([True, False, True, False])  # cuts every cycle edge, not the chord
    expect("cut_value of an alternating side vector", ref.cut_value(w, side) == 5.0)
    expect("cut_value of the empty cut", ref.cut_value(w, np.zeros(4, dtype=bool)) == 0.0)
    by_loop = {a: sum(x for u, v, x in edges if a[u] != a[v]) for a in itertools.product((0, 1), repeat=4)}
    hi, lo = max(by_loop.values()), min(by_loop.values())
    expect("enumerate_cuts matches a loop over all 16 assignments", ref.enumerate_cuts(w) == (hi, lo))
    neg = ref.weight_matrix(3, [(0, 1, -2.0), (1, 2, 1.0)])
    expect("enumerate_cuts finds a negative minimum", ref.enumerate_cuts(neg) == (1.0, -2.0))
    best = np.array(max(by_loop, key=by_loop.get), dtype=bool)

    gamma, beta = 0.7, 0.3
    mean, var = ref.qaoa_moments(ref.weight_matrix(2, [(0, 1, 1.0)]), gamma, beta)
    exact = 0.5 + 0.5 * math.sin(4 * beta) * math.sin(gamma)
    expect("qaoa_moments on one edge matches the closed form", abs(mean - exact) < 1e-12)
    expect("qaoa_moments variance of a 0/1 cut is p(1 - p)", abs(var - exact * (1 - exact)) < 1e-12)

    good = Report(5.0, 3.0, side)
    accepts_then_rejects(
        "check_report",
        lambda r: ref.check_report(r, w, 5.0),
        good,
        [
            ("a best value its assignment does not cut", replace(good, best_cut_value=5.5)),
            ("an assignment that does not cut the best value", replace(good, best_assignment=np.array([1, 1, 0, 0], bool))),
            ("a mean above the best", replace(good, mean_cut_value=5.0 + 1e-6)),
        ],
    )
    expect("check_report rejects a best above the optimum", ref.check_report(good, w, 4.0) != [])

    exact_report = Report(5.0, 5.0, side, upper_bound=5.0)
    accepts_then_rejects(
        "check_exact_report",
        lambda r: ref.check_exact_report(r, w, 5.0),
        exact_report,
        [
            ("an upper bound off by 1e-5", replace(exact_report, upper_bound=5.0 + 1e-5)),
            ("a missing upper bound", replace(exact_report, upper_bound=None)),
            (
                "a suboptimal best cut",
                replace(exact_report, best_cut_value=4.5, mean_cut_value=4.5, best_assignment=np.array([1, 0, 0, 1], bool)),
            ),
        ],
    )

    # Variance 4 over 10000 samples: one standard error is 0.02, the limit 0.1.
    sampled = Report(9.0, 3.05, side)
    accepts_then_rejects(
        "check_sample_mean",
        lambda r: ref.check_sample_mean(r, 3.0, 4.0, 1e-9),
        sampled,
        [("a mean 6 standard errors off", replace(sampled, mean_cut_value=3.12))],
    )

    summary = Summary(hi, lo, best)
    accepts_then_rejects(
        "check_oracle",
        lambda s: ref.check_oracle(s, w, (hi, lo)),
        summary,
        [
            ("a wrong maximum", replace(summary, max_value=hi - 0.5)),
            ("a wrong minimum", replace(summary, min_value=lo - 1.0)),
            ("an argmax that misses the maximum", replace(summary, argmax=side)),
        ],
    )

    cells = [
        Cell(0, "zero", "exact", 5.0, 5.0, 1.0),
        Cell(2, "relaxation", "exact", 5.0, 5.0, 1.0),
        Cell(2, "zero", "coin", 2.0, 4.5, 0.4),
    ]
    accepts_then_rejects(
        "check_sweep",
        lambda c: ref.check_sweep(c, w, (5.0, 0.0), ("relaxation",)),
        cells,
        [
            ("a ratio that does not follow from the mean", [*cells[:2], replace(cells[2], ratio=0.5)]),
            ("a relaxation-mode exact cell below ratio 1", [cells[0], Cell(2, "relaxation", "exact", 4.5, 4.5, 0.9), cells[2]]),
            ("an unshrunk exact cell below ratio 1", [Cell(0, "zero", "exact", 4.5, 4.5, 0.9), *cells[1:]]),
            ("a best cut above the optimum", [*cells[:2], replace(cells[2], best_cut_value=5.5)]),
        ],
    )

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
