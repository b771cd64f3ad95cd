"""Command-line interface: oracle, relax, shrink, qaoa-landscape, pipeline, sweep.

Reports are flat "key value" lines (or CSV where noted). Any stage error
prints to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graph import (
    BRUTE_FORCE_CAP,
    ParseError,
    brute_force,
    format_instance,
    format_summary,
    parse_instance,
)
from .pipeline import (
    CORRELATION_MODES,
    SUBSOLVERS,
    DEFAULT_SAMPLES,
    PipelineError,
    correlations_for_mode,
    run_pipeline,
    sweep_shrink_counts,
    sweep_to_csv,
)
from .qaoa import (
    deviation_ratio,
    estimate_parameters,
    expectation_analytic,
    expectation_statevector,
    export_landscape_csv,
    grid_search,
)
from .relaxation import format_solution, solve_cycle_relaxation
from .shrink import format_trace, shrink_to_target
from .simplex import SimplexError


def _load(path: str):
    return parse_instance(Path(path).read_text())


def _emit(record: dict[str, str], out: str | None) -> None:
    text = "".join(f"{k} {v}\n" for k, v in record.items())
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def cmd_oracle(args) -> int:
    g = _load(args.instance)
    summary = brute_force(g)
    sys.stdout.write(f"vertices {g.vertex_count}\nedges {g.edge_count}\n")
    sys.stdout.write(format_summary(summary))
    return 0


def cmd_relax(args) -> int:
    sol = solve_cycle_relaxation(_load(args.instance))
    _emit(
        {
            "vertices": str(sol.graph.vertex_count),
            "objective_value": f"{sol.objective_value:.12g}",
            "rounds": str(sol.rounds),
            "pivots": str(sum(sol.round_pivots)),
            "constraints_added": str(sol.constraints_added),
        },
        None,
    )
    if args.solution_out:
        Path(args.solution_out).write_text(format_solution(sol))
    return 0


def cmd_shrink(args) -> int:
    g = _load(args.instance)
    correlations, _ = correlations_for_mode(g, args.mode)
    state = shrink_to_target(g, correlations, args.target)
    reduced = state.reduced
    _emit(
        {
            "vertices": str(g.vertex_count),
            "target_size": str(args.target),
            "reduced_vertices": str(reduced.vertex_count),
            "reduced_edges": str(reduced.edge_count),
            "offset": f"{state.offset:.12g}",
            "contractions": str(len(state.records)),
            "opposite_merges": str(sum(r.sign == -1 for r in state.records)),
        },
        None,
    )
    if args.trace_out:
        Path(args.trace_out).write_text(format_trace(state))
    if args.reduced_out:
        Path(args.reduced_out).write_text(format_instance(reduced))
    return 0


def cmd_qaoa_landscape(args) -> int:
    g = _load(args.instance)
    landscape = grid_search(g, args.step, args.evaluator)
    estimate = estimate_parameters(g)
    if args.evaluator == "analytic":
        at_estimate = expectation_analytic(g, estimate)
    else:
        at_estimate = expectation_statevector(g, estimate)
    Path(args.out).write_text(export_landscape_csv(landscape))
    _emit(
        {
            "grid_step": f"{args.step:.12g}",
            "evaluator": args.evaluator,
            "max_value": f"{landscape.max_value:.12g}",
            "min_value": f"{landscape.min_value:.12g}",
            "argmax_gamma": f"{landscape.argmax.gamma:.12g}",
            "argmax_beta": f"{landscape.argmax.beta:.12g}",
            "estimate_gamma": f"{estimate.gamma:.12g}",
            "estimate_beta": f"{estimate.beta:.12g}",
            "value_at_estimate": f"{at_estimate:.12g}",
            "deviation_ratio": f"{deviation_ratio(landscape, at_estimate):.12g}",
        },
        None,
    )
    return 0


def cmd_pipeline(args) -> int:
    g = _load(args.instance)
    report = run_pipeline(
        g,
        args.target,
        subsolver=args.subsolver,
        correlation_mode=args.mode,
        n_samples=args.samples,
        seed=args.seed,
    )
    _emit(report.as_record(), args.out)
    return 0


def cmd_sweep(args) -> int:
    g = _load(args.instance)
    deleted = None
    if args.deleted:
        try:
            deleted = [int(x) for x in args.deleted.split(",")]
        except ValueError:
            raise ValueError(f"--deleted must be comma-separated integers, got {args.deleted!r}") from None
    elif args.max_deleted is not None:
        if args.max_deleted < 0:
            raise ValueError(f"--max-deleted must be at least 0, got {args.max_deleted}")
        deleted = list(range(args.max_deleted + 1))
    cells = sweep_shrink_counts(
        g,
        deleted_counts=deleted,
        subsolvers=tuple(args.subsolvers.split(",")),
        correlation_modes=tuple(args.modes.split(",")),
        n_samples=args.samples,
        seed=args.seed,
    )
    csv = sweep_to_csv(cells)
    if args.out:
        Path(args.out).write_text(csv)
    sys.stdout.write(csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkcut",
        description="MaxCut via cycle-relaxation shrinking and a depth-1 QAOA simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help=f"exact min/max cut by enumeration, up to {BRUTE_FORCE_CAP} vertices")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("relax", help="solve the odd-cycle relaxation on the instance's edges")
    p.add_argument("instance")
    p.add_argument("--solution-out", help="write the fractional point as one 'u v value' line per edge")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("shrink", help="contract the instance to a target size")
    p.add_argument("instance")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--mode", choices=CORRELATION_MODES, default="relaxation")
    p.add_argument("--trace-out", help="write one 'kept removed sign b' line per contraction")
    p.add_argument("--reduced-out", help="write the reduced instance file")
    p.set_defaults(func=cmd_shrink)

    p = sub.add_parser("qaoa-landscape", help="expectation values over a parameter grid")
    p.add_argument("instance")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--evaluator", choices=("analytic", "statevector"), default="analytic")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_qaoa_landscape)

    p = sub.add_parser("pipeline", help="relax, shrink, solve reduced, reconstruct, report")
    p.add_argument("instance")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--subsolver", choices=SUBSOLVERS, default="qaoa-sim")
    p.add_argument("--mode", choices=CORRELATION_MODES, default="relaxation")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="ratio vs number of deleted vertices, CSV")
    p.add_argument("instance")
    p.add_argument("--deleted", help="comma-separated deleted-vertex counts")
    p.add_argument("--max-deleted", type=int, help="use 0..max-deleted")
    p.add_argument("--subsolvers", default="exact")
    p.add_argument("--modes", default="relaxation,zero")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, PipelineError, SimplexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
