"""Benchmark of the shrinkcut pipeline, end to end and module by module.

    python3 bench/run.py --workload grid-relax --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from src/ of the same
checkout. One process, one thread, BLAS pinned to one thread, no transparent
huge pages for numpy arrays. With --trace 0 the run is untraced and prints
the end-to-end metrics; with --trace 1 the module boundaries are wrapped (see
tracing.py) and it prints the per-layer metrics. The last line of standard output is one JSON object; the full result,
with machine info, every operation's time and failures, and in traced runs
the first round's spans, is written to bench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays, and whether the host
# grants them varies from run to run, which moved peak RSS by 7 MB on
# identical grid-relax runs. Turned off, memory and timing repeat.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 7
WORKLOADS = ("grid-relax", "sparse-zero", "dense-oracle")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import shrinkcut; print(time.perf_counter() - t)"
)


def import_program():
    """Import shrinkcut from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import shrinkcut

    if not Path(shrinkcut.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"shrinkcut was imported from {shrinkcut.__file__}, not from {SRC}")
    return shrinkcut


def blas_threads():
    """Thread count OpenBLAS reports, from the library numpy loaded; None if unknown."""
    import ctypes

    try:
        paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def speed_probe_ms() -> float:
    """Median time of a fixed numpy kernel, a coarse view of how fast the host is."""
    import numpy as np

    a = np.arange(1 << 18, dtype=np.int64)
    times = []
    for _ in range(7):
        tic = time.perf_counter()
        acc = np.zeros(a.shape)
        for shift in range(8):
            acc += ((a >> shift) ^ (a >> (shift + 1))) & 1
        times.append((time.perf_counter() - tic) * 1e3)
    return statistics.median(times)


def import_seconds() -> float:
    """Time to import shrinkcut in a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, parse_instance, workloads):
    """Import, generate, write and parse back, SETUP_REPEATS times.

    Returns the instances of the last repeat and the median set-up and parse
    times. Every repeat produces the same instances.
    """
    folder = OUT / "instances" / workload
    folder.mkdir(parents=True, exist_ok=True)
    totals, parses = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        tic = time.perf_counter()
        instances = workloads.generate(workload, seed)
        paths = []
        for inst in instances:
            path = folder / f"{inst.label}.txt"
            path.write_text(workloads.instance_text(inst))
            paths.append(path)
        texts = [p.read_text() for p in paths]
        tp = time.perf_counter()
        for inst, text in zip(instances, texts):
            inst.graph = parse_instance(text)
        done = time.perf_counter()
        parses.append(done - tp)
        totals.append(imported + done - tic)
    return instances, statistics.median(totals), statistics.median(parses)


def parse_problems(instances) -> list[str]:
    problems = []
    for inst in instances:
        canonical = sorted((min(u, v), max(u, v), w) for u, v, w in inst.edges)
        if inst.graph.vertex_count != inst.n or list(inst.graph.edges) != canonical:
            problems.append(f"{inst.label}: parse_instance did not read back the written instance")
    return problems


class Run:
    """Counts, times and answers of one run's rounds."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[dict] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.failing_times: list[float] = []
        self.untraced_pipeline: list[float] = []
        self.traced_pipeline: list[float] = []
        self.twins = 0
        self.scores: dict[str, tuple] = {}

    def call(self, op, traced: bool):
        if self.tracer is not None:
            self.tracer.active = traced
        tic = time.perf_counter()
        try:
            return op.call(), time.perf_counter() - tic, None
        except Exception as exc:
            return None, time.perf_counter() - tic, exc
        finally:
            if self.tracer is not None:
                self.tracer.active = False

    def round(self, ops) -> list[float]:
        """Run every operation once; return the wall times of the traced pipeline calls."""
        oracle: dict[str, tuple[float, float]] = {}
        reports = []
        walls = []
        for op in ops:
            self.attempted += 1
            tracing = self.tracer is not None and op.metric is not None
            # A traced pipeline call has an untraced twin, run before or after
            # it in turn: the difference is the tracing overhead.
            twin = tracing and op.metric == "pipeline_s"
            self.twins += twin
            twin_first = twin and self.twins % 2 == 1
            if twin_first:
                self.untraced_pipeline.append(self.call(op, traced=False)[1])
            answer, seconds, exc = self.call(op, traced=tracing)
            if twin and not twin_first:
                self.untraced_pipeline.append(self.call(op, traced=False)[1])
            if twin:
                walls.append(seconds)
            if exc is not None:
                self.failed += 1
                error = f"{type(exc).__name__}: {exc}"
                self.failures.append({"kind": op.kind, "instance": op.label, "seconds": seconds, "error": error})
                continue
            problems = op.check(answer)
            if problems:
                self.failed += 1
                self.problems += [f"{op.kind} {op.label}: {p}" for p in problems]
                continue
            if op.metric is None:
                self.failing_times.append(seconds)
                continue
            self.times[op.metric].append(seconds)
            if op.kind == "oracle":
                oracle[op.label] = (answer.max_value, answer.min_value)
            if op.score is not None:
                reports.append((op, answer))
        for op, answer in reports:
            self.scores[op.label] = op.score(answer, oracle)
        self.traced_pipeline += walls
        return walls


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    ratios = [r for r in run.scores.values() if r is not None]
    values = {
        "setup_s": setup_s,
        "pipeline_s": run.times["pipeline_s"],
        "oracle_s": run.times["oracle_s"],
        "sweep_s": run.times["sweep_s"],
        "mean_ratio": [mean for mean, _ in ratios],
        "best_ratio": [best for _, best in ratios],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: statistics.median(v) if isinstance(v, list) else v for k, v in values.items() if v != []}


COUNTS = (
    "relaxation.lp_calls",
    "relaxation.lp_rows",
    "relaxation.cuts_added",
    "graph.cut_evals",
    "shrink.contractions",
    "shrink.opposite_merges",
    "qaoa.amplitudes",
)


def per_layer(summaries: list[dict], counts, rounds: int, parse_s: float, run: Run, unaccounted: list[float]) -> dict:
    """Per-round totals over the traced operations (the failing instances are not traced)."""
    total, own, under = defaultdict(float), defaultdict(float), defaultdict(float)
    for s in summaries:
        for name, v in s["total"].items():
            total[name] += v
        for name, v in s["self"].items():
            own[name] += v
        for name, v in s["under"].items():
            under[name] += v
    layer_self = defaultdict(float)
    for name, v in own.items():
        layer_self[name.split(".", 1)[0]] += v
    values = {
        "simplex.solve_s": total["simplex.solve_box_lp"],
        "relaxation.lp_s": own["relaxation.lp_solve"],
        "relaxation.separate_s": total["relaxation.separate_triangles"],
        "relaxation.self_s": layer_self["relaxation"],
        "graph.closure_s": total["graph.dense_closure"],
        "graph.score_s": total["graph.cut_value_batch"],
        "graph.self_s": layer_self["graph"],
        "shrink.correlations_s": total["shrink.correlations"],
        "shrink.contract_s": total["shrink.shrink_to_target"],
        "shrink.reduced_s": total["shrink.reduced"],
        "shrink.lift_s": total["shrink.reconstruct"],
        "shrink.self_s": layer_self["shrink"],
        "qaoa.spectrum_s": under["graph.cut_values_for_indices<qaoa.qaoa_state"],
        "qaoa.rotate_s": own["qaoa.qaoa_state"],
        "qaoa.sample_s": total["qaoa.sample_cuts"],
        "qaoa.estimate_s": total["qaoa.estimate_parameters"],
        "qaoa.self_s": layer_self["qaoa"],
        "pipeline.self_s": layer_self["pipeline"],
        "pipeline.exact_s": under["graph.brute_force<pipeline.solve_reduced"],
    }
    values = {k: v / rounds for k, v in values.items()}
    # Every round runs the same calls, so the counts divide exactly.
    for name in COUNTS:
        values[name] = counts[name] // rounds
    values["graph.parse_s"] = parse_s
    values["trace.overhead_s"] = statistics.fmean(run.traced_pipeline) - statistics.fmean(run.untraced_pipeline)
    values["trace.unaccounted_s"] = statistics.fmean(unaccounted)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        shrinkcut = import_program()
        import tracing
        import workloads
    except (OSError, ValueError, ImportError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2

    instances, setup_s, parse_s = setup(args.workload, args.seed, shrinkcut.parse_instance, workloads)
    workloads.prepare(args.workload, instances)
    tracer = tracing.Tracer() if args.trace else None
    calls = (
        tracer.install()
        if tracer
        else {"run_pipeline": shrinkcut.run_pipeline, "brute_force": shrinkcut.brute_force, "sweep_shrink_counts": shrinkcut.sweep_shrink_counts}
    )
    ops = workloads.operations(args.workload, instances, calls, args.seed)
    run = Run(tracer)
    run.problems += parse_problems(instances) + [p for inst in instances for p in inst.problems]

    summaries, unaccounted, first_spans = [], [], None
    counts = Counter()
    rounds = 0
    probe_before = speed_probe_ms()
    start = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            walls = run.round(ops)
            rounds += 1
            if tracer is not None:
                spans, round_counts = tracer.take()
                counts += round_counts
                summaries.append(tracing.summarize(spans))
                roots = tracing.root_durations(spans, "pipeline.run_pipeline")
                unaccounted += [wall - inner for wall, (_, inner) in zip(walls, roots)]
                first_spans = first_spans or spans
    finally:
        if tracer is not None:
            tracer.uninstall()
    measured_s = time.perf_counter() - start
    probe_after = speed_probe_ms()

    if tracer is None:
        values = end_to_end(run, setup_s)
        wanted = spec["end_to_end"]
    else:
        values = per_layer(summaries, counts, rounds, parse_s, run, unaccounted)
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_info(), "speed_probe_ms": {"before": probe_before, "after": probe_after}},
        "rounds": rounds,
        "measured_s": measured_s,
        **result,
        "problems": run.problems,
        "failures": run.failures,
        "operation_seconds": dict(run.times),
        "failing_instance_seconds": run.failing_times,
        "setup": {"setup_s": setup_s, "parse_s": parse_s, "repeats": SETUP_REPEATS},
        "instances": [{"label": i.label, "vertices": i.n, "edges": len(i.edges)} for i in instances],
    }
    if tracer is not None:
        overhead = values["trace.overhead_s"]
        record["trace_detail"] = {
            "missing_boundaries": tracer.missing,
            "pipeline_traced_s": run.traced_pipeline,
            "pipeline_untraced_s": run.untraced_pipeline,
            "self_times_add_up": values["trace.unaccounted_s"] <= abs(overhead),
            "per_round": summaries,
            "first_round_spans": tracing.encode(first_spans or []),
        }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
