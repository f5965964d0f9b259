"""Benchmark of condreach: time to bounds, bound width and a per-layer trace.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke]

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by the set-up
# probes: on a 2-CPU host the second OpenBLAS thread spins for no gain
# (a tandem1 call used 6.8 to 7.2 s of CPU for 4.3 to 4.6 s of wall time
# with two threads, and as much CPU as wall time with one), and it adds
# noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "condreach" / "fixtures"
OUT = ROOT / ".bench_out"

# Cold set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 3
# Instances sampled (from --seed) to check that upper dominates them.
CHECK_INSTANCES = 20
# Slack for float rounding and Poisson truncation (transient_tol 1e-10
# per kernel) in comparisons between independently computed weights.
TOL = 1e-9
# The paper's inner value for invent1: the weight of a realised timing.
INVENT1_REFERENCE = 0.082536
# An op-time percentile is reported only with at least ten ops beyond it.
P95_MIN_OPS = 200
# Ops per run at least, so that a refine workload's median has three.
MIN_OPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    evidence: str
    formula: str
    horizon: float
    # Refine workloads: the analyze iteration cap.  Envelope workload: the
    # cap of the analyze run whose upper bound the sampled weights are
    # checked against.
    max_iters: int
    # --smoke: the cap and the op count.
    smoke_iters: int
    smoke_ops: int
    # Reference time of one op plus its output check on a 2-CPU host.  A
    # run of S seconds makes max(MIN_OPS, round(S / ref_op_s)) ops, so
    # that it spends about S seconds on ops and their checks.
    ref_op_s: float
    envelope: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("invent1", "invent.ctmc", "invent1.evidence", "empty", 0.1,
                 max_iters=60, smoke_iters=4, smoke_ops=2, ref_op_s=12.5),
        Workload("tandem1", "tandem.ctmc", "tandem1.evidence", "second_full",
                 0.5, max_iters=8, smoke_iters=2, smoke_ops=2, ref_op_s=4.1),
        Workload("envelope-tandem1", "tandem.ctmc", "tandem1.evidence",
                 "second_full", 0.5, max_iters=2, smoke_iters=1,
                 smoke_ops=12, ref_op_s=0.05, envelope=True),
    )
}

LAYERS = ("ctmc", "evidence", "unfolding", "abstraction", "solver", "driver")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed probe)."""


def import_condreach():
    """Import the package from this checkout's src, never from elsewhere."""
    if not (SRC / "condreach" / "__init__.py").is_file():
        raise BenchError(f"no condreach sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import condreach

    if Path(condreach.__file__).resolve().parent != (SRC / "condreach").resolve():
        raise BenchError(f"condreach imported from {condreach.__file__}")


def probe_setup(spec):
    """Seconds of one cold set-up, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(FIXTURES / spec.model),
         str(FIXTURES / spec.evidence), spec.formula, repr(spec.horizon)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def load_inputs(spec):
    from condreach.ctmc import parse_ctmc, weight_from_property
    from condreach.evidence import parse_evidence, parse_formula

    ctmc = parse_ctmc((FIXTURES / spec.model).read_text(encoding="utf-8"))
    omega = parse_evidence((FIXTURES / spec.evidence).read_text(encoding="utf-8"))
    omega.bind_check(ctmc.alphabet)
    target = ctmc.satisfying(parse_formula(spec.formula))
    return ctmc, omega, weight_from_property(ctmc, target, spec.horizon)


def refine_config(cap):
    from condreach.driver import AnalysisConfig

    # A time limit that never fires, so every call runs to the cap.
    return AnalysisConfig(time_limit=1e9, max_iters=cap)


def timed_ops(spec, inputs, n_ops, iters, seed):
    """The timed section: n_ops ops, one at a time.

    Returns (wall seconds, per-op seconds, outputs); an op that raised
    has the output None.  Outputs are kept for the checks, which run after
    the timed section.  Module attributes are looked up at call time so
    that a tracer's wrappers apply.
    """
    import numpy as np

    from condreach import driver, evidence, unfolding

    ctmc, omega, weights = inputs
    rng = np.random.default_rng(seed)
    config = refine_config(iters)
    op_s, outputs, errors = [], [], []
    start = time.perf_counter()
    for _ in range(n_ops):
        t0 = time.perf_counter()
        try:
            if spec.envelope:
                rho = evidence.sample_instance(omega, rng)
                out = (rho, unfolding.conditional_weight(ctmc, rho, weights))
            else:
                out = driver.analyze(ctmc, omega, weights, config)
        except Exception as exc:  # an op that raises counts as failed
            out = None
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - start
    for err in errors:
        print(f"op failed: {err}", file=sys.stderr)
    return wall, op_s, outputs


def sampled_weights(inputs, seed, n):
    """Exact weights of n seeded instances, through unfolding."""
    import numpy as np

    from condreach.evidence import sample_instance
    from condreach.unfolding import conditional_weight

    ctmc, omega, weights = inputs
    rng = np.random.default_rng([seed, 1])
    return [
        conditional_weight(ctmc, sample_instance(omega, rng), weights)
        for _ in range(n)
    ]


def trace_problems(trace, config):
    """Method properties every refinement trace must have."""
    problems = []
    if len(trace.rows) != config.max_iters:
        problems.append(
            f"{len(trace.rows)} iterations, cap is {config.max_iters}")
    prev = math.inf
    for row in trace.rows:
        if not row.lower <= row.upper + TOL:
            problems.append(f"iteration {row.iteration}: lower > upper")
        # Refinement nests, so the upper bound may not rise beyond the
        # value-iteration tolerance.
        if row.upper > prev + config.vi_tol:
            problems.append(f"iteration {row.iteration}: upper rose")
        prev = row.upper
    return problems


def check_refine(spec, inputs, outputs, seed, cap):
    """Per-op problems of refine outputs; None marks an op that raised."""
    best = max(sampled_weights(inputs, seed, CHECK_INSTANCES))
    floor = max(best, INVENT1_REFERENCE) if spec.name == "invent1" else best
    report = []
    for trace in outputs:
        if trace is None:
            report.append(None)
            continue
        problems = trace_problems(trace, refine_config(cap))
        if trace.upper < floor - TOL:
            problems.append(f"upper {trace.upper!r} below {floor!r}")
        report.append(problems)
    return report


def check_envelope(inputs, outputs, upper):
    """Per-op problems of sampled exact weights."""
    from condreach.unfolding import bayes_quotient_weight

    ctmc, _, weights = inputs
    report = []
    for out in outputs:
        if out is None:
            report.append(None)
            continue
        rho, value = out
        problems = []
        if not 0.0 <= value <= 1.0:
            problems.append(f"weight {value!r} outside [0, 1]")
        quotient = bayes_quotient_weight(ctmc, rho, weights)
        if abs(value - quotient) > TOL:
            problems.append(f"weight {value!r} != quotient {quotient!r}")
        if value > upper + TOL:
            problems.append(f"weight {value!r} above upper {upper!r}")
        report.append(problems)
    return report


def check(spec, inputs, outputs, seed, iters, envelope_upper):
    """Check one timed section's outputs; one entry per op.

    An entry is None for an op that raised, else its list of problems.
    """
    if spec.envelope:
        report = check_envelope(inputs, outputs, envelope_upper)
    else:
        report = check_refine(spec, inputs, outputs, seed, iters)
    for problems in report:
        for p in problems or ():
            print(f"check failed: {p}", file=sys.stderr)
    return report


def envelope_bounds(inputs, cap):
    """Bounds the envelope's sampled weights must lie under."""
    from condreach.driver import analyze

    config = refine_config(cap)
    trace = analyze(*inputs, config)
    problems = trace_problems(trace, config)
    for p in problems:
        print(f"check failed: envelope bounds: {p}", file=sys.stderr)
    return trace, not problems


def install_tracer():
    from condreach import abstraction, driver, evidence, solver, unfolding

    from tracer import Tracer

    tracer = Tracer()
    wraps = [
        # The benchmark's own call sites.
        (driver, "analyze", "driver.analyze"),
        (evidence, "sample_instance", "evidence.sample_instance"),
        (unfolding, "conditional_weight", "unfolding.conditional_weight"),
        # driver looks these up as its own globals.
        (driver, "abstract", "abstraction.abstract"),
        (driver, "restrict_reachable", "abstraction.restrict_reachable"),
        (driver, "compute_bounds", "solver.compute_bounds"),
        (driver, "reachable_under", "solver.reachable_under"),
        (driver, "guided_split_targets", "driver.guided_split_targets"),
        (driver, "apply_splits", "driver.apply_splits"),
        # abstraction's globals.
        (abstraction, "transient_matrix", "ctmc.transient_matrix"),
        (abstraction, "reach_matrix", "ctmc.reach_matrix"),
        (abstraction, "reachable_states", "abstraction.reachable_states"),
        # solver's globals.
        (solver, "robust_value_iteration", "solver.robust_value_iteration"),
        (solver, "evaluate_scheduler", "solver.evaluate_scheduler"),
        (solver, "repair_consistency", "solver.repair_consistency"),
        (solver, "greedy_distribution", "solver.greedy_distribution"),
        (solver, "reachable_states", "abstraction.reachable_states"),
        # unfolding's globals.
        (unfolding, "transient_matrix", "ctmc.transient_matrix"),
    ]
    for owner, attr, name in wraps:
        tracer.wrap(owner, attr, name)
    tracer.wrap(abstraction.TransientBoundCache, "bound_matrices",
                "abstraction.bound_matrices",
                watch=lambda args: len(args[0].entries))
    return tracer


def layer_metrics(tracer, wall, traces, n_states):
    """Per-layer metrics of one traced section; traces are its analyze
    outputs (none on the envelope workload)."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    lookups = calls("abstraction.bound_matrices")
    misses = [
        d for nid, grew, d in zip(tracer.name, tracer.growth, tracer.durations())
        if grew and tracer.names[nid] == "abstraction.bound_matrices"
    ]
    last = traces[-1] if traces else None
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in totals.items():
        layer_self[name.split(".", 1)[0]] += own
    m = {
        "ctmc.transient_matrix.calls": (calls("ctmc.transient_matrix"), "count"),
        "ctmc.transient_matrix.s": (secs("ctmc.transient_matrix"), "s"),
        "ctmc.reach_matrix.calls": (calls("ctmc.reach_matrix"), "count"),
        "ctmc.reach_matrix.s": (secs("ctmc.reach_matrix"), "s"),
        "abstraction.bound_matrices.lookups": (lookups, "count"),
        "abstraction.bound_matrices.misses": (len(misses), "count"),
        "abstraction.bound_matrices.hit_ratio": (
            (lookups - len(misses)) / lookups if lookups else 0.0, "1"),
        "abstraction.bound_matrices.miss_s": (
            sum(misses, 0.0), "s"),
        "abstraction.abstract.s": (secs("abstraction.abstract"), "s"),
        "abstraction.abstract.self_s": (
            totals.get("abstraction.abstract", (0, 0.0, 0.0))[2], "s"),
        "abstraction.restrict_reachable.s": (
            secs("abstraction.restrict_reachable"), "s"),
        "abstraction.reachable_states.calls": (
            calls("abstraction.reachable_states"), "count"),
        "abstraction.reachable_states.s": (
            secs("abstraction.reachable_states"), "s"),
        "abstraction.imdp_states": (
            last.rows[-1].imdp_states if last else 0, "count"),
        "abstraction.imdp_transitions": (
            last.rows[-1].imdp_transitions if last else 0, "count"),
        "abstraction.tensor_mb": (
            tensor_bytes(last, n_states) / 1e6 if last else 0.0,
            "MB.computed"),
        "solver.compute_bounds.s": (secs("solver.compute_bounds"), "s"),
        "solver.robust_value_iteration.calls": (
            calls("solver.robust_value_iteration"), "count"),
        "solver.robust_value_iteration.s": (
            secs("solver.robust_value_iteration"), "s"),
        "solver.evaluate_scheduler.s": (secs("solver.evaluate_scheduler"), "s"),
        "solver.repair_consistency.s": (secs("solver.repair_consistency"), "s"),
        "solver.greedy_distribution.calls": (
            calls("solver.greedy_distribution"), "count"),
        "solver.greedy_distribution.s": (
            secs("solver.greedy_distribution"), "s"),
        "driver.iterations": (sum(len(t.rows) for t in traces), "count"),
        "driver.split_s": (
            secs("solver.reachable_under") + secs("driver.guided_split_targets")
            + secs("driver.apply_splits"), "s"),
        "evidence.sample_instance.s": (secs("evidence.sample_instance"), "s"),
        "unfolding.conditional_weight.calls": (
            calls("unfolding.conditional_weight"), "count"),
        "unfolding.conditional_weight.s": (
            secs("unfolding.conditional_weight"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.self_share"] = (sum(layer_self.values()) / wall, "1")
    return m


def tensor_bytes(trace, n):
    """Bytes of the last iteration's L and U arrays, from its partition.

    Layer i to i+1 holds two float64 arrays of shape (n_i, n_{i+1}, n, n);
    the anchor layers at both ends have one cell each.
    """
    cells = (1, *trace.final_partition.cell_counts(), 1)
    pairs = sum(a * b for a, b in zip(cells, cells[1:]))
    return 2 * 8 * pairs * n * n


def run(args):
    spec = WORKLOADS[args.workload]
    import_condreach()
    setup = []
    if not args.trace:
        setup = [probe_setup(spec) for _ in range(SETUP_REPEATS)]
    inputs = load_inputs(spec)
    iters = spec.smoke_iters if args.smoke else spec.max_iters
    if args.smoke:
        n_ops = spec.smoke_ops
    else:
        n_ops = max(MIN_OPS, round(args.seconds / spec.ref_op_s))

    correct = True
    envelope_upper = None
    if spec.envelope:
        bounds, ok = envelope_bounds(inputs, iters)
        correct &= ok
        envelope_upper = bounds.upper
        width = bounds.upper - bounds.lower
    # Warm-up: let lazy set-up inside numpy and scipy finish before timing.
    timed_ops(spec, inputs, 1, 1, args.seed)

    wall, op_s, outputs = timed_ops(spec, inputs, n_ops, iters, args.seed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    sections = [outputs]
    if args.trace:
        tracer = install_tracer()
        try:
            t_wall, _, t_outputs = timed_ops(
                spec, inputs, n_ops, iters, args.seed)
        finally:
            tracer.restore()
        sections.append(t_outputs)
        traces = [] if spec.envelope else [t for t in t_outputs if t is not None]
        metrics = layer_metrics(tracer, t_wall, traces, inputs[0].n_states)
        metrics["trace.overhead_s"] = (t_wall - wall, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"{spec.name}-seed{args.seed}.spans.csv")
    else:
        if not spec.envelope:
            width = outputs[-1].upper - outputs[-1].lower if outputs[-1] else 0.0
        p50 = statistics.median(op_s)
        p95 = (statistics.quantiles(op_s, n=20)[18]
               if len(op_s) >= P95_MIN_OPS else p50)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "op_s.p50": (p50, "s"),
            "op_s.p95": (p95, "s"),
            "width": (width, "1"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    reports = [check(spec, inputs, out, args.seed, iters, envelope_upper)
               for out in sections]

    attempted = sum(len(r) for r in reports)
    failed = sum(1 for r in reports for p in r if p is None or p)
    correct &= all(not p for r in reports for p in r if p is not None)
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny caps and few ops, to check the output form")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
