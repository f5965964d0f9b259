"""Outer refinement loop: abstract, solve, record, split, repeat."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .abstraction import TransientBoundCache, abstract, restrict_reachable
from .ctmc import DEFAULT_TRANSIENT_TOL
from .evidence import SemanticError, coarsest_partition
from .solver import DEFAULT_VI_TOL, compute_bounds, reachable_under
from .unfolding import _weights


@dataclass(frozen=True)
class AnalysisConfig:
    time_limit: float = 600.0
    max_iters: int | None = None
    width_target: float | None = None
    transient_tol: float = DEFAULT_TRANSIENT_TOL
    vi_tol: float = DEFAULT_VI_TOL
    mode: str = "guided"
    direction: str = "max"

    def __post_init__(self):
        if not 0 < self.time_limit < math.inf:
            raise SemanticError("time limit must be positive and finite")
        if self.max_iters is not None and self.max_iters < 1:
            raise SemanticError("max iterations must be at least 1")
        if not 0 < self.transient_tol < 1:
            # A probability mass to drop: at 1 or above it bounds nothing.
            raise SemanticError("transient tolerance must be in (0, 1)")
        if not 0 < self.vi_tol < math.inf:
            raise SemanticError("value-iteration tolerance must be positive "
                                "and finite")
        if self.width_target is not None and not math.isfinite(self.width_target):
            raise SemanticError("width target must be finite")
        if self.mode not in ("guided", "full"):
            raise SemanticError("mode must be 'guided' or 'full'")
        if self.direction not in ("max", "min"):
            raise SemanticError("direction must be 'max' or 'min'")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    elapsed_s: float
    lower: float
    upper: float
    splits: int
    imdp_states: int
    imdp_actions: int
    imdp_transitions: int
    abstract_s: float
    prune_s: float
    solve_s: float


@dataclass(frozen=True)
class AnalysisTrace:
    rows: tuple
    final_partition: object
    final_report: object

    @property
    def lower(self):
        return self.rows[-1].lower

    @property
    def upper(self):
        return self.rows[-1].upper

    @property
    def total_s(self):
        return self.rows[-1].elapsed_s

    def to_csv(self):
        header = (
            "iter,elapsed_s,lower,upper,splits,imdp_states,imdp_actions,"
            "imdp_transitions,abstract_s,prune_s,solve_s"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.iteration},{r.elapsed_s:.6f},{r.lower:.12g},"
                f"{r.upper:.12g},{r.splits},{r.imdp_states},"
                f"{r.imdp_actions},{r.imdp_transitions},"
                f"{r.abstract_s:.6f},{r.prune_s:.6f},{r.solve_s:.6f}"
            )
        return "\n".join(lines) + "\n"


def guided_split_targets(psi, reachable):
    """Per observation, the splittable cells reachable states touch.

    reachable is the per-layer mask tuple; observation index i maps to
    model layer i + 1 (layer 0 is the anchor).
    """
    return tuple(
        ok & reach.any(axis=1)
        for ok, reach in zip(psi.splittable(), reachable[1:])
    )


def apply_splits(psi, marks):
    """Bisect every marked cell of psi in one pass."""
    return psi.split(marks)


def analyze(ctmc, omega, weights, config=AnalysisConfig()):
    """Run the abstraction-refinement loop and collect the trace.

    weights must hold one finite, nonnegative weight per state
    (ValueError otherwise).  Iteration 1 uses the coarsest partition.
    Each iteration's report keeps the best witness timing so far, so the
    inner bound never loosens.
    Termination is checked only between iterations: time budget
    exhausted, bound width at or below target, iteration cap reached, or
    nothing left to split.
    """
    omega.bind_check(ctmc.alphabet)
    weights = _weights(weights, ctmc.n_states)
    cache = TransientBoundCache(ctmc, config.transient_tol)
    psi = coarsest_partition(omega)
    # The robust solve starts from the previous iteration's fixpoint, and
    # the inner bound is the best witness found so far.
    fixpoint, witness = 0.0, None
    rows = []
    pending_splits = 0
    start = time.monotonic()
    iteration = 0
    while True:
        iteration += 1
        t0 = time.monotonic()
        imdp = abstract(ctmc, omega, psi, cache=cache)
        t1 = time.monotonic()
        active = restrict_reachable(imdp)
        t2 = time.monotonic()
        report = compute_bounds(
            imdp, weights, ctmc, omega, tol=config.vi_tol,
            direction=config.direction, start=fixpoint, best=witness,
        )
        fixpoint, witness = report.info["fixpoint"], report.info["witness"]
        solve_s = time.monotonic() - t2
        states, actions, transitions = imdp.sizes(active)
        rows.append(
            TraceRow(
                iteration=iteration,
                elapsed_s=time.monotonic() - start,
                lower=report.lower,
                upper=report.upper,
                splits=pending_splits,
                imdp_states=states,
                imdp_actions=actions,
                imdp_transitions=transitions,
                abstract_s=t1 - t0,
                prune_s=t2 - t1,
                solve_s=solve_s,
            )
        )

        if time.monotonic() - start >= config.time_limit:
            break
        if (
            config.width_target is not None
            and report.upper - report.lower <= config.width_target
        ):
            break
        if config.max_iters is not None and iteration >= config.max_iters:
            break

        if config.mode == "guided":
            reach = reachable_under(imdp, report.guide_scheduler)
            marks = guided_split_targets(psi, reach)
        else:
            marks = psi.splittable()
        pending_splits = sum(int(m.sum()) for m in marks)
        if not pending_splits:
            break
        # The next model is built from the partition alone: drop this one
        # first, so that one model is alive at a time.
        del imdp, active
        psi = apply_splits(psi, marks)

    return AnalysisTrace(tuple(rows), psi, report)
