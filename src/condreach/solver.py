"""Robust value iteration, consistency repair, and the bound pair.

One robust solve per model gives the outer bound and the scheduler
sigma*; the inner bound is the exact weight of the timing that sigma*'s
consistent repair realizes (compute_bounds), so no second solve runs.
evaluate_scheduler, the value of a fixed scheduler, stays for the tests
to compare that bound against.

The layered model is acyclic except for the single reset back-edge into
the initial abstract state, so each sweep is one backward pass at a
guess v0 of the reset value.  Each state carries two columns: the
excess, its value less v0, and the escape, the mass of its paths that
avoid every reset.  The excess orders successors as the value does and
is small exactly where the escape is; _solve steps v0 by their ratio.
A sweep keeps only what the layer before it and this update read: each
layer's two columns and its solved rows' choices.  A robust solve sweeps once more at the fixpoint, expands that
sweep's excess to every state's value and returns its choices as they
are, the scheduler on the model's rows; the fixed-scheduler solve
returns the fixpoint alone.

A sweep solves the rows the model defines, the only rows its gap stacks
hold.  A reset state redirects to the initial state with probability 1,
so it takes excess and escape 0 and has no row, and the anchor layer's
one state of the model is (0, 0, initial).  Every reset successor thus
carries (0, 0), and a step into two or more of them reads one
reset-sink column whose bounds are the sums of theirs: the greedy below
pours the same mass into a run of equal-valued successors whether they
are one column or many.  The model's gap stacks are lumped so when they
are assembled (abstraction.GapStacks); a sweep gathers a sink column's
vectors from the first reset state (IntervalMdp.columns).  On tandem1
the anchor step solves 1 row instead of 120, and the step into the last
layer orders 15 columns instead of 120.

Each layer of a sweep is one batched numpy kernel over its rows.
Nature's optimum over an interval polytope is its greedy extreme point:
a row starts at its lower bounds and pours its slack into successors in
value order (greedy_distribution states it for one block and is kept as
the tests' oracle).  What does not depend on the values, the lower
bounds, the room U - L and the slack 1 - sum L, the model stores per
gap, successor-major; once per compute_bounds call they are gathered to
the cell pairs.  A sweep then sorts the next layer's values with one
stable argsort, gathers the room rows in that order, clips their running
sum against the slack, and takes each q-value as L @ v plus the clipped
fill dotted with the sorted values; escapes reuse the same fill.

The fill, the mass each sorted successor takes beyond its lower bound,
depends on the values only through their order.  Each prepared layer
keeps the last fill it built with its order, and a sweep whose argsort
repeats that order takes the fill instead of rebuilding it.  The reuse
is exact: the stored array is the one the rebuild would compute, and
the q-values come from the same formula.  It hits often, because
warm-started solves converge in few sweeps and the step into the last
layer orders by the weights and v0 alone.

The last observation layer carries the weights less v0, or 0 on its
violating states, in every cell alike.  A greedy depends only on
its row's intervals and on the vector it orders by, so the step into
that layer runs once per distinct gap and gathers the q-values to the
cell pairs through the gap index; every other step has a row per
(cell, next cell, solved state), gathered from the gap stacks once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import unfolding
from .abstraction import reachable_states, reachable_step
from .evidence import PreciseEvidence
from .unfolding import ZERO_LIKELIHOOD, ZeroLikelihoodError

DEFAULT_VI_TOL = 1e-9
_MAX_SWEEPS = 10000
# Relative margin taken off a witness's exact weight before it bounds the
# optimum: conditional_weight truncates its Poisson series and rounds.
# Against the decimal oracle of tests/oracles.py it read at most 5.5e-16
# off on 100 invent1 instances, 1.2e-14 on 300 tandem1 instances and
# 8.5e-13 on 600 random chains of up to 6 states.  One random chain
# reads 1.8e-12, above the margin: a gap's truncated tail, up to 0.1 eps,
# is put on its last term, an absolute error that no relative margin
# bounds (ROADMAP item 4; test_truncation_exceeds_witness_margin).
WITNESS_MARGIN = 1e-12


class SolverError(ArithmeticError):
    """Raised on non-convergence or on a lower bound above the upper."""


@dataclass(frozen=True)
class BoundsReport:
    """The bound pair of one model.

    guide_scheduler is sigma*, the robust solve's scheduler, which
    guides refinement; repaired_scheduler is its consistent repair,
    whose path of cells gives the witness timing.  A scheduler is a
    tuple of one int array per layer below the last, its choices on the
    model's rows: sched[i] has shape (n_cells_i, len(imdp.rows[i])), and
    sched[i][j, k] is the next cell chosen by state imdp.rows[i][k] of
    cell j.  A reset state has no row and so no choice.  info is
    described at compute_bounds.  A lower bound above the upper by more
    than 1e-9 raises SolverError.
    """

    lower: float
    upper: float
    guide_scheduler: tuple
    repaired_scheduler: tuple
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise SolverError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )


def greedy_distribution(lower, upper, values, maximize):
    """Extreme point of the interval-distribution polytope.

    Rows start at their lower bounds; the remaining mass is poured into
    successors in value order (best first when maximizing).  This is the
    exact optimum of a linear objective over the polytope
    { p : lower <= p <= upper, sum p = 1 }.
    """
    order = np.argsort(-values if maximize else values, kind="stable")
    L = lower[..., order]
    U = upper[..., order]
    room = U - L
    slack = 1.0 - L.sum(axis=-1, keepdims=True)
    before = np.cumsum(room, axis=-1) - room
    p = L + np.clip(slack - before, 0.0, room)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return p[..., inverse]


def _prepare(imdp):
    """Value-independent arrays of each layer's batched greedy.

    A layer solves the rows its gap stacks hold (IntervalMdp.rows), its
    non-reset states and in the anchor layer the initial one alone,
    against the columns its stacks keep (IntervalMdp.columns), the next
    layer's reset states lumped.  Every layer but the last gets the rows
    of all its cell pairs, gathered once from the gap stacks.  In the
    last step all next cells carry the same vectors, so a row's greedy
    depends on its gap alone: that layer gets one row per gap and state,
    numbered as if each gap were a cell with a single next cell, which
    are its stacks as they are stored.  The last observation layer has
    no successors and no arrays; it carries the weights.  Each layer's
    fill memo (see _q_values) lives as long as the layout.
    """
    layout = []
    last = imdp.n_layers - 2
    for i, (stacks, index, rows, cols) in enumerate(
        zip(imdp.stacks, imdp.gap_index, imdp.rows, imdp.columns)
    ):
        layer = _rows(stacks, None if i == last else index, rows, cols)
        layer.pick = (np.arange(len(index))[:, None], np.arange(len(rows)))
        layout.append(layer)
    return layout


class _Layer:
    """A step's value-independent greedy arrays and its fill memo.

    lower, room, slack, rows and cols are described at _rows, and pick
    is the (cell, row) index pair _sweep gathers chosen q-values with.
    memo is None or the (order, fill) pair of the last fill _q_values
    built.  A fill depends on the direction only through the order, so
    one slot serves both; each solve keeps one direction.  built
    and reused count the _q_values calls that computed a fill and that
    took the stored one.
    """

    __slots__ = ("lower", "room", "slack", "rows", "cols", "pick", "memo",
                 "built", "reused")

    def __init__(self, lower, room, slack, rows, cols):
        self.lower, self.room, self.slack = lower, room, slack
        self.rows, self.cols = rows, cols
        self.memo = self.pick = None
        self.built = self.reused = 0


def _rows(stacks, index, rows, cols):
    """The greedy arrays (lower, room, slack) of index's cell pairs.

    stacks is a layer's GapStacks, whose rows are those of the states in
    rows and whose k columns stand for the next-layer states cols (None
    for all n), and index an (nc, nc2) array of gap numbers.  Each array
    is gathered from the stacks, which are successor-major already.
    index None takes each gap as a cell with one next cell, nc = g and
    nc2 = 1, whose arrays are views of the stacks.

    Rows are numbered m = j * r + s over (cell, solved state), and all
    three arrays are successor-major: lower[j2, t, m] is column t of row
    s of gap index[j, j2], shape (nc2, k, nc * r); room is U - L in the
    same order, flattened to (nc2 * k, nc * r); and slack[j2, 0, m] is
    the row's slack.  They come as a _Layer with an empty fill memo.
    """
    k, g, r = stacks.lower.shape
    if index is None:
        m = g * r
        return _Layer(stacks.lower.reshape(1, k, m),
                      stacks.room.reshape(k, m),
                      stacks.slack.reshape(1, 1, m), rows, cols)
    nc, nc2 = index.shape
    # Row t * g + p of a stack is gap p's column t, and take[j2, t, j]
    # picks it for the pair (j, j2).
    take = index.T[:, None, :] + g * np.arange(k)[:, None]
    m = nc * r
    return _Layer(
        stacks.lower.reshape(k * g, r)[take].reshape(nc2, k, m),
        stacks.room.reshape(k * g, r)[take].reshape(nc2 * k, m),
        stacks.slack[index.T].reshape(nc2, 1, m),
        rows,
        cols,
    )


def _q_values(layer, vb, maximize):
    """Inner-optimal expectations of next-layer vectors, for every row.

    vb has shape (nc2, c, k): c vectors per next cell over the layer's k
    columns, the first of which orders the successors.  Returns q of
    shape (nc2, c, m), where q[j2, :, j * r + s] is the expectation of
    vb[j2] under the greedy extreme point of solved row s of cell j
    towards next cell j2.

    The fill is a function of the layer and the order alone, so when the
    order equals the memo's, the memo's fill is taken as it is;
    otherwise the fill is built and replaces the memo.
    """
    nc2, c, k = vb.shape
    v = vb[:, 0]
    order = (-v if maximize else v).argsort(kind="stable")
    memo = layer.memo
    if memo is not None and (memo[0] == order).all():
        fill = memo[1]
        layer.reused += 1
    else:
        rows = (order + k * np.arange(nc2)[:, None]).ravel()
        gathered = layer.room[rows].reshape(nc2, k, -1)
        # Room poured before each successor, then the slack left for it.
        # The running sum is cumsum's, term by term; where rows outnumber
        # successors, k - 1 adds over whole rows beat cumsum's strided
        # loop per row.
        if gathered.shape[2] > k:
            fill = np.empty_like(gathered)
            fill[:, 0] = gathered[:, 0]
            for t in range(1, k):
                np.add(fill[:, t - 1], gathered[:, t], out=fill[:, t])
        else:
            fill = np.cumsum(gathered, axis=1)
        fill -= gathered
        np.subtract(layer.slack, fill, out=fill)
        np.maximum(fill, 0.0, out=fill)
        np.minimum(fill, gathered, out=fill)
        fill.flags.writeable = False
        layer.memo = (order, fill)
        layer.built += 1
    ordered = vb[np.arange(nc2)[:, None, None], np.arange(c)[:, None],
                 order[:, None, :]]
    return vb @ layer.lower + ordered @ fill


def _sweep(imdp, layout, weights, v0, direction, fixed=None):
    """One backward pass at the reset value v0; returns (vbs, choices).

    vbs[i] has shape (n_cells_i, 2, n_states): at [:, 0] the excess, the
    value less v0, and at [:, 1] the escape, the mass of the paths that
    avoid every reset, both under the choices made during this pass.
    The last layer takes (w - v0, 1) in every cell alike and holds one
    cell; reset states take (0, 0), without a greedy.  Actions and
    nature optimize the excess in one direction, or the actions are
    fixed's.  choices[i] holds the chosen next cell of each of layer i's
    solved rows, shape (n_cells_i, len(layout[i].rows)).  The anchor's
    states other than the initial one are not states of the model and
    are left unset.
    """
    n_layers = imdp.n_layers
    n = imdp.n_states
    maximize = direction == "max"
    # vbs[i][j, 0] and vbs[i][j, 1] are the excess and escape of cell j.
    vbs = [None] * n_layers
    choices = [None] * (n_layers - 1)
    vbs[-1] = np.empty((1, 2, n))
    vbs[-1][:, 0] = np.subtract(weights, v0)
    vbs[-1][:, 1] = 1.0
    vbs[-1][:, :, imdp.reset_masks[-1]] = 0.0
    for i in range(n_layers - 2, -1, -1):
        layer = layout[i]
        nc = imdp.n_cells(i)
        nxt = vbs[i + 1]
        vb = nxt if layer.cols is None else nxt[:, :, layer.cols]
        q = _q_values(layer, vb, maximize)
        rows = layer.rows
        if i == n_layers - 2:
            # One greedy per gap on the one vector pair of the last
            # layer, gathered to (2, nc2, nc, r) through the gap index.
            q = q.reshape(2, len(imdp.stacks[i].slack), len(rows))
            q = q[:, imdp.gap_index[i].T]
        else:
            q = q.reshape(len(vb), 2, nc, len(rows)).swapaxes(0, 1)
        if fixed is not None:
            choice = fixed[i]
        elif maximize:
            choice = q[0].argmax(axis=0)
        else:
            choice = q[0].argmin(axis=0)
        cell, row = layer.pick
        vb_i = np.empty((nc, 2, n))
        vb_i[:, :, imdp.reset_masks[i]] = 0.0
        vb_i[:, :, rows] = q[:, choice, cell, row].swapaxes(0, 1)
        vbs[i] = vb_i
        choices[i] = choice
    return vbs, choices


def _expand(imdp, vbs, v0):
    """A sweep at v0's values, each layer an (n_cells_i, n_states) array
    of excess + v0: the anchor's states other than the initial one take
    nan.  vbs is expanded in place, escapes included: its last layer gets
    one row per cell."""
    unset = ~imdp.reset_masks[0]
    unset[imdp.rows[0]] = False
    vbs[0][:, :, unset] = np.nan
    vbs[-1] = np.repeat(vbs[-1], imdp.n_cells(imdp.n_layers - 1), axis=0)
    return [a[:, 0] + v0 for a in vbs]


def _solve(imdp, layout, weights, direction, tol, fixed=None, v0=0.0):
    """Sweep until the reset fixpoint stabilizes; returns the fixpoint.

    A sweep at v0 reads the initial state's excess d and escape e under
    the policy it picks, the actions and nature's extreme points.  That
    policy collects the weight alpha = d + e * v0 before any reset, and
    its fixpoint is alpha / e = v0 + d / e, the next guess: Dinkelbach's
    step for the optimal ratio, Newton's on the excess h(v) = d(v).
    Taken as d / e, the step's rounding stays relative to e; the same
    step formed from the value, (f - (1 - e) * v0) / e, cancels as e
    nears 0.  h is the optimum over policies of alpha - e * v, each line
    falling, so h is convex under max and concave under min: every
    tangent lies on one side of it, and each step after the first lands
    on the same side of the root and moves towards it.  The solve stops
    when the step is at most tol.
    """
    for sweeps in range(1, _MAX_SWEEPS + 1):
        vbs, _ = _sweep(imdp, layout, weights, v0, direction, fixed)
        d, e = vbs[0][0, :, imdp.initial]
        if e <= ZERO_LIKELIHOOD:
            raise ZeroLikelihoodError(
                "reset loop does not contract; the evidence has (near-)zero "
                "likelihood"
            )
        step = d / e
        v0 += step
        if abs(step) <= tol:
            return v0
    solve = "fixed scheduler" if fixed is not None else "robust"
    raise SolverError(
        f"value iteration did not converge ({solve}, {direction}): "
        f"sweeps {sweeps}, last reset-value change {abs(step):.3g}, "
        f"escape {e:.12g}"
    )


def robust_value_iteration(imdp, weights, direction="max",
                           tol=DEFAULT_VI_TOL, v0=0.0, layout=None):
    """Optimal robust values and the optimal scheduler.

    Actions (next-layer cells) and nature, over the feasible
    distributions inside the interval bounds, both optimize in direction
    ("max" or "min").  Argmax ties break to the lowest-indexed action.
    v0 is the first guess of the reset value; layout is the model's
    prepared arrays, built when omitted.

    values[i] is an (n_cells_i, n_states) array, and the scheduler holds
    choices on the model's rows (see BoundsReport).  Both come from one
    more sweep at the reset fixpoint, so the choices are greedy for the
    values.  Reset states hold the reset fixpoint v0.  In the anchor
    layer only the initial state is a state of the model; its other
    entries hold nan.
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be 'max' or 'min'")
    if layout is None:
        layout = _prepare(imdp)
    v0 = _solve(imdp, layout, weights, direction, tol, v0=v0)
    vbs, choices = _sweep(imdp, layout, weights, v0, direction)
    return _expand(imdp, vbs, v0), tuple(choices)


def evaluate_scheduler(imdp, weights, sched, inner, tol=DEFAULT_VI_TOL,
                       v0=0.0, layout=None):
    """Value of a fixed scheduler under adversarial (or friendly) nature.

    Returns the reset fixpoint, the value of the initial state; no sweep
    runs past the one that finds it.
    """
    if layout is None:
        layout = _prepare(imdp)
    return _solve(imdp, layout, weights, inner, tol, fixed=sched, v0=v0)


def reachable_under(imdp, sched):
    """Abstract states reachable from the start following the scheduler."""
    return reachable_states(imdp, sched)


def repair_consistency(imdp, sched):
    """Make each cell's choice uniform by majority vote over its rows.

    Layers are fixed front to back.  Reachability of layer i + 1 depends
    only on the choices at layers up to i, so it is carried forward one
    layer at a time as each layer's choices are fixed.  A cell's voters
    are its reachable rows (see BoundsReport), or all its rows when none
    is reachable.  One bincount over cell * n_next + choice counts every
    cell's votes, and the argmax per cell breaks ties to the lowest
    action index.  Each cell's winner is written to all its rows, so the
    result holds one choice per cell.
    """
    repaired = []
    reach = np.zeros((1, imdp.n_states), dtype=bool)
    reach[0, imdp.initial] = True
    for i, choice in enumerate(sched):
        nc, n_next = imdp.n_cells(i), imdp.n_cells(i + 1)
        voters = reach[:, imdp.rows[i]]
        voters |= ~voters.any(axis=1, keepdims=True)
        ballots = np.nonzero(voters)[0] * n_next + choice[voters]
        votes = np.bincount(ballots, minlength=nc * n_next)
        winner = votes.reshape(nc, n_next).argmax(axis=1)
        repaired.append(np.repeat(winner[:, None], choice.shape[1], axis=1))
        reach = reachable_step(imdp, i, reach, repaired[i])
    return tuple(repaired)


def witness_times(imdp, sched):
    """The timing a repaired scheduler realizes, or None.

    The path starts at the anchor cell and follows the scheduler's one
    choice per cell, sched[i][j, 0], layer by layer; each chosen cell
    gives its midpoint, a point cell its point.  A layer where every
    state resets has no rows, so no choice and no timing.
    """
    times, j = [], 0
    for i, choices in enumerate(sched):
        if not choices.shape[1]:
            return None
        j = int(choices[j, 0])
        lo, hi = imdp.layers[i + 1][j]
        times.append(float(0.5 * (lo + hi)))
    return tuple(times)


def _witness(times, ctmc, omega, weights):
    """(times, exact weight) of the timing times of omega, or None when
    there is no timing or its evidence has zero likelihood."""
    if times is None:
        return None
    rho = PreciseEvidence(tuple(zip(times, omega.formulas)))
    try:
        return times, unfolding.conditional_weight(ctmc, rho, weights)
    except ZeroLikelihoodError:
        return None


def compute_bounds(imdp, weights, ctmc, omega, tol=DEFAULT_VI_TOL,
                   direction="max", start=0.0, best=None):
    """Sound bound pair on the optimal conditional weight.

    imdp is omega's interval MDP over ctmc.  Maximization: the upper
    bound is the robust optimum (max over schedulers, max over
    distributions), and its scheduler sigma* guides refinement.  Every
    timing of the evidence is a scheduler of the unfolding, so the exact
    weight of one instance bounds the optimum from below: repairing
    sigma* gives one choice per cell, the midpoints of the cells on its
    path are an instance (witness_times), and its conditional_weight,
    less the relative WITNESS_MARGIN, is the lower bound.  Minimization
    flips every direction: the robust minimum is the lower bound and the
    witness, plus the margin, the upper.

    best is the best witness so far, a previous report's
    info["witness"]; a witness that is no better, or none, keeps it.
    With none at all the inner bound is min(weights) (max for
    minimization), which bounds every conditional expectation, a convex
    combination of the weights.  start is the first reset-value guess of
    the robust solve; a refinement loop passes the previous model's
    info["fixpoint"], which is close to the refined model's and saves
    sweeps.

    info holds the direction, the robust fixpoint, the witness as a pair
    (times, exact weight) or None, the sweeps of the robust solve (the
    one at its fixpoint that gives its values and scheduler included),
    and how many greedy fills the sweeps built and reused.  Per layer,
    info["rows"] holds the rows solved against the dense n_cells *
    n_states, and info["columns"] the successor columns against
    n_states.
    """
    layout = _prepare(imdp)
    values, sigma_star = robust_value_iteration(
        imdp, weights, direction, tol=tol, v0=start, layout=layout,
    )
    outer_bound = float(values[0][0, imdp.initial])
    sigma_hat = repair_consistency(imdp, sigma_star)
    witness = _witness(witness_times(imdp, sigma_hat), ctmc, omega, weights)
    sign = 1.0 if direction == "max" else -1.0
    if witness is None or (best is not None
                           and sign * best[1] >= sign * witness[1]):
        witness = best
    if witness is None:
        inner_bound = float(np.min(weights) if direction == "max"
                            else np.max(weights))
    else:
        inner_bound = witness[1] * (1.0 - sign * WITNESS_MARGIN)

    if direction == "max":
        lower, upper = inner_bound, outer_bound
    else:
        lower, upper = outer_bound, inner_bound
    return BoundsReport(
        lower=lower,
        upper=upper,
        guide_scheduler=sigma_star,
        repaired_scheduler=sigma_hat,
        info={
            "direction": direction,
            "fixpoint": outer_bound,
            "witness": witness,
            "sweeps": layout[0].built + layout[0].reused,
            "fills_built": sum(layer.built for layer in layout),
            "fills_reused": sum(layer.reused for layer in layout),
            "rows": tuple(
                (imdp.n_cells(i) * len(layer.rows),
                 imdp.n_cells(i) * imdp.n_states)
                for i, layer in enumerate(layout)
            ),
            "columns": tuple(
                (layer.lower.shape[1], imdp.n_states) for layer in layout
            ),
        },
    )
