"""Robust value iteration, consistency repair, and the bound pair.

The layered model is acyclic except for the single reset back-edge into
the initial abstract state, so each value sweep is one backward pass.
The sweep also propagates, through the distributions actually chosen,
the sensitivity of every value to the injected initial value; the reset
fixpoint is then solved in closed form and re-swept until the choices
stabilize (policy iteration on a scalar).

Each layer of a sweep is one batched numpy kernel over its rows.
Nature's optimum over an interval polytope is its greedy extreme point:
a row starts at its lower bounds and pours its slack into successors in
value order (greedy_distribution states it for one block and is kept as
the tests' oracle).  What does not depend on the values, the room
U - L stored successor-major and the slack 1 - sum L, is prepared once
per compute_bounds call from the model's gap stacks and shared by its
three solves.  A sweep then sorts the next layer's values with one
stable argsort, gathers the room rows in that order, clips their
running sum against the slack, and takes each q-value as L @ v plus the
clipped fill dotted with the sorted values; betas reuse the same fill.

The fill, the mass each sorted successor takes beyond its lower bound,
depends on the values only through their order.  Each prepared layer
keeps the last fill it built with its order, and a sweep whose argsort
repeats that order takes the fill instead of rebuilding it.  The reuse
is exact: the stored array is the one the rebuild would compute, and
the q-values come from the same formula.  It hits often, because
warm-started solves converge in few sweeps, the step into the last
layer orders by the weights and v0 alone, and the last two solves share
their inner direction.

The last observation layer carries the weights, or the reset value v0
on its violating states, in every cell alike.  A greedy depends only on
its row's intervals and on the vector it orders by, so the step into
that layer runs once per distinct gap and gathers the q-values to the
cell pairs through the gap index; every other step has a row per
(cell, next cell, state), gathered from the gap stacks once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abstraction import reachable_states, reachable_step
from .unfolding import ZERO_LIKELIHOOD, ZeroLikelihoodError

DEFAULT_VI_TOL = 1e-9
_MAX_SWEEPS = 10000


class SolverError(ArithmeticError):
    """Raised on non-convergence or on a lower bound above the upper."""


@dataclass(frozen=True)
class Scheduler:
    """Chosen next-layer cell per abstract state.

    choices[i] is an int array (n_cells_i, n_states); -1 marks reset
    states, which have no choice.
    """

    choices: tuple


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    upper: float
    guide_scheduler: Scheduler
    repaired_scheduler: Scheduler
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

    Every layer but the last gets the rows of all its cell pairs (see
    _rows), gathered once from the gap stacks.  In the last step all
    next cells carry the same vectors, so a row's greedy depends on its
    gap alone: that layer gets one row per gap and state, numbered as if
    each gap were a cell with a single next cell.  The last observation
    layer has no successors and no arrays; it carries the weights.  Each
    layer's fill memo (see _q_values) lives as long as the layout.
    """
    layout = []
    last = imdp.n_layers - 2
    for i, (L, U, index) in enumerate(
        zip(imdp.gap_lower, imdp.gap_upper, imdp.gap_index)
    ):
        if i == last:
            index = np.arange(len(L))[:, None]
        layout.append(_rows(L, U, index))
    return layout


class _Layer:
    """A step's value-independent greedy arrays and its fill memo.

    lower, room and slack are described at _rows.  memo is None or the
    (order, fill) pair of the last fill _q_values built.  A fill depends
    on the direction only through the order, so one slot serves both;
    each solve keeps one inner direction.  built and reused count the
    _q_values calls that computed a fill and that took the stored one.
    """

    __slots__ = ("lower", "room", "slack", "memo", "built", "reused")

    def __init__(self, lower, room, slack):
        self.lower, self.room, self.slack = lower, room, slack
        self.memo = None
        self.built = self.reused = 0


def _rows(L, U, index):
    """The greedy arrays (lower, room, slack) of index's cell pairs.

    L and U are (g, n, n) gap stacks and index an (nc, nc2) array of gap
    numbers.  Rows are numbered m = j * n + s over (cell, state), and all
    three arrays are successor-major: lower[j2, t, m] is
    L[index[j, j2], s, t], shape (nc2, n, nc * n); room is U - L in the
    same order, flattened to (nc2 * n, nc * n); and slack[j2, 0, m] is
    1 - sum_t L[index[j, j2], s, t].  They come as a _Layer with an
    empty fill memo.
    """
    g, n, _ = L.shape
    nc, nc2 = index.shape
    # Row t * g + k of a stack transposed to (t, g, s) is gap k's
    # column t; take[j2, t, j] picks it for the pair (j, j2).
    take = index.T[:, None, :] + g * np.arange(n)[:, None]
    lower = L.transpose(2, 0, 1).reshape(n * g, n)[take]
    room = (U - L).transpose(2, 0, 1).reshape(n * g, n)[take]
    slack = (1.0 - L.sum(axis=-1))[index.T]
    return _Layer(
        lower.reshape(nc2, n, nc * n),
        room.reshape(nc2 * n, nc * n),
        slack.reshape(nc2, 1, nc * n),
    )


def _q_values(layer, vb, maximize):
    """Inner-optimal expectations of next-layer vectors, for every row.

    vb has shape (nc2, k, n): k vectors per next cell, the first of which
    orders the successors.  Returns q of shape (nc2, k, m), where
    q[j2, :, j * n + s] is the expectation of vb[j2] under the greedy
    extreme point of row s of cell j towards next cell j2.

    The fill is a function of the layer and the order alone, so when the
    order equals the memo's, the memo's fill is taken as it is;
    otherwise the fill is built and replaces the memo.
    """
    nc2, _, n = vb.shape
    v = vb[:, 0]
    order = np.argsort(-v if maximize else v, axis=-1, kind="stable")
    memo = layer.memo
    if memo is not None and np.array_equal(memo[0], order):
        fill = memo[1]
        layer.reused += 1
    else:
        rows = (order + n * np.arange(nc2)[:, None]).ravel()
        gathered = layer.room[rows].reshape(nc2, n, -1)
        # Room poured before each successor, then the slack left for it.
        fill = np.cumsum(gathered, axis=1)
        fill -= gathered
        np.subtract(layer.slack, fill, out=fill)
        np.clip(fill, 0.0, gathered, out=fill)
        fill.flags.writeable = False
        layer.memo = (order, fill)
        layer.built += 1
    ordered = np.take_along_axis(vb, order[:, None, :], axis=2)
    return vb @ layer.lower + ordered @ fill


def _sweep(imdp, layout, weights, v0, outer, inner, fixed=None):
    """One backward pass; returns (values, betas, choices).

    values[i] has shape (n_cells_i, n_states); betas is the derivative
    of each value with respect to the injected initial value v0 under
    the choices made during this pass.  The last layer takes the weights,
    and its reset states take v0 with beta 1.
    """
    n_layers = imdp.n_layers
    n = imdp.n_states
    values = [None] * n_layers
    betas = [None] * n_layers
    choices = [None] * (n_layers - 1)
    w = np.asarray(weights, dtype=float)
    values[-1] = np.tile(w, (imdp.n_cells(n_layers - 1), 1))
    betas[-1] = np.zeros_like(values[-1])
    reset = imdp.reset_masks[-1]
    values[-1][:, reset] = v0
    betas[-1][:, reset] = 1.0
    for i in range(n_layers - 2, -1, -1):
        nc = imdp.n_cells(i)
        nc2 = imdp.n_cells(i + 1)
        vb = np.stack((values[i + 1], betas[i + 1]), axis=1)
        if i == n_layers - 2:
            # One greedy per gap on the one vector pair of the last
            # layer, gathered to (nc2, 2, nc, n) through the gap index.
            q = _q_values(layout[i], vb[:1], inner == "max")
            q = q.reshape(2, -1, n)[:, imdp.gap_index[i].T].swapaxes(0, 1)
        else:
            q = _q_values(layout[i], vb, inner == "max")
            q = q.reshape(nc2, 2, nc, n)
        q_val, q_beta = q[:, 0], q[:, 1]
        if fixed is not None:
            choice = fixed.choices[i].copy()
            # Reset rows carry -1; give them a valid gather index, their
            # values are overwritten below anyway.
            gather = np.maximum(choice, 0)
        elif outer == "max":
            gather = choice = np.argmax(q_val, axis=0)
        else:
            gather = choice = np.argmin(q_val, axis=0)
        take = gather[None]
        val = np.take_along_axis(q_val, take, axis=0)[0]
        beta = np.take_along_axis(q_beta, take, axis=0)[0]
        reset = imdp.reset_masks[i]
        val[:, reset] = v0
        beta[:, reset] = 1.0
        choice[:, reset] = -1
        values[i] = val
        betas[i] = beta
        choices[i] = choice
    return values, betas, choices


def _solve(imdp, weights, outer, inner, tol, fixed=None, v0=0.0,
           layout=None):
    """Iterate sweeps until the reset fixpoint stabilizes."""
    if layout is None:
        layout = _prepare(imdp)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        values, betas, choices = _sweep(
            imdp, layout, weights, v0, outer, inner, fixed
        )
        f = values[0][0, imdp.initial]
        b = betas[0][0, imdp.initial]
        if b >= 1.0 - ZERO_LIKELIHOOD:
            raise ZeroLikelihoodError(
                "reset loop does not contract; the evidence has (near-)zero "
                "likelihood"
            )
        # The pass computes f = alpha + b * v0 under frozen choices; the
        # frozen-choice fixpoint is alpha / (1 - b).
        v0_new = (f - b * v0) / (1.0 - b)
        delta = abs(v0_new - v0)
        if delta <= tol:
            values, _, choices = _sweep(
                imdp, layout, weights, v0_new, outer, inner, fixed
            )
            return values, Scheduler(tuple(choices)), v0_new
        v0 = v0_new
    solve = "fixed scheduler" if fixed is not None else f"outer {outer}"
    raise SolverError(
        f"value iteration did not converge ({solve}, inner {inner}): "
        f"sweeps {sweeps}, last reset-value change {delta:.3g}, "
        f"b = {b:.12g}"
    )


def robust_value_iteration(
    imdp, weights, outer="max", inner="max", tol=DEFAULT_VI_TOL, v0=0.0,
    layout=None,
):
    """Optimal robust values and the outer-optimal scheduler.

    outer optimizes over actions (next-layer cells), inner over the
    feasible distributions inside the interval bounds.  Argmax ties
    break to the lowest-indexed action.  v0 is the first guess of the
    reset value; layout is the model's prepared arrays, built when
    omitted.
    """
    values, sched, _ = _solve(imdp, weights, outer, inner, tol, v0=v0,
                              layout=layout)
    return values, sched


def evaluate_scheduler(imdp, weights, sched, inner, tol=DEFAULT_VI_TOL,
                       v0=0.0, layout=None):
    """Value of a fixed scheduler under adversarial (or friendly) nature."""
    values, _, value = _solve(imdp, weights, outer=None, inner=inner,
                              tol=tol, fixed=sched, v0=v0, layout=layout)
    return values, value


def reachable_under(imdp, sched):
    """Abstract states reachable from the start following the scheduler."""
    return reachable_states(imdp, sched)


def repair_consistency(imdp, sched, active=None):
    """Make per-cell choices uniform by majority vote over reachable states.

    Layers are fixed front to back.  Reachability of layer i + 1 depends
    only on the choices at layers up to i, so it is carried forward one
    layer at a time as each layer's choices are fixed.  Ties (and cells
    with no reachable voters) resolve to the lowest action index among
    the votes of all active non-reset states.  active holds per-layer
    masks, such as restrict_reachable's; every state is active when it
    is None.
    """
    choices = [c.copy() for c in sched.choices]
    reach = np.zeros((1, imdp.n_states), dtype=bool)
    reach[0, imdp.initial] = True
    for i in range(imdp.n_layers - 1):
        reset = imdp.reset_masks[i]
        for j in range(imdp.n_cells(i)):
            eligible = ~reset if active is None else ~reset & active[i][j]
            if not eligible.any():
                continue
            voters = reach[j] & eligible
            votes = choices[i][j][voters if voters.any() else eligible]
            winner = np.bincount(votes).argmax()
            choices[i][j][eligible] = winner
        reach = reachable_step(imdp, i, reach, choices[i])
    return Scheduler(tuple(choices))


def audit_consistency(imdp, sched, reach=None):
    """Check that reachable states sharing a cell share an action."""
    if reach is None:
        reach = reachable_states(imdp, sched)
    for i in range(imdp.n_layers - 1):
        reset = imdp.reset_masks[i]
        for j in range(imdp.n_cells(i)):
            acts = sched.choices[i][j][reach[i][j] & ~reset]
            if acts.size and not (acts == acts[0]).all():
                return False
    return True


def compute_bounds(imdp, weights, tol=DEFAULT_VI_TOL, direction="max",
                   start=(0.0, 0.0, 0.0), active=None):
    """Sound bound pair on the optimal conditional weight.

    Maximization: the upper bound is the unrestricted robust optimum
    (max over schedulers, max over distributions); the lower bound
    evaluates, pessimistically, the consistent scheduler obtained by
    repairing the max/min-optimal one.  Minimization flips every
    direction symmetrically.

    start holds the first reset-value guesses of the three solves; a
    refinement loop passes the previous model's info["fixpoints"], which
    are close to the refined model's and save sweeps.  active is passed
    to repair_consistency.

    info holds the direction, the three fixpoints, the sweeps of each
    solve, and how many greedy fills the sweeps built and reused.
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be 'max' or 'min'")
    opt, pess = ("max", "min") if direction == "max" else ("min", "max")
    layout = _prepare(imdp)
    # Every sweep calls _q_values once per layer, layer 0 included.
    first = layout[0]
    sweeps = []

    def count_sweeps():
        sweeps.append(first.built + first.reused - sum(sweeps))

    vals_outer, sigma_star = robust_value_iteration(
        imdp, weights, outer=opt, inner=opt, tol=tol, v0=start[0],
        layout=layout,
    )
    count_sweeps()
    outer_bound = float(vals_outer[0][0, imdp.initial])

    vals_minus, sigma_minus = robust_value_iteration(
        imdp, weights, outer=opt, inner=pess, tol=tol, v0=start[1],
        layout=layout,
    )
    count_sweeps()
    sigma_hat = repair_consistency(imdp, sigma_minus, active)
    _, inner_bound = evaluate_scheduler(imdp, weights, sigma_hat, inner=pess,
                                        tol=tol, v0=start[2], layout=layout)
    count_sweeps()
    inner_bound = float(inner_bound)
    fixpoints = (outer_bound, float(vals_minus[0][0, imdp.initial]),
                 inner_bound)

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
            "fixpoints": fixpoints,
            "sweeps": tuple(sweeps),
            "fills_built": sum(layer.built for layer in layout),
            "fills_reused": sum(layer.reused for layer in layout),
        },
    )
