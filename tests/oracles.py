"""Independent oracles that only the tests use.

- Monte-Carlo path simulation with rejection conditioning, against the
  exact transient distributions, conditional weights and likelihoods;
- audit_consistency, which checks that reachable states sharing a cell
  share an action, against consistency repair;
- refines, the structural nesting check of two time partitions, against
  the partition split;
- absorbing_chain, the chain with its targets made absorbing, against
  the power loop that holds targets at 1 on the chain itself (reach
  matrices and property weights);
- the per-state interval bounds that models do not store:
  full_bounds builds whole (gaps, rows, n) lower and upper stacks,
  dense_bounds scatters a model's to its cell pairs, and lumped reduces
  whole stacks to the GapStacks a model keeps, against the assembly's
  reduction chunk by chunk;
- decimal_conditional_weight, the Bayes quotient in exact decimal
  arithmetic, against the float conditional_weight and the margin a
  witness timing's weight is taken with.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from condreach.abstraction import GapStacks, reachable_states
from condreach.ctmc import Ctmc, invariance_vector


def absorbing_chain(ctmc, absorb_mask):
    """Copy of the chain with the masked states made absorbing.

    A masked state jumps only to itself and keeps its exit rate, so its
    generator row is 0 while the uniformization rate, and every other
    row of P = I + Q / lam, stay the chain's: its truncated series has
    the chain's Poisson weights, and differs from the power loop's by
    rounding alone.
    """
    jp = ctmc.jump_probs.copy()
    jp[absorb_mask] = 0.0
    jp[absorb_mask, absorb_mask] = 1.0
    return Ctmc(ctmc.state_names, ctmc.initial, jp, ctmc.exit_rates.copy(),
                ctmc.labels)


def simulate_states_at(ctmc, checkpoints, n, rng):
    """States of n independent paths at the given checkpoint times.

    Returns an (n, len(checkpoints)) array of the smallest unsigned int
    type that holds every state.  Paths use exponential residence times
    at the full exit rate; self-loop jumps re-enter the same state,
    which leaves every checkpoint reading unchanged.  The state at a
    jump instant is the post-jump state.
    """
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    checkpoints = np.asarray(checkpoints, dtype=float)
    if checkpoints.size and np.any(np.diff(checkpoints) < 0):
        raise ValueError("checkpoints must be sorted")
    m = checkpoints.size
    out = np.empty((n, m), dtype=np.min_scalar_type(ctmc.n_states - 1))
    state = np.full(n, ctmc.initial, dtype=np.int64)
    now = np.zeros(n)
    ptr = np.zeros(n, dtype=np.int64)
    jump_cdf = np.cumsum(ctmc.jump_probs, axis=1)
    rates = ctmc.exit_rates
    alive = np.arange(n)
    while alive.size:
        r = rates[state[alive]]
        dt = np.full(alive.size, np.inf)
        moving = r > 0
        dt[moving] = rng.exponential(1.0 / r[moving])
        nxt = now[alive] + dt
        # Checkpoints first to end - 1 come before the next jump and read
        # the current state.
        first = ptr[alive]
        end = np.searchsorted(checkpoints, nxt)
        count = end - first
        shift = np.repeat(first - np.cumsum(count) + count, count)
        out[np.repeat(alive, count), np.arange(shift.size) + shift] = (
            np.repeat(state[alive], count)
        )
        ptr[alive] = end
        jumping = end < m
        idx = alive[jumping]
        if idx.size:
            u = rng.random(idx.size)
            state[idx] = (u[:, None] < jump_cdf[state[idx]]).argmax(axis=1)
            now[idx] = nxt[jumping]
        alive = idx
    return out


def _accepted(ctmc, rho, states):
    """Paths whose state at every observation time satisfies its formula."""
    accept = np.ones(len(states), dtype=bool)
    for k, obs in enumerate(rho.formulas):
        accept &= ctmc.satisfying(obs)[states[:, k]]
    return accept


@dataclass(frozen=True)
class RejectionEstimate:
    value: float
    sigma: float
    acceptance_rate: float
    n_accepted: int


def rejection_conditional_weight(ctmc, rho, weights, n, rng):
    """Conditional expected weight by keeping evidence-consistent paths.

    Paths are sampled forward; a path is accepted when its state at every
    observation time satisfies the observed formula.  The estimate is the
    mean weight of the final-time state over accepted paths, with the
    binomial-normal standard error of that mean.
    """
    states = simulate_states_at(ctmc, rho.times, n, rng)
    return rejection_estimate(ctmc, rho, weights, states)


def rejection_estimate(ctmc, rho, weights, states):
    """The estimate of rejection_conditional_weight from simulated states.

    states[:, k] holds the paths' states at rho's k-th observation time,
    so one simulation at the union of several instances' times serves
    them all.
    """
    weights = np.asarray(weights, dtype=float)
    accept = _accepted(ctmc, rho, states)
    n_acc = int(accept.sum())
    if n_acc == 0:
        return RejectionEstimate(0.0, np.inf, 0.0, 0)
    vals = weights[states[accept, -1]]
    sigma = float(vals.std(ddof=1) / np.sqrt(n_acc)) if n_acc > 1 else np.inf
    return RejectionEstimate(float(vals.mean()), sigma, n_acc / len(states),
                             n_acc)


def empirical_likelihood(ctmc, rho, n, rng):
    """Acceptance-rate estimate of the evidence probability with its sigma."""
    states = simulate_states_at(ctmc, rho.times, n, rng)
    rate = _accepted(ctmc, rho, states).mean()
    sigma = float(np.sqrt(max(rate * (1.0 - rate), 1e-12) / n))
    return float(rate), sigma


def audit_consistency(imdp, sched, reach=None):
    """Check that reachable states sharing a cell share an action.

    sched is a tuple of choices on the model's rows (solver.BoundsReport).
    """
    if reach is None:
        reach = reachable_states(imdp, sched)
    for i, rows in enumerate(imdp.rows):
        for j in range(imdp.n_cells(i)):
            acts = sched[i][j][reach[i][j][rows]]
            if acts.size and not (acts == acts[0]).all():
                return False
    return True


def refines(child, parent):
    """Structural nesting check: every child cell inside one parent cell."""
    if len(child.cells) != len(parent.cells):
        return False
    for c, p in zip(child.cells, parent.cells):
        inside = (p[:, 0] <= c[:, :1]) & (c[:, 1:] <= p[:, 1])
        if (inside.sum(axis=1) != 1).any():
            return False
    return True


def full_bounds(cache, gaps, rows):
    """Whole (lower, upper) stacks, (m, r, n) each, of an (m, 2) array of
    gaps on the given rows, from the cache's kernels and spreads.

    Every gap's full rows come from one call of the assembly's full-row
    build, where the cache builds and reduces them a chunk at a time.
    Parts the cache lacks are computed unmarched.
    """
    gaps = np.asarray(gaps, dtype=float).reshape(-1, 2)
    spread = gaps[:, 1] - gaps[:, 0]
    kernels, spreads = cache._parts(gaps[:, 0], spread, march=False)
    inv = invariance_vector(cache.ctmc, spread)
    return cache._full_rows(kernels, spreads, inv,
                            np.asarray(rows, dtype=np.intp))


def sinks_of(reset_masks):
    """Per step, the next layer's reset mask where two or more states
    reset, the successors a model lumps into one column; else None."""
    return [reset if reset.sum() >= 2 else None for reset in reset_masks[1:]]


def lumped(lower, upper, sink=None):
    """The GapStacks of whole (g, r, n) lower and upper stacks.

    The columns of the successors in sink become one last column that
    holds the sums of their lower bounds and of their rooms, each the sum
    of one contiguous row of the sink's columns; slack, excess and
    support are taken over the full rows.
    """
    mass = lower.sum(axis=2)
    excess = np.maximum(mass - 1.0, 1.0 - upper.sum(axis=2))
    columns = []
    for a in (lower, upper - lower):
        if sink is not None:
            total = np.ascontiguousarray(a[..., sink]).sum(axis=-1)
            a = np.concatenate((a[..., ~sink], total[..., None]), axis=-1)
        columns.append(np.ascontiguousarray(a.transpose(2, 0, 1)))
    return GapStacks(*columns, 1.0 - mass, excess, upper > 0)


def layer_gaps(imdp, i):
    """The (g_min, g_max) pairs of layer i's distinct gaps, in gap order,
    each from the first cell pair that admits it."""
    index = imdp.gap_index[i]
    (lo, hi), (lo2, hi2) = imdp.layers[i].T, imdp.layers[i + 1].T
    _, first = np.unique(index, return_index=True)
    j, j2 = np.unravel_index(first, index.shape)
    return np.stack((lo2[j2] - hi[j], hi2[j2] - lo[j]), axis=1)


def dense_bounds(imdp, cache):
    """Per-layer (lower, upper) arrays of a model, one block per cell pair.

    Each layer's gap bounds are built whole from cache, which must serve
    the model's chain and tolerance, and scattered through the gap index
    into (n_cells_i, n_cells_{i+1}, r_i, n) arrays: block [j, j2] bounds
    the stored rows of cell j under action j2, row k being the one of
    state imdp.rows[i][k].
    """
    dense = []
    for i, (index, rows) in enumerate(zip(imdp.gap_index, imdp.rows)):
        L, U = full_bounds(cache, layer_gaps(imdp, i), rows)
        dense.append((L[index], U[index]))
    return dense


def decimal_conditional_weight(ctmc, rho, w, digits=60):
    """Conditional weight of precise evidence rho to `digits` digits.

    The chain is the one its floats define, Q = diag(E) (J - I), read
    exactly: Decimal(float) is exact.  The forward distribution of the
    absorb-on-violation chain is carried through each gap's uniformized
    series, whose Poisson terms run past the mode until they fall below
    10^-(digits + 10); the gaps are the exact differences of the times.
    Returns E[w at t_d; evidence] / P(evidence) as a Decimal, or None on
    zero likelihood.
    """
    n = ctmc.n_states
    masks = ctmc.reset_masks(rho.formulas)
    with localcontext() as ctx:
        ctx.prec = digits
        tiny = Decimal(10) ** -(digits + 10)
        exit_rates = [Decimal(e) for e in ctmc.exit_rates.tolist()]
        lam = max(exit_rates)
        jump = [[Decimal(x) for x in row] for row in ctmc.jump_probs.tolist()]
        P = [
            [(exit_rates[s] / lam * (jump[s][t] - (s == t)) if lam else 0)
             + (s == t) for t in range(n)]
            for s in range(n)
        ]
        dist = [Decimal(0)] * n
        dist[ctmc.initial] = Decimal(1)
        prev = Decimal(0)
        for i, t in enumerate(rho.times, start=1):
            x = lam * (Decimal(t) - prev)
            prev = Decimal(t)
            term, k = (-x).exp(), 0
            vec, acc = dist, [term * d for d in dist]
            while k <= x or term >= tiny:
                k += 1
                term = term * x / k
                vec = [sum(vec[s] * P[s][u] for s in range(n))
                       for u in range(n)]
                acc = [a + term * v for a, v in zip(acc, vec)]
            dist = [Decimal(0) if masks[i][u] else acc[u] for u in range(n)]
        likelihood = sum(dist)
        if not likelihood:
            return None
        return sum(d * Decimal(x) for d, x in zip(dist, w.tolist())) / likelihood
