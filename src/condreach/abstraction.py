"""Interval MDP abstraction of the conditioned unfolding.

Abstract states are (layer, cell, CTMC state) triples.  Layer 0 is the
anchor {0} and layers 1..d hold the partition cells of the d observation
windows; the last observation layer carries the weights.  An action
picks the next-layer cell; its interval distribution over successor
states brackets every transient kernel realizable by times inside the
two cells.

Bounds depend on the two cells only through the elapsed-time gap they
admit, so the model is stored by distinct gap.  A model is built without
a loop over cell pairs: the gaps of all pairs come from the cells'
endpoint arrays by broadcasting, each layer's distinct gaps are found
with np.unique, and the bound cache answers the distinct gaps of every
layer in one batched call per model.  Each layer keeps its (gap, rows,
n) stacks and np.unique's inverse as an (n_cells, n_next_cells) gap
index; nothing is scattered to the pairs.  A layer's stacks hold only
the rows of the states the model defines there (IntervalMdp.rows): the
initial state in the anchor layer, the non-reset states after it.  The
cache, one per chain and transient tolerance, keeps the gap's two parts
across layers and iterations: kernels by its minimum and reach matrices
by its spread, each in one sorted-key stack.

Each partition is abstracted on its own.  Refinement still nests: a
child cell pair admits a sub-gap of its parent pair's gap, and the
bounds are monotone in the gap.  The chance to visit s' inside a smaller
window can only fall, and the chance to stay in s' over it can only
rise, so every child interval lies inside its parent's.  The tests check
this; nothing clips to it.

Reachability advances one layer per step (reachable_step): the supports
of the followed rows of U's gap stacks are gathered, grouped by next
cell, and or-reduced per group.  A forward pass is one step per layer,
and consistency repair takes the same steps as it fixes each layer's
choices.  Pruning is such a pass over every action: restrict_reachable
returns its masks, and the model is never copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ctmc import (
    DEFAULT_TRANSIENT_TOL,
    invariance_vector,
    reach_matrix,
    transient_matrix,
)

# Floating-point slack for lower > upper inversions on near-point cells.
_NOISE = 1e-9
# Floats per chunk of gaps (1 MB) in the stacked products and column
# lumps: it bounds the copies of reach matrices and rows they gather,
# and a small chain's gaps all fit in one chunk, so one call.
_CHUNK = 2**17


class AbstractionError(ArithmeticError):
    """Raised when computed interval bounds are numerically infeasible."""


def _chunks(m, size):
    """Slices that cut m gaps of size floats each into _CHUNK-float
    chunks, at least one gap per chunk."""
    step = max(1, _CHUNK // max(size, 1))
    return [slice(at, at + step) for at in range(0, m, step)]


class _KeyedStack:
    """A stack of arrays keyed by a float, filled on demand by compute.

    compute(keys) returns the values of the sorted keys not stored yet,
    stacked along axis 0.  They are appended to one buffer, in the order
    they are computed, and a buffer that fills is replaced by one of
    twice the size, so a stored value is copied O(1) times on average.
    keys is kept sorted, and rows maps keys[i] to its row in the buffer.
    get hands out buffer rows, not copies: callers gather what they read.
    """

    def __init__(self, compute):
        self.compute = compute
        self.keys = np.empty(0)
        self.rows = np.empty(0, dtype=np.intp)
        self.buffer = None
        self.size = 0

    def get(self, queries):
        """The buffer row of every query's value, in query order.

        Keys not stored yet are computed by one call compute(keys).  The
        rows index self.buffer until the next get that computes.
        """
        uniq, inverse = np.unique(queries, return_inverse=True)
        pos = np.searchsorted(self.keys, uniq)
        stored = pos < len(self.keys)
        stored[stored] = self.keys[pos[stored]] == uniq[stored]
        if not stored.all():
            new, at = uniq[~stored], pos[~stored]
            rows = self._append(self.compute(new))
            self.keys = np.insert(self.keys, at, new)
            self.rows = np.insert(self.rows, at, rows)
            pos = np.searchsorted(self.keys, uniq)
        return self.rows[pos[inverse.reshape(-1)]]

    def _append(self, fresh):
        """Append the stack fresh to the buffer; returns its rows."""
        start, end = self.size, self.size + len(fresh)
        if self.buffer is None or end > len(self.buffer):
            grown = np.empty((max(end, 2 * start), *fresh.shape[1:]),
                             fresh.dtype)
            if self.buffer is not None:
                grown[:start] = self.buffer[:start]
            self.buffer = grown
        self.buffer[start:end] = fresh
        self.size = end
        return np.arange(start, end)


class TransientBoundCache:
    """Transparent cache of (lower, upper) bound matrices per gap, for one
    chain at one transient tolerance (abstract refuses any other).

    The bounds of a gap [g_min, g_max] are built from the transient
    kernel K(g_min) and the reach matrix R of the spread g_max - g_min:
    upper is K @ R, and lower is K scaled column-wise by the spread's
    invariance vector, an elementwise exp taken per call.  Kernels are
    kept by gap minimum and reach matrices by spread, each in a
    _KeyedStack, so gaps that share a minimum or a spread share that
    part, and a call computes its missing kernels and spreads in one
    transient_matrix and one reach_matrix call.  Finished pairs are not
    kept: assembling them takes the kernels' requested rows, gathered
    straight from the buffer, times the buffered reach matrices, a chunk
    of gaps at a time.  Cell endpoint arithmetic is exact on
    representable binary fractions, so evidences with uniform window
    spacing hit the cache across layers.
    """

    def __init__(self, ctmc, eps=DEFAULT_TRANSIENT_TOL):
        eps = float(eps)
        self.ctmc, self.eps = ctmc, eps
        # The closures capture ctmc and eps, never self: a cache in a
        # reference cycle would wait for the cyclic collector to be freed.
        self._kernels = _KeyedStack(lambda t: transient_matrix(ctmc, t, eps))
        self._spreads = _KeyedStack(lambda h: reach_matrix(ctmc, h, eps))

    @property
    def entries(self):
        """Keys of every stored kernel and spread.

        Its length grows exactly when a call computes a new part;
        bench/run.py reads it to count misses.
        """
        return np.concatenate((self._kernels.keys, self._spreads.keys))

    def bound_matrices(self, gaps, rows):
        """Sound bound matrices over elapsed-time gaps, on chosen rows.

        gaps holds parts, each an (m, 2) array of (g_min, g_max) pairs,
        and rows as many int arrays of r state ids.  The result holds per
        part a (lower, upper) pair of read-only (m, r, n) stacks: row k of
        a gap's matrices is state rows[k]'s.  For elapsed time tau in
        [g_min, g_max]:
          upper[s, s'] = P(visit s' at some point in [g_min, g_max] from s),
          lower[s, s'] = P(in s' at g_min, no jump until g_max from s),
        both of which bracket the transient probability at every tau.
        The missing parts of every part's gaps are computed together.
        """
        gaps = [np.asarray(g, dtype=float) for g in gaps]
        for g in gaps:
            if g.shape[1:] != (2,) or not np.all(
                (0 <= g[:, 0]) & (g[:, 0] <= g[:, 1])
            ):
                raise ValueError(
                    "gaps must be (min, max) rows, 0 <= min <= max"
                )
        if len(rows) != len(gaps):
            raise ValueError("rows must hold one state array per gap part")
        every = np.concatenate(gaps)
        g_min, spread = every[:, 0], every[:, 1] - every[:, 0]
        kernels, spreads = self._kernels.get(g_min), self._spreads.get(spread)
        inv = invariance_vector(self.ctmc, spread)
        ends = np.cumsum([0, *map(len, gaps)])
        return [
            self._assemble(kernels[a:b], spreads[a:b], inv[a:b],
                           np.asarray(r, dtype=np.intp))
            for a, b, r in zip(ends, ends[1:], rows)
        ]

    def _assemble(self, kernels, spreads, inv, rows):
        """The bound stacks of the gaps whose parts sit at buffer rows
        kernels and spreads, with invariance vectors inv, on rows."""
        # BLAS runs a one-row product as gemv, whose sums round otherwise
        # than gemm's rows; a doubled row keeps the full product's bits.
        r = len(rows)
        lower = self._kernels.buffer[kernels[:, None],
                                     np.repeat(rows, 2) if r == 1 else rows]
        upper = np.empty_like(lower)
        R = self._spreads.buffer
        for part in _chunks(len(lower), self.ctmc.n_states ** 2):
            np.matmul(lower[part], R[spreads[part]], out=upper[part])
        lower, upper = lower[:, :r], upper[:, :r]
        # lower is a fresh gather, so it is scaled in place.  A point
        # gap's spread is 0, with R = I and invariance 1, so it brackets
        # its one kernel exactly.
        lower *= inv[:, None, :]
        np.clip(lower, 0.0, 1.0, out=lower)
        np.clip(upper, 0.0, 1.0, out=upper)
        # Lower above upper by at most _NOISE is float noise on near-point
        # intervals: such entries meet at their midpoint.
        noisy = lower > upper
        if noisy.any():
            lo, hi = lower[noisy], upper[noisy]
            if np.any(lo - hi > _NOISE):
                raise AbstractionError(
                    "lower bound exceeds upper beyond tolerance"
                )
            lower[noisy] = upper[noisy] = 0.5 * (lo + hi)
        lower.setflags(write=False)
        upper.setflags(write=False)
        return lower, upper


@dataclass(frozen=True)
class IntervalMdp:
    """Layered interval MDP, stored by distinct gap on its live rows.

    Attributes
    ----------
    layers : tuple of ndarray
        Per layer, the (n_cells, 2) array of [lo, hi] cell endpoints: the
        anchor [0, 0], then each observation window's partition cells.
    gap_lower, gap_upper : tuple of ndarray
        Per layer i < last, the (n_gaps_i, len(rows[i]), n_states) bound
        stacks of the distinct gaps between layer i's cells and layer
        i + 1's, on the rows of the states in rows[i].
    gap_index : tuple of ndarray
        Per layer i < last, an int array (n_cells_i, n_cells_{i+1}) of
        gap numbers.  With g = gap_index[i][j, j2] and s = rows[i][k],
        entry [g, k, s'] of gap_lower[i] and gap_upper[i] bounds the
        transition probability of abstract state (i, j, s) under action
        j2 into (i+1, j2, s').
    reset_masks : tuple of ndarray
        Per layer, the states violating that layer's observation; such
        abstract states carry a single probability-1 redirect to the
        initial abstract state instead of rows or weights, so the gap
        stacks hold no row of theirs.  The solver sums the columns of a
        layer's reset successors into one reset-sink column, since they
        all carry the reset value.
    initial : int
        CTMC initial state; the initial abstract state is (0, 0, initial).
        It is the anchor layer's one state of the model, and the anchor's
        gap stacks hold its row alone.
    """

    layers: tuple
    gap_lower: tuple
    gap_upper: tuple
    gap_index: tuple
    reset_masks: tuple
    initial: int
    n_states: int

    def __post_init__(self):
        for i, (L, U) in enumerate(zip(self.gap_lower, self.gap_upper)):
            shape = (len(self.rows[i]), self.n_states)
            if not L.shape[1:] == U.shape[1:] == shape:
                raise ValueError(f"layer {i}'s stacks do not hold its rows")

    @cached_property
    def rows(self):
        """Per layer i < last, the states whose rows its gap stacks hold."""
        return _stack_rows(self.reset_masks, self.initial)

    @property
    def n_layers(self):
        return len(self.layers)

    def n_cells(self, i):
        return len(self.layers[i])

    def sizes(self, active):
        """(states, actions, transitions) over the active abstract states.

        active holds per-layer (n_cells, n_states) masks, such as
        restrict_reachable's; of the anchor layer only the initial state,
        the one state the model defines there, counts.  Reset states
        contribute one action and one transition each; the other
        last-layer states are terminal and contribute none.
        """
        states = actions = transitions = 0
        last = self.n_layers - 1
        for i, (a, reset) in enumerate(zip(active, self.reset_masks)):
            resets = int(a[:, reset].sum())
            live = a[:, self.rows[i] if i < last else ~reset]
            states += resets + int(live.sum())
            actions += resets
            transitions += resets
            if i < last:
                actions += int(live.sum()) * self.n_cells(i + 1)
                # Successors with support per gap and row, summed over
                # actions.
                degree = (self.gap_upper[i] > 0).sum(axis=2)
                out_deg = degree[self.gap_index[i]].sum(axis=1)
                transitions += int(out_deg[live].sum())
        return states, actions, transitions


def _stack_rows(reset_masks, initial):
    """Per layer but the last, the states whose rows its gap stacks hold:
    the initial state in the anchor layer, and the non-reset states in
    every later one.  The rows no solve reads are never stored."""
    return (
        np.array([initial]),
        *(np.flatnonzero(~reset) for reset in reset_masks[1:-1]),
    )


def abstract(ctmc, omega, psi, eps=DEFAULT_TRANSIENT_TOL, cache=None):
    """Build the interval MDP for evidence omega under partition psi.

    The model depends only on the partition and the bound cache, which
    it calls once with the distinct gaps and the stored rows of every
    layer, so the missing kernels and spreads of the whole model are
    computed in one transient_matrix and one reach_matrix call.  A
    refined partition's intervals nest inside the coarser ones because
    the gap bounds are monotone; they are not clipped to them.  A psi
    that does not tile omega's windows raises SemanticError, and a cache
    built for another chain or tolerance raises ValueError.
    """
    omega.bind_check(ctmc.alphabet)
    psi.check_covers(omega)
    if cache is None:
        cache = TransientBoundCache(ctmc, eps)
    elif cache.ctmc is not ctmc or cache.eps != eps:
        raise ValueError("the bound cache serves another chain or tolerance")
    layers = (np.zeros((1, 2)), *psi.cells)
    reset_masks = ctmc.reset_masks(omega.formulas)
    rows = _stack_rows(reset_masks, ctmc.initial)

    # Per layer, the distinct gaps between its cells and the next
    # layer's, and each cell pair's gap number.
    uniqs, gap_index = [], []
    for i in range(len(layers) - 1):
        (lo, hi), (lo2, hi2) = layers[i].T, layers[i + 1].T
        # gaps[j, j2] = (cell2.lo - cell.hi, cell2.hi - cell.lo).
        gaps = np.stack(
            (lo2[None, :] - hi[:, None], hi2[None, :] - lo[:, None]), axis=-1
        )
        # Viewed as complex numbers g_min + i g_max, the pairs sort and
        # compare exactly and lexicographically, much faster than axis=0.
        uniq, inverse = np.unique(
            gaps.view(np.complex128).reshape(-1), return_inverse=True
        )
        index = inverse.reshape(len(lo), len(lo2))
        index.setflags(write=False)
        uniqs.append(uniq.view(float).reshape(-1, 2))
        gap_index.append(index)
    # One cache call for the whole model.
    stacks = cache.bound_matrices(uniqs, rows)
    for i, ((L, U), index) in enumerate(zip(stacks, gap_index)):
        _check_feasible(L, U, index, rows[i], i)
    gap_lower, gap_upper = zip(*stacks)

    return IntervalMdp(
        layers=layers,
        gap_lower=gap_lower,
        gap_upper=gap_upper,
        gap_index=tuple(gap_index),
        reset_masks=reset_masks,
        initial=ctmc.initial,
        n_states=ctmc.n_states,
    )


def _check_feasible(L, U, index, rows, layer):
    """Every stored row must admit a distribution inside its intervals.

    L and U are a layer's gap stacks, rows their states and index its
    gap numbers; a gap's infeasible row is named by the first cell pair
    that admits the gap.
    """
    excess = np.maximum(L.sum(axis=2) - 1.0, 1.0 - U.sum(axis=2))
    if np.any(excess > _NOISE):
        g, r = np.unravel_index(np.argmax(excess), excess.shape)
        j, j2 = np.argwhere(index == g)[0]
        raise AbstractionError(
            f"infeasible interval row at layer {layer}, cell {j}, "
            f"action {j2}, state {rows[r]}"
        )


def reachable_step(imdp, i, reach, choice=None):
    """Reachable states of layer i + 1 given those of layer i.

    reach is layer i's (n_cells, n_states) mask and choice its scheduler
    choices (every action is explored when None).  Each followed row is
    a stored row of a gap stack of U, those of the reached states in
    imdp.rows[i]; their supports are gathered grouped by next cell and
    or-reduced per group.
    """
    U, index, rows = imdp.gap_upper[i], imdp.gap_index[i], imdp.rows[i]
    n, r = imdp.n_states, len(rows)
    nc, nc2 = index.shape
    live = reach[:, rows]
    if choice is None:
        follow = np.broadcast_to(live, (nc2, nc, r))
    else:
        follow = (choice[:, rows] == np.arange(nc2)[:, None, None]) & live
    # follow[j2, j, k]: row k of gap index[j, j2] leads into next cell j2.
    row_ids = index.T[:, :, None] * r + np.arange(r)
    support = (U > 0).reshape(-1, n)[row_ids[follow]]
    counts = follow.sum(axis=(1, 2))
    flow = np.zeros((nc2, n), dtype=bool)
    some = counts > 0
    if some.any():
        starts = np.cumsum(counts)[some] - counts[some]
        flow[some] = np.logical_or.reduceat(support, starts, axis=0)
    return flow


def reachable_states(imdp, scheduler=None):
    """Per-layer masks of abstract states forward-reachable from the start.

    With a scheduler, only chosen actions are followed; otherwise every
    action is explored.  Reset states redirect to the initial abstract
    state, which is reachable by definition, so one forward pass of
    reachable_step suffices.
    """
    reach = [np.zeros((1, imdp.n_states), dtype=bool)]
    reach[0][0, imdp.initial] = True
    for i in range(imdp.n_layers - 1):
        choice = None if scheduler is None else scheduler.choices[i]
        reach.append(reachable_step(imdp, i, reach[i], choice))
    return tuple(reach)


def restrict_reachable(imdp):
    """Per-layer masks of the abstract states that pruning keeps.

    These are the states reachable under some scheduler.  The model is
    not copied: sizes() counts the masked states.
    """
    return reachable_states(imdp)
