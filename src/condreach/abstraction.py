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
layer in one batched call per model.  Each layer keeps its gap stacks
and np.unique's inverse as an (n_cells, n_next_cells) gap index;
nothing is scattered to the pairs.  A layer's stacks hold only the rows
of the states the model defines there (IntervalMdp.rows): the initial
state in the anchor layer, the non-reset states after it.

A model's build does only work no earlier model did.  The cache, one
per chain and transient tolerance, keeps the gap's two parts across
layers and iterations, kernels by its minimum and reach matrices by its
spread, each in one stack of one buffer whose rows a dict maps the keys
to (_KeyedStack), and it keeps the last model's gap stacks per layer: a
refined model assembles only the gaps it adds and gathers the rest.
When the evidence's window endpoints are short binary fractions, every
gap lies on an exact binary grid, and a new kernel is one product of two
stored ones (marched_kernels) rather than a polynomial of its own.

A gap's full lower and upper rows are never stored.  The cache builds
them a chunk of gaps at a time and keeps only what is read (GapStacks):
the greedy's lower bounds and room U - L on the solver's columns, the
row's slack and feasibility excess, and the support U > 0 over all
states.  The solver's columns are the next layer's non-reset states,
then one reset-sink column (IntervalMdp.columns) when two or more of
them reset: every reset successor carries the reset value, and a
greedy pours the same mass into a run of equal-valued successors
whether they are one column or many, so the sink's bounds are the sums
of theirs.  On tandem1 a step into the last layer keeps 15 columns of
120.

Each partition is abstracted on its own.  Refinement still nests: a
child cell pair admits a sub-gap of its parent pair's gap, and the
bounds are monotone in the gap.  The chance to visit s' inside a smaller
window can only fall, and the chance to stay in s' over it can only
rise, so every child interval lies inside its parent's.  The tests check
this; nothing clips to it.

Reachability advances one layer per step (reachable_step): the stored
supports of the followed rows are gathered, grouped by next cell, and
or-reduced per group.  A forward pass is one step per layer, and
consistency repair takes the same steps as it fixes each layer's
choices.  Pruning is such a pass over every action: restrict_reachable
returns its masks, and the model is never copied.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ctmc import (
    DEFAULT_TRANSIENT_TOL,
    MARCH_BITS,
    binary_parent,
    invariance_vector,
    reach_matrix,
    set_bits,
    transient_matrix,
)

# Floating-point slack for lower > upper inversions on near-point cells.
_NOISE = 1e-9
# Floats per chunk of gaps (512 KB): it bounds the full bound rows that
# assembly holds until it reduces them, and the copies of reach matrices
# the stacked products gather, and a small chain's gaps all fit in one
# chunk, so one call.  On tandem1 a chunk holds 5 gaps of 104 rows.
_CHUNK = 2**16


class AbstractionError(ArithmeticError):
    """Raised when computed interval bounds are numerically infeasible."""


def _chunks(m, size):
    """Slices that cut m gaps of size floats each into _CHUNK-float
    chunks, at least one gap per chunk."""
    step = max(1, _CHUNK // max(size, 1))
    return [slice(at, at + step) for at in range(0, m, step)]


class _KeyedStack:
    """A stack of arrays of one shape, keyed by a float, filled on demand.

    index maps each stored key to its row of one buffer.  get(keys,
    compute) gives the keys not stored yet the next rows of the buffer,
    and one call compute(sorted new keys, out) writes their values into
    out, a view of those rows; compute may read stored rows through
    index.  A buffer that fills is replaced by one of twice the size, so
    a stored value is copied O(1) times on average.  get hands out
    buffer rows, not copies: callers gather what they read.  The stack
    keeps no compute function, so it refers to nothing that refers back
    to it.
    """

    def __init__(self, shape):
        self.index = {}
        self.buffer = np.empty((0, *shape))

    def get(self, queries, compute=None):
        """The buffer row of every query's value, in query order.

        Keys not stored yet are computed by one call compute(keys, out);
        without compute, every key must be stored.  The rows index
        self.buffer until the next get that computes.
        """
        queries, index = np.ravel(queries).tolist(), self.index
        new = sorted({t for t in queries if t not in index})
        if new:
            if compute is None:
                raise KeyError(f"not stored: {new}")
            start, end = len(index), len(index) + len(new)
            if end > len(self.buffer):
                grown = np.empty((max(end, 2 * start),
                                  *self.buffer.shape[1:]))
                grown[:start] = self.buffer[:start]
                self.buffer = grown
            compute(np.array(new), self.buffer[start:end])
            index.update(zip(new, range(start, end)))
        return np.array([index[t] for t in queries], dtype=np.intp)


def marched_kernels(times, memo, root):
    """Rows of memo holding the transient kernels of times, marched.

    memo is a _KeyedStack of kernels, and root(times) gives the stacked
    kernels of sorted times as polynomials (transient_matrix).  A time
    with a binary parent (ctmc.binary_parent) gets K(t - h) @ K(h), and
    every other time is a root.  The kernels the times are marched from
    are found first, down to stored ones, and are computed in one call
    of memo: the roots in one call of root, then the products by rising
    set bits, each written in place from two factors with fewer.  A
    kernel is so the product of its roots' polynomials, one per set bit,
    taken from its top bit down, and its bits are a function of t alone
    when memo holds only kernels of this rule.  Each product rounds as an
    n-term sum of nonnegative terms, so the error stays relative.
    """
    split = {}
    todo = np.ravel(times).tolist()
    while todo:
        t = todo.pop()
        if t not in split and t not in memo.index:
            split[t] = binary_parent(t)
            todo.extend(split[t] or ())

    def compute(new, out):
        keys = new.tolist()
        at = dict(zip(keys, range(len(keys))))
        roots = [i for i, t in enumerate(keys) if split[t] is None]
        if roots:
            out[roots] = root(new[roots])
        for t in sorted((t for t in keys if split[t]), key=set_bits):
            a, b = (out[at[f]] if f in at else memo.buffer[memo.index[f]]
                    for f in split[t])
            np.matmul(a, b, out=out[at[t]])

    memo.get(list(split), compute)
    return memo.get(times)


class TransientBoundCache:
    """Transparent cache of the parts of interval bounds per gap, for one
    chain at one transient tolerance; abstract takes its tolerance from
    the cache and refuses a cache of another chain.

    The bounds of a gap [g_min, g_max] are built from the transient
    kernel K(g_min) and the reach matrix R of the spread g_max - g_min:
    upper is K @ R, and lower is K scaled column-wise by the spread's
    invariance vector, an elementwise exp taken per call.  Kernels are
    kept by gap minimum and reach matrices by spread, each in a
    _KeyedStack, one buffer whose rows a dict finds by key, so gaps that
    share a minimum or a spread share that part, and a call computes its missing spreads in one reach_matrix
    call and its missing kernels in one transient_matrix call.  On a grid
    of short binary fractions (bound_matrices' march, which abstract
    sets) a kernel is instead one product of two stored kernels where it
    can be (marched_kernels), and only the roots of those products are
    transient_matrix's.  A kernel is computed by the rule of the first
    call that asks for it, so a cache serves the grid of one evidence,
    as analyze's does; its kernels are then functions of the time alone,
    and a warm cache gives a cold one's bits.  Cell endpoint arithmetic
    is exact on representable binary fractions, so evidences with
    uniform window spacing hit the cache across layers.

    Full bounds are never formed whole: a chunk of gaps at a time,
    assembly takes the kernels' requested rows, gathered straight from
    the buffer, times the buffered reach matrices, and reduces these full
    rows to the GapStacks the solver reads.  The cache keeps the last
    call's GapStacks per part, with their gaps, rows and sink, and a
    later call on the same rows and sink assembles only the gaps that
    part did not have and gathers the rest: refinement keeps most of a
    model's gaps.  A gap's stacks are a function of its kernel, spread,
    rows and sink alone, whatever chunk it is assembled in, so carried
    and fresh stacks are bit-identical.
    """

    def __init__(self, ctmc, eps=DEFAULT_TRANSIENT_TOL):
        self.ctmc = ctmc
        self._eps = float(eps)
        n = ctmc.n_states
        self._kernels = _KeyedStack((n, n))
        self._spreads = _KeyedStack((n, n))
        # Per part of the last call: its gaps as complex keys, rows, sink
        # and GapStacks.
        self._carried = []

    @property
    def entries(self):
        """Keys of every stored kernel and spread.

        Its length grows exactly when a call computes a new part;
        bench/run.py reads it to count misses.
        """
        return np.array([*self._kernels.index, *self._spreads.index])

    def _parts(self, g_min, spread, march):
        """Buffer rows of the kernels of g_min and of the reach matrices
        of spread, computing the missing ones; the kernels are marched
        (marched_kernels) when march is set."""
        ctmc, eps = self.ctmc, self._eps

        def root(t):
            return transient_matrix(ctmc, t, eps)

        if march:
            kernels = marched_kernels(g_min, self._kernels, root)
        else:
            kernels = self._kernels.get(
                g_min, lambda t, out: np.copyto(out, root(t))
            )
        spreads = self._spreads.get(
            spread, lambda h, out: np.copyto(out, reach_matrix(ctmc, h, eps))
        )
        return kernels, spreads

    def bound_matrices(self, gaps, rows, sinks, march=False):
        """Sound interval bounds over elapsed-time gaps, kept as read.

        gaps holds parts, each an (m, 2) array of (g_min, g_max) pairs,
        rows as many int arrays of r state ids, and sinks as many masks of
        the successors lumped into one last column, or None to keep all
        n.  For elapsed time tau in [g_min, g_max], the bounds
          upper[s, s'] = P(visit s' at some point in [g_min, g_max] from s),
          lower[s, s'] = P(in s' at g_min, no jump until g_max from s)
        bracket the transient probability at every tau.  The result holds
        per part a GapStacks of the m gaps, whose row k is state rows[k]'s
        and whose k columns are the kept successors, in order, then the
        sink.  A part on the rows and sink of the same part of the last
        call gathers the gaps that part had from its stacks, and lets the
        last call's stacks go before any new rows are built; the missing
        kernels and spreads of the other gaps are computed together,
        marched with march.
        """
        gaps = [np.asarray(g, dtype=float) for g in gaps]
        for g in gaps:
            if g.shape[1:] != (2,) or not np.all(
                (0 <= g[:, 0]) & (g[:, 0] <= g[:, 1])
            ):
                raise ValueError(
                    "gaps must be (min, max) rows, 0 <= min <= max"
                )
        if not len(rows) == len(sinks) == len(gaps):
            raise ValueError(
                "rows and sinks must hold one entry per gap part"
            )
        rows = [np.asarray(r, dtype=np.intp) for r in rows]
        keys = [np.ascontiguousarray(g).view(np.complex128).reshape(-1)
                for g in gaps]
        parts = [self._gather(i, *part)
                 for i, part in enumerate(zip(keys, rows, sinks))]
        # The last call's stacks go before any new full rows are built.
        self._carried = []
        every = np.concatenate([g[new] for g, (_, new) in zip(gaps, parts)])
        g_min, spread = every[:, 0], every[:, 1] - every[:, 0]
        kernels, spreads = self._parts(g_min, spread, march)
        inv = invariance_vector(self.ctmc, spread)
        ends = np.cumsum([0, *(len(new) for _, new in parts)])
        for a, b, r, sink, (stacks, new) in zip(ends, ends[1:], rows, sinks,
                                                parts):
            self._assemble(stacks, new, kernels[a:b], spreads[a:b],
                           inv[a:b], r, sink)
        stacks = [st for st, _ in parts]
        for st in stacks:
            for f in dataclasses.fields(st):
                getattr(st, f.name).setflags(write=False)
        self._carried = list(zip(keys, rows, sinks, stacks))
        return stacks

    def _gather(self, i, keys, rows, sink):
        """(stacks, new) for part i of a call, of gaps keys on rows with
        the successors in sink lumped: writable GapStacks that hold the
        gaps part i of the last call had on the same rows and sink,
        gathered from its stacks, and the positions of the other gaps,
        which new names and which are left to fill."""
        m = len(keys)
        if i < len(self._carried):
            last, last_rows, last_sink, carried = self._carried[i]
            # np.array_equal holds for two None sinks, not for one.
            if (len(last) and np.array_equal(rows, last_rows)
                    and np.array_equal(sink, last_sink)):
                order = np.argsort(last)
                pos = np.searchsorted(last, keys, sorter=order)
                at = order[np.minimum(pos, len(last) - 1)]
                # Every gap takes an old gap's rows, and the new ones are
                # filled over them.
                return GapStacks(
                    *(np.take(getattr(carried, f.name), at,
                              axis=int(f.name in ("lower", "room")))
                      for f in dataclasses.fields(GapStacks))
                ), np.flatnonzero(last[at] != keys)
        n, r = self.ctmc.n_states, len(rows)
        k = n if sink is None else n - np.count_nonzero(sink) + 1
        lower, room = np.empty((2, k, m, r))
        slack, excess = np.empty((2, m, r))
        return GapStacks(lower, room, slack, excess,
                         np.empty((m, r, n), dtype=bool)), np.arange(m)

    def _assemble(self, stacks, new, kernels, spreads, inv, rows, sink):
        """Fill the gaps at positions new of a part's writable GapStacks on
        rows, with the successors in sink lumped, from the kernels and
        spreads at buffer rows kernels and spreads, with invariance
        vectors inv.

        Each chunk of gaps gets its full (lower, upper) rows from
        _full_rows and is reduced to what is read before the next chunk
        is built, so no whole (gaps, r, n) float stack is ever formed.
        Every reduction of a gap's rows is a function of those rows alone,
        a pairwise sum of one contiguous row: the sums over full rows, and
        the sink's columns, which are taken into contiguous rows first
        (np.take), since numpy sums columns gathered by a mask pairwise or
        in order by the chunk's shape.
        """
        n, r = self.ctmc.n_states, len(rows)
        lumps = None if sink is None else np.flatnonzero(sink)
        for part in _chunks(len(new), r * n):
            to = new[part]
            lo, up = self._full_rows(kernels[part], spreads[part], inv[part],
                                     rows)
            stacks.support[to] = up > 0
            mass = lo.sum(axis=-1)
            stacks.slack[to] = 1.0 - mass
            stacks.excess[to] = np.maximum(mass - 1.0,
                                           1.0 - up.sum(axis=-1))
            for a, out in ((lo, stacks.lower),
                           (np.subtract(up, lo, out=up), stacks.room)):
                if sink is not None:
                    a = np.concatenate(
                        (a[..., ~sink], np.take(a, lumps, axis=-1).sum(
                            axis=-1, keepdims=True)),
                        axis=-1,
                    )
                out[:, to] = a.transpose(2, 0, 1)
            # This chunk's rows go before the next chunk's are built.
            del lo, up, a

    def _full_rows(self, kernels, spreads, inv, rows):
        """The full (lower, upper) rows, (m, r, n) each, of the gaps whose
        parts sit at buffer rows kernels and spreads, on rows."""
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
        return lower, upper


@dataclass(frozen=True)
class GapStacks:
    """What the solver and reachability read of one layer's gap bounds.

    For the layer's g distinct gaps, its r stored rows (IntervalMdp.rows)
    and the k successor columns its solves read (IntervalMdp.columns):

    lower, room : ndarray
        (k, g, r) floats, successor-major: [t, p, s] is column t of row s
        of gap p, its lower bound and its room U - L.  A lumped reset-sink
        column holds the sums of the successors it lumps.
    slack, excess : ndarray
        (g, r) floats over the full row of n successors: the slack
        1 - sum L, and the feasibility excess max(sum L - 1, 1 - sum U).
    support : ndarray
        (g, r, n) bools, U > 0: the successors a row can reach.
    """

    lower: np.ndarray
    room: np.ndarray
    slack: np.ndarray
    excess: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class IntervalMdp:
    """Layered interval MDP, stored by distinct gap as its solves read it.

    Attributes
    ----------
    layers : tuple of ndarray
        Per layer, the (n_cells, 2) array of [lo, hi] cell endpoints: the
        anchor [0, 0], then each observation window's partition cells.
    stacks : tuple of GapStacks
        Per layer i < last, the bounds of the distinct gaps between layer
        i's cells and layer i + 1's: on the rows of the states in rows[i],
        greedy columns over columns[i] and supports over all states.
    gap_index : tuple of ndarray
        Per layer i < last, an int array (n_cells_i, n_cells_{i+1}) of
        gap numbers.  With g = gap_index[i][j, j2] and s = rows[i][k],
        gap g's row k in stacks[i] bounds the transition probabilities of
        abstract state (i, j, s) under action j2 into layer i + 1's cell
        j2.
    reset_masks : tuple of ndarray
        Per layer, the states violating that layer's observation; such
        abstract states carry a single probability-1 redirect to the
        initial abstract state instead of rows or weights, so the gap
        stacks hold no row of theirs.  A step into two or more of them
        lumps their columns into one reset-sink column (columns), since
        they all carry the reset value.
    initial : int
        CTMC initial state; the initial abstract state is (0, 0, initial).
        It is the anchor layer's one state of the model, and the anchor's
        gap stacks hold its row alone.
    """

    layers: tuple
    stacks: tuple
    gap_index: tuple
    reset_masks: tuple
    initial: int
    n_states: int

    def __post_init__(self):
        n = self.n_states
        for i, (st, cols) in enumerate(zip(self.stacks, self.columns)):
            g, r = len(st.slack), len(self.rows[i])
            k = n if cols is None else len(cols)
            if not (st.lower.shape == st.room.shape == (k, g, r)
                    and st.slack.shape == st.excess.shape == (g, r)
                    and st.support.shape == (g, r, n)
                    and st.support.dtype == bool):
                raise ValueError(
                    f"layer {i}'s stacks do not hold its rows and columns"
                )

    @cached_property
    def rows(self):
        """Per layer i < last, the states whose rows its gap stacks hold."""
        return _stack_rows(self.reset_masks, self.initial)

    @cached_property
    def columns(self):
        """Per layer i < last, the next-layer states its greedy columns
        stand for: None for all n in order, or the kept states, then the
        first of the reset states lumped into the last column."""
        return tuple(
            None if sink is None
            else np.append(np.flatnonzero(~sink), np.flatnonzero(sink)[0])
            for sink in _sinks(self.reset_masks)
        )

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
                degree = self.stacks[i].support.sum(axis=2)
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


def _sinks(reset_masks):
    """Per layer but the last, the mask of the next layer's reset states
    where two or more reset, whose columns its stacks lump into one;
    None where the stacks keep all n columns."""
    return tuple(
        reset if np.count_nonzero(reset) >= 2 else None
        for reset in reset_masks[1:]
    )


def abstract(ctmc, omega, psi, cache=None):
    """Build the interval MDP for evidence omega under partition psi.

    The model depends only on the partition and the bound cache, which
    it calls once with the distinct gaps and the stored rows of every
    layer: the cache assembles only the gaps the last model lacked, and
    computes their missing kernels and spreads in one transient_matrix
    and one reach_matrix call.  When every window endpoint of omega is a
    short binary fraction (MARCH_BITS set bits at most), every cell
    endpoint and gap lies on an exact binary grid, and the cache marches
    kernels there (marched_kernels).  Elsewhere it does not: a gap of
    other endpoints can still be a short binary fraction by accident,
    and its kernel stays a polynomial like its neighbours'.  A refined
    partition's intervals nest inside the coarser ones because the gap
    bounds are monotone; they are not clipped to them.  A psi that does
    not tile omega's windows raises SemanticError, and a cache built for
    another chain raises ValueError.  The transient tolerance is the
    cache's; without a cache, a fresh one at the default.
    """
    omega.bind_check(ctmc.alphabet)
    psi.check_covers(omega)
    if cache is None:
        cache = TransientBoundCache(ctmc)
    elif cache.ctmc is not ctmc:
        raise ValueError("the bound cache serves another chain")
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
    march = all(set_bits(t) <= MARCH_BITS
                for ts in omega.time_sets for t in np.ravel(ts.intervals))
    # One cache call for the whole model.
    stacks = cache.bound_matrices(uniqs, rows, _sinks(reset_masks), march)
    for i, (st, index) in enumerate(zip(stacks, gap_index)):
        _check_feasible(st.excess, index, rows[i], i)

    return IntervalMdp(
        layers=layers,
        stacks=tuple(stacks),
        gap_index=tuple(gap_index),
        reset_masks=reset_masks,
        initial=ctmc.initial,
        n_states=ctmc.n_states,
    )


def _check_feasible(excess, index, rows, layer):
    """Every stored row must admit a distribution inside its intervals.

    excess is a layer's (gaps, rows) feasibility excess (GapStacks),
    rows their states and index its gap numbers; a gap's infeasible row
    is named by the first cell pair that admits the gap.
    """
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
    choices on imdp.rows[i] (every action is explored when None).  Each
    followed row is a stored row of the layer's gap stacks, one of a
    reached state; their stored supports are gathered grouped by next
    cell and or-reduced per group.
    """
    index, rows = imdp.gap_index[i], imdp.rows[i]
    n, r = imdp.n_states, len(rows)
    nc, nc2 = index.shape
    live = reach[:, rows]
    if choice is None:
        follow = np.broadcast_to(live, (nc2, nc, r))
    else:
        follow = (choice == np.arange(nc2)[:, None, None]) & live
    # follow[j2, j, k]: row k of gap index[j, j2] leads into next cell j2.
    row_ids = index.T[:, :, None] * r + np.arange(r)
    support = imdp.stacks[i].support.reshape(-1, n)[row_ids[follow]]
    counts = follow.sum(axis=(1, 2))
    flow = np.zeros((nc2, n), dtype=bool)
    some = counts > 0
    if some.any():
        starts = np.cumsum(counts)[some] - counts[some]
        flow[some] = np.logical_or.reduceat(support, starts, axis=0)
    return flow


def reachable_states(imdp, scheduler=None):
    """Per-layer masks of abstract states forward-reachable from the start.

    With a scheduler (solver.BoundsReport), only chosen actions are
    followed; otherwise every action is explored.  Reset states redirect
    to the initial abstract state, which is reachable by definition, so
    one forward pass of reachable_step suffices.
    """
    reach = [np.zeros((1, imdp.n_states), dtype=bool)]
    reach[0][0, imdp.initial] = True
    for i in range(imdp.n_layers - 1):
        choice = None if scheduler is None else scheduler[i]
        reach.append(reachable_step(imdp, i, reach[i], choice))
    return tuple(reach)


def restrict_reachable(imdp):
    """Per-layer masks of the abstract states that pruning keeps.

    These are the states reachable under some scheduler.  The model is
    not copied: sizes() counts the masked states.
    """
    return reachable_states(imdp)
