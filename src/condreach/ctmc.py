"""Labeled continuous-time Markov chains and transient analysis.

A chain is stored as a jump distribution plus per-state exit rates; the
rate matrix R(s, s') = jump_probs[s, s'] * exit_rates[s] is derived on
demand.  Transient distributions are computed by uniformization with
Poisson truncation, which keeps every intermediate vector a proper
distribution (no negative entries).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TRANSIENT_TOL = 1e-10

# Uniformization rate is inflated slightly above the maximal exit rate so
# the uniformized jump matrix keeps a strictly positive diagonal.
_RATE_INFLATION = 1.0 + 1e-6

# Largest Poisson mean lam * t that uniformization accepts.  Its cost is
# about lam * t matrix products, so a larger mean means a chain too stiff
# for the time asked; the bundled models stay below about 250.
MAX_POISSON_MEAN = 1e5


class ModelError(ValueError):
    """Raised for malformed or inconsistent chain definitions."""


class UniformizationError(ArithmeticError):
    """The Poisson mean of a uniformization exceeds MAX_POISSON_MEAN."""


@dataclass(frozen=True)
class Ctmc:
    """Finite labeled CTMC.

    Attributes
    ----------
    state_names : tuple of str
        State identifiers, index position is the state id used everywhere.
    initial : int
        Index of the initial state.
    jump_probs : (n, n) ndarray
        Row-stochastic jump distribution; rows of absorbing states are a
        Dirac self-loop by convention.
    exit_rates : (n,) ndarray
        Nonnegative exit rates; rate 0 marks an absorbing state.
    labels : tuple of frozenset of str
        Atomic propositions per state.
    """

    state_names: tuple
    initial: int
    jump_probs: np.ndarray
    exit_rates: np.ndarray
    labels: tuple
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    # Per atomic proposition, the read-only boolean column of the states
    # that carry it.
    _columns: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.state_names)
        if self.jump_probs.shape != (n, n):
            raise ModelError("jump_probs shape does not match state count")
        if self.exit_rates.shape != (n,):
            raise ModelError("exit_rates shape does not match state count")
        if not np.all(np.isfinite(self.exit_rates)):
            raise ModelError("exit rates must be finite")
        if np.any(self.exit_rates < 0):
            raise ModelError("negative exit rate")
        if np.any(self.jump_probs < 0) or np.any(self.jump_probs > 1):
            raise ModelError("jump probability outside [0, 1]")
        if not np.allclose(self.jump_probs.sum(axis=1), 1.0, atol=1e-12):
            raise ModelError("jump distribution rows must sum to 1")
        if not 0 <= self.initial < n:
            raise ModelError("initial state out of range")
        self._index.update({name: i for i, name in enumerate(self.state_names)})
        for s, lab in enumerate(self.labels):
            for ap in lab:
                self._columns.setdefault(ap, np.zeros(n, dtype=bool))[s] = True
        for column in self._columns.values():
            column.setflags(write=False)
        self.jump_probs.setflags(write=False)
        self.exit_rates.setflags(write=False)

    @property
    def n_states(self):
        return len(self.state_names)

    @property
    def alphabet(self):
        """All atomic propositions appearing on any state."""
        return frozenset(self._columns)

    def state_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown state {name!r}") from None

    def rate_matrix(self):
        """Dense transition rate matrix R(s, s') = jump(s, s') * exit(s)."""
        R = self.jump_probs * self.exit_rates[:, None]
        # The Dirac self-loop convention for absorbing states carries rate 0
        # automatically, but zero it explicitly for clarity.
        R[self.exit_rates == 0.0] = 0.0
        return R

    def generator(self):
        """Infinitesimal generator R - diag(E)."""
        Q = self.rate_matrix()
        np.fill_diagonal(Q, np.diag(Q) - self.exit_rates)
        return Q

    def effective_exit_rates(self):
        """Exit rates discounting self-loops: E(s) * (1 - jump(s, s))."""
        return self.exit_rates * (1.0 - np.diag(self.jump_probs))

    def satisfying(self, formula):
        """Boolean vector of states satisfying an observation formula: the
        AND of one column per literal, all True for `true`."""
        mask = np.ones(self.n_states, dtype=bool)
        absent = np.zeros(self.n_states, dtype=bool)
        for ap, positive in formula.literals:
            mask &= self._columns.get(ap, absent) == positive
        return mask

    def reset_masks(self, formulas):
        """Per-layer masks of the states violating each observation.

        The observation layers follow the anchor layer at time 0, whose
        mask is all False.
        """
        violating = (~self.satisfying(obs) for obs in formulas)
        return (np.zeros(self.n_states, dtype=bool), *violating)

    def absorbing_variant(self, absorb_mask):
        """Copy of the chain with the masked states made absorbing."""
        jp = self.jump_probs.copy()
        er = self.exit_rates.copy()
        jp[absorb_mask] = 0.0
        jp[absorb_mask, absorb_mask] = 1.0
        er[absorb_mask] = 0.0
        return Ctmc(self.state_names, self.initial, jp, er, self.labels)


def from_rates(names, initial, rates, labels):
    """Build a chain from named rate entries.

    Parameters
    ----------
    names : sequence of str
    initial : str
    rates : dict mapping (src, dst) names to positive rates
    labels : dict mapping state name to iterable of APs
    """
    idx = {name: i for i, name in enumerate(names)}
    n = len(names)
    R = np.zeros((n, n))
    for (src, dst), rate in rates.items():
        if rate < 0:
            raise ModelError(f"negative rate for {src} -> {dst}")
        R[idx[src], idx[dst]] = rate
    exit_rates = R.sum(axis=1)
    jump = np.zeros((n, n))
    for s in range(n):
        if exit_rates[s] > 0:
            jump[s] = R[s] / exit_rates[s]
        else:
            jump[s, s] = 1.0
    lab = tuple(frozenset(labels.get(name, ())) for name in names)
    return Ctmc(tuple(names), idx[initial], jump, exit_rates, lab)


def parse_ctmc(text):
    """Parse the line-oriented explicit CTMC format.

    Format::

        ctmc
        state <id> [label ...]
        init <id>
        rate <src> <dst> <positive decimal>
    """
    names, labels, rates = [], {}, {}
    initial = None
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_header:
            if line != "ctmc":
                raise ModelError(f"line {lineno}: expected 'ctmc' header")
            seen_header = True
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "state":
            if len(parts) < 2:
                raise ModelError(f"line {lineno}: state needs an id")
            name = parts[1]
            if name in labels:
                raise ModelError(f"line {lineno}: duplicate state {name!r}")
            names.append(name)
            labels[name] = parts[2:]
        elif kind == "init":
            if len(parts) != 2:
                raise ModelError(f"line {lineno}: init needs one id")
            initial = parts[1]
        elif kind == "rate":
            if len(parts) != 4:
                raise ModelError(f"line {lineno}: rate needs src dst value")
            src, dst = parts[1], parts[2]
            for name in (src, dst):
                if name not in labels:
                    raise ModelError(f"line {lineno}: unknown state {name!r}")
            try:
                value = float(parts[3])
            except ValueError:
                raise ModelError(f"line {lineno}: bad rate {parts[3]!r}") from None
            if not 0 < value < math.inf:
                raise ModelError(f"line {lineno}: rate must be positive and finite")
            if (src, dst) in rates:
                raise ModelError(f"line {lineno}: duplicate rate {src} -> {dst}")
            rates[(src, dst)] = value
        else:
            raise ModelError(f"line {lineno}: unknown directive {kind!r}")
    if not seen_header:
        raise ModelError("empty document")
    if initial is None:
        raise ModelError("missing init line")
    if initial not in labels:
        raise ModelError(f"unknown initial state {initial!r}")
    return from_rates(names, initial, rates, labels)


def serialize_ctmc(ctmc):
    """Inverse of :func:`parse_ctmc` (up to float formatting)."""
    lines = ["ctmc"]
    for name, labs in zip(ctmc.state_names, ctmc.labels):
        lines.append(" ".join(["state", name, *sorted(labs)]))
    lines.append(f"init {ctmc.state_names[ctmc.initial]}")
    R = ctmc.rate_matrix()
    for s in range(ctmc.n_states):
        for s2 in range(ctmc.n_states):
            if R[s, s2] > 0 and not (s == s2 and ctmc.exit_rates[s] == 0):
                lines.append(
                    f"rate {ctmc.state_names[s]} {ctmc.state_names[s2]} "
                    f"{float(R[s, s2]):.17g}"
                )
    return "\n".join(lines) + "\n"


def _poisson_table(means, eps):
    """Truncated Poisson pmfs of an array of means, one row per mean.

    Returns (W, cuts): W[i, :cuts[i]] are the pmf values at 0..cuts[i] - 1
    of means[i], whose dropped tail mass is at most 0.1 * eps; entries
    after them are padding.  Each pmf is evaluated at its mode through
    lgamma, extended outward by the ratio p(k + 1) / p(k) = mean / (k + 1)
    and normalized (Fox & Glynn, CACM 1988).  The cut is one past the
    smallest k whose tail mass beyond k is at most 0.1 * eps; the tail is
    summed from the right, so it keeps its relative accuracy.  Every row
    is bit-identical to the same steps run on its mean alone: the ratio
    products are row-wise cumprods padded with 1, the mode terms come from
    math.exp and math.lgamma, and each row's sum runs over exactly its own
    terms (_row_sums).
    """
    if not 0 < eps < math.inf:
        raise ValueError("truncation tolerance must be positive and finite")
    means = np.asarray(means, dtype=float).reshape(-1)
    listed = means.tolist()
    if not all(0 <= x < math.inf for x in listed):
        raise ValueError("Poisson mean must be finite and nonnegative")
    modes = means.astype(np.int64)
    p_mode = np.array([
        math.exp(int(x) * math.log(x) - x - math.lgamma(int(x) + 1)) if x else 1.0
        for x in listed
    ])
    col_means = means[:, None]
    # Extend each right side until the mass beyond its last term, bounded
    # by a geometric series of ratio r = mean / (k + 1), is far below
    # 0.1 * eps; a row that falls short doubles its span.
    span = 16 + (10.0 * np.sqrt(means)).astype(np.int64)
    while True:
        ends = modes + span
        # One column past the longest row, so every row ends in a zero.
        k = np.arange(float(ends.max() + 1))
        # Left of the mode the products run from the mode down, right of
        # it from the mode up.  The ratios (k + 1) / mean and mean / k are
        # at most 1 exactly on their own side, so clipping at 1 pads the
        # other side with exact 1s; a 0 ratio zeroes a row past its end.
        # A mean below 1 has no left side, so dividing it by max(mean, 1)
        # changes nothing but keeps a zero mean finite.
        left = np.minimum((k + 1) / np.maximum(col_means, 1.0), 1.0)
        right = np.ones(left.shape)
        np.minimum(col_means / k[1:], 1.0, out=right[:, 1:])
        right[k >= ends[:, None]] = 0.0
        pmf = (p_mode[:, None] * left[:, ::-1].cumprod(axis=1)[:, ::-1]
               * right.cumprod(axis=1))
        last = pmf[np.arange(len(means)), ends - 1]
        r = means / ends
        rest = last * r / (1.0 - r)
        short = last + rest > 1e-6 * eps
        if not short.any():
            break
        span[short] *= 2
    # The terms cover all but `rest` of the mass; normalizing removes the
    # rounding of p_mode, which every term of a row shares.
    pmf /= (_row_sums(pmf, ends) + rest)[:, None]
    # beyond[i, k]: the mass of row i beyond term k, summed from the
    # right; the zeros past each row's end add exactly nothing.
    beyond = pmf[:, :0:-1].cumsum(axis=1)[:, ::-1] + rest[:, None]
    cuts = (beyond <= 0.1 * eps).argmax(axis=1) + 2
    cuts[means == 0] = 1  # a zero mean has the one term 1 at k = 0
    return pmf[:, : cuts.max()], cuts


def _row_sums(table, lengths):
    """Sum of each row's first lengths[i] entries, rounded as a sum of
    that slice alone: numpy sums pairwise in blocks set by the length, so
    summing zero-padded rows would round differently.  Each run of rows of
    one length is summed in one call."""
    sums = np.empty(len(table))
    at = 0
    for n, run in itertools.groupby(lengths.tolist()):
        end = at + len(list(run))
        sums[at:end] = np.add.reduce(table[at:end, :n], axis=1)
        at = end
    return sums


@dataclass(frozen=True)
class Uniformization:
    """A chain's uniformized jump matrix and the truncated Poisson weights
    of an array of times: what every uniformization sum is made of.

    P = I + Q / lam at the rate lam = max exit rate (slightly inflated);
    it is None when no time takes a step (lam = 0, or every time is 0).
    The weight rows are held longest cut first, and row rank[i] is time
    i's: it holds pois(k; lam * times[i]) for k < cuts[rank[i]]
    (_poisson_table), entries after them are padding, and tails[rank[i]]
    is the mass it drops.  Built by :func:`uniformize`; kernels start its
    power sum from the identity for all times at once, the exact
    conditional analysis from a vector or block for one time.
    """

    P: object
    weights: np.ndarray
    cuts: list
    tails: np.ndarray
    rank: np.ndarray

    def power_sum(self, start, step, time=None):
        """sum_k pois(k; lam * t) X_k with X_0 = start and X_{k+1} =
        step(P, X_k), for every time t, or for the time of index `time`.

        The one power loop of the package.  The powers are stepped up to
        the longest cut among the times, and each time adds its own
        weights in order, so its result is bit-identical to a run of its
        own.  A time's truncated tail is put on its own last X_k, at the
        step where its cut ends, so stochastic X_k stay within eps of
        stochastic.  Returns an array of shape (number of times,) +
        start.shape, or start.shape for one time.
        """
        W, cuts, tails = self.weights, self.cuts, self.tails
        if time is not None:
            row = slice(self.rank[time], self.rank[time] + 1)
            W, cuts, tails = W[row], cuts[row], tails[row]
        ones = (1,) * np.ndim(start)
        W, tails = W.T, tails.reshape(-1, *ones)
        P, X = self.P, start
        acc = W[0].reshape(-1, *ones) * X
        # The rows still summing are a prefix: the first `live`.
        live, k = len(cuts), 1
        while live:
            # Steps k .. end - 1 serve the first `live` rows alike; then
            # the rows whose cut is `end` put their tail on X_{end - 1}.
            end = cuts[live - 1]
            if live == 1:
                # Python floats into a row of its own shape: faster than
                # broadcasting, and rounded the same.
                part, factors = acc[0], W[k:end, 0].tolist()
            else:
                part = acc[:live]
                factors = W[k:end, :live].reshape(end - k, live, *ones)
            for f in factors:
                X = step(P, X)
                part += f * X
            done = cuts.index(end)
            acc[done:live] += tails[done:live] * X
            live, k = done, end
        return acc[0] if time is not None else acc[self.rank]


def uniformize(ctmc, times, eps=DEFAULT_TRANSIENT_TOL):
    """The :class:`Uniformization` of ctmc over an array of times.

    All the times' Poisson weights come from one table.  A time that is
    negative or not finite raises ValueError; a Poisson mean above
    MAX_POISSON_MEAN raises UniformizationError before the table is
    built.
    """
    flat = np.asarray(times, dtype=float).reshape(-1)
    # A nan fails both comparisons.
    top = flat.max(initial=0.0)
    if not (flat.min(initial=0.0) >= 0 and top < math.inf):
        raise ValueError(f"times must be finite and nonnegative, got {times}")
    lam = float(np.max(ctmc.exit_rates)) * _RATE_INFLATION
    m = len(flat)
    if lam == 0.0 or top == 0.0:
        # One term 1 and no tail: every sum is its start.
        return Uniformization(
            None, np.ones((m, 1)), [1] * m, np.zeros(m), np.arange(m)
        )
    if lam * top > MAX_POISSON_MEAN:
        raise UniformizationError(
            f"Poisson mean {lam * top:.6g} of uniformization exceeds "
            f"{MAX_POISSON_MEAN:g}; the chain is too stiff for this time"
        )
    means = lam * flat
    W, cuts = _poisson_table(means, eps)
    order = np.argsort(-cuts, kind="stable")
    W, cuts = W[order], cuts[order]
    P = np.eye(ctmc.n_states) + ctmc.generator() / lam
    return Uniformization(
        P, W, cuts.tolist(), 1.0 - _row_sums(W, cuts), np.argsort(order)
    )


def _uniformized_sum(ctmc, times, eps, step):
    """sum_k pois(k; lam*t) X_k for every t in times, with X_0 = I and
    X_{k+1} = step(P, X_k): the kernel form of the power sum, one power
    sequence for the whole batch, each kernel bit-identical to a separate
    call.  Returns an array of shape times.shape + (n, n).
    """
    n = ctmc.n_states
    acc = uniformize(ctmc, times, eps).power_sum(np.eye(n), step)
    return acc.reshape(*np.shape(times), n, n)


def transient_matrix(ctmc, t, eps=DEFAULT_TRANSIENT_TOL):
    """Full transient kernel K with K[s, s'] = Pr_s(t)(s').

    Uniformization: K = sum_k pois(k; lam*t) P^k.  An array of times gives
    a stack of kernels, all from one power sequence.
    """
    return _uniformized_sum(ctmc, t, eps, lambda P, X: X @ P)


def transient(ctmc, source, t, eps=DEFAULT_TRANSIENT_TOL):
    """Transient distribution Pr_source(t) as a dense vector."""
    dist = transient_matrix(ctmc, t, eps)[source]
    total = dist.sum()
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"transient distribution sums to {total}")
    return dist


def reach_matrix(ctmc, duration, eps=DEFAULT_TRANSIENT_TOL):
    """All-pairs bounded reachability within `duration`.

    Entry [s, s'] is the probability to visit s' at some point within
    `duration` starting from s.  A single uniformization pass serves all
    target columns: the chains with target s' made absorbing differ from
    the base chain only in row s', so their matrix powers are obtained by
    forcing the diagonal back to 1 after each multiplication.  An array of
    durations gives a stack of matrices from one power sequence.
    """
    acc = _uniformized_sum(ctmc, duration, eps, _absorbing_step)
    return np.clip(acc, 0.0, 1.0)


def _absorbing_step(P, X):
    """One step of P with every column's target state held absorbing."""
    X = P @ X
    np.fill_diagonal(X, 1.0)
    return X


def _reach_vector(ctmc, target_mask, duration, eps):
    """P(reach target within duration) from every state, target absorbing."""
    if not np.any(target_mask):
        return np.zeros(ctmc.n_states)
    absorbed = ctmc.absorbing_variant(target_mask)
    K = transient_matrix(absorbed, duration, eps)
    return K[:, target_mask].sum(axis=1)


def bounded_reachability_vector(ctmc, target_mask, window, eps=DEFAULT_TRANSIENT_TOL):
    """P(occupy a target state at some time in [a, b]) from every state.

    Two phases: transient to a on the unmodified chain, then time-bounded
    reachability over b - a with the target made absorbing.  States in the
    target at time a count as reached.
    """
    a, b = window
    if not (0 <= a <= b):
        raise ValueError("window must satisfy 0 <= a <= b")
    target_mask = np.asarray(target_mask, dtype=bool)
    if not np.any(target_mask):
        warnings.warn("empty target set, reachability is 0", stacklevel=2)
        return np.zeros(ctmc.n_states)
    reach = _reach_vector(ctmc, target_mask, b - a, eps)
    if a == 0.0:
        return reach
    return transient_matrix(ctmc, a, eps) @ reach


def bounded_reachability(ctmc, source, target_mask, window, eps=DEFAULT_TRANSIENT_TOL):
    """Single-source version of :func:`bounded_reachability_vector`."""
    return float(bounded_reachability_vector(ctmc, target_mask, window, eps)[source])


def invariance(ctmc, state, tau):
    """P(no state-changing jump from `state` within tau).

    Self-loops do not leave the state, so the effective rate is
    E(s) * (1 - jump(s, s)).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return float(np.exp(-ctmc.effective_exit_rates()[state] * tau))


def invariance_vector(ctmc, tau):
    """Per-state invariance probabilities over [0, tau].

    An array of durations gives one row per duration.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    return np.exp(-ctmc.effective_exit_rates() * tau[..., None])


def weight_from_property(ctmc, target_mask, horizon, eps=DEFAULT_TRANSIENT_TOL):
    """State weights w(s) = P(reach target within horizon from s)."""
    target_mask = np.asarray(target_mask, dtype=bool)
    if not np.any(target_mask):
        warnings.warn("empty target set, all weights are 0", stacklevel=2)
        return np.zeros(ctmc.n_states)
    if horizon == 0.0:
        return target_mask.astype(float)
    return bounded_reachability_vector(ctmc, target_mask, (0.0, horizon), eps)
