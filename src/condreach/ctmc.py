"""Labeled continuous-time Markov chains and transient analysis.

A chain is stored as a jump distribution plus per-state exit rates; the
rate matrix R(s, s') = jump_probs[s, s'] * exit_rates[s] is derived on
demand.  Transient distributions are computed by uniformization with
Poisson truncation, which keeps every term nonnegative.  A time's
truncated series is a polynomial in the uniformized jump matrix P,
evaluated in about 2 sqrt(cut) matrix products (Paterson & Stockmeyer,
SIAM J. Comput. 1973) on the powers P^0, P^1, ... that the chain keeps,
stepped on demand: as whole kernels, or applied to a vector or a block
without forming one.  The rule is one: a sum of products with P alone
is such a polynomial, and a sum whose targets are held absorbing (reach
matrices and property weights) is the power loop, which steps its start
one product with the chain's own P at a time and sets the targets back
to 1 after each (Uniformization.power_sum).  On a grid of short binary
fractions a kernel is instead marched from its binary parent, one
product K(t - h) @ K(h) by the semigroup property, with polynomials only
at the roots (marched_kernels).
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

# Largest Poisson mean lam * t that uniformization accepts.  A polynomial
# takes about 2 sqrt(lam * t) products, with sqrt(lam * t) powers kept on
# the chain, and the power loop about lam * t steps, so a larger mean
# means a chain too stiff for the time asked; the bundled models stay
# below about 250.
MAX_POISSON_MEAN = 1e5

# The most set bits in the binary expansion of a time whose kernel is
# marched from its binary parent (binary_parent); each bit is one product
# of two kernels.  tandem's times at cap 8 have up to 9.
MARCH_BITS = 16


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
    # The powers of the uniformized jump matrix stepped so far: empty, or
    # one read-only (k + 1, n, n) array of P^0 .. P^k (jump_powers).
    _powers: list = field(default_factory=list, repr=False, compare=False)

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
        if len(self.labels) != n:
            raise ModelError("labels do not match state count")
        self._index.update({name: i for i, name in enumerate(self.state_names)})
        if len(self._index) != n:
            raise ModelError("state names must be distinct")
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

    @property
    def uniformization_rate(self):
        """lam: the largest exit rate, slightly inflated."""
        return float(np.max(self.exit_rates)) * _RATE_INFLATION

    def jump_powers(self, top):
        """P^0 .. P^top of the uniformized jump matrix P = I + Q / lam, as a
        read-only (top + 1, n, n) array.

        lam, and so P, depend on the chain alone, so the chain keeps the
        powers it has stepped, P^i = P^(i - 1) @ P, and steps on only when
        a higher power is asked for, to exactly that power.  A top of 1
        or more needs lam > 0.
        """
        n = self.n_states
        have = self._powers[0] if self._powers else np.eye(n)[None]
        if len(have) > top:
            return have[: top + 1]
        powers = np.empty((top + 1, n, n))
        powers[: len(have)] = have
        if len(have) == 1:
            powers[1] = np.eye(n) + self.generator() / self.uniformization_rate
        for i in range(max(len(have), 2), top + 1):
            np.matmul(powers[i - 1], powers[1], out=powers[i])
        powers.setflags(write=False)
        self._powers[:] = [powers]
        return powers

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


def from_rates(names, initial, rates, labels):
    """Build a chain from named rate entries.

    Parameters
    ----------
    names : sequence of str
    initial : str
    rates : dict mapping (src, dst) names to positive rates
    labels : dict mapping state name to iterable of APs (not a str,
        which would be read as its characters)
    """
    idx = {name: i for i, name in enumerate(names)}
    for name in (initial, *(end for pair in rates for end in pair), *labels):
        if name not in idx:
            raise ModelError(f"unknown state {name!r}")
    for name, aps in labels.items():
        if isinstance(aps, str):
            raise ModelError(f"labels of {name!r} must be a collection of "
                             f"APs, not the string {aps!r}")
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
        # One column past the longest row, so every row ends in a zero;
        # the initial values keep an empty batch of means well-formed.
        k = np.arange(float(ends.max(initial=1) + 1))
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
    return pmf[:, : cuts.max(initial=1)], cuts


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

    powers(top) gives P^0 .. P^top of P = I + Q / lam, the rate lam being
    the max exit rate (slightly inflated), from the chain's own table
    (Ctmc.jump_powers); powers(0) is P^0 on any chain, and a higher
    power is asked for only when some time takes a step (lam > 0 and a
    time above 0).  The weight rows are held longest cut first, and
    row rank[i] is time i's: it holds pois(k; lam * times[i]) for k <
    cuts[rank[i]] (_poisson_table), entries after them are padding, and
    tails[rank[i]] >= 0 is the mass it drops.  Built by
    :func:`uniformize`.  Each time's truncated series is a polynomial in
    P, evaluated as whole kernels (kernels) or applied to a vector or a
    block (series); a sum with targets held absorbing steps its start
    through the series (power_sum).
    """

    powers: object
    weights: np.ndarray
    cuts: list
    tails: np.ndarray
    rank: np.ndarray

    def power_sum(self, start, held):
        """sum_k pois(k; lam * t) X_k with X_0 = start and X_{k+1} =
        P @ X_k with its entries at `held` set to 1, for every time t.

        The power loop, for targets held absorbing: `held` indexes the
        target entries of start, which are 1 there, as np.diag_indices(n)
        for reach matrices (each column's target is its own state) or a
        target mask for a column of weights.  Holding an entry at 1 is a
        step of the chain with that row's target made absorbing, so the
        loop runs on the chain itself.  The X_k are stepped up to the
        longest cut among the times, and each time adds its own weights
        in order, so its result is bit-identical to a run of its own.  A
        time's truncated tail is put on its own last X_k, at the step
        where its cut ends, so stochastic X_k stay within eps of
        stochastic.  Returns an array of shape (number of times,) +
        start.shape.
        """
        cuts = self.cuts
        ones = (1,) * np.ndim(start)
        W, tails = self.weights.T, self.tails.reshape(-1, *ones)
        # P^1, or P^0 when no time takes a step.
        top = min(self.weights.shape[1] - 1, 1)
        P = self.powers(top)[top]
        X = start
        acc = W[0].reshape(-1, *ones) * X
        # The rows still summing are a prefix: the first `live`.
        live, k = len(cuts), 1
        while live:
            # Steps k .. end - 1 serve the first `live` rows alike; then
            # the rows whose cut is `end` put their tail on X_{end - 1}.
            end = cuts[live - 1]
            part = acc[:live]
            for f in W[k:end, :live].reshape(end - k, live, *ones):
                X = P @ X
                X[held] = 1.0
                part += f * X
            done = cuts.index(end)
            acc[done:live] += tails[done:live] * X
            live, k = done, end
        return acc[self.rank]

    def series(self, start, time, left=False):
        """sum_k pois(k; lam * t) P^k @ start, or start @ P^k with left,
        for the time t of index `time`: its kernel applied to a vector or
        a block without forming the kernel.

        The series is the time's polynomial of :meth:`kernels` (the same
        coefficients, blocks and Horner's rule), with every power
        replaced by its product with the start.  With s = ceil(sqrt(c))
        and b = ceil(c / s) for the time's cut c, the terms P^i @ start
        of i < s are one stacked product, the b blocks B_j @ start one
        matmul by the coefficients, and Horner's rule in P^s adds them,
        Y <- P^s @ Y + B_j @ start from the last block down (Y @ P^s with
        left): about 2 sqrt(c) products with the start, where the power
        loop takes c.  The start must be nonnegative for the error to
        stay relative, as in kernels.
        """
        r = self.rank[time]
        c = self.cuts[r]
        s = math.isqrt(c - 1) + 1
        b = -(-c // s)
        coef = np.zeros(b * s)
        coef[:c] = self.weights[r, :c]
        coef[c - 1] += self.tails[r]
        powers = self.powers(s if b > 1 else s - 1)
        if left:
            terms = np.matmul(start, powers[:s])
        else:
            # One product of the stacked powers with the start.
            terms = powers[:s].reshape(-1, powers.shape[2]) @ start
            terms = terms.reshape(s, *np.shape(start))
        blocks = coef.reshape(b, s) @ terms.reshape(s, -1)
        blocks = blocks.reshape(b, *terms.shape[1:])
        acc = blocks[b - 1]
        for j in range(b - 2, -1, -1):
            acc = acc @ powers[s] if left else powers[s] @ acc
            acc += blocks[j]
        return acc

    def kernels(self, n):
        """The transient kernels sum_k pois(k; lam * t) P^k of every time
        t, as an (m, n, n) stack in time order.

        A time of cut c has the polynomial sum_{k < c} a_k P^k, whose
        coefficients are its weights with its tail added to a_{c - 1}.
        It is evaluated in about 2 sqrt(c) products (Paterson & Stockmeyer,
        SIAM J. Comput. 1973): with s = ceil(sqrt(c)) and b = ceil(c / s),
        block j is B_j = sum_{i < s} a_{js + i} P^i, and Horner's rule in
        P^s adds the blocks, A <- A @ P^s + B_j, from the last one down.
        The powers P^0 .. P^s come from the chain's table.  Times of
        equal (s, b) share stacked matmuls, which make one BLAS call per
        kernel, and s and b depend on the time's own cut only, so every
        kernel is bit-identical to a call of its own.  All coefficients
        and matrices are nonnegative, so no step cancels, and each entry's
        rounding error stays relative.
        """
        m = len(self.cuts)
        out = np.empty((m, n, n))
        if not m:
            return out
        cuts = np.array(self.cuts)
        # (s, b) rises with the cut in lexicographic order, and the rows
        # are held by cut, so times of equal (s, b) are runs of rows.
        s = [math.isqrt(c - 1) + 1 for c in self.cuts]
        b = [-(-c // k) for c, k in zip(self.cuts, s)]
        width = max(k * j for k, j in zip(s, b))
        top = max(k if j > 1 else k - 1 for k, j in zip(s, b))
        # The coefficients: each row's weights up to its cut, its tail on
        # the last, zeros after it to fill its last block (width is at
        # least the longest cut, the table's width).
        coef = np.zeros((m, width))
        coef[:, : self.weights.shape[1]] = self.weights
        coef[np.arange(width) >= cuts[:, None]] = 0.0
        coef[np.arange(m), cuts - 1] += self.tails
        powers = self.powers(top)
        flat = powers.reshape(top + 1, n * n)
        times = np.argsort(self.rank)
        at = 0
        for (k, j), run in itertools.groupby(zip(s, b)):
            end = at + len(list(run))
            # blocks[:, i] holds block i of every row, each a (1, s) row,
            # so a block is a stacked product of one row per kernel.
            blocks = coef[at:end, : k * j].reshape(end - at, j, 1, k)
            A = np.matmul(blocks[:, j - 1], flat[:k]).reshape(-1, n, n)
            for i in range(j - 2, -1, -1):
                A = A @ powers[k]
                A += np.matmul(blocks[:, i], flat[:k]).reshape(-1, n, n)
            out[times[at:end]] = A
            at = end
        return out


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
    lam = ctmc.uniformization_rate
    if lam * top > MAX_POISSON_MEAN:
        raise UniformizationError(
            f"Poisson mean {lam * top:.6g} of uniformization exceeds "
            f"{MAX_POISSON_MEAN:g}; the chain is too stiff for this time"
        )
    means = lam * flat
    W, cuts = _poisson_table(means, eps)
    order = np.argsort(-cuts, kind="stable")
    W, cuts = W[order], cuts[order]
    # The weights sum to 1 within rounding, which can leave a dropped
    # mass of -2.2e-16 (and a negative kernel entry) on a tiny time.
    tails = np.maximum(1.0 - _row_sums(W, cuts), 0.0)
    return Uniformization(
        ctmc.jump_powers, W, cuts.tolist(), tails, np.argsort(order)
    )


def transient_matrix(ctmc, t, eps=DEFAULT_TRANSIENT_TOL):
    """Full transient kernel K with K[s, s'] = Pr_s(t)(s').

    Uniformization: K = sum_k pois(k; lam*t) P^k, evaluated as a
    polynomial in P (Uniformization.kernels).  An array of times gives a
    stack of kernels from one set of powers, each bit-identical to a call
    of its own.  On a grid of short binary fractions most kernels are
    cheaper marched from others (marched_kernels), with these
    polynomials as the roots.
    """
    n = ctmc.n_states
    K = uniformize(ctmc, t, eps).kernels(n)
    return K.reshape(*np.shape(t), n, n)


def set_bits(t):
    """The set bits of the binary expansion of a float t >= 0: every
    float is a binary fraction p / 2^k, and its set bits are p's."""
    return float(t).as_integer_ratio()[0].bit_count()


def binary_parent(t):
    """(t - h, h), h the lowest set bit of t, when the binary expansion of
    t has 2 to MARCH_BITS set bits; None otherwise.

    Both are exact: h is a power of two, and t - h is t without one bit.
    By the semigroup property K(t) = K(t - h) @ K(h), so such a kernel is
    one product of its parent's, of one set bit fewer, and a power of
    two's.  Zero, powers of two and longer expansions have no parent:
    they are roots.
    """
    p, q = float(t).as_integer_ratio()
    if not 2 <= p.bit_count() <= MARCH_BITS:
        return None
    h = (p & -p) / q
    return t - h, h


def marched_kernels(times, memo, root):
    """Rows of memo holding the transient kernels of times, marched.

    memo is a keyed stack of kernels (abstraction._KeyedStack), and
    root(times) gives the stacked kernels of sorted times as polynomials
    (transient_matrix).  A time with a binary parent (binary_parent) gets
    K(t - h) @ K(h), and every other time is a root.  The kernels the
    times are marched from are found first, and those memo lacks are
    computed in one call of memo: the roots in one call of root, then
    the products by rising set bits, each written in place from two
    factors with fewer.  A kernel is so the product of its roots'
    polynomials, one per set bit, taken from its top bit down, and its
    bits are a function of t alone when memo holds only kernels of this
    rule.  Each product rounds as an n-term sum of nonnegative terms, so
    the error stays relative.
    """
    split = {}
    todo = np.ravel(times).tolist()
    while todo:
        t = todo.pop()
        if t not in split:
            split[t] = binary_parent(t)
            todo.extend(split[t] or ())

    def compute(new, out):
        keys = new.tolist()
        at = dict(zip(keys, range(len(keys))))
        roots = [i for i, t in enumerate(keys) if split[t] is None]
        if roots:
            out[roots] = root(new[roots])
        held = [f for t in keys if split[t] for f in split[t]
                if f not in at]
        rows = dict(zip(held, memo.get(np.array(held)).tolist()))
        for t in sorted((t for t in keys if split[t]), key=set_bits):
            a, b = (out[at[f]] if f in at else memo.buffer[rows[f]]
                    for f in split[t])
            np.matmul(a, b, out=out[at[t]])

    memo.get(np.array(sorted(split)), compute)
    return memo.get(times)


def transient(ctmc, source, t, eps=DEFAULT_TRANSIENT_TOL):
    """Transient distribution Pr_source(t) as a dense vector: the series
    of the row vector e_source, not a row of the full kernel.  t is one
    time; an array raises ValueError (transient_matrix takes arrays)."""
    if np.ndim(t):
        raise ValueError(f"transient takes one time, got shape {np.shape(t)}")
    start = np.zeros(ctmc.n_states)
    start[source] = 1.0
    dist = uniformize(ctmc, t, eps).series(start, 0, left=True)
    total = dist.sum()
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"transient distribution sums to {total}")
    return dist


def reach_matrix(ctmc, duration, eps=DEFAULT_TRANSIENT_TOL):
    """All-pairs bounded reachability within `duration`.

    Entry [s, s'] is the probability to visit s' at some point within
    `duration` starting from s.  A single uniformization pass serves all
    target columns: the chains with target s' made absorbing differ from
    the base chain only in row s', so the power loop steps the identity
    with P and holds the diagonal at 1 (Uniformization.power_sum).  An
    array of durations gives a stack of matrices from one power sequence.
    """
    n = ctmc.n_states
    acc = uniformize(ctmc, duration, eps).power_sum(np.eye(n),
                                                    np.diag_indices(n))
    return np.clip(acc.reshape(*np.shape(duration), n, n), 0.0, 1.0)


def invariance_vector(ctmc, tau):
    """Per-state invariance probabilities over [0, tau].

    An array of durations gives one row per duration.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    return np.exp(-ctmc.effective_exit_rates() * tau[..., None])


def weight_from_property(ctmc, target_mask, horizon, eps=DEFAULT_TRANSIENT_TOL):
    """State weights w(s) = P(reach target within horizon from s).

    The power loop on the chain itself steps the target's indicator
    column and holds the target at 1 (Uniformization.power_sum), as a
    reach matrix does for each of its columns; it steps no power beyond
    P^1 on the chain.  The weights are clipped to [0, 1], which a sum
    near 1 can round out of, and target states are set to exactly 1,
    which their sum of Poisson weights and tail need not round to.  The
    Poisson mean checked against MAX_POISSON_MEAN is the chain's own
    rate times the horizon, also when the target holds the largest exit
    rate.  A negative or nan horizon raises ValueError; an empty target
    warns and gives all weights 0.
    """
    if not horizon >= 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    target_mask = np.asarray(target_mask, dtype=bool)
    if not np.any(target_mask):
        warnings.warn("empty target set, all weights are 0", stacklevel=2)
        return np.zeros(ctmc.n_states)
    indicator = target_mask.astype(float)
    reach = uniformize(ctmc, horizon, eps).power_sum(indicator, target_mask)
    # A weight near 1 can round above it, as a reach matrix entry can.
    reach = np.clip(reach[0], 0.0, 1.0)
    reach[target_mask] = 1.0
    return reach
