"""Labeled continuous-time Markov chains and transient analysis.

A chain is stored as a jump distribution plus per-state exit rates; the
rate matrix R(s, s') = jump_probs[s, s'] * exit_rates[s] is derived on
demand.  Transient distributions are computed by uniformization with
Poisson truncation, which keeps every term nonnegative.  A time's
truncated series is a polynomial in the uniformized jump matrix P,
evaluated in about 2 sqrt(cut) matrix products (Paterson & Stockmeyer,
SIAM J. Comput. 1973) by one evaluator (polynomial_series), on the
powers P^0, P^1, ... that the chain keeps, stepped on demand.  A stack
of times takes its Poisson weights from one table (uniformize) and gets
whole kernels; one time applied to a vector or a block takes its own
row, bit for bit the same (poisson_coefficients).  The chain also keeps
the initial rows of its powers and the columns P^k @ block of the last
block it was asked for, which one time's coefficients read as a
kernel's initial-state row or as a kernel applied to that block; one
helper steps all three tables.  The rule is one: a sum of products with
P alone is such a polynomial, and a sum whose targets are held
absorbing (reach matrices and property weights) is the power loop,
which steps its start one product with the chain's own P at a time and
sets the targets back to 1 after each (power_sum).  On a grid of short
binary fractions a kernel is instead marched from its binary parent,
one product K(t - h) @ K(h) by the semigroup property (binary_parent),
with polynomials only at the roots; the bound cache, which stores the
kernels, marches them (abstraction.marched_kernels).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

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

# Block floats (8 MB) that one evaluator call of a stack of kernels holds
# at most, b n^2 per kernel of b blocks.  No group of the bundled
# workloads holds over 158400; tandem at a Poisson mean of 1e4 1.5e6 each.
_BLOCK_FLOATS = 2**20


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
    # The tables below are derived from the fields above; they are not
    # __init__ parameters, so dataclasses.replace gives a chain its own.
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    # Per atomic proposition, the read-only boolean column of the states
    # that carry it.
    _columns: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    # The tables stepped so far, read-only and keyed by name: "powers"
    # (jump_powers), "rows" (initial_rows) and "finals" (final_columns).
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    # Per formula's literals, the read-only boolean mask of the states
    # that violate it (reset_masks); () is `true`, violated nowhere.
    _masks: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
        self._masks[()] = np.zeros(n, dtype=bool)
        for column in (*self._columns.values(), self._masks[()]):
            column.setflags(write=False)
        self.jump_probs.setflags(write=False)
        self.exit_rates.setflags(write=False)

    @property
    def n_states(self):
        return len(self.state_names)

    @cached_property
    def alphabet(self):
        """All atomic propositions appearing on any state."""
        return frozenset(self._columns)

    def state_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown state {name!r}") from None

    @cached_property
    def uniformization_rate(self):
        """lam: the largest exit rate, slightly inflated."""
        return float(self.exit_rates.max()) * _RATE_INFLATION

    def _stepped(self, name, top, start, left=True):
        """The kept table `name` up to row `top`, as a read-only array of
        rows X_k = X_(k - 1) @ P, or P @ X_(k - 1) without left, from X_0 =
        start() when none is kept.  A table too short is stepped to exactly
        row top, one product with P per row; stepping needs lam > 0."""
        have = self._tables.get(name)
        if have is None:
            have = start()[None]
        elif len(have) > top:
            return have[: top + 1]
        table = np.empty((top + 1, *have.shape[1:]))
        table[: len(have)] = have
        if len(have) <= top:
            # The powers' own first step forms P; every other step reads it.
            P = (np.eye(self.n_states) + self.generator()
                 / self.uniformization_rate
                 if name == "powers" and len(have) == 1
                 else self.jump_powers(1)[1])
        for k in range(len(have), top + 1):
            if left:
                np.matmul(table[k - 1], P, out=table[k])
            else:
                np.matmul(P, table[k - 1], out=table[k])
        table.setflags(write=False)
        self._tables[name] = table
        return table

    def jump_powers(self, top):
        """P^0 .. P^top of the uniformized jump matrix P = I + Q / lam, as a
        read-only (top + 1, n, n) array.

        lam, and so P, depend on the chain alone, so the chain keeps the
        powers it has stepped, P^i = P^(i - 1) @ P, and steps on only when
        a higher power is asked for, to exactly that power (_stepped).
        """
        return self._stepped("powers", top, lambda: np.eye(self.n_states))

    def initial_rows(self, top):
        """e_init P^0 .. e_init P^top, the initial state's rows of the
        powers of P, as a read-only (top + 1, n) array, kept and stepped
        (_stepped).

        An exact weight reads its first moving gap's kernel row as the
        gap's coefficients times its cut's rows, one (cut,) @ (cut, n)
        product of nonnegative terms.  The table is O(cut n) floats where
        the powers are O(sqrt(cut) n^2): under 200 KB on the bundled
        models, but about 98 MB against 37 MB on tandem at a Poisson
        mean of MAX_POISSON_MEAN.
        """
        return self._stepped(
            "rows", top, lambda: np.eye(1, self.n_states, self.initial)[0])

    def final_columns(self, block, top):
        """P^0 b .. P^top b for a block b of columns, as a read-only
        (top + 1, *b.shape) array, kept and stepped (_stepped).

        The chain keeps the columns of the last block it was asked for:
        a block that differs from the kept row 0 in any bit (compared as
        bytes, so -0.0 is not 0.0) restarts the table.  An exact weight
        asks for the same block, the last layer's weights, for every
        timing of one evidence, and reads its last gap as the gap's
        coefficients times the first cut columns, so a fresh chain steps
        no power beyond P^1 for it.  The table is O(cut n) floats per
        column: about 300 KB after a tandem1 analyze, and about 196 MB on
        tandem at a Poisson mean of MAX_POISSON_MEAN.
        """
        have = self._tables.get("finals")
        if have is not None and (have.shape[1:] != block.shape
                                 or have[0].tobytes() != block.tobytes()):
            del self._tables["finals"]
        return self._stepped("finals", top, lambda: block, left=False)

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
        mask is all False, the mask of `true`.  The masks are read-only,
        and the chain keeps one per formula it was asked for.
        """
        masks = self._masks
        for obs in formulas:
            if obs.literals not in masks:
                mask = ~self.satisfying(obs)
                mask.setflags(write=False)
                masks[obs.literals] = mask
        return (masks[()], *(masks[obs.literals] for obs in formulas))


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
    terms (_row_sums).  Each row is so also bit-identical to its mean's
    poisson_row.
    """
    _check_tolerance(eps)
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


def _check_tolerance(eps):
    """ValueError unless eps, a probability mass to drop, is in (0, 1):
    at 1 or above it bounds nothing."""
    if not 0 < eps < 1:
        raise ValueError(f"truncation tolerance must be in (0, 1), got {eps}")


def poisson_row(mean, eps):
    """Truncated Poisson pmf of one mean: its values at 0..cut - 1, the
    mean's row of _poisson_table up to its cut, bit for bit.

    The table's steps run on one mean: the mode term through lgamma, the
    ratio products outward from the mode in the table's order (the left
    side from the mode down, the right side from it up, a right side
    that falls short doubling its span), the normalizing sum over exactly
    the row's terms, and the tail beyond each term summed from the right.
    One time's series takes its row here (poisson_coefficients); a
    stack of times takes one table for all of them.
    """
    _check_tolerance(eps)
    if not 0 <= mean < math.inf:
        raise ValueError("Poisson mean must be finite and nonnegative")
    if not mean:
        return np.ones(1)
    mode = int(mean)
    p_mode = math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1))
    span = 16 + int(10.0 * math.sqrt(mean))
    while True:
        ends = mode + span
        # The ratios (k + 1) / mean left of the mode and mean / k right
        # of it, around a 1 at the mode; each side's products run from
        # the mode outward, in place.
        k = np.arange(1.0, ends)
        pmf = np.empty(ends)
        np.divide(k[:mode], mean, out=pmf[:mode])
        np.divide(mean, k[mode:], out=pmf[mode + 1:])
        pmf[mode] = 1.0
        left, right = pmf[mode::-1], pmf[mode:]
        np.multiply.accumulate(left, out=left)
        np.multiply.accumulate(right, out=right)
        pmf *= p_mode
        r = mean / ends
        last = float(pmf[-1])
        rest = last * r / (1.0 - r)
        if last + rest <= 1e-6 * eps:
            break
        span *= 2
    pmf /= np.add.reduce(pmf) + rest
    # beyond[j], the mass beyond term ends - 2 - j, summed from the right,
    # rises with j; the cut is one past the first term whose mass beyond
    # is at most 0.1 * eps.  The last term and rest are far below it.
    beyond = pmf[:0:-1].cumsum()
    beyond += rest
    return pmf[: ends + 1 - int(beyond.searchsorted(0.1 * eps, "right"))]


def poisson_coefficients(mean, eps):
    """The polynomial coefficients of one time's series, of Poisson mean
    `mean`: its Poisson row, with the mass it drops put on its last term
    as transient_matrix puts each time's tail (uniformize), so bit for bit
    its kernel's."""
    coef = poisson_row(mean, eps)
    coef[-1] += max(1.0 - np.add.reduce(coef), 0.0)
    return coef


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


def polynomial_series(powers, coef, start=None, left=False):
    """sum_k coef[k] P^k @ start, or start @ P^k with left: a polynomial
    in P applied to a vector or a block without forming it.  Without a
    start the terms are the powers themselves, and the call returns the
    polynomial; an (m, c) stack of coefficient rows returns the (m, n, n)
    stack of their polynomials and takes no start.

    powers(top) gives P^0 .. P^top (Ctmc.jump_powers).  A polynomial of
    c coefficients is evaluated in about 2 sqrt(c) products (Paterson &
    Stockmeyer, SIAM J. Comput. 1973), where the power loop takes c.
    With s = ceil(sqrt(c)) and b = ceil(c / s), the terms P^i @ start of
    i < s are one stacked product, the b blocks B_j @ start = sum_{i < s}
    a_{js + i} P^i @ start one matmul of the coefficients, padded with
    zeros to b * s, by the terms, and Horner's rule in P^s adds them, Y
    <- P^s @ Y + B_j @ start from the last block down (Y @ P^s with
    left).  s and b depend on c alone, and each polynomial of a stack
    takes the matmuls of a call of its own row (one matmul shared by the
    stack would round its rows by their count), so it is bit-identical
    to that call.  The coefficients and the start must be nonnegative:
    then no step cancels, and each entry's rounding error stays
    relative.
    """
    coef = np.asarray(coef)
    lead, c = coef.shape[:-1], coef.shape[-1]
    s = math.isqrt(c - 1) + 1
    b = -(-c // s)
    padded = np.zeros((*lead, b * s))
    padded[..., :c] = coef
    P = powers(s if b > 1 else s - 1)
    if start is None:
        terms = P[:s]
    elif left:
        terms = np.matmul(start, P[:s])
    else:
        # One product of the stacked powers with the start.
        terms = P[:s].reshape(-1, P.shape[2]) @ start
        terms = terms.reshape(s, *np.shape(start))
    # blocks[j] holds block j of each polynomial.
    blocks = np.matmul(padded.reshape(*lead, b, s), terms.reshape(s, -1))
    blocks = blocks.reshape(*lead, b, *terms.shape[1:]).swapaxes(0, len(lead))
    acc = blocks[b - 1]
    for j in range(b - 2, -1, -1):
        acc = acc @ P[s] if left else P[s] @ acc
        acc += blocks[j]
    return acc


def uniformize(ctmc, times, eps=DEFAULT_TRANSIENT_TOL):
    """The truncated Poisson weights of an array of times on ctmc, as
    (W, cuts, tails) in time order: W[i, k] = pois(k; lam * times[i])
    for k < cuts[i] and 0 after (_poisson_table), and tails[i] >= 0 is
    the mass that row i drops.

    All the times' Poisson weights come from one table, built once the
    times, their means and the tolerance have passed poisson_means'
    checks.
    """
    W, cuts = _poisson_table(poisson_means(ctmc, times, eps), eps)
    W[np.arange(W.shape[1]) >= cuts[:, None]] = 0.0
    # The weights sum to 1 within rounding, which can leave a dropped
    # mass of -2.2e-16 (and a negative kernel entry) on a tiny time.
    tails = np.maximum(1.0 - _row_sums(W, cuts), 0.0)
    return W, cuts, tails


def power_sum(ctmc, times, eps, start, held):
    """sum_k pois(k; lam * t) X_k with X_0 = start and X_{k+1} = P @ X_k
    with its entries at `held` set to 1, for every time t of an array.

    The power loop, for targets held absorbing: `held` indexes the
    target entries of start, which are 1 there, as np.diag_indices(n)
    for reach matrices (each column's target is its own state) or a
    target mask for a column of weights.  Holding an entry at 1 is a
    step of the chain with that row's target made absorbing, so the
    loop runs on the chain's own P.  The X_k are stepped once, up to the
    longest cut among the times, and each step adds every time's weight:
    a weight past a time's cut is 0 and adds exactly nothing to its
    nonnegative sum.  A time's truncated tail is put on its own last
    X_k, at the step where its cut ends, so stochastic X_k stay within
    eps of stochastic; the tails of each distinct cut are added in one
    term, 0 for the times of the other cuts.  So each time's result is
    bit-identical to a run of its own.  Returns an array of shape
    (number of times,) + start.shape.
    """
    W, cuts, tails = uniformize(ctmc, times, eps)
    ends = sorted(set(cuts.tolist()))
    shape = (len(cuts), *(1,) * np.ndim(start))
    # Per distinct cut, the tails of its times and 0 for the others.
    tails = np.where(cuts == np.reshape(ends, (-1, 1)), tails, 0.0)
    tails = tails.reshape(len(ends), *shape)
    W = W.T.reshape(W.shape[1], *shape)
    # P^1, or P^0 when no time takes a step.
    top = min(len(W) - 1, 1)
    P = ctmc.jump_powers(top)[top]
    X = start
    acc = W[0] * X
    k = 1
    for end, tail in zip(ends, tails):
        for f in W[k:end]:
            X = P @ X
            X[held] = 1.0
            acc += f * X
        acc += tail * X
        k = end
    return acc


def poisson_means(ctmc, times, eps):
    """The Poisson means lam * t of a time or an array of times, as a
    flat list of floats, once every check of a uniformization has
    passed.

    A time that is negative or not finite raises ValueError, a mean
    above MAX_POISSON_MEAN UniformizationError, and then a truncation
    tolerance outside (0, 1) ValueError: all before any Poisson work.
    Python floats round as numpy's do, and are faster on a few times.
    """
    flat = np.ravel(times).tolist()
    # A nan fails both comparisons.
    if not all(0 <= t < math.inf for t in flat):
        raise ValueError(f"times must be finite and nonnegative, got {times}")
    lam, top = ctmc.uniformization_rate, max(flat, default=0.0)
    if lam * top > MAX_POISSON_MEAN:
        raise UniformizationError(
            f"Poisson mean {lam * top:.6g} of uniformization exceeds "
            f"{MAX_POISSON_MEAN:g}; the chain is too stiff for this time"
        )
    _check_tolerance(eps)
    return [lam * t for t in flat]


def transient_matrix(ctmc, t, eps=DEFAULT_TRANSIENT_TOL):
    """Full transient kernel K with K[s, s'] = Pr_s(t)(s').

    Uniformization: K = sum_k pois(k; lam*t) P^k, evaluated as a
    polynomial in P (polynomial_series), whose coefficients are the
    time's weights with its tail on the last.  An array of times gives a
    stack of kernels: the times of equal blocks (s, b) are one call of
    the evaluator, their rows as long as their longest cut, and each
    kernel is bit-identical to a call of its own.  On a grid of short
    binary fractions most kernels are cheaper marched from others
    (abstraction.marched_kernels), with these polynomials as the roots.
    A group is evaluated in chunks of rows under _BLOCK_FLOATS: a chunk's
    longest cut has its group's (s, b), so its kernels keep their bits.
    """
    n = ctmc.n_states
    W, cuts, tails = uniformize(ctmc, t, eps)
    W[np.arange(len(cuts)), cuts - 1] += tails
    groups = {}
    for i, cut in enumerate(cuts.tolist()):
        s = math.isqrt(cut - 1) + 1
        groups.setdefault((s, -(-cut // s)), []).append(i)
    K = np.empty((len(cuts), n, n))
    for (_, b), rows in groups.items():
        step = max(1, _BLOCK_FLOATS // (b * n * n))
        for at in range(0, len(rows), step):
            part = rows[at : at + step]
            K[part] = polynomial_series(ctmc.jump_powers,
                                        W[part, : cuts[part].max()], left=True)
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


def transient(ctmc, source, t, eps=DEFAULT_TRANSIENT_TOL):
    """Transient distribution Pr_source(t) as a dense vector: the series
    of the row vector e_source, not a row of the full kernel.  t is one
    time; an array raises ValueError (transient_matrix takes arrays), as
    does a source outside the chain's states 0 .. n - 1."""
    if np.ndim(t):
        raise ValueError(f"transient takes one time, got shape {np.shape(t)}")
    if not 0 <= source < ctmc.n_states:
        raise ValueError(f"source state {source} is not one of the chain's "
                         f"{ctmc.n_states} states")
    start = np.zeros(ctmc.n_states)
    start[source] = 1.0
    (mean,) = poisson_means(ctmc, t, eps)
    dist = polynomial_series(ctmc.jump_powers, poisson_coefficients(mean, eps),
                             start, left=True)
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
    with P and holds the diagonal at 1 (power_sum).  An array of
    durations gives a stack of matrices from one power sequence.
    """
    n = ctmc.n_states
    acc = power_sum(ctmc, duration, eps, np.eye(n), np.diag_indices(n))
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
    column and holds the target at 1 (power_sum), as a reach matrix does
    for each of its columns; it steps no power beyond P^1 on the chain.
    The weights are clipped to [0, 1], which a sum
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
    reach = power_sum(ctmc, horizon, eps, indicator, target_mask)
    # A weight near 1 can round above it, as a reach matrix entry can.
    reach = np.clip(reach[0], 0.0, 1.0)
    reach[target_mask] = 1.0
    return reach
