import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from condreach.ctmc import (
    from_rates,
    parse_ctmc,
    transient_matrix,
    weight_from_property,
)
from condreach.evidence import parse_evidence, parse_formula
from condreach.fixtures import fixture_text
from condreach.unfolding import ZERO_LIKELIHOOD, ZeroLikelihoodError


@pytest.fixture(scope="session")
def invent():
    return parse_ctmc(fixture_text("invent.ctmc"))


@pytest.fixture(scope="session")
def invent_weights(invent):
    # P(empty inventory within time 0.1), the benchmark weight function.
    target = invent.satisfying(parse_formula("empty"))
    return weight_from_property(invent, target, 0.1)


@pytest.fixture(scope="session")
def invent1():
    return parse_evidence(fixture_text("invent1.evidence"))


@pytest.fixture(scope="session")
def invent2():
    return parse_evidence(fixture_text("invent2.evidence"))


@pytest.fixture(scope="session")
def holds():
    """Whether a formula holds on one state's label set: the per-state
    loop that Ctmc.satisfying's column form must reproduce."""

    def check(formula, label_set):
        return all((ap in label_set) == pol for ap, pol in formula.literals)

    return check


@pytest.fixture(scope="session")
def two_state():
    # a -> b at rate 1.5, b absorbing; closed-form transients.
    return from_rates(
        ["a", "b"], "a", {("a", "b"): 1.5}, {"a": ["up"], "b": ["down"]}
    )


@pytest.fixture(scope="session")
def random_chain():
    """Factory for random irreducible-ish labeled chains."""

    def make(rng, n, max_rate=10.0, aps=("a", "b")):
        names = [f"s{i}" for i in range(n)]
        rates = {}
        for i in range(n):
            # Ring edge keeps every state non-absorbing and connected.
            rates[(names[i], names[(i + 1) % n])] = rng.uniform(1e-3, max_rate)
            for j in range(n):
                if j != i and rng.random() < 0.4:
                    rates[(names[i], names[j])] = rng.uniform(1e-3, max_rate)
        labels = {
            name: [ap for ap in aps if rng.random() < 0.5] for name in names
        }
        return from_rates(names, names[0], rates, labels)

    return make


@pytest.fixture(scope="session")
def tandem():
    return parse_ctmc(fixture_text("tandem.ctmc"))


@pytest.fixture(scope="session")
def tandem1():
    return parse_evidence(fixture_text("tandem1.evidence"))


@pytest.fixture(scope="session")
def tandem2():
    return parse_evidence(fixture_text("tandem2.evidence"))


@pytest.fixture(scope="session")
def tandem_weights(tandem):
    target = tandem.satisfying(parse_formula("second_full"))
    return weight_from_property(tandem, target, 0.5)


@pytest.fixture(scope="session")
def tandem_phase2_weights(tandem):
    # The weight `phase2@0.5`: second_full makes tandem2's answer exactly 1.
    target = tandem.satisfying(parse_formula("phase2"))
    return weight_from_property(tandem, target, 0.5)


def _poisson_weights(mean, eps):
    """Poisson pmf values 0..K of one mean, dropping at most 0.1 * eps.

    The one-mean form of the package's batched table, as an oracle.  The
    pmf is evaluated at the mode through lgamma, extended outward by the
    ratio p(k + 1) / p(k) = mean / (k + 1) and normalized (Fox & Glynn,
    CACM 1988).  K is one past the smallest k whose tail mass beyond k is
    at most 0.1 * eps; the tail is summed from the right.
    """
    if not 0 < eps < math.inf:
        raise ValueError("truncation tolerance must be positive and finite")
    if not 0 <= mean < math.inf:
        raise ValueError("Poisson mean must be finite and nonnegative")
    if mean <= 0.0:
        return np.array([1.0])
    mode = int(mean)
    p_mode = math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1))
    left = p_mode * np.cumprod(np.arange(mode, 0, -1) / mean)[::-1]
    # Extend the right side until the mass beyond its last term, bounded by
    # a geometric series of ratio r = mean / (k + 1), is far below 0.1 * eps.
    span = 16 + int(10.0 * math.sqrt(mean))
    while True:
        right = p_mode * np.cumprod(mean / np.arange(mode + 1, mode + span))
        r = mean / (mode + span)
        rest = right[-1] * r / (1.0 - r)
        if right[-1] + rest <= 1e-6 * eps:
            break
        span *= 2
    pmf = np.concatenate((left, [p_mode], right))
    pmf /= pmf.sum() + rest
    tail = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0) + rest
    cut = int(np.argmax(tail <= 0.1 * eps))
    return pmf[: cut + 2]


@pytest.fixture(scope="session")
def poisson_oracle():
    """The one-mean Poisson weights (_poisson_weights) as a function."""
    return _poisson_weights


@pytest.fixture(scope="session")
def per_time_uniformization():
    """The uniformization sum of one time at a time, as an oracle.

    Steps its own power sequence for each time and adds the weights in
    order, with the truncated tail on the last power; kind "transient"
    gives the kernel, "reach" the all-pairs reach matrix.  Given a start,
    it steps that in place of the identity: "transient" as start @ P^k
    (a row vector or block), "column" as P^k @ start.  The package's
    reach matrices, which step the same sequence, must reproduce it bit
    for bit.  Its kernels and series, which the package evaluates as
    polynomials, must agree with it within the a-priori rounding bound of
    sums of nonnegative terms (test_ctmc._kernel_tolerance).
    """
    from condreach.ctmc import _RATE_INFLATION

    def steps(kind):
        if kind == "transient":
            return lambda P, X: X @ P
        if kind == "column":
            return lambda P, X: P @ X

        def absorbing(P, X):
            X = P @ X
            np.fill_diagonal(X, 1.0)
            return X

        return absorbing

    def run(ctmc, t, eps=1e-10, kind="transient", start=None):
        step = steps(kind)
        n = ctmc.n_states
        X = np.eye(n) if start is None else np.array(start, dtype=float)
        lam = float(np.max(ctmc.exit_rates)) * _RATE_INFLATION
        if t == 0.0 or lam == 0.0:
            return X
        P = np.eye(n) + ctmc.generator() / lam
        weights = _poisson_weights(lam * t, eps)
        acc = weights[0] * X
        for w in weights[1:]:
            X = step(P, X)
            acc += w * X
        # The dropped mass is nonnegative; its rounding can read -2**-52.
        acc += max(1.0 - weights.sum(), 0.0) * X
        return np.clip(acc, 0.0, 1.0) if kind == "reach" else acc

    return run


@dataclass(frozen=True)
class LayeredChain:
    """Discrete-time chain unfolded along the evidence times.

    times are the layer time stamps 0, t_1, ..., t_d; kernels[i] maps
    layer i to layer i + 1; reset_masks are the boolean per-layer masks of
    evidence-violating nodes (layer 0's is all-False); initial is the
    chain's initial state, the layer-0 entry node.
    """

    times: tuple
    kernels: tuple
    reset_masks: tuple
    initial: int

    @property
    def n_layers(self):
        return len(self.times)

    @property
    def n_states(self):
        return self.kernels[0].shape[0]


def unfold_precise(ctmc, rho, eps=1e-10):
    """Layered chain over 0, t_1, ..., t_d, with every gap's n x n
    transient kernel from one batched uniformization."""
    rho.bind_check(ctmc.alphabet)
    times = (0.0, *rho.times)
    kernels = tuple(transient_matrix(ctmc, np.diff(times), eps))
    masks = ctmc.reset_masks(rho.formulas)
    return LayeredChain(times, kernels, masks, ctmc.initial)


def _backward_affine(chain, w):
    """Backward propagation of values affine in the unknown initial value.

    Each node value is alpha + beta * v0, where v0 is the value of the
    layer-0 initial node; beta is carried as its complement, the escape
    mass 1 - beta.  Last-layer nodes start at (w, 1), and reset nodes have
    (alpha, 1 - beta) = (0, 0).  Returns the pair of the initial node.
    """
    alpha = np.array(w, dtype=float)
    escape = np.ones_like(alpha)
    for i in range(chain.n_layers - 1, -1, -1):
        reset = chain.reset_masks[i]
        alpha[reset] = 0.0
        escape[reset] = 0.0
        if i:
            K = chain.kernels[i - 1]
            alpha, escape = K @ alpha, K @ escape
    return alpha[chain.initial], escape[chain.initial]


def _masked_forward(chain):
    """Forward distribution with reset nodes absorbed (dropped): the
    sub-probability vector over last-layer states, whose total is the
    probability of never hitting a reset node."""
    dist = np.zeros(chain.n_states)
    dist[chain.initial] = 1.0
    for i in range(chain.n_layers - 1):
        dist = dist @ chain.kernels[i]
        dist[chain.reset_masks[i + 1]] = 0.0
    return dist


def _kernel_conditional_weight(chain, w):
    alpha, escape = _backward_affine(chain, w)
    if escape <= ZERO_LIKELIHOOD:
        raise ZeroLikelihoodError("zero likelihood")
    return float(alpha / escape)


def _kernel_evidence_likelihood(chain):
    return float(_masked_forward(chain).sum())


def _kernel_bayes_quotient_weight(chain, w):
    dist = _masked_forward(chain)
    likelihood = dist.sum()
    if likelihood <= ZERO_LIKELIHOOD:
        raise ZeroLikelihoodError("zero likelihood")
    return float(dist @ w / likelihood)


@pytest.fixture(scope="session")
def kernel_oracle():
    """The unfolding's three entry points through full n x n kernels.

    unfold(ctmc, rho, eps) forms every gap's transient kernel;
    conditional_weight(chain, w), bayes_quotient_weight(chain, w) and
    evidence_likelihood(chain) multiply the unfolded chain's kernels by
    vectors, and raise ZeroLikelihoodError where the package does.  The
    package's vector route must agree with them to rounding.
    """
    return SimpleNamespace(
        unfold=unfold_precise,
        conditional_weight=_kernel_conditional_weight,
        bayes_quotient_weight=_kernel_bayes_quotient_weight,
        evidence_likelihood=_kernel_evidence_likelihood,
    )


@pytest.fixture(scope="session")
def reference_sweep():
    """Backward pass calling greedy_distribution once per interval row.

    The dense reference of the solver's sweep: dense holds each layer's
    full bounds scattered to its cell pairs (as oracles.dense_bounds
    gives them), and every (cell, action, stored state) row gets its own
    greedy.  Returns (values, betas, choices, q-values): values and
    betas of layer i have shape (n_cells_i, n_states), nan at the
    anchor's states other than the initial one, and the choices and
    q-values are on the model's rows, shapes (n_cells_i, len(rows)) and
    (n_cells_i, n_cells_{i+1}, len(rows)).  fixed is a scheduler in the
    solver's format, a tuple of such choices.
    """
    from condreach.solver import greedy_distribution

    def sweep(imdp, dense, weights, v0, outer, inner, fixed=None):
        n_layers, n = imdp.n_layers, imdp.n_states
        values = [None] * n_layers
        betas = [None] * n_layers
        choices = [None] * (n_layers - 1)
        q_vals = [None] * (n_layers - 1)
        values[-1] = np.tile(np.asarray(weights, float),
                             (imdp.n_cells(n_layers - 1), 1))
        betas[-1] = np.zeros_like(values[-1])
        values[-1][:, imdp.reset_masks[-1]] = v0
        betas[-1][:, imdp.reset_masks[-1]] = 1.0
        for i in range(n_layers - 2, -1, -1):
            nc, nc2 = imdp.n_cells(i), imdp.n_cells(i + 1)
            L, U = dense[i]
            rows = imdp.rows[i]
            q_val = np.empty((nc, nc2, len(rows)))
            q_beta = np.empty((nc, nc2, len(rows)))
            for j in range(nc):
                for j2 in range(nc2):
                    vn, bn = values[i + 1][j2], betas[i + 1][j2]
                    for k in range(len(rows)):
                        p = greedy_distribution(
                            L[j, j2, k], U[j, j2, k], vn, inner == "max"
                        )
                        q_val[j, j2, k] = p @ vn
                        q_beta[j, j2, k] = p @ bn
            if fixed is not None:
                choice = fixed[i]
            elif outer == "max":
                choice = q_val.argmax(axis=1)
            else:
                choice = q_val.argmin(axis=1)
            take = choice[:, None, :]
            # States without a stored row that do not reset, the
            # anchor's other than the initial one, keep nan.
            val = np.full((nc, n), np.nan)
            beta = np.full((nc, n), np.nan)
            val[:, rows] = np.take_along_axis(q_val, take, axis=1)[:, 0]
            beta[:, rows] = np.take_along_axis(q_beta, take, axis=1)[:, 0]
            reset = imdp.reset_masks[i]
            val[:, reset] = v0
            beta[:, reset] = 1.0
            values[i], betas[i], choices[i] = val, beta, choice
            q_vals[i] = q_val
        return values, betas, choices, q_vals

    return sweep


@pytest.fixture(scope="session")
def assert_nested():
    """Check that a refined interval MDP nests inside the coarser one.

    Each child cell is mapped to the one parent cell that contains it (the
    broadcast of evidence.refines), and every (cell, next cell) block of
    the child must lie inside the block of the parent cell pair, within
    atol.  The blocks are built whole from cache, which serves both
    models' chain and tolerance.
    """
    from oracles import dense_bounds

    def parent_cells(row, parent_row):
        inside = (parent_row[:, 0] <= row[:, :1]) & (row[:, 1:] <= parent_row[:, 1])
        lost = inside.sum(axis=1) != 1
        assert not lost.any(), f"{row[lost]} not each inside one parent cell"
        return inside.argmax(axis=1)

    def check(child, child_psi, parent, parent_psi, atol, cache):
        # Both models store the rows of the same states, set by the
        # evidence alone.
        for a, b in zip(child.rows, parent.rows):
            np.testing.assert_array_equal(a, b)
        maps = [
            [0],
            *(parent_cells(row, prow)
              for row, prow in zip(child_psi.cells, parent_psi.cells)),
            [0],
        ]
        child_bounds = dense_bounds(child, cache)
        parent_bounds = dense_bounds(parent, cache)
        for i in range(child.n_layers - 1):
            pairs = np.ix_(maps[i], maps[i + 1])
            (cL, cU), (pL, pU) = child_bounds[i], parent_bounds[i]
            assert np.all(
                cL >= pL[pairs] - atol
            ), f"lower bound below the parent's at layer {i}"
            assert np.all(
                cU <= pU[pairs] + atol
            ), f"upper bound above the parent's at layer {i}"

    return check


@pytest.fixture(scope="session")
def case_caches(invent, tandem):
    """The bound cache each of imdp_cases' models is built with, by the
    name of its evidence (the case name up to its first '-')."""
    from condreach.abstraction import TransientBoundCache

    return {"invent1": TransientBoundCache(invent),
            "tandem1": TransientBoundCache(tandem)}


@pytest.fixture(scope="session")
def imdp_cases(invent1, invent_weights, tandem1, tandem_weights,
               case_caches):
    """Interval MDPs of invent1 and tandem1, with their weights.

    Each evidence is abstracted at its coarsest partition and at a refined
    one (every positive-width cell bisected, twice for invent1 and once for
    tandem1), so the solver and reachability kernels see one-cell and
    many-cell layers of a 3-state and a 120-state chain.
    """
    from condreach.abstraction import abstract
    from condreach.driver import apply_splits
    from condreach.evidence import coarsest_partition

    cases = {}
    for name, omega, weights, rounds in (
        ("invent1", invent1, invent_weights, 2),
        ("tandem1", tandem1, tandem_weights, 1),
    ):
        cache = case_caches[name]
        psi = coarsest_partition(omega)
        for level in range(rounds + 1):
            if level:
                psi = apply_splits(psi, psi.splittable())
            cases[f"{name}-refined{level}"] = (
                abstract(cache.ctmc, omega, psi, cache=cache), weights
            )
    return cases


@pytest.fixture(scope="session")
def case_bounds(imdp_cases, case_caches, invent1, tandem1):
    """compute_bounds on the imdp_cases model of a name, with the chain
    and evidence its witness timing is weighed on."""
    from condreach.solver import compute_bounds

    evidence = {"invent1": invent1, "tandem1": tandem1}

    def bounds(name, **kwargs):
        imdp, weights = imdp_cases[name]
        key = name.split("-")[0]
        return compute_bounds(imdp, weights, case_caches[key].ctmc,
                              evidence[key], **kwargs)

    return bounds
