"""Exact conditional analysis for precisely timed evidence.

The chain is unfolded into layers at times 0, t_1, ..., t_d; the last
observation layer carries the weights.  Conditioning redirects every
layer-i node whose state violates the i-th observation back to the
initial node with probability 1; the alternative used for likelihood
computation absorbs those nodes instead, so the mass left on the last
layer is exactly the probability of generating the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import DEFAULT_TRANSIENT_TOL, transient_matrix


class ZeroLikelihoodError(ArithmeticError):
    """The evidence has (near-)zero likelihood: conditioning is undefined."""


# A likelihood, or a reset loop's escape mass 1 - beta, at or below this
# is treated as zero.
ZERO_LIKELIHOOD = 1e-12


_UNDEFINED = (
    "evidence has zero likelihood; the conditional weight is undefined"
)


@dataclass(frozen=True)
class LayeredChain:
    """Discrete-time chain unfolded along the evidence times.

    Attributes
    ----------
    times : tuple of float
        Layer time stamps: 0, t_1, ..., t_d.
    kernels : tuple of ndarray
        kernels[i] maps layer i to layer i+1.
    reset_masks : tuple of ndarray
        Boolean per-layer masks of evidence-violating nodes.  Layer 0 is
        all-False.
    initial : int
        CTMC initial state index (layer-0 entry node).
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


def unfold_precise(ctmc, rho, eps=DEFAULT_TRANSIENT_TOL):
    """Layered chain over 0, t_1, ..., t_d.

    The kernels of all the gaps between layers come from one batched
    uniformization.
    """
    rho.bind_check(ctmc.alphabet)
    times = (0.0, *rho.times)
    kernels = tuple(transient_matrix(ctmc, np.diff(times), eps))
    masks = ctmc.reset_masks(rho.formulas)
    return LayeredChain(times, kernels, masks, ctmc.initial)


def _backward_affine(chain, w):
    """Backward propagation of values affine in the unknown initial value.

    Each node value is alpha + beta * v0 where v0 is the value of the
    layer-0 initial node.  Last-layer nodes start at (w, 0), and reset
    nodes have (alpha, beta) = (0, 1).  Returns the (alpha, beta) pair of
    the initial node.
    """
    alpha = np.array(w, dtype=float)
    beta = np.zeros_like(alpha)
    for i in range(chain.n_layers - 1, -1, -1):
        reset = chain.reset_masks[i]
        alpha[reset] = 0.0
        beta[reset] = 1.0
        if i:
            K = chain.kernels[i - 1]
            alpha, beta = K @ alpha, K @ beta
    return alpha[chain.initial], beta[chain.initial]


def conditional_weight(ctmc, rho, w, eps=DEFAULT_TRANSIENT_TOL):
    """Exact conditional expected weight at the last observation time.

    Solves the reset fixpoint v0 = alpha + beta * v0 in closed form; the
    geometric reset loop has return mass beta < 1 whenever the evidence
    has positive likelihood.  Evidence of (near-)zero likelihood, with
    beta within ZERO_LIKELIHOOD of 1, raises ZeroLikelihoodError.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    chain = unfold_precise(ctmc, rho, eps)
    alpha, beta = _backward_affine(chain, w)
    denom = 1.0 - beta
    if denom <= ZERO_LIKELIHOOD:
        raise ZeroLikelihoodError(_UNDEFINED)
    return float(alpha / denom)


def _masked_forward(chain):
    """Forward distribution with reset nodes absorbed (dropped).

    Returns the sub-probability vector over last-layer states; its total
    is the probability of never hitting a reset node.
    """
    n = chain.n_states
    dist = np.zeros(n)
    dist[chain.initial] = 1.0
    for i in range(chain.n_layers - 1):
        dist = dist @ chain.kernels[i]
        dist[chain.reset_masks[i + 1]] = 0.0
    return dist


def evidence_likelihood(ctmc, rho, eps=DEFAULT_TRANSIENT_TOL):
    """Probability that the chain produces the observed label sequence."""
    chain = unfold_precise(ctmc, rho, eps)
    return float(_masked_forward(chain).sum())


def bayes_quotient_weight(ctmc, rho, w, eps=DEFAULT_TRANSIENT_TOL):
    """Conditional weight via the quotient of two unconditional masses.

    Computes E[w at t_d; evidence holds] / P(evidence holds) on the
    absorb-on-violation chain.  Independent of the reset-fixpoint route
    in :func:`conditional_weight`; the two must agree, and both raise
    ZeroLikelihoodError on (near-)zero likelihood.
    """
    w = np.asarray(w, dtype=float)
    chain = unfold_precise(ctmc, rho, eps)
    dist = _masked_forward(chain)
    likelihood = dist.sum()
    if likelihood <= ZERO_LIKELIHOOD:
        raise ZeroLikelihoodError(_UNDEFINED)
    return float(dist @ w / likelihood)
