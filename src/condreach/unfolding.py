"""Exact conditional analysis for precisely timed evidence.

The chain is unfolded into layers at times 0, t_1, ..., t_d and a final
copy layer.  Conditioning redirects every layer-i node whose state
violates the i-th observation back to the initial node with probability
1; the alternative used for likelihood computation absorbs those nodes
instead, so the mass reaching the final layer is exactly the probability
of generating the evidence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ctmc import DEFAULT_TRANSIENT_TOL, transient_matrix


class ZeroLikelihoodWarning(UserWarning):
    """The evidence has zero likelihood, so conditioning on it is undefined."""


@dataclass(frozen=True)
class LayeredChain:
    """Discrete-time chain unfolded along the evidence times.

    Attributes
    ----------
    times : tuple of float
        Layer time stamps: 0, t_1, ..., t_d, then the final copy layer
        (stamped with t_d again; it only duplicates the last layer).
    kernels : tuple of ndarray
        kernels[i] maps layer i to layer i+1; the last kernel is the
        identity copy step.
    reset_masks : tuple of ndarray
        Boolean per-layer masks of evidence-violating nodes.  Layers 0
        and the final layer are all-False.
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
    """Layered chain over 0, t_1, ..., t_d plus the final copy layer."""
    rho.bind_check(ctmc.alphabet)
    n = ctmc.n_states
    times = (0.0, *rho.times, rho.times[-1])
    kernels = []
    prev = 0.0
    for t in rho.times:
        kernels.append(transient_matrix(ctmc, t - prev, eps))
        prev = t
    kernels.append(np.eye(n))
    masks = ctmc.reset_masks(rho.formulas)
    return LayeredChain(times, tuple(kernels), masks, ctmc.initial)


def _backward_affine(chain, w):
    """Backward propagation of values affine in the unknown initial value.

    Each node value is alpha + beta * v0 where v0 is the value of the
    layer-0 initial node.  Reset nodes have (alpha, beta) = (0, 1).
    Returns the (alpha, beta) pair of the initial node.
    """
    alpha = np.asarray(w, dtype=float)
    beta = np.zeros_like(alpha)
    for i in range(chain.n_layers - 2, -1, -1):
        K = chain.kernels[i]
        alpha, beta = K @ alpha, K @ beta
        reset = chain.reset_masks[i]
        alpha[reset] = 0.0
        beta[reset] = 1.0
    return alpha[chain.initial], beta[chain.initial]


def conditional_weight(ctmc, rho, w, eps=DEFAULT_TRANSIENT_TOL):
    """Exact conditional expected weight at the last observation time.

    Solves the reset fixpoint v0 = alpha + beta * v0 in closed form; the
    geometric reset loop has return mass beta < 1 whenever the evidence
    has positive likelihood.  Zero-likelihood evidence yields beta = 1
    and returns 0 under the 0/0 = 0 convention, with a
    ZeroLikelihoodWarning.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    chain = unfold_precise(ctmc, rho, eps)
    alpha, beta = _backward_affine(chain, w)
    denom = 1.0 - beta
    if denom <= 1e-12:
        warnings.warn(
            "evidence has zero likelihood, returning 0",
            ZeroLikelihoodWarning,
            stacklevel=2,
        )
        return 0.0
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
    in :func:`conditional_weight`; the two must agree.
    """
    w = np.asarray(w, dtype=float)
    chain = unfold_precise(ctmc, rho, eps)
    dist = _masked_forward(chain)
    likelihood = dist.sum()
    if likelihood <= 1e-12:
        warnings.warn(
            "evidence has zero likelihood, returning 0",
            ZeroLikelihoodWarning,
            stacklevel=2,
        )
        return 0.0
    return float(dist @ w / likelihood)
