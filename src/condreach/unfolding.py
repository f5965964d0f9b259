"""Exact conditional analysis for precisely timed evidence.

The chain is unfolded into layers at times 0, t_1, ..., t_d; the last
observation layer carries the weights.  Conditioning redirects every
layer-i node whose state violates the i-th observation back to the
initial node with probability 1; the alternative used for likelihood
computation absorbs those nodes instead, so the mass left on the last
layer is exactly the probability of generating the evidence.

No transient kernel is formed.  Each gap between layers moves a vector
or an (n, 2) block through the gap's Poisson-weighted power series of the
uniformized jump matrix, at O(n^2) per step, and one Poisson table serves
all of the evidence's gaps (Fox & Glynn, CACM 1988).
"""

from __future__ import annotations

import numpy as np

from .ctmc import DEFAULT_TRANSIENT_TOL, uniformize

# transient_matrix is not called here.  It stays a module attribute,
# because bench/run.py's tracer wraps unfolding.transient_matrix.
from .ctmc import transient_matrix  # noqa: F401


class ZeroLikelihoodError(ArithmeticError):
    """The evidence has (near-)zero likelihood: conditioning is undefined."""


# A likelihood, or a reset loop's escape mass 1 - beta, at or below this
# is treated as zero.
ZERO_LIKELIHOOD = 1e-12


_UNDEFINED = (
    "evidence has zero likelihood; the conditional weight is undefined"
)

# One power-series step on a block of columns, P @ X (for K @ block), and
# on a row vector, x @ P (for x @ K).  ndarray.dot has less call overhead
# than @ on small arrays.
_backward_step = np.ndarray.dot


def _forward_step(P, x):
    return x.dot(P)


def _layers(ctmc, rho, eps):
    """The reset masks of the layers 0, t_1, ..., t_d (layer 0's is
    all-False) and the uniformization of the d gaps between them."""
    rho.bind_check(ctmc.alphabet)
    gaps = np.diff((0.0, *rho.times))
    return ctmc.reset_masks(rho.formulas), uniformize(ctmc, gaps, eps)


def _weights(w):
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w


def conditional_weight(ctmc, rho, w, eps=DEFAULT_TRANSIENT_TOL):
    """Exact conditional expected weight at the last observation time.

    Every node's value is affine in the unknown value v0 of the layer-0
    initial node, alpha + beta * v0, and the reset fixpoint v0 = alpha +
    beta * v0 of the initial node is solved in closed form.  beta is
    carried as its complement 1 - beta, the mass that escapes the reset
    loop, so the denominator is never formed by cancellation.  The
    (alpha, 1 - beta) columns of all states start at (w, 1) on the last
    layer, reset nodes get (0, 0), and each gap's kernel K is applied as
    K @ block without forming K.  Evidence of (near-)zero likelihood,
    with an escape mass at or below ZERO_LIKELIHOOD, raises
    ZeroLikelihoodError.
    """
    w = _weights(w)
    masks, gaps = _layers(ctmc, rho, eps)
    block = np.ones((len(w), 2))
    block[:, 0] = w
    for i in range(len(masks) - 1, -1, -1):
        block[masks[i]] = 0.0
        if i:
            block = gaps.power_sum(block, _backward_step, i - 1)
    alpha, escape = block[ctmc.initial]
    if escape <= ZERO_LIKELIHOOD:
        raise ZeroLikelihoodError(_UNDEFINED)
    return float(alpha / escape)


def _forward(ctmc, rho, eps):
    """Forward distribution with reset nodes absorbed (dropped).

    Returns the sub-probability vector over last-layer states; its total
    is the probability of never hitting a reset node.
    """
    masks, gaps = _layers(ctmc, rho, eps)
    dist = np.zeros(ctmc.n_states)
    dist[ctmc.initial] = 1.0
    for i in range(len(masks) - 1):
        dist = gaps.power_sum(dist, _forward_step, i)
        dist[masks[i + 1]] = 0.0
    return dist


def evidence_likelihood(ctmc, rho, eps=DEFAULT_TRANSIENT_TOL):
    """Probability that the chain produces the observed label sequence."""
    return float(_forward(ctmc, rho, eps).sum())


def bayes_quotient_weight(ctmc, rho, w, eps=DEFAULT_TRANSIENT_TOL):
    """Conditional weight via the quotient of two unconditional masses.

    Computes E[w at t_d; evidence holds] / P(evidence holds) on the
    absorb-on-violation chain.  Independent of the reset-fixpoint route
    in :func:`conditional_weight`; the two must agree, and both raise
    ZeroLikelihoodError on (near-)zero likelihood.
    """
    w = _weights(w)
    dist = _forward(ctmc, rho, eps)
    likelihood = dist.sum()
    if likelihood <= ZERO_LIKELIHOOD:
        raise ZeroLikelihoodError(_UNDEFINED)
    return float(dist @ w / likelihood)
