"""Exact conditional analysis for precisely timed evidence.

The chain is unfolded into layers at times 0, t_1, ..., t_d; the last
observation layer carries the weights.  Conditioning redirects every
layer-i node whose state violates the i-th observation back to the
initial node with probability 1; the alternative used for likelihood
computation absorbs those nodes instead, so the mass left on the last
layer is exactly the probability of generating the evidence.

No transient kernel is formed.  Each gap between layers applies its
truncated Poisson series of the uniformized jump matrix (Fox & Glynn,
CACM 1988) to a vector or an (n, 2) block.  Each gap's coefficients are
its own Poisson row, with the dropped tail on its last term
(ctmc.poisson_coefficients).  The forward route applies each gap to the
distribution as a Paterson-Stockmeyer polynomial in about 2 sqrt(cut)
products, on the powers the chain keeps (ctmc.polynomial_series).  An
exact weight reads the chain's kept tables with its coefficients.  Of
the first gap that moves the chain, the reset fixpoint reads only the
initial state's row of the kernel: the gap's row times the initial rows
of P's powers that the chain keeps (Ctmc.initial_rows).  The last gap
applies its kernel to the last layer's block, which is the same for
every timing of one evidence and weight vector: the gap's row times the
columns P^k @ block that the chain keeps for it (Ctmc.final_columns).
Any gap in between is the same polynomial, applied to the block.
"""

from __future__ import annotations

import numpy as np

from .ctmc import (
    DEFAULT_TRANSIENT_TOL,
    poisson_coefficients,
    poisson_means,
    polynomial_series,
)

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


def _layers(ctmc, rho):
    """The reset masks of the layers 0, t_1, ..., t_d (layer 0's is
    all-False) and the lengths of the d gaps between them."""
    rho.bind_check(ctmc.alphabet)
    times = (0.0, *rho.times)
    lengths = [b - a for a, b in zip(times, times[1:])]
    return ctmc.reset_masks(rho.formulas), lengths


def _weights(w, n_states):
    """w as a float vector, checked to hold one finite, nonnegative
    weight per state; ValueError otherwise."""
    w = np.asarray(w, dtype=float)
    if w.shape != (n_states,):
        raise ValueError(f"weights must be a vector of {n_states} entries")
    if not ((0 <= w) & (w < np.inf)).all():
        raise ValueError("weights must be finite and nonnegative")
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
    K @ block without forming K, down to the first gap f whose kernel
    moves the chain (a cut above 1): the last gap from the columns that
    the chain keeps for this block, a middle gap by its series.  Every
    gap before f has length 0 (or lam = 0) and kernel K = I, so the
    chain is in its initial state on the layers up to f, and of K(f)
    only the initial state's row is read: the initial node's (alpha,
    1 - beta) is that row times the block (with no such gap, the
    block's initial row).  Each gap's coefficients are its own Poisson
    row, taken once all gaps have passed the checks of poisson_means.
    Evidence of (near-)zero likelihood, with an initial state that
    violates an observation at time 0 or an escape mass at or below
    ZERO_LIKELIHOOD, raises ZeroLikelihoodError.
    """
    w = _weights(w, ctmc.n_states)
    masks, lengths = _layers(ctmc, rho)
    coefs = [poisson_coefficients(m, eps)
             for m in poisson_means(ctmc, lengths, eps)]
    d = len(coefs)
    f = next((i for i, coef in enumerate(coefs) if len(coef) > 1), d)
    block = np.ones((len(w), 2))
    block[:, 0] = w
    block[masks[d]] = 0.0
    for i in range(d - 1, f, -1):
        coef = coefs[i]
        if i == d - 1:
            cols = ctmc.final_columns(block, len(coef) - 1)
            block = (coef @ cols.reshape(len(coef), -1)).reshape(block.shape)
        else:
            block = polynomial_series(ctmc.jump_powers, coef, block)
        block[masks[i]] = 0.0
    if f < d:
        alpha, escape = coefs[f] @ ctmc.initial_rows(len(coefs[f]) - 1) @ block
    else:
        alpha, escape = block[ctmc.initial]
    if (escape <= ZERO_LIKELIHOOD
            or any(m[ctmc.initial] for m in masks[: f + 1])):
        raise ZeroLikelihoodError(_UNDEFINED)
    return float(alpha / escape)


def _forward(ctmc, rho, eps):
    """Forward distribution with reset nodes absorbed (dropped).

    Returns the sub-probability vector over last-layer states; its total
    is the probability of never hitting a reset node.
    """
    masks, lengths = _layers(ctmc, rho)
    dist = np.zeros(ctmc.n_states)
    dist[ctmc.initial] = 1.0
    for mask, m in zip(masks[1:], poisson_means(ctmc, lengths, eps)):
        dist = polynomial_series(ctmc.jump_powers,
                                 poisson_coefficients(m, eps), dist, left=True)
        dist[mask] = 0.0
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
    w = _weights(w, ctmc.n_states)
    dist = _forward(ctmc, rho, eps)
    likelihood = dist.sum()
    if likelihood <= ZERO_LIKELIHOOD:
        raise ZeroLikelihoodError(_UNDEFINED)
    return float(dist @ w / likelihood)
