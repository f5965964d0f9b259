"""The sampled-instance envelope: exact conditional weights of sampled
precise instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import DEFAULT_TRANSIENT_TOL
from .evidence import SemanticError, is_instance, sample_instance
from .unfolding import conditional_weight


@dataclass(frozen=True)
class SampleEnvelope:
    samples: tuple  # (instance, exact conditional weight) pairs

    @property
    def min(self):
        return min(v for _, v in self.samples)

    @property
    def max(self):
        return max(v for _, v in self.samples)

    def to_csv(self):
        d = len(self.samples[0][0])
        header = "sample_idx," + ",".join(f"t_{i + 1}" for i in range(d))
        lines = [header + ",value"]
        for k, (rho, value) in enumerate(self.samples):
            times = ",".join(f"{t:.12g}" for t in rho.times)
            lines.append(f"{k},{times},{value:.12g}")
        return "\n".join(lines) + "\n"


def sample_envelope(ctmc, omega, weights, n, seed=0, eps=DEFAULT_TRANSIENT_TOL):
    """Exact conditional weights of n sampled precise instances.

    Every value is a feasible point of the optimization over instances,
    so the envelope maximum is a lower bound on the true supremum.
    """
    if n < 1:
        raise SemanticError("need at least one sample")
    if seed < 0:
        raise SemanticError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        rho = sample_instance(omega, rng)
        assert is_instance(rho, omega)
        samples.append((rho, conditional_weight(ctmc, rho, weights, eps)))
    return SampleEnvelope(tuple(samples))
