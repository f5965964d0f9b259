import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreach.evidence import PreciseEvidence, parse_formula
from condreach.unfolding import (
    ZeroLikelihoodError,
    bayes_quotient_weight,
    conditional_weight,
    evidence_likelihood,
    unfold_precise,
)

TRUE = parse_formula("true")


def _rho(*pairs):
    return PreciseEvidence(tuple((t, parse_formula(f)) for t, f in pairs))


def test_unfold_shapes(invent):
    rho = _rho((1.0, "nonempty"), (2.0, "empty"))
    chain = unfold_precise(invent, rho)
    assert chain.n_layers == 3  # 0, t1, t2
    assert chain.times == (0.0, 1.0, 2.0)
    assert len(chain.kernels) == 2
    assert not chain.reset_masks[0].any()
    np.testing.assert_array_equal(
        chain.reset_masks[1], np.array([True, False, False])
    )


def test_trivial_evidence_is_unconditional(invent, invent_weights):
    # `true` observations never reset, so the conditional weight equals
    # the plain expected weight of the transient distribution.
    from condreach.ctmc import transient

    rho = _rho((0.7, "true"), (1.3, "true"))
    got = conditional_weight(invent, rho, invent_weights)
    want = transient(invent, invent.initial, 1.3) @ invent_weights
    assert got == pytest.approx(want, abs=1e-12)
    assert evidence_likelihood(invent, rho) == pytest.approx(1.0, abs=1e-10)


def test_single_observation_closed_form(two_state):
    # P(up at t) = exp(-1.5 t); conditioning on "up" pins state a.
    w = np.array([0.25, 0.75])
    rho = _rho((0.4, "up"))
    assert evidence_likelihood(two_state, rho) == pytest.approx(
        math.exp(-0.6), abs=1e-10
    )
    assert conditional_weight(two_state, rho, w) == pytest.approx(0.25, abs=1e-12)


def test_frozen_midpoint_values(invent, invent_weights):
    # Frozen oracle: midpoint instance of the 4-observation benchmark
    # evidence, cross-checked against the quotient route below.
    rho = _rho(
        (0.0, "nonempty"), (1.0, "nonempty"), (2.0, "empty"), (3.0, "nonempty")
    )
    assert conditional_weight(invent, rho, invent_weights) == pytest.approx(
        0.07862016331147531, abs=1e-12
    )
    assert evidence_likelihood(invent, rho) == pytest.approx(
        0.11548486256744492, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    t1=st.floats(0.05, 2.0),
    gap=st.floats(0.05, 2.0),
    f1=st.sampled_from(["empty", "nonempty", "true"]),
    f2=st.sampled_from(["empty", "nonempty", "true"]),
)
def test_fixpoint_agrees_with_bayes_quotient(
    invent, invent_weights, t1, gap, f1, f2
):
    # Two independent routes to the same conditional weight.
    rho = _rho((t1, f1), (t1 + gap, f2))
    a = conditional_weight(invent, rho, invent_weights)
    b = bayes_quotient_weight(invent, rho, invent_weights)
    assert a == pytest.approx(b, abs=1e-11)
    assert 0.0 <= a <= invent_weights.max() + 1e-12


def test_zero_likelihood_raises(invent, invent_weights):
    # The initial state is nonempty, so observing empty at time 0 is
    # impossible; both routes refuse to condition on it.
    rho = _rho((0.0, "empty"))
    assert evidence_likelihood(invent, rho) == 0.0
    with pytest.raises(ZeroLikelihoodError):
        conditional_weight(invent, rho, invent_weights)
    with pytest.raises(ZeroLikelihoodError):
        bayes_quotient_weight(invent, rho, invent_weights)


def test_posterior_sums_to_one(invent):
    # The weight of the indicator of state s is the posterior mass of s.
    rho = _rho((0.5, "nonempty"), (1.5, "empty"))
    post = np.array([conditional_weight(invent, rho, e) for e in np.eye(3)])
    assert post.sum() == pytest.approx(1.0, abs=1e-10)
    assert post[0] == pytest.approx(1.0, abs=1e-10)  # only empty state


def test_rejects_negative_weights(invent):
    with pytest.raises(ValueError):
        conditional_weight(invent, _rho((1.0, "true")), np.array([1.0, -1.0, 0.0]))


def test_batched_unfolding_matches_per_gap(
    monkeypatch, per_time_uniformization, invent, invent1, invent_weights,
    tandem, tandem1, tandem_weights,
):
    # One batched call for all gap kernels gives bit-identical weights and
    # likelihoods to kernels computed gap by gap.
    import condreach.unfolding as unfolding
    from condreach.evidence import sample_instance

    def per_gap(ctmc, rho, eps):
        times = (0.0, *rho.times)
        kernels = tuple(
            per_time_uniformization(ctmc, t - prev, eps)
            for prev, t in zip(times, times[1:])
        )
        masks = ctmc.reset_masks(rho.formulas)
        return unfolding.LayeredChain(times, kernels, masks, ctmc.initial)

    def values(ctmc, rho, w):
        return [
            float(conditional_weight(ctmc, rho, w)).hex(),
            float(bayes_quotient_weight(ctmc, rho, w)).hex(),
            float(evidence_likelihood(ctmc, rho)).hex(),
        ]

    for ctmc, omega, w in (
        (invent, invent1, invent_weights),
        (tandem, tandem1, tandem_weights),
    ):
        rng = np.random.default_rng(5)
        instances = [sample_instance(omega, rng) for _ in range(20)]
        got = [values(ctmc, rho, w) for rho in instances]
        with monkeypatch.context() as m:
            m.setattr(unfolding, "unfold_precise", per_gap)
            want = [values(ctmc, rho, w) for rho in instances]
        assert got == want
