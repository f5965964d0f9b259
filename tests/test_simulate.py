import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreach.ctmc import transient
from condreach.evidence import PreciseEvidence, parse_formula, sample_instance
from condreach.simulate import sample_envelope
from condreach.unfolding import conditional_weight, evidence_likelihood
from oracles import (
    empirical_likelihood,
    rejection_conditional_weight,
    simulate_states_at,
)


def test_simulated_marginals_match_transient(invent):
    rng = np.random.default_rng(11)
    n = 200_000
    t = 0.8
    states = simulate_states_at(invent, [t], n, rng)[:, 0]
    freq = np.bincount(states, minlength=3) / n
    want = transient(invent, invent.initial, t)
    # 4-sigma binomial tolerance per state.
    tol = 4.0 * np.sqrt(want * (1 - want) / n)
    np.testing.assert_array_less(np.abs(freq - want), tol + 1e-12)


def test_simulate_multiple_checkpoints_sorted(invent):
    rng = np.random.default_rng(2)
    out = simulate_states_at(invent, [0.2, 0.9, 1.7], 500, rng)
    assert out.shape == (500, 3)
    assert out.min() >= 0 and out.max() <= 2
    with pytest.raises(ValueError):
        simulate_states_at(invent, [1.0, 0.5], 10, rng)


def test_checkpoint_zero_is_initial(invent):
    out = simulate_states_at(invent, [0.0], 100, np.random.default_rng(0))
    assert np.all(out[:, 0] == invent.initial)


def test_absorbing_state_terminates(two_state):
    out = simulate_states_at(two_state, [50.0], 200, np.random.default_rng(1))
    assert np.all(out[:, 0] == 1)  # everyone has decayed to b


def _reference_states_at(ctmc, checkpoints, n, rng):
    """simulate_states_at recording one checkpoint per inner round."""
    checkpoints = np.asarray(checkpoints, dtype=float)
    m = checkpoints.size
    out = np.empty((n, m), dtype=np.int64)
    state = np.full(n, ctmc.initial, dtype=np.int64)
    now = np.zeros(n)
    ptr = np.zeros(n, dtype=np.int64)
    jump_cdf = np.cumsum(ctmc.jump_probs, axis=1)
    alive = np.arange(n)
    while alive.size:
        r = ctmc.exit_rates[state[alive]]
        dt = np.full(alive.size, np.inf)
        moving = r > 0
        dt[moving] = rng.exponential(1.0 / r[moving])
        nxt = now[alive] + dt
        while True:
            rec = ptr[alive] < m
            rec[rec] = checkpoints[ptr[alive][rec]] < nxt[rec]
            if not rec.any():
                break
            idx = alive[rec]
            out[idx, ptr[idx]] = state[idx]
            ptr[idx] += 1
        jumping = ptr[alive] < m
        idx = alive[jumping]
        if idx.size:
            u = rng.random(idx.size)
            state[idx] = (u[:, None] < jump_cdf[state[idx]]).argmax(axis=1)
            now[idx] = nxt[jumping]
        alive = idx
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n_states=st.integers(1, 6),
       m=st.integers(0, 8), absorbing=st.booleans())
def test_recording_matches_per_checkpoint_loop(random_chain, two_state, seed,
                                               n_states, m, absorbing):
    # Same random draws, same states, at sorted checkpoints with repeats
    # and time 0, on random chains and on one with an absorbing state.
    rng = np.random.default_rng(seed)
    chain = two_state if absorbing else random_chain(rng, n_states)
    if rng.random() < 0.5:
        times = rng.choice([0.0, 0.3, 1.0, 2.5], m)
    else:
        times = rng.uniform(0.0, 3.0, m)
    checkpoints = np.sort(times)
    got = simulate_states_at(chain, checkpoints, 300,
                             np.random.default_rng(seed))
    want = _reference_states_at(chain, checkpoints, 300,
                                np.random.default_rng(seed))
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, want)


def test_rejection_matches_exact(invent, invent_weights):
    rho = PreciseEvidence(
        (
            (0.5, parse_formula("empty")),
            (1.5, parse_formula("nonempty")),
        )
    )
    est = rejection_conditional_weight(
        invent, rho, invent_weights, 300_000, np.random.default_rng(17)
    )
    exact = conditional_weight(invent, rho, invent_weights)
    assert est.n_accepted > 1000
    assert est.sigma > 0
    assert abs(est.value - exact) <= 4.0 * est.sigma


def test_rejection_zero_acceptance(invent, invent_weights):
    rho = PreciseEvidence(((0.0, parse_formula("empty")),))
    est = rejection_conditional_weight(
        invent, rho, invent_weights, 1000, np.random.default_rng(3)
    )
    assert est.n_accepted == 0 and est.value == 0.0


def test_empirical_likelihood(invent):
    rho = PreciseEvidence(
        ((0.5, parse_formula("nonempty")), (1.5, parse_formula("empty")))
    )
    rate, sigma = empirical_likelihood(
        invent, rho, 200_000, np.random.default_rng(23)
    )
    exact = evidence_likelihood(invent, rho)
    assert abs(rate - exact) <= 4.0 * sigma


def test_envelope(invent, invent1, invent_weights):
    env = sample_envelope(invent, invent1, invent_weights, 50, seed=4)
    assert len(env.samples) == 50
    assert 0.0 <= env.min <= env.max <= invent_weights.max()
    lines = env.to_csv().strip().splitlines()
    assert lines[0] == "sample_idx,t_1,t_2,t_3,t_4,value"
    assert len(lines) == 51
    # Deterministic under a fixed seed.
    again = sample_envelope(invent, invent1, invent_weights, 50, seed=4)
    assert again.samples == env.samples


def test_envelope_instances_are_valid(invent, invent1, invent_weights):
    env = sample_envelope(invent, invent1, invent_weights, 10, seed=9)
    for rho, value in env.samples:
        assert value == pytest.approx(
            conditional_weight(invent, rho, invent_weights), abs=1e-12
        )
