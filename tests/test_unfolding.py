import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import condreach.ctmc as ctmc_module
import condreach.unfolding as unfolding
from condreach.ctmc import UniformizationError, from_rates
from condreach.evidence import (
    PreciseEvidence,
    parse_evidence,
    parse_formula,
    sample_instance,
)
from condreach.fixtures import fixture_text
from condreach.unfolding import (
    ZeroLikelihoodError,
    bayes_quotient_weight,
    conditional_weight,
    evidence_likelihood,
)

TRUE = parse_formula("true")


def _rho(*pairs):
    return PreciseEvidence(tuple((t, parse_formula(f)) for t, f in pairs))


def test_unfold_shapes(invent, kernel_oracle):
    rho = _rho((1.0, "nonempty"), (2.0, "empty"))
    chain = kernel_oracle.unfold(invent, rho)
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
    rho, w = _rho((1.0, "true")), np.array([1.0, -1.0, 0.0])
    for fn in (conditional_weight, bayes_quotient_weight):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(invent, rho, w)


def _calls(ctmc, rho, w):
    """The three entry points on one instance, as calls without arguments."""
    return (lambda: conditional_weight(ctmc, rho, w),
            lambda: bayes_quotient_weight(ctmc, rho, w),
            lambda: evidence_likelihood(ctmc, rho))


def _outcomes(calls):
    """Each call's value; a zero-likelihood refusal stands for its type."""
    out = []
    for call in calls:
        try:
            out.append(call())
        except ZeroLikelihoodError:
            out.append(ZeroLikelihoodError)
    return out


def _entry_points(ctmc, rho, w):
    return _outcomes(_calls(ctmc, rho, w))


def _oracle_points(oracle, ctmc, rho, w):
    chain = oracle.unfold(ctmc, rho)
    return _outcomes((lambda: oracle.conditional_weight(chain, w),
                      lambda: oracle.bayes_quotient_weight(chain, w),
                      lambda: oracle.evidence_likelihood(chain)))


def _assert_match(got, want, rel):
    # Below the smallest normal float, values keep no relative precision.
    tiny = np.finfo(float).tiny
    for g, v in zip(got, want):
        if v is ZeroLikelihoodError:
            assert g is ZeroLikelihoodError
        else:
            assert g == pytest.approx(v, rel=rel, abs=tiny)


@pytest.mark.parametrize("model, evidence", [
    ("invent", "invent1"), ("invent", "invent2"), ("invent", "invent3"),
    ("invent", "invent4"), ("tandem", "tandem1"), ("tandem", "tandem2"),
])
def test_vector_route_matches_kernel_oracle(request, kernel_oracle, model,
                                            evidence):
    # The power series carried on vectors agrees with the full kernels
    # on sampled instances of every bundled evidence, entry point by
    # entry point.
    ctmc = request.getfixturevalue(model)
    w = request.getfixturevalue(f"{model}_weights")
    omega = parse_evidence(fixture_text(f"{evidence}.evidence"))
    rng = np.random.default_rng(15)
    for _ in range(50):
        rho = sample_instance(omega, rng)
        _assert_match(_entry_points(ctmc, rho, w),
                      _oracle_points(kernel_oracle, ctmc, rho, w), rel=1e-12)


_FORMULAS = ["a", "!a", "b", "!b", "a & !b", "!a & b", "a & b", "true"]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5, unique=True),
    formulas=st.lists(st.sampled_from(_FORMULAS), min_size=5, max_size=5),
)
def test_vector_route_matches_kernel_oracle_random(
    random_chain, kernel_oracle, seed, n, times, formulas
):
    rng = np.random.default_rng(seed)
    ctmc = random_chain(rng, n, aps=("a", "b"))
    w = rng.uniform(0.0, 1.0, n)
    rho = PreciseEvidence(tuple(
        (t, parse_formula(f)) for t, f in zip(sorted(times), formulas)
    ))
    assume(all(obs.aps <= ctmc.alphabet for obs in rho.formulas))
    got = _entry_points(ctmc, rho, w)
    want = _oracle_points(kernel_oracle, ctmc, rho, w)
    _assert_match(got[2:], want[2:], rel=1e-12)
    # Near the zero threshold the two routes may fall on either side of
    # it; the refusal on exact zeros has tests of its own.
    if want[2] > 2 * unfolding.ZERO_LIKELIHOOD:
        _assert_match(got, want, rel=1e-12)
        assert got[0] == pytest.approx(got[1], rel=1e-10, abs=0.0)


def test_zero_gap_observation_changes_nothing(invent, invent_weights,
                                             kernel_oracle):
    # invent1's first window is 0..0: an observation at time 0 that the
    # initial state satisfies adds a zero gap and leaves every value as
    # it is, bit for bit.
    later = ((1.0, "nonempty"), (2.0, "empty"), (3.0, "nonempty"))
    rho = _rho((0.0, "nonempty"), *later)
    assert _entry_points(invent, rho, invent_weights) == _entry_points(
        invent, _rho(*later), invent_weights
    )
    _assert_match(_entry_points(invent, rho, invent_weights),
                  _oracle_points(kernel_oracle, invent, rho, invent_weights),
                  rel=1e-12)


def test_all_absorbing_chain(kernel_oracle):
    # No state moves (uniformization rate 0): the chain stays in its
    # initial state, so the evidence either always or never holds.
    chain = from_rates(["a", "b"], "a", {}, {"a": ["up"], "b": ["down"]})
    w = np.array([0.25, 0.75])
    held = _rho((0.5, "up"), (2.0, "up & !down"))
    assert _entry_points(chain, held, w) == [0.25, 0.25, 1.0]
    assert _oracle_points(kernel_oracle, chain, held, w) == [0.25, 0.25, 1.0]
    never = _rho((0.5, "up"), (2.0, "down"))
    assert _entry_points(chain, never, w) == [
        ZeroLikelihoodError, ZeroLikelihoodError, 0.0
    ]


def test_zero_likelihood_after_a_positive_gap(two_state, kernel_oracle):
    # Once in the absorbing state b, the chain never shows `up` again.
    w = np.array([0.25, 0.75])
    rho = _rho((0.4, "down"), (1.0, "up"))
    got = _entry_points(two_state, rho, w)
    assert got == [ZeroLikelihoodError, ZeroLikelihoodError, 0.0]
    assert _oracle_points(kernel_oracle, two_state, rho, w) == got


def test_stiff_gap_refused_before_the_poisson_table(monkeypatch):
    chain = from_rates(["a", "b"], "a", {("a", "b"): 1e9, ("b", "a"): 1e9},
                       {"a": ["up"], "b": ["down"]})
    rho = _rho((1e-12, "true"), (100.0, "true"))

    def never(*args):
        raise AssertionError("Poisson table built for a refused mean")

    monkeypatch.setattr(ctmc_module, "_poisson_table", never)
    for call in _calls(chain, rho, np.ones(2)):
        with pytest.raises(UniformizationError):
            call()


@pytest.mark.parametrize("times", [
    (1.0, 0.5), (math.nan,), (math.inf,), (-1.0,),
])
def test_bad_gap_refused(invent, invent_weights, times):
    # Evidence objects refuse such times themselves; the oracle refuses
    # them again at the uniformization, for any object that gets past.
    rho = SimpleNamespace(
        times=times, formulas=(TRUE,) * len(times), bind_check=lambda a: None
    )
    for call in _calls(invent, rho, invent_weights):
        with pytest.raises(ValueError, match="times"):
            call()


def test_oracle_forms_no_kernel(monkeypatch, invent, invent1, invent_weights,
                                tandem, tandem1, tandem_weights):
    # The three entry points never build an n x n kernel.
    def never(*args, **kwargs):
        raise AssertionError("transient kernel formed")

    monkeypatch.setattr(ctmc_module, "transient_matrix", never)
    monkeypatch.setattr(unfolding, "transient_matrix", never)
    monkeypatch.setattr(ctmc_module, "_uniformized_sum", never)
    for ctmc, omega, w in ((invent, invent1, invent_weights),
                           (tandem, tandem1, tandem_weights)):
        rho = sample_instance(omega, np.random.default_rng(3))
        values = _entry_points(ctmc, rho, w)
        assert all(0.0 < v <= 1.0 for v in values)
