import math
from decimal import Decimal
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
from condreach.solver import WITNESS_MARGIN
from condreach.unfolding import (
    ZeroLikelihoodError,
    bayes_quotient_weight,
    conditional_weight,
    evidence_likelihood,
)
from oracles import decimal_conditional_weight

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


# Exact weights, as float.hex, recorded before the exact route read its
# gaps from one-mean Poisson rows; the batched table gave these bits.
_PINNED_TANDEM1 = ("0x1.04360ac33a629p-8", "0x1.e6623121bae0ap-9",
                   "0x1.f42d6d38f1b71p-9")
_PINNED_INVENT1 = ("0x1.44f3160af5991p-4", "0x1.4e388020a6473p-4",
                   "0x1.3ca7030f89f01p-4")


def test_exact_weight_bits_are_pinned(tandem, tandem1, tandem_weights, invent,
                                      invent1, invent_weights):
    # CI's tandem1 point evidence; tandem1 instances, read from the first
    # gap's initial row and the last gap's kept columns; invent1
    # instances, whose first gap has length 0 and whose middle gap is a
    # series; and a tandem evidence whose first observation is at 0.
    last = "first_full & !second_full"
    points = ((_rho((2.75, "!first_full"), (5.25, last)),
               "0x1.f72c2700d2a05p-9"),
              (_rho((0.0, "!first_full"), (5.25, last)),
               "0x1.83368e6f60847p-9"))
    for rho, want in points:
        assert conditional_weight(tandem, rho, tandem_weights).hex() == want
    for ctmc, omega, w, pinned in (
            (tandem, tandem1, tandem_weights, _PINNED_TANDEM1),
            (invent, invent1, invent_weights, _PINNED_INVENT1)):
        for seed, want in enumerate(pinned):
            rho = sample_instance(omega, np.random.default_rng(seed))
            assert conditional_weight(ctmc, rho, w).hex() == want, seed


def test_forward_route_bits_are_pinned(tandem, tandem_weights):
    # CI's tandem1 point evidence through the forward route, which
    # applies each gap's own coefficients to the distribution, and the
    # transient of its first gap: the bits of the batched table's series
    # that the route used before.
    rho = _rho((2.75, "!first_full"), (5.25, "first_full & !second_full"))
    assert evidence_likelihood(tandem, rho).hex() == "0x1.ef704f0851af9p-5"
    assert (bayes_quotient_weight(tandem, rho, tandem_weights).hex()
            == "0x1.f72c2700d2a0ap-9")
    dist = ctmc_module.transient(tandem, tandem.initial, 2.75)
    assert float(dist[tandem.initial]).hex() == "0x1.ebc41fbf6d48bp-43"


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


@pytest.mark.parametrize("w", [
    [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]], 0.5,
    [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
])
def test_rejects_malformed_weights(invent, w):
    # One finite, nonnegative weight per state, or a ValueError that says
    # so; never a numpy broadcast or indexing error.
    rho = _rho((1.0, "true"))
    for fn in (conditional_weight, bayes_quotient_weight):
        with pytest.raises(ValueError, match="weights must be"):
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
    # The first gap's mean is inside the limit; no route takes a Poisson
    # table or row for it before the second gap's mean is refused.
    chain = from_rates(["a", "b"], "a", {("a", "b"): 1e9, ("b", "a"): 1e9},
                       {"a": ["up"], "b": ["down"]})
    rho = _rho((1e-12, "true"), (100.0, "true"))

    def never(*args):
        raise AssertionError("Poisson weights taken for a refused mean")

    monkeypatch.setattr(ctmc_module, "_poisson_table", never)
    monkeypatch.setattr(ctmc_module, "poisson_row", never)
    monkeypatch.setattr(unfolding, "poisson_coefficients", never)
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
    # The three entry points never build an n x n kernel: every series
    # they evaluate is applied to a start.
    def never(*args, **kwargs):
        raise AssertionError("transient kernel formed")

    series = ctmc_module.polynomial_series

    def applied(powers, coef, start=None, left=False):
        if start is None:
            never()
        return series(powers, coef, start, left)

    monkeypatch.setattr(ctmc_module, "transient_matrix", never)
    monkeypatch.setattr(unfolding, "transient_matrix", never)
    monkeypatch.setattr(ctmc_module, "polynomial_series", applied)
    monkeypatch.setattr(unfolding, "polynomial_series", applied)
    for ctmc, omega, w in ((invent, invent1, invent_weights),
                           (tandem, tandem1, tandem_weights)):
        rho = sample_instance(omega, np.random.default_rng(3))
        values = _entry_points(ctmc, rho, w)
        assert all(0.0 < v <= 1.0 for v in values)


def test_second_weight_adds_no_power(tandem1, tandem_weights):
    # The powers of a chain's jump matrix, their initial rows and the
    # last block's columns are stepped once: a second call on the same
    # chain reads them from the chain's tables.
    chain = ctmc_module.parse_ctmc(fixture_text("tandem.ctmc"))
    rho = sample_instance(tandem1, np.random.default_rng(5))
    first = _entry_points(chain, rho, tandem_weights)
    tables = dict(chain._tables)
    assert set(tables) == {"powers", "rows", "finals"}
    table, rows, cols = tables["powers"], tables["rows"], tables["finals"]
    assert len(table) > 2 and len(rows) > len(table)
    assert len(cols) > len(table)
    assert _entry_points(chain, rho, tandem_weights) == first
    assert chain._tables == tables
    assert all(chain._tables[name] is t for name, t in tables.items())


def test_final_columns_follow_the_last_block(tandem1, tandem_weights):
    # One chain keeps one block's columns.  Alternating two weight
    # vectors and two last formulas, and mutating a weight vector in
    # place between calls, gives call for call the floats of the same
    # calls on fresh chains.  Of a two-observation evidence, the first
    # gap is read from the initial rows and the last from the final
    # columns, so a fresh chain steps no power beyond P^1.
    chain = ctmc_module.parse_ctmc(fixture_text("tandem.ctmc"))
    w = tandem_weights.copy()
    other = tandem_weights[::-1].copy()
    last = (parse_formula("first_full & !second_full"),
            parse_formula("!second_full"))
    rng = np.random.default_rng(21)
    for weights, formula, mutate in (
        (w, 0, False), (w, 0, False), (other, 0, False), (w, 1, False),
        (other, 1, False), (other, 1, False), (w, 0, False), (w, 0, True),
        (w, 1, False),
    ):
        if mutate:
            w *= 0.5
        (t1, obs1), (t2, _) = sample_instance(tandem1, rng).observations
        rho = PreciseEvidence(((t1, obs1), (t2, last[formula])))
        got = conditional_weight(chain, rho, weights)
        fresh = ctmc_module.parse_ctmc(fixture_text("tandem.ctmc"))
        assert got == conditional_weight(fresh, rho, weights.copy())
        assert len(fresh._tables["powers"]) == 2
        assert (chain._tables["finals"][0].tobytes()
                == fresh._tables["finals"][0].tobytes())


def _assert_within_margin(ctmc, rho, w):
    exact = decimal_conditional_weight(ctmc, rho, w)
    got = conditional_weight(ctmc, rho, w)
    assert abs(Decimal(got) - exact) <= Decimal(WITNESS_MARGIN) * exact, (
        got, exact)


def test_conditional_weight_within_witness_margin(invent, invent_weights):
    # A witness timing's float weight, less the margin, must not exceed
    # its exact weight.  On invent1 instances the error reads at most
    # 2.7e-16 relative.
    omega = parse_evidence(fixture_text("invent1.evidence"))
    rng = np.random.default_rng(8)
    for _ in range(8):
        _assert_within_margin(invent, sample_instance(omega, rng),
                              invent_weights)


def test_conditional_weight_within_witness_margin_tandem(tandem, tandem1,
                                                         tandem_weights):
    # The first gap's kernel row is read from the chain's initial rows
    # and the last gap from its final columns; on tandem1 instances the
    # error reads at most 9.0e-15 relative, mostly the Poisson
    # truncation.
    rng = np.random.default_rng(9)
    for _ in range(20):
        _assert_within_margin(tandem, sample_instance(tandem1, rng),
                              tandem_weights)


def test_time_zero_violation_refused_before_a_positive_gap(invent,
                                                           invent_weights):
    # The initial state is nonempty: observing empty at time 0 has zero
    # likelihood also when a later observation moves the chain, and the
    # layers at time 0 are read from the initial state alone.
    rho = _rho((0.0, "empty"), (1.0, "true"), (2.0, "nonempty"))
    assert evidence_likelihood(invent, rho) == 0.0
    for fn in (conditional_weight, bayes_quotient_weight):
        with pytest.raises(ZeroLikelihoodError):
            fn(invent, rho, invent_weights)


def test_all_gaps_zero_give_the_initial_weight(invent, invent_weights):
    # One observation at time 0 that the initial state satisfies: no
    # kernel moves the chain, and the weight is the initial state's.
    rho = _rho((0.0, "nonempty"))
    assert conditional_weight(invent, rho, invent_weights) == (
        invent_weights[invent.initial])
    assert bayes_quotient_weight(invent, rho, invent_weights) == (
        invent_weights[invent.initial])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the Poisson tail, up to 0.1 eps per gap, is put on the last term and "
    "counted by no margin (ROADMAP item 4)"))
@pytest.mark.parametrize("seed, t", [
    # 1.76e-12 relative above the decimal oracle.
    (1723590874, 1.45207231971694),
    # Draws of test_conditional_weight_within_witness_margin_random with
    # three `true` formulas: 1.139e-12 and 1.545e-12 relative below it.
    (24847, 0.96875),
    (14665, 1.0),
])
def test_truncation_exceeds_witness_margin(random_chain, seed, t):
    # A single-gap weight on a two-state chain, built as the random
    # property builds it: the initial row alone, no block series.
    rng = np.random.default_rng(seed)
    ctmc = random_chain(rng, 2)
    _assert_within_margin(ctmc, _rho((t, "true")), rng.uniform(0.0, 1.0, 2))


_FORMULAS = ("true", "a", "!a", "b", "!b", "a & !b")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3,
                   unique=True),
    formulas=st.lists(st.sampled_from(_FORMULAS), min_size=3, max_size=3),
)
def test_conditional_weight_within_witness_margin_random(
    random_chain, seed, n, times, formulas
):
    rng = np.random.default_rng(seed)
    ctmc = random_chain(rng, n)
    rho = PreciseEvidence(tuple(
        (t, parse_formula(f)) for t, f in zip(sorted(times), formulas)
    ))
    assume(all(obs.aps <= ctmc.alphabet for obs in rho.formulas))
    assume(evidence_likelihood(ctmc, rho) >= 1e-3)
    _assert_within_margin(ctmc, rho, rng.uniform(0.0, 1.0, n))
