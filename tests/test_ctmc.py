import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

import condreach
from condreach.abstraction import _KeyedStack, marched_kernels
from condreach.ctmc import (
    _RATE_INFLATION,
    MARCH_BITS,
    MAX_POISSON_MEAN,
    Ctmc,
    ModelError,
    UniformizationError,
    _poisson_table,
    binary_parent,
    from_rates,
    invariance_vector,
    parse_ctmc,
    poisson_coefficients,
    poisson_row,
    polynomial_series,
    reach_matrix,
    serialize_ctmc,
    set_bits,
    transient,
    transient_matrix,
    uniformize,
    weight_from_property,
)
from condreach.evidence import (
    Formula,
    parse_evidence,
    parse_formula,
    sample_instance,
)
from condreach.fixtures import fixture_path, fixture_text
from condreach.unfolding import conditional_weight
from oracles import absorbing_chain


def test_parse_basic(invent):
    assert invent.n_states == 3
    assert invent.state_names == ("s0", "s1", "s2")
    assert invent.initial == 1
    assert invent.alphabet == {"empty", "nonempty"}
    assert invent.labels[0] == frozenset({"empty"})
    R = invent.rate_matrix()
    assert R[1, 2] == 3.0 and R[1, 0] == 2.0
    assert invent.exit_rates[1] == 5.0


def test_parse_round_trip(invent):
    again = parse_ctmc(serialize_ctmc(invent))
    assert again.state_names == invent.state_names
    assert again.initial == invent.initial
    np.testing.assert_allclose(again.rate_matrix(), invent.rate_matrix())
    assert again.labels == invent.labels


@pytest.mark.parametrize(
    "text",
    [
        "",
        "state s0\ninit s0",  # missing header
        "ctmc\nstate s0\nstate s0\ninit s0",  # duplicate state
        "ctmc\nstate s0\ninit s1",  # unknown init
        "ctmc\nstate s0\nstate s1\ninit s0\nrate s0 s1 0",  # zero rate
        "ctmc\nstate s0\nstate s1\ninit s0\nrate s0 s1 x",  # bad number
        "ctmc\nstate s0\ninit s0\nrate s0 s9 1",  # unknown endpoint
        "ctmc\nstate s0\ninit s0\nfoo s0",  # unknown directive
        "ctmc\nstate s0",  # missing init
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ModelError):
        parse_ctmc(text)


def test_generator_rows_sum_to_zero(invent):
    np.testing.assert_allclose(invent.generator().sum(axis=1), 0.0, atol=1e-12)


def test_absorbing_chain_oracle(invent):
    mask = np.array([True, False, True])
    absorbed = absorbing_chain(invent, mask)
    assert absorbed.jump_probs[0, 0] == absorbed.jump_probs[2, 2] == 1.0
    np.testing.assert_array_equal(absorbed.generator()[mask], 0.0)
    # The rate and the other rows are the chain's.
    assert absorbed.uniformization_rate == invent.uniformization_rate
    np.testing.assert_array_equal(absorbed.generator()[1],
                                  invent.generator()[1])


def test_transient_closed_form(two_state):
    # P(still in a at t) = exp(-1.5 t).
    for t in (0.0, 0.3, 1.0, 2.5):
        dist = transient(two_state, 0, t)
        assert dist[0] == pytest.approx(math.exp(-1.5 * t), abs=1e-10)
        assert dist[1] == pytest.approx(1.0 - math.exp(-1.5 * t), abs=1e-10)


def test_transient_matches_expm(invent):
    Q = invent.generator()
    for t in (0.05, 0.5, 1.0, 3.0):
        np.testing.assert_allclose(
            transient_matrix(invent, t), expm(Q * t), atol=1e-10
        )


def test_transient_zero_time_is_identity(invent):
    np.testing.assert_array_equal(transient_matrix(invent, 0.0), np.eye(3))


def test_transient_rejects_negative(invent):
    with pytest.raises(ValueError):
        transient_matrix(invent, -0.1)
    with pytest.raises(ValueError):
        transient_matrix(invent, np.array([0.5, -0.1]))


# Unit roundoff and the smallest subnormal of float64.
_U = np.finfo(float).eps / 2
_TINY = np.finfo(float).smallest_subnormal


def _gamma(k):
    """gamma_k = k u / (1 - k u): a quantity rounded k times along its
    path lies within relative gamma_k of its exact value."""
    return k * _U / (1 - k * _U)


def _kernel_tolerance(cut, n, applied=False):
    """A-priori bound on |polynomial kernel - sequential oracle| for a
    time of Poisson cut `cut` on n states, as (relative, absolute) parts;
    with `applied`, on |series - sequential oracle| of the polynomial
    applied to a nonnegative start.

    Every term is nonnegative, so a sum of terms each rounded at most k
    times along its path lies within gamma_k of the exact sum, whatever
    the order (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3); an n-term product of entries within gamma_a and gamma_b lies
    within gamma_{a + b + n}.  Counted against the exact polynomial E in
    the same float P and weights:

    - the oracle steps X_k = X_{k-1} @ P, within gamma_{kn}, and adds the
      cut weighted terms and the tail left to right, each one product:
      depth (cut - 1) n + cut + 1;
    - the polynomial, with s = ceil(sqrt(cut)) and b = ceil(cut / s),
      steps P^i within gamma_{in}, rounds a_{cut - 1} = w + tail once,
      forms a block as an s-term product of coefficients and powers,
      depth (s - 1) n + s + 1, and each Horner step adds an n-term
      product with P^s (depth sn) and a block: sn + n + 1 more;
    - applied to a start, each term P^i @ start (start @ P^i) is one
      n-term product more, depth n, where the oracle steps the start
      itself, X_k = P @ X_{k-1} (X_{k-1} @ P), at the same depth kn.

    E is at most the oracle's entry over 1 - gamma of its depth.  An
    operation whose result is subnormal may add up to one subnormal
    spacing of absolute error to an entry; the stochastic matrices carry
    a row's absolute error with their row sums, about 1, so each row
    stays within depth * n spacings, doubled for the rounding of those
    row sums.
    """
    s = math.isqrt(cut - 1) + 1
    b = -(-cut // s)
    seq = (cut - 1) * n + cut + 1
    poly = (s - 1) * n + s + 1 + (b - 1) * (s * n + n + 1) + applied * n
    rel = (_gamma(poly) + _gamma(seq)) / (1 - _gamma(seq))
    return rel, 2 * (poly + seq) * n * _TINY


def _assert_kernels_match_oracle(ctmc, times, oracle, eps):
    """The kernels of a batch are nonnegative, each is bit-identical to
    its call alone and to its entry in a permuted batch and in a
    sub-batch, and each lies within _kernel_tolerance of the sequential
    per-time oracle."""
    times = np.asarray(times, dtype=float)
    n = ctmc.n_states
    K = transient_matrix(ctmc, times, eps)
    assert K.shape == (len(times), n, n)
    assert np.all(K >= 0.0)
    order = np.arange(len(times))
    for part in (np.roll(order[::-1], 1), order[::2], order[1::3]):
        np.testing.assert_array_equal(
            transient_matrix(ctmc, times[part], eps), K[part]
        )
    lam = float(np.max(ctmc.exit_rates)) * _RATE_INFLATION
    for t, k in zip(times, K):
        np.testing.assert_array_equal(transient_matrix(ctmc, t, eps), k,
                                      err_msg=t)
        rel, tiny = _kernel_tolerance(len(poisson_row(lam * t, eps)), n)
        want = oracle(ctmc, t, eps)
        assert np.all(np.abs(k - want) <= rel * want + tiny), t


def _assert_batch_matches_per_time(ctmc, times, oracle, eps=1e-10):
    """Reach matrices equal the per-time oracle bit for bit; kernels pass
    _assert_kernels_match_oracle."""
    times = np.asarray(times, dtype=float)
    R = reach_matrix(ctmc, times, eps)
    assert R.shape == (len(times), ctmc.n_states, ctmc.n_states)
    for t, r in zip(times, R):
        np.testing.assert_array_equal(
            r, oracle(ctmc, t, eps, kind="reach"), err_msg=t
        )
    _assert_kernels_match_oracle(ctmc, times, oracle, eps)


# Times with 0, repeats, and Poisson cuts from 1 term to a few hundred.
_BATCH_TIMES = [0.0, 1.0, 1e-9, 0.25, 1.0, 6.0, 0.0, 0.1, 2.0, 6.0, 3e-4]


@pytest.mark.parametrize("model", ["invent.ctmc", "tandem.ctmc"])
def test_batched_core_matches_per_time_loop(model, per_time_uniformization):
    ctmc = parse_ctmc(fixture_text(model))
    _assert_batch_matches_per_time(ctmc, _BATCH_TIMES, per_time_uniformization)
    # A scalar time gives one matrix, equal to its batch entry.
    np.testing.assert_array_equal(
        transient_matrix(ctmc, 0.25), transient_matrix(ctmc, [0.25])[0]
    )
    for fn in (transient_matrix, reach_matrix):
        assert fn(ctmc, np.empty(0)).shape == (0, ctmc.n_states, ctmc.n_states)


def _times_with_cuts(ctmc, cuts, eps):
    """Times whose Poisson cuts on ctmc are `cuts`: for each cut, the
    middle one of a fine grid of times that have it."""
    lam = float(np.max(ctmc.exit_rates)) * _RATE_INFLATION
    means = np.geomspace(1e-12, 100.0, 20000)
    grid_cuts = _poisson_table(means, eps)[1]
    times = []
    for cut in cuts:
        hit = np.flatnonzero(grid_cuts == cut)
        assert len(hit), cut
        times.append(float(means[hit[len(hit) // 2]] / lam))
    return times


# Cuts whose polynomial has one block (2), a square number of terms (4,
# 9, 16), full last blocks (6 = 3 * 2, 12 = 4 * 3) and a last block of
# one coefficient (3 = 2 + 1, 7 = 3 * 2 + 1, 13 = 4 * 3 + 1).
_EDGE_CUTS = (2, 3, 4, 6, 7, 9, 12, 13, 16)


@pytest.mark.parametrize("model", ["invent.ctmc", "tandem.ctmc"])
def test_kernel_edge_cuts_match_per_time_loop(model, per_time_uniformization):
    ctmc = parse_ctmc(fixture_text(model))
    eps = 1e-10
    lam = float(np.max(ctmc.exit_rates)) * _RATE_INFLATION
    # t = 0 has cut 1 beside the positive times; two times repeat.
    times = [0.0, *_times_with_cuts(ctmc, _EDGE_CUTS, eps)]
    cuts = [len(poisson_row(lam * t, eps)) for t in times]
    assert cuts == [1, *_EDGE_CUTS]
    _assert_kernels_match_oracle(ctmc, times + times[3:5],
                                 per_time_uniformization, eps)


def test_kernels_without_a_step():
    # lam = 0: every kernel is the identity, at any time, in any batch.
    frozen = from_rates(["a", "b", "c"], "a", {}, {})
    K = transient_matrix(frozen, [0.0, 1.0, 5.0, 1e9])
    np.testing.assert_array_equal(K, np.broadcast_to(np.eye(3), (4, 3, 3)))
    assert transient_matrix(frozen, np.empty(0)).shape == (0, 3, 3)
    assert transient_matrix(frozen, np.empty((0, 2))).shape == (0, 2, 3, 3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    times=st.lists(
        st.sampled_from([0.0, 1e-6, 0.05, 0.3, 1.0, 4.0]) | st.floats(0.0, 5.0),
        min_size=1, max_size=6,
    ),
    eps=st.sampled_from([1e-6, 1e-10, 1e-12]),
)
# On one state the blocks are matrix-vector products, whose rows round by
# their count when one product serves all the kernels of a stack.
@example(seed=1, n=1, times=[4.0, 4.734822727045805], eps=1e-06)
def test_batched_core_matches_per_time_loop_random(
    random_chain, per_time_uniformization, seed, n, times, eps
):
    chain = random_chain(np.random.default_rng(seed), n)
    _assert_batch_matches_per_time(chain, times, per_time_uniformization, eps)


def test_binary_parent_drops_the_lowest_set_bit():
    # 2.75 = 10.11b: its parent drops the 0.25 bit.  Zero, powers of two
    # and expansions of more than MARCH_BITS set bits are roots.
    assert binary_parent(2.75) == (2.5, 0.25)
    assert binary_parent(3.0) == (2.0, 1.0)
    assert binary_parent(2 + 255 / 256) == (2 + 254 / 256, 1 / 256)
    for root in (0.0, 1.0, 2.0, 0.5, 2.0**-30, 0.9, 0.1):
        assert binary_parent(root) is None, root
    longest = (2**MARCH_BITS - 1) / 2**10
    assert set_bits(longest) == MARCH_BITS
    assert binary_parent(longest) == (longest - 2.0**-10, 2.0**-10)
    assert binary_parent((2**(MARCH_BITS + 1) - 1) / 2**10) is None
    # The parent of a grid time has one set bit fewer, down to a root.
    t, bits = 2 + 173 / 256, set_bits(2 + 173 / 256)
    while binary_parent(t):
        t, h = binary_parent(t)
        assert set_bits(h) == 1 and set_bits(t) == bits - 1
        bits -= 1
    assert bits == 1


def _marched(ctmc, times, eps):
    """The marched kernels of times (marched_kernels) from a keyed stack
    of their own, with roots from transient_matrix."""
    n = ctmc.n_states
    memo = _KeyedStack((n, n))
    rows = marched_kernels(np.asarray(times, dtype=float), memo,
                           lambda t: transient_matrix(ctmc, t, eps))
    return memo, memo.buffer[rows]


def _assert_marched_within_tolerance(ctmc, times, eps):
    """Each marched kernel lies within _kernel_tolerance of the polynomial
    kernel and of scipy's expm, once the Poisson mass that truncation
    moves is counted: at most 0.1 eps per row, put on the last term, so
    at most 0.2 eps per entry and per polynomial, one per set bit of the
    time and one more for the time's own polynomial."""
    n = ctmc.n_states
    times = np.asarray(times, dtype=float)
    memo, K = _marched(ctmc, times, eps)
    assert np.all(K >= 0.0)
    poly = transient_matrix(ctmc, times, eps)
    Q = ctmc.generator()
    for t, k, p in zip(times, K, poly):
        cut = len(poisson_row(ctmc.uniformization_rate * t, eps))
        rel, tiny = _kernel_tolerance(cut, n)
        roots = max(set_bits(t), 1)
        for want, moved in ((p, roots + 1), (expm(Q * t), roots)):
            assert np.all(np.abs(k - want)
                          <= rel * want + tiny + 0.2 * eps * moved), t
        split = binary_parent(t)
        if split:
            # One product of the parent's kernel and the lowest bit's.
            [a, b] = memo.get(np.array(split))
            np.testing.assert_array_equal(k, memo.buffer[a] @ memo.buffer[b])


def test_marched_kernels_on_the_tandem2_grid(tandem):
    # tandem2 at cap 8 asks for every kernel of 2 + j 2^-8, j < 256; each
    # marched one stays within tolerance of the polynomial and of expm.
    _assert_marched_within_tolerance(tandem, 2 + np.arange(256) / 256, 1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    digits=st.integers(0, 10),
    numerators=st.lists(st.integers(0, 5 * 2**10), min_size=1, max_size=5),
    eps=st.sampled_from([1e-6, 1e-10, 1e-12]),
)
def test_marched_kernels_match_polynomials_random(random_chain, seed, n,
                                                  digits, numerators, eps):
    # Random chains at random binary fractions below 5 of up to 10
    # fractional bits, with whatever set bits they have.
    chain = random_chain(np.random.default_rng(seed), n)
    times = [min(k / 2**digits, 5.0) for k in numerators]
    _assert_marched_within_tolerance(chain, times, eps)


def _assert_series_match_oracle(ctmc, times, oracle, eps, rng):
    """Each time's series of a vector and of a two-column block, from the
    right, and of a vector and a two-row block, from the left, keeps its
    start's shape, is nonnegative and lies within _kernel_tolerance of the
    power loop on the same start."""
    n = ctmc.n_states
    for t in times:
        coef = poisson_coefficients(ctmc.uniformization_rate * t, eps)
        rel, tiny = _kernel_tolerance(len(coef), n, applied=True)
        for start in (rng.uniform(size=n), rng.uniform(size=(n, 2))):
            for left, kind in ((False, "column"), (True, "transient")):
                x = start.T if left else start
                got = polynomial_series(ctmc.jump_powers, coef, x, left)
                want = oracle(ctmc, t, eps, kind, start=x)
                assert got.shape == x.shape
                assert np.all(got >= 0.0)
                assert np.all(np.abs(got - want) <= rel * want + tiny), (
                    t, left, x.shape)


@pytest.mark.parametrize("model", ["invent.ctmc", "tandem.ctmc"])
def test_series_match_power_loop(model, per_time_uniformization):
    # The batch times, whose zeros have cut 1 beside positive times, and
    # the polynomial's edge cuts, on vectors and blocks from both sides.
    ctmc = parse_ctmc(fixture_text(model))
    eps = 1e-10
    times = _BATCH_TIMES + _times_with_cuts(ctmc, _EDGE_CUTS, eps)
    _assert_series_match_oracle(ctmc, times, per_time_uniformization, eps,
                                np.random.default_rng(4))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    times=st.lists(
        st.sampled_from([0.0, 1e-6, 0.05, 0.3, 1.0, 4.0]) | st.floats(0.0, 5.0),
        min_size=1, max_size=4,
    ),
    eps=st.sampled_from([1e-6, 1e-10, 1e-12]),
)
# A tail that rounds to -2**-52, which the oracle must clamp as the
# package does: the last power's entries are far above the start's
# smallest ones.
@example(seed=135302, n=5, times=[0.0, 0.0, 1e-06], eps=1e-10)
def test_series_match_power_loop_random(
    random_chain, per_time_uniformization, seed, n, times, eps
):
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, n)
    _assert_series_match_oracle(chain, times, per_time_uniformization, eps,
                                rng)


@pytest.mark.parametrize("model", ["invent.ctmc", "tandem.ctmc"])
def test_kernel_is_the_series_without_a_start(model):
    # Every kernel, alone or in a stack, is the one evaluator's polynomial
    # of its time's coefficients, bit for bit.
    ctmc = parse_ctmc(fixture_text(model))
    eps = 1e-10
    times = _BATCH_TIMES + _times_with_cuts(ctmc, _EDGE_CUTS, eps)
    stack = transient_matrix(ctmc, times, eps)
    for t, k in zip(times, stack):
        coef = poisson_coefficients(ctmc.uniformization_rate * t, eps)
        want = polynomial_series(ctmc.jump_powers, coef, left=True)
        np.testing.assert_array_equal(transient_matrix(ctmc, t, eps), want,
                                      err_msg=t)
        np.testing.assert_array_equal(k, want, err_msg=t)


def test_kernel_stack_evaluates_a_group_in_chunks():
    # Three times of one (s, b) group at a Poisson mean of 1e4 on tandem
    # hold 1.5e6 block floats each (11.9 MB): a stack evaluated whole held
    # all three at once and read a traced peak of 37.4 MB, three single
    # calls 12.5 MB.  Each kernel of the stack is its single call's.
    chain = parse_ctmc(fixture_text("tandem.ctmc"))
    t = 1e4 / chain.uniformization_rate
    times = [t, t * (1 + 1e-9), t * (1 - 1e-9)]
    _, cuts, _ = uniformize(chain, times, 1e-10)
    s = [math.isqrt(c - 1) + 1 for c in cuts.tolist()]
    assert len({(k, -(-c // k)) for k, c in zip(s, cuts.tolist())}) == 1
    # The singles step the chain's powers, which the trace leaves out.
    singles = [transient_matrix(chain, u) for u in times]
    tracemalloc.start()
    try:
        stack = transient_matrix(chain, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    for k, want in zip(stack, singles):
        np.testing.assert_array_equal(k, want)


def test_series_without_a_step():
    # lam = 0: every series is its start, bit for bit, and no power is
    # stepped.
    frozen = from_rates(["a", "b", "c"], "a", {}, {})
    x = np.array([0.25, 0.5, 1.0])
    for t in (0.0, 1.0, 1e9):
        coef = poisson_coefficients(frozen.uniformization_rate * t, 1e-10)
        np.testing.assert_array_equal(coef, [1.0])
        for start in (x, np.stack((x, 1 - x), axis=1)):
            np.testing.assert_array_equal(
                polynomial_series(frozen.jump_powers, coef, start), start)
            np.testing.assert_array_equal(
                polynomial_series(frozen.jump_powers, coef, start.T, True),
                start.T)
    np.testing.assert_array_equal(frozen._tables["powers"], [np.eye(3)])
    np.testing.assert_array_equal(transient(frozen, 1, 1e9), [0, 1, 0])


def test_kernels_and_power_loop_without_a_step():
    # lam = 0: P^0 alone serves every kernel, reach matrix and weight,
    # and no power is stepped.
    frozen = from_rates(["a", "b", "c"], "a", {}, {})
    times = [0.0, 1.0, 1e9]
    eye = np.broadcast_to(np.eye(3), (3, 3, 3))
    np.testing.assert_array_equal(transient_matrix(frozen, times), eye)
    np.testing.assert_array_equal(reach_matrix(frozen, times), eye)
    np.testing.assert_array_equal(
        weight_from_property(frozen, [False, True, False], 1.0), [0, 1, 0])
    np.testing.assert_array_equal(frozen._tables["powers"], [np.eye(3)])


def test_jump_powers_are_stepped_once_to_the_power_asked():
    chain = parse_ctmc(fixture_text("tandem.ctmc"))
    n = chain.n_states
    P = np.eye(n) + chain.generator() / chain.uniformization_rate
    assert chain._tables == {}
    three = chain.jump_powers(3)
    assert three.shape == (4, n, n) and not three.flags.writeable
    # Each power is the one before it times P, as the kernels stepped them.
    want = [np.eye(n), P]
    want += [want[-1] @ P, (want[-1] @ P) @ P]
    np.testing.assert_array_equal(three, want)
    # A lower power is read from the table; a higher one steps on from
    # it to exactly that power, and keeps the powers already stepped.
    assert chain.jump_powers(2).base is three
    assert chain._tables["powers"] is three
    five = chain.jump_powers(5)
    assert five.shape == (6, n, n) and chain._tables["powers"] is five
    np.testing.assert_array_equal(five[:4], three)
    np.testing.assert_array_equal(five[5], five[4] @ P)
    # The kernels read their powers from the same table.
    K = transient_matrix(chain, 0.05)
    assert chain._tables["powers"] is five
    np.testing.assert_allclose(K, expm(chain.generator() * 0.05), atol=1e-10)


def test_initial_rows_are_the_powers_initial_rows(invent, tandem):
    # The rows are stepped as vector products and the powers as matrix
    # products, so they agree to rounding, not bit for bit: on tandem to
    # 2.0 ulps relative up to P^20 (3.5 up to P^40).
    for model in (invent, tandem):
        chain = parse_ctmc(serialize_ctmc(model))
        rows = chain.initial_rows(20)
        assert rows.shape == (21, chain.n_states) and not rows.flags.writeable
        np.testing.assert_allclose(
            rows, chain.jump_powers(20)[:, chain.initial],
            rtol=4 * np.finfo(float).eps, atol=0.0)
        # A lower row is read from the table; a higher one steps on from
        # it to exactly that row.
        assert chain.initial_rows(7).base is rows
        more = chain.initial_rows(30)
        assert more.shape == (31, chain.n_states)
        assert chain._tables["rows"] is more
        np.testing.assert_array_equal(more[:21], rows)


def test_initial_rows_of_p0_step_no_power():
    frozen = from_rates(["a", "b", "c"], "b", {}, {})
    np.testing.assert_array_equal(frozen.initial_rows(0), [[0.0, 1.0, 0.0]])
    block = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(frozen.final_columns(block, 0), [block])
    assert "powers" not in frozen._tables


def test_every_table_handed_out_is_read_only(invent):
    # A fresh chain's jump_powers(0) and initial_rows(0) used to be
    # writable arrays that the chain did not keep.  Every table, also at
    # top 0 and on a chain that cannot step (lam = 0), is read-only and
    # is the chain's kept table or a slice of it.
    frozen = from_rates(["a", "b", "c"], "b", {}, {})
    for chain, tops in ((parse_ctmc(serialize_ctmc(invent)), (0, 0, 3, 1)),
                        (frozen, (0, 0))):
        block = np.ones((chain.n_states, 2))
        for top in tops:
            for name, table in (
                    ("powers", chain.jump_powers(top)),
                    ("rows", chain.initial_rows(top)),
                    ("finals", chain.final_columns(block, top))):
                assert len(table) == top + 1 and not table.flags.writeable
                kept = chain._tables[name]
                assert table is kept or table.base is kept


def test_final_columns_are_p_stepped_by_hand(invent, tandem):
    rng = np.random.default_rng(6)
    for model in (invent, tandem):
        chain = parse_ctmc(serialize_ctmc(model))
        P = chain.jump_powers(1)[1]
        block = rng.uniform(size=(chain.n_states, 2))
        cols = chain.final_columns(block, 20)
        assert cols.shape == (21, *block.shape) and not cols.flags.writeable
        want = [block]
        for _ in range(30):
            want.append(P @ want[-1])
        np.testing.assert_array_equal(cols, want[:21])
        # A lower top is read from the table; a higher one steps on from
        # it to exactly that column.
        assert chain.final_columns(block, 7).base is cols
        more = chain.final_columns(block, 30)
        assert more.shape == (31, *block.shape)
        assert chain._tables["finals"] is more
        np.testing.assert_array_equal(more, want)
        # The kept block, the table's row 0, is a read-only copy:
        # changing the caller's block restarts the table.
        assert not np.shares_memory(more, block)
        block[0, 0] = np.nextafter(block[0, 0], 2.0)
        np.testing.assert_array_equal(chain.final_columns(block, 3)[1],
                                      P @ block)
        assert chain._tables["finals"] is not more
        assert len(chain._tables["finals"]) == 4
        # -0.0 == 0.0, but the blocks differ in a bit, so it restarts too.
        block[0, 0] = 0.0
        zero = chain.final_columns(block, 3)
        block[0, 0] = -0.0
        signed = chain.final_columns(block, 2)
        assert chain._tables["finals"] is signed and signed is not zero
        assert math.copysign(1.0, signed[0, 0, 0]) == -1.0
        assert chain.final_columns(block, 1).base is signed


@pytest.mark.parametrize("model", ["invent.ctmc", "tandem.ctmc"])
def test_final_block_matches_series(model):
    # A gap's coefficient row read against the kept columns, as an exact
    # weight reads its last gap, and the series of the same row round
    # differently; both lie within _kernel_tolerance of the exact series.
    # The row is the batched kernels' coefficients, bit for bit, and a
    # time of cut 1 reads the block bit for bit without stepping a power.
    ctmc = parse_ctmc(fixture_text(model))
    eps = 1e-10
    times = [0.0, *_BATCH_TIMES, *_times_with_cuts(ctmc, _EDGE_CUTS, eps)]
    W, cuts, tails = uniformize(ctmc, times, eps)
    block = np.random.default_rng(7).uniform(size=(ctmc.n_states, 2))

    def read(coef):
        cols = ctmc.final_columns(block, len(coef) - 1)
        return (coef @ cols.reshape(len(coef), -1)).reshape(block.shape)

    rows = [poisson_coefficients(m, eps)
            for m in ctmc.uniformization_rate * np.array(times)]
    np.testing.assert_array_equal(read(rows[0]), block)
    assert "powers" not in ctmc._tables
    for i, coef in enumerate(rows):
        rel, tiny = _kernel_tolerance(len(coef), ctmc.n_states, applied=True)
        batched = W[i, : cuts[i]].copy()
        batched[-1] += tails[i]
        np.testing.assert_array_equal(coef, batched)
        got = read(coef)
        want = polynomial_series(ctmc.jump_powers, coef, block)
        assert got.shape == block.shape and np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= rel * want + tiny), times[i]


def test_reset_masks_are_kept_per_formula(invent):
    # Each formula's violation mask is built once and kept read-only on
    # the chain; the anchor's all-False mask is that of `true`.
    chain = parse_ctmc(serialize_ctmc(invent))
    empty, nonempty = parse_formula("empty"), parse_formula("!empty")
    masks = chain.reset_masks((empty, nonempty, parse_formula("empty")))
    assert len(masks) == 4 and not masks[0].any()
    for mask, obs in zip(masks[1:], (empty, nonempty, empty)):
        np.testing.assert_array_equal(mask, ~chain.satisfying(obs))
        assert not mask.flags.writeable
    assert masks[3] is masks[1]
    again = chain.reset_masks((nonempty, parse_formula("true")))
    assert all(a is b for a, b in zip(again, (masks[0], masks[2], masks[0])))


def _rebuilt(chain, initial, scale):
    """chain built anew with from_rates, from `initial` and its rates
    times scale."""
    R, names = chain.rate_matrix(), chain.state_names
    rates = {(names[s], names[u]): scale * R[s, u]
             for s, u in zip(*np.nonzero(R))}
    labels = dict(zip(names, chain.labels))
    return from_rates(names, names[initial], rates, labels)


def test_replace_gives_a_chain_its_own_tables(invent):
    # dataclasses.replace used to hand the new chain the old one's
    # tables, and crashed writing its label columns into the old ones.
    chain = parse_ctmc(serialize_ctmc(invent))
    omega = parse_evidence(fixture_text("invent1.evidence"))
    rho = sample_instance(omega, np.random.default_rng(4))
    w = np.array([0.9, 0.4, 0.1])
    before = conditional_weight(chain, rho, w)
    transient_matrix(chain, 1.5)
    tables = (chain._index, chain._columns, chain._tables,
              *chain._tables.values())
    assert set(chain._tables) == {"powers", "rows", "finals"}
    for new, want in (
        (dataclasses.replace(chain, exit_rates=2 * chain.exit_rates),
         _rebuilt(chain, chain.initial, 2.0)),
        (dataclasses.replace(chain, initial=2), _rebuilt(chain, 2, 1.0)),
    ):
        assert new.initial == want.initial
        np.testing.assert_array_equal(new.jump_probs, want.jump_probs)
        np.testing.assert_array_equal(new.exit_rates, want.exit_rates)
        assert new._tables == {} and new._tables is not chain._tables
        assert new._index is not chain._index
        assert new._columns is not chain._columns
        assert new._masks is not chain._masks
        np.testing.assert_array_equal(transient_matrix(new, 1.5),
                                      transient_matrix(want, 1.5))
        assert conditional_weight(new, rho, w) == conditional_weight(
            want, rho, w)
        assert all(new._tables[name] is not chain._tables[name]
                   for name in ("powers", "rows", "finals"))
    now = (chain._index, chain._columns, chain._tables,
           *chain._tables.values())
    assert all(a is b for a, b in zip(now, tables))
    assert conditional_weight(chain, rho, w) == before


def test_replace_derives_its_own_constants(invent):
    # The rate and the alphabet are derived once per chain and kept; a
    # replaced chain with other exit rates and labels reports its own,
    # and its kernels are those of the same chain built anew.
    chain = parse_ctmc(serialize_ctmc(invent))
    lam, alphabet = chain.uniformization_rate, chain.alphabet
    old = transient_matrix(chain, [0.5, 1.5])
    assert chain.uniformization_rate is lam and chain.alphabet is alphabet
    new = dataclasses.replace(chain, exit_rates=2 * chain.exit_rates,
                              labels=(frozenset({"x"}),) * chain.n_states)
    want = _rebuilt(chain, chain.initial, 2.0)
    assert new.uniformization_rate == want.uniformization_rate == (
        float(new.exit_rates.max()) * _RATE_INFLATION)
    assert new.uniformization_rate != lam
    assert new.alphabet == {"x"}
    kernels = transient_matrix(new, [0.5, 1.5])
    np.testing.assert_array_equal(kernels,
                                  transient_matrix(want, [0.5, 1.5]))
    assert not np.array_equal(kernels, old)
    # The chain replaced keeps its own.
    assert chain.uniformization_rate is lam and chain.alphabet is alphabet
    np.testing.assert_array_equal(transient_matrix(chain, [0.5, 1.5]), old)


def test_tiny_time_has_no_negative_tail(random_chain):
    # The Poisson weights of this time round to a sum above 1, which left
    # a dropped mass of -2.2e-16 and a kernel entry of -5.8e-18.
    chain = random_chain(np.random.default_rng(48656), 4)
    t, eps = 1e-6, 1e-10
    W, _, tails = uniformize(chain, t, eps)
    assert tails[0] == 0.0
    coef = poisson_coefficients(chain.uniformization_rate * t, eps)
    np.testing.assert_array_equal(coef, W[0])
    ones = np.ones(4)
    outputs = [
        transient_matrix(chain, t, eps), reach_matrix(chain, t, eps),
        polynomial_series(chain.jump_powers, coef, ones),
        polynomial_series(chain.jump_powers, coef, ones, left=True),
        *(transient(chain, s, t, eps) for s in range(4)),
    ]
    for out in outputs:
        assert np.all(out >= 0.0)


def test_stiff_uniformization_refused():
    chain = from_rates(["a", "b"], "a", {("a", "b"): 1e9, ("b", "a"): 1e9}, {})
    # The core refuses before weighting or allocating anything.
    for fn in (transient_matrix, reach_matrix):
        with pytest.raises(UniformizationError):
            fn(chain, 100.0)
        with pytest.raises(UniformizationError):
            fn(chain, [1e-12, 100.0])
    # A mean inside the limit is accepted; a zero time never uniformizes.
    np.testing.assert_array_equal(transient_matrix(chain, 0.0), np.eye(2))
    slow = from_rates(["a", "b"], "a", {("a", "b"): 1.0, ("b", "a"): 1.0}, {})
    K = transient_matrix(slow, 0.5 * MAX_POISSON_MEAN / (1.0 + 1e-6))
    np.testing.assert_allclose(K, 0.5, atol=1e-9)


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-12])
def test_poisson_weights_match_scipy(eps):
    # The table's rows and the one-mean rows, each against scipy.
    means = np.concatenate((np.geomspace(1e-4, 250.0, 300), [0.5, 1, 7, 250]))
    W, cuts = _poisson_table(means, eps)
    for mean, row, cut in zip(means, W, cuts):
        for w in (row[:cut], poisson_row(mean, eps)):
            # Never fewer terms than the scipy cutoff used before: 0..ppf
            # + 1.
            assert len(w) >= int(poisson.ppf(1.0 - 0.1 * eps, mean)) + 2
            np.testing.assert_allclose(
                w, poisson.pmf(np.arange(len(w)), mean), rtol=0, atol=1e-13
            )
            assert poisson.sf(len(w) - 1, mean) <= 0.1 * eps


# Means at the table's edges: zero, tiny, on and just below an integer
# mode, and large; and any float up to 1e3.
_EDGE_MEANS = st.sampled_from(
    [0.0, 3e-5, 1.0, 6.0, 5.9999, math.nextafter(6.0, 0.0), 250.0, 1e3]
)


@settings(max_examples=60, deadline=None)
@given(
    means=st.lists(_EDGE_MEANS | st.floats(0.0, 1e3), min_size=1, max_size=8),
    eps=st.sampled_from([1e-6, 1e-10, 1e-14]),
)
def test_poisson_table_matches_one_mean_oracle(means, eps):
    # Every row, and its cut, is bit-identical to its mean computed alone.
    W, cuts = _poisson_table(np.array(means), eps)
    assert W.shape == (len(means), max(cuts))
    for mean, row, cut in zip(means, W, cuts):
        w = poisson_row(mean, eps)
        assert cut == len(w)
        np.testing.assert_array_equal(row[:cut], w)


def test_poisson_table_refuses_bad_input():
    # A tolerance is a probability mass to drop: at 1 or above it bounds
    # nothing.  The one-mean row refuses what the table refuses, also on
    # a zero mean, which needs no Poisson term.
    for eps in (0.0, -1e-10, 1.0, 5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            _poisson_table(np.array([1.0]), eps)
        for mean in (0.0, 1.0):
            with pytest.raises(ValueError, match="tolerance"):
                poisson_row(mean, eps)
    for means in ([1.0, math.nan], [2.0, -1e-3], [0.5, math.inf], [-0.5]):
        with pytest.raises(ValueError, match="mean"):
            _poisson_table(np.array(means), 1e-10)
        with pytest.raises(ValueError, match="mean"):
            poisson_row(means[-1], 1e-10)


# What `import condreach` may load besides its own modules: numpy and
# these standard modules, with whatever they load themselves.  scipy,
# which the tests use as an oracle, is not among them.
_IMPORT_DEPENDENCIES = (
    "__future__", "dataclasses", "math", "time", "warnings", "numpy",
)
_PACKAGE_MODULES = {
    "condreach",
    "condreach.abstraction",
    "condreach.ctmc",
    "condreach.driver",
    "condreach.evidence",
    "condreach.simulate",
    "condreach.solver",
    "condreach.unfolding",
}

# Runs in a fresh interpreter: loads the dependencies, wraps every numpy
# function so that a call made from condreach's own code is recorded,
# then imports condreach and reports the new modules and the calls.
_IMPORT_PROBE = """
import json, sys
for name in {deps!r}:
    __import__(name)
import numpy

package = {package!r}
calls = []

def spy(name, fn):
    def wrapper(*args, **kwargs):
        if sys._getframe(1).f_code.co_filename.startswith(package):
            calls.append(name)
        return fn(*args, **kwargs)
    return wrapper

for name, value in list(vars(numpy).items()):
    if callable(value) and not isinstance(value, type):
        setattr(numpy, name, spy(name, value))
before = set(sys.modules)
import condreach
print(json.dumps([sorted(set(sys.modules) - before), calls]))
"""


def test_import_loads_pinned_modules_and_does_no_numpy_work():
    # The cold import is part of every command's set-up time: it may load
    # nothing beyond the pinned dependencies and compute nothing.
    package = Path(condreach.__file__).resolve().parent
    code = _IMPORT_PROBE.format(deps=_IMPORT_DEPENDENCIES,
                                package=str(package))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(package.parent)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    modules, calls = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(modules) == _PACKAGE_MODULES
    assert calls == []


def test_reach_matrix_against_absorbing_oracle(invent):
    # Column s' of the reach matrix equals transient mass on s' in the
    # chain where s' is absorbing.
    t = 0.7
    R = reach_matrix(invent, t)
    for tgt in range(invent.n_states):
        mask = np.zeros(invent.n_states, dtype=bool)
        mask[tgt] = True
        absorbed = absorbing_chain(invent, mask)
        oracle = expm(absorbed.generator() * t)[:, tgt]
        np.testing.assert_allclose(R[:, tgt], oracle, atol=1e-9)


def test_reach_matrix_dominates_transient(invent):
    for t in (0.1, 0.6, 2.0):
        assert np.all(
            reach_matrix(invent, t) >= transient_matrix(invent, t) - 1e-12
        )


def _refuse_kernels(monkeypatch):
    """Make forming a transient kernel raise AssertionError: a call of
    transient_matrix, or a series without a start, which is a kernel."""
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was formed")

    series = condreach.ctmc.polynomial_series

    def applied(powers, coef, start=None, left=False):
        if start is None:
            refuse()
        return series(powers, coef, start, left)

    monkeypatch.setattr(condreach.ctmc, "transient_matrix", refuse)
    monkeypatch.setattr(condreach.ctmc, "polynomial_series", applied)


@pytest.mark.parametrize("model, formula", [("invent.ctmc", "empty"),
                                            ("tandem.ctmc", "second_full")])
def test_reachability_vectors_form_no_kernel(monkeypatch, model, formula):
    # A weight vector carries a column through the power series; the
    # kernel route, K[:, target].sum(axis=1), agrees.
    ctmc = parse_ctmc(fixture_text(model))
    target = ctmc.satisfying(parse_formula(formula))
    absorbed = absorbing_chain(ctmc, target)
    want = transient_matrix(absorbed, 0.5)[:, target].sum(axis=1)
    _refuse_kernels(monkeypatch)
    got = weight_from_property(ctmc, target, 0.5)
    # A state in the target has reached it: its weight is exactly 1.
    np.testing.assert_array_equal(got[target], 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_weight_keeps_p0_and_p1_on_the_chain():
    # The power loop steps the chain's own P^1: the weight used to build
    # an absorbing copy of the chain and step a table of powers on it.
    ctmc = parse_ctmc(fixture_text("tandem.ctmc"))
    weight_from_property(ctmc, ctmc.satisfying(parse_formula("second_full")),
                         0.5)
    assert list(ctmc._tables) == ["powers"]
    powers = ctmc._tables["powers"]
    n = ctmc.n_states
    assert powers.shape == (2, n, n)
    np.testing.assert_array_equal(powers[0], np.eye(n))
    np.testing.assert_array_equal(
        powers[1], np.eye(n) + ctmc.generator() / ctmc.uniformization_rate
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 6),
    horizon=st.floats(0.0, 5.0),
    data=st.data(),
)
def test_weights_match_kernel_of_absorbing_chain(random_chain, seed, n,
                                                 horizon, data):
    # Holding the target at 1 steps the chain with the target absorbing:
    # the weights are the absorbing chain's kernel summed over the
    # target columns, within the rounding of the two evaluations.
    chain = random_chain(np.random.default_rng(seed), n)
    target = np.array(data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    ))
    got = weight_from_property(chain, target, horizon)
    K = transient_matrix(absorbing_chain(chain, target), horizon)
    want = K[:, target].sum(axis=1)
    cut = len(poisson_row(chain.uniformization_rate * horizon, 1e-10))
    rel, tiny = _kernel_tolerance(cut, n, applied=True)
    assert np.all(got[target] == 1.0)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.all(np.abs(got - want) <= rel * want + tiny)


@pytest.mark.parametrize("model, formula, horizon", [
    ("tandem.ctmc", "second_full", 0.5),
    ("tandem.ctmc", "phase2", 0.5),
    ("invent.ctmc", "empty", 0.1),
])
def test_target_weights_are_exactly_one(model, formula, horizon):
    # On tandem the power loop's sum of a target row's Poisson weights
    # and its tail round to 1 - 2**-53; a target state counts as reached.
    ctmc = parse_ctmc(fixture_text(model))
    target = ctmc.satisfying(parse_formula(formula))
    weights = weight_from_property(ctmc, target, horizon)
    assert target.any()
    assert np.all(weights[target] == 1.0)
    assert np.all(weights[~target] < 1.0)


def test_weight_from_property_closed_form(two_state):
    # From a, b is reached within h with probability 1 - exp(-1.5 h).
    tgt = np.array([False, True])
    w = weight_from_property(two_state, tgt, 1.25)
    assert w[0] == pytest.approx(1.0 - math.exp(-1.5 * 1.25), abs=1e-10)
    assert w[1] == 1.0


def test_weight_from_property_empty_target_warns(invent):
    for horizon in (0.0, 1.0):
        with pytest.warns(UserWarning, match="empty target"):
            out = weight_from_property(invent, np.zeros(3, bool), horizon)
        np.testing.assert_array_equal(out, 0.0)


@pytest.mark.parametrize("horizon", [-1.0, -1e-300, math.nan])
def test_weight_from_property_rejects_bad_horizon(invent, horizon):
    for target in (np.ones(3, bool), np.zeros(3, bool)):
        with pytest.raises(ValueError, match="horizon"):
            weight_from_property(invent, target, horizon)


def test_invariance_closed_form(invent):
    # s1 has exit rate 5 and no self-loop.
    assert invariance_vector(invent, 0.3)[1] == pytest.approx(
        math.exp(-1.5), abs=1e-12
    )
    np.testing.assert_allclose(
        invariance_vector(invent, 0.1),
        np.exp(-invent.exit_rates * 0.1),
        atol=1e-12,
    )


def test_invariance_ignores_self_loops():
    chain = from_rates(
        ["a", "b"], "a", {("a", "a"): 9.0, ("a", "b"): 2.0}, {}
    )
    # Only the rate that actually leaves the state counts.
    np.testing.assert_allclose(
        invariance_vector(chain, 1.0), [math.exp(-2.0), 1.0], rtol=0,
        atol=1e-12,
    )


def test_weight_from_property(invent, invent_weights):
    assert invent_weights[0] == 1.0  # already in the target
    assert 0 < invent_weights[2] < invent_weights[1] < 1
    target = invent.satisfying(parse_formula("empty"))
    zero_h = weight_from_property(invent, target, 0.0)
    np.testing.assert_array_equal(zero_h, target.astype(float))


def _assert_satisfying_matches_per_state(ctmc, formula, holds):
    want = [holds(formula, lab) for lab in ctmc.labels]
    got = ctmc.satisfying(formula)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, want, err_msg=str(formula))


def test_satisfying_matches_per_state_on_fixtures(holds):
    # Every formula of the bundled evidences and weights, and their
    # negated literals, on both bundled models.
    fixtures = fixture_path("")
    formulas = {parse_formula(f) for f in
                ("true", "empty", "second_full", "phase2", "!phase2")}
    for path in fixtures.iterdir():
        if path.name.endswith(".evidence"):
            formulas |= set(parse_evidence(path.read_text()).formulas)
    formulas |= {Formula(tuple((ap, not pol) for ap, pol in f.literals))
                 for f in list(formulas)}
    for model in ("invent.ctmc", "tandem.ctmc"):
        ctmc = parse_ctmc(fixture_text(model))
        assert ctmc.alphabet == frozenset().union(*ctmc.labels)
        for formula in formulas:
            _assert_satisfying_matches_per_state(ctmc, formula, holds)


_APS = ("a", "b", "c")


@settings(max_examples=80, deadline=None)
@given(
    labels=st.lists(st.frozensets(st.sampled_from(_APS)), min_size=1,
                    max_size=8),
    literals=st.lists(st.tuples(st.sampled_from(_APS + ("absent",)),
                                st.booleans()), max_size=5),
)
def test_satisfying_matches_per_state_random(holds, labels, literals):
    # Random label sets and conjunctions, with contradictory literals and
    # an atomic proposition that no state carries.
    n = len(labels)
    ctmc = Ctmc(tuple(f"s{i}" for i in range(n)), 0, np.eye(n), np.zeros(n),
                tuple(labels))
    formula = Formula(tuple(sorted(set(literals))))
    assert ctmc.alphabet == frozenset().union(*labels)
    _assert_satisfying_matches_per_state(ctmc, formula, holds)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 6),
    t=st.floats(0.0, 5.0, allow_nan=False),
)
def test_transient_rows_are_distributions(random_chain, seed, n, t):
    chain = random_chain(np.random.default_rng(seed), n)
    K = transient_matrix(chain, t)
    assert np.all(K >= -1e-12)
    np.testing.assert_allclose(K.sum(axis=1), 1.0, atol=1e-9)
    # One row by the vector power sum is that row of the kernel.
    for s in range(n):
        np.testing.assert_allclose(transient(chain, s, t), K[s], rtol=0,
                                   atol=1e-14)


def test_transient_refuses_an_array_of_times(invent):
    # It used to return the distribution at the first time alone.
    for t in ([0.1, 5.0], np.array([0.1])):
        with pytest.raises(ValueError, match="one time"):
            transient(invent, 0, t)
    np.testing.assert_array_equal(transient(invent, 0, np.array(0.1)),
                                  transient(invent, 0, 0.1))


@pytest.mark.parametrize("source", [-1, 3, 4])
def test_transient_refuses_a_source_outside_the_chain(invent, source):
    # -1 used to read as state 2, and 3 raised a bare IndexError.
    with pytest.raises(ValueError, match="source state"):
        transient(invent, source, 0.5)


def test_transient_builds_no_kernel(monkeypatch, tandem):
    want = transient_matrix(tandem, 2.75)[tandem.initial]
    _refuse_kernels(monkeypatch)
    got = transient(tandem, tandem.initial, 2.75)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), t=st.floats(0.01, 3.0))
def test_reach_monotone_in_time(random_chain, seed, t):
    chain = random_chain(np.random.default_rng(seed), 4)
    assert np.all(
        reach_matrix(chain, 2 * t) >= reach_matrix(chain, t) - 1e-9
    )


def test_state_index_errors(invent):
    assert invent.state_index("s2") == 2
    with pytest.raises(ModelError):
        invent.state_index("nope")


@pytest.mark.parametrize("initial, rates", [
    ("b", {}),
    ("a", {("a", "b"): 1.0}),
    ("a", {("b", "a"): 1.0}),
])
def test_from_rates_rejects_unknown_states(initial, rates):
    with pytest.raises(ModelError, match="unknown state 'b'"):
        from_rates(["a"], initial, rates, {})


def test_from_rates_rejects_labels_of_an_unknown_state():
    # Such labels used to be dropped without a word.
    with pytest.raises(ModelError, match="unknown state 'b'"):
        from_rates(["a"], "a", {}, {"b": ["x"]})
    chain = from_rates(["a", "b"], "a", {}, {"b": ["x"]})
    assert chain.labels == (frozenset(), frozenset({"x"}))


def test_from_rates_rejects_a_string_of_labels():
    # A string used to give its state one label per character.
    with pytest.raises(ModelError, match="labels of 'a'"):
        from_rates(["a"], "a", {}, {"a": "xy"})
    chain = from_rates(["a"], "a", {}, {"a": ("xy",)})
    assert chain.labels == (frozenset({"xy"}),)


def test_ctmc_rejects_labels_of_another_length():
    # Too few labels used to drop state b from serialize_ctmc; too many
    # raised a bare IndexError.
    for labels in ((frozenset({"x"}),),
                   (frozenset(), frozenset(), frozenset({"x"}))):
        with pytest.raises(ModelError, match="labels"):
            Ctmc(("a", "b"), 0, np.eye(2), np.zeros(2), labels)


def test_ctmc_rejects_duplicate_state_names():
    with pytest.raises(ModelError, match="distinct"):
        from_rates(["a", "a"], "a", {}, {})
    with pytest.raises(ModelError, match="distinct"):
        Ctmc(("a", "b", "a"), 0, np.eye(3), np.zeros(3), (frozenset(),) * 3)


def test_ctmc_validation_rejects_bad_rows():
    with pytest.raises(ModelError):
        Ctmc(
            ("a", "b"),
            0,
            np.array([[0.5, 0.4], [0.0, 1.0]]),
            np.array([1.0, 0.0]),
            (frozenset(), frozenset()),
        )
