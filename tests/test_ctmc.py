import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

import condreach
from condreach.ctmc import (
    MAX_POISSON_MEAN,
    Ctmc,
    ModelError,
    UniformizationError,
    _poisson_table,
    bounded_reachability,
    bounded_reachability_vector,
    from_rates,
    invariance,
    invariance_vector,
    parse_ctmc,
    reach_matrix,
    serialize_ctmc,
    transient,
    transient_matrix,
    weight_from_property,
)
from condreach.evidence import Formula, parse_evidence, parse_formula
from condreach.fixtures import fixture_path, fixture_text


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


def test_absorbing_variant(invent):
    mask = np.array([True, False, False])
    absorbed = invent.absorbing_variant(mask)
    assert absorbed.exit_rates[0] == 0.0
    assert absorbed.jump_probs[0, 0] == 1.0
    # Other rows untouched.
    np.testing.assert_allclose(absorbed.rate_matrix()[1:], invent.rate_matrix()[1:])


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


def _assert_batch_matches_per_time(ctmc, times, oracle, eps=1e-10):
    times = np.asarray(times, dtype=float)
    K = transient_matrix(ctmc, times, eps)
    R = reach_matrix(ctmc, times, eps)
    assert K.shape == R.shape == (len(times), ctmc.n_states, ctmc.n_states)
    for t, k, r in zip(times, K, R):
        np.testing.assert_array_equal(k, oracle(ctmc, t, eps), err_msg=t)
        np.testing.assert_array_equal(
            r, oracle(ctmc, t, eps, kind="reach"), err_msg=t
        )


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
    assert transient_matrix(ctmc, np.empty(0)).shape == (
        0, ctmc.n_states, ctmc.n_states
    )


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
def test_batched_core_matches_per_time_loop_random(
    random_chain, per_time_uniformization, seed, n, times, eps
):
    chain = random_chain(np.random.default_rng(seed), n)
    _assert_batch_matches_per_time(chain, times, per_time_uniformization, eps)


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
    means = np.concatenate((np.geomspace(1e-4, 250.0, 300), [0.5, 1, 7, 250]))
    W, cuts = _poisson_table(means, eps)
    for mean, row, cut in zip(means, W, cuts):
        w = row[:cut]
        # Never fewer terms than the scipy cutoff used before: 0..ppf + 1.
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
def test_poisson_table_matches_one_mean_oracle(poisson_oracle, means, eps):
    # Every row, and its cut, is bit-identical to its mean computed alone.
    W, cuts = _poisson_table(np.array(means), eps)
    assert W.shape == (len(means), max(cuts))
    for mean, row, cut in zip(means, W, cuts):
        w = poisson_oracle(mean, eps)
        assert cut == len(w)
        np.testing.assert_array_equal(row[:cut], w)


def test_poisson_table_refuses_bad_input():
    for eps in (0.0, -1e-10, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            _poisson_table(np.array([1.0]), eps)
    for means in ([1.0, math.nan], [2.0, -1e-3], [0.5, math.inf], [-0.5]):
        with pytest.raises(ValueError, match="mean"):
            _poisson_table(np.array(means), 1e-10)


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
        absorbed = invent.absorbing_variant(mask)
        oracle = expm(absorbed.generator() * t)[:, tgt]
        np.testing.assert_allclose(R[:, tgt], oracle, atol=1e-9)


def test_reach_matrix_dominates_transient(invent):
    for t in (0.1, 0.6, 2.0):
        assert np.all(
            reach_matrix(invent, t) >= transient_matrix(invent, t) - 1e-12
        )


def test_bounded_reachability_window(two_state):
    # Reaching b inside [a, inf) from a: already 1 - exp(-1.5 a) plus the
    # rest; with b absorbing, any window [a, b] gives 1 - exp(-1.5 b).
    tgt = np.array([False, True])
    val = bounded_reachability(two_state, 0, tgt, (0.5, 1.25))
    assert val == pytest.approx(1.0 - math.exp(-1.5 * 1.25), abs=1e-10)


def test_bounded_reachability_empty_target_warns(invent):
    with pytest.warns(UserWarning):
        out = bounded_reachability_vector(invent, np.zeros(3, bool), (0, 1))
    np.testing.assert_array_equal(out, 0.0)


def test_bounded_reachability_rejects_bad_window(invent):
    with pytest.raises(ValueError):
        bounded_reachability_vector(invent, np.ones(3, bool), (2.0, 1.0))


def test_invariance_closed_form(invent):
    # s1 has exit rate 5 and no self-loop.
    assert invariance(invent, 1, 0.3) == pytest.approx(math.exp(-1.5), abs=1e-12)
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
    assert invariance(chain, 0, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-12)


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


def test_ctmc_validation_rejects_bad_rows():
    with pytest.raises(ModelError):
        Ctmc(
            ("a", "b"),
            0,
            np.array([[0.5, 0.4], [0.0, 1.0]]),
            np.array([1.0, 0.0]),
            (frozenset(), frozenset()),
        )
