import dataclasses
import gc
import weakref

import numpy as np
import pytest

from condreach.abstraction import (
    _CHUNK,
    AbstractionError,
    IntervalMdp,
    TransientBoundCache,
    _check_feasible,
    _KeyedStack,
    abstract,
    reachable_states,
    restrict_reachable,
)
from condreach.ctmc import (
    binary_parent,
    invariance_vector,
    marched_kernels,
    parse_ctmc,
    reach_matrix,
    transient_matrix,
)
from condreach.driver import apply_splits, guided_split_targets
from condreach.evidence import (
    SemanticError,
    TimePartition,
    coarsest_partition,
    parse_evidence,
)
from condreach.fixtures import fixture_text
from condreach.solver import Scheduler, compute_bounds, reachable_under
from oracles import dense_bounds, full_bounds, layer_gaps, lumped, sinks_of


def _cache(ctmc):
    return TransientBoundCache(ctmc, 1e-10)


def _stacks(cache, gaps):
    """The GapStacks of an (m, 2) array of gaps on every row, keeping
    every column, through a one-part call."""
    [stacks] = cache.bound_matrices(
        [gaps], [np.arange(cache.ctmc.n_states)], [None]
    )
    return stacks


def _full(cache, gaps):
    """The whole (lower, upper) stacks of an (m, 2) array of gaps on
    every row, from the cache's parts."""
    return full_bounds(cache, gaps, np.arange(cache.ctmc.n_states))


def _bounds(cache, g_min, g_max):
    """The (lower, upper) matrices of one gap, through the array form."""
    L, U = _full(cache, [(g_min, g_max)])
    return L[0], U[0]


def _arrays(stacks):
    """A GapStacks' arrays, in field order."""
    return [getattr(stacks, f.name) for f in dataclasses.fields(stacks)]


def _assert_stacks_equal(got, want):
    """Two GapStacks hold the same arrays bit for bit, dtypes included."""
    for f, a, b in zip(dataclasses.fields(got), _arrays(got), _arrays(want)):
        assert a.dtype == b.dtype, f.name
        np.testing.assert_array_equal(a, b, err_msg=f.name)


def _gaps_of(stacks, gaps):
    """The arrays of a GapStacks at the given gaps: lower and room keep
    them on axis 1, the others on axis 0."""
    lower, room, *rest = _arrays(stacks)
    return [lower[:, gaps], room[:, gaps], *(a[gaps] for a in rest)]


def test_point_gap_is_exact(invent):
    L, U = _bounds(_cache(invent), 0.8, 0.8)
    K = transient_matrix(invent, 0.8)
    np.testing.assert_allclose(L, K, atol=1e-12)
    np.testing.assert_allclose(U, K, atol=1e-12)


def test_bounds_sandwich_transient(invent):
    g_min, g_max = 0.5, 1.3
    L, U = _bounds(_cache(invent), g_min, g_max)
    for tau in np.linspace(g_min, g_max, 25):
        K = transient_matrix(invent, tau)
        assert np.all(L <= K + 1e-9)
        assert np.all(K <= U + 1e-9)


def test_bounds_tighten_with_gap(invent):
    Lw, Uw = _bounds(_cache(invent), 0.5, 1.5)
    Ln, Un = _bounds(_cache(invent), 0.9, 1.1)
    # A narrower gap admits fewer kernels, but the one-sided constructions
    # are only guaranteed comparable on the shared reference point side;
    # check the interval width shrinks on average.
    assert (Un - Ln).mean() < (Uw - Lw).mean()


@pytest.fixture()
def computed(monkeypatch):
    """Record the times of every kernel and reach matrix the cache computes."""
    import condreach.abstraction as abstraction

    log = {"kernels": [], "spreads": []}
    for attr, key in (("transient_matrix", "kernels"),
                      ("reach_matrix", "spreads")):
        fn = getattr(abstraction, attr)

        def counted(ctmc, t, eps, fn=fn, key=key):
            log[key].extend(np.atleast_1d(t).tolist())
            return fn(ctmc, t, eps)

        monkeypatch.setattr(abstraction, attr, counted)
    return log


def test_cache_reuses_entries(invent, computed):
    cache = _cache(invent)
    a = _stacks(cache, [(0.2, 0.4)])
    assert len(computed["kernels"]) == len(computed["spreads"]) == 1
    size = len(cache.entries)
    b = _stacks(cache, [(0.2, 0.4)])
    # A repeated gap computes nothing new and gives the same bounds.
    assert len(computed["kernels"]) == len(computed["spreads"]) == 1
    assert len(cache.entries) == size
    _assert_stacks_equal(a, b)
    assert not any(x.flags.writeable for x in _arrays(a))


def _direct_bounds(ctmc, g_min, g_max, eps, kernel=None):
    """Unfactored build: every part computed afresh for the gap, but the
    kernel K(g_min), which kernel gives when it is not None."""
    if kernel is None:
        kernel = lambda t: transient_matrix(ctmc, t, eps)  # noqa: E731
    K = kernel(g_min)
    if g_max == g_min:
        K = np.clip(K, 0.0, 1.0)
        return K, K
    spread = g_max - g_min
    upper = np.clip(K @ reach_matrix(ctmc, spread, eps), 0.0, 1.0)
    lower = np.clip(K * invariance_vector(ctmc, spread)[None, :], 0.0, 1.0)
    mid = 0.5 * (lower + upper)
    noisy = lower > upper
    return np.where(noisy, mid, lower), np.where(noisy, mid, upper)


@pytest.mark.parametrize("model", ["invent.ctmc", "tandem.ctmc"])
def test_factored_cache_matches_direct_build(model, computed):
    ctmc = parse_ctmc(fixture_text(model))
    gaps = [
        (0.25, 0.5), (0.25, 0.75), (0.5, 0.75), (0.5, 1.0),
        (0.0, 0.25), (1.0, 1.25), (0.8, 0.8), (0.25, 0.25),
    ]
    direct = [_direct_bounds(ctmc, g, h, 1e-10) for g, h in gaps]
    computed["kernels"].clear()
    computed["spreads"].clear()
    cache = _cache(ctmc)
    for (g_min, g_max), (dL, dU) in zip(gaps, direct):
        L, U = _bounds(cache, g_min, g_max)
        np.testing.assert_array_equal(L, dL)
        np.testing.assert_array_equal(U, dU)
    # Gaps sharing a minimum share its kernel, gaps sharing a spread its
    # reach matrix: each is computed once.  Point gaps share the spread
    # 0, whose reach matrix is the identity.
    minima = {g for g, _ in gaps}
    spreads = {h - g for g, h in gaps}
    assert sorted(computed["kernels"]) == sorted(minima)
    assert sorted(computed["spreads"]) == sorted(spreads)
    # All gaps in one call on a fresh cache give the same stacks,
    # computing each minimum and spread once in one batched call each,
    # and the stacks the cache keeps are their lumping.
    computed["kernels"].clear()
    computed["spreads"].clear()
    fresh = _cache(ctmc)
    L, U = _full(fresh, np.array(gaps))
    np.testing.assert_array_equal(L, [d[0] for d in direct])
    np.testing.assert_array_equal(U, [d[1] for d in direct])
    assert sorted(computed["kernels"]) == sorted(minima)
    assert sorted(computed["spreads"]) == sorted(spreads)
    _assert_stacks_equal(_stacks(fresh, np.array(gaps)), lumped(L, U))
    # Asking again, in any order, computes nothing new.
    L2, _ = _full(cache, np.array(gaps[::-1]))
    np.testing.assert_array_equal(L2, L[::-1])
    assert len(computed["kernels"]) == len(minima)


def test_bad_gap_rejected(invent):
    for bad in ((1.0, 0.5), (-0.1, 0.5), (np.nan, 0.5)):
        with pytest.raises(ValueError):
            _stacks(_cache(invent), np.array([bad]))
        with pytest.raises(ValueError):
            _stacks(_cache(invent), np.array([(0.2, 0.4), bad]))
        # A bad gap in any part is refused.
        with pytest.raises(ValueError):
            _cache(invent).bound_matrices(
                [np.array([(0.2, 0.4)]), np.array([bad])], [[0], [1, 2]],
                [None, None],
            )
    # Gaps come as (m, 2) rows only.
    for shape in ((2,), (1, 3), (1, 2, 1)):
        with pytest.raises(ValueError):
            _stacks(_cache(invent), np.full(shape, 0.5))
    # Each part of gaps takes one array of row states and one sink.
    for rows, sinks in (([], [None]), ([[0], [1]], [None]), ([[0]], []),
                        ([[0]], [None, None])):
        with pytest.raises(ValueError):
            _cache(invent).bound_matrices([np.array([(0.2, 0.4)])], rows,
                                          sinks)


def test_cache_refuses_a_second_chain(invent, invent1):
    # The cache keys its parts by time only: shared with a faster chain,
    # it would hand that chain the first chain's bounds.
    fast = parse_ctmc(
        fixture_text("invent.ctmc").replace("rate s0 s1 3", "rate s0 s1 30")
    )
    psi = coarsest_partition(invent1)
    cache = _cache(invent)
    first = abstract(invent, invent1, psi, cache=cache)
    fresh = abstract(fast, invent1, psi)
    # The upper bounds, lower plus room, of the two chains differ.
    assert max(
        np.abs((a.lower + a.room) - (b.lower + b.room)).max()
        for a, b in zip(first.stacks, fresh.stacks)
    ) > 0.2
    with pytest.raises(ValueError):
        abstract(fast, invent1, psi, cache=cache)
    # The chain it was built for is still served.
    again = abstract(invent, invent1, psi, cache=cache)
    for a, b in zip(first.stacks, again.stacks):
        _assert_stacks_equal(a, b)


def test_cache_serves_its_own_tolerance(invent, invent1):
    # abstract takes its transient tolerance from the cache: a model
    # built, and built again, on a 1e-6 cache is a fresh 1e-6 cache's.
    psi = coarsest_partition(invent1)
    cache = TransientBoundCache(invent, 1e-6)
    fresh = abstract(invent, invent1, psi,
                     cache=TransientBoundCache(invent, 1e-6))
    for built in (abstract(invent, invent1, psi, cache=cache),
                  abstract(invent, invent1, psi, cache=cache)):
        for a, b in zip(built.stacks, fresh.stacks):
            _assert_stacks_equal(a, b)
    # The default tolerance gives other bounds.
    default = abstract(invent, invent1, psi)
    assert any(
        not np.array_equal(a.lower, b.lower)
        for a, b in zip(default.stacks, fresh.stacks)
    )


def test_finished_cache_is_freed_without_the_cycle_collector(invent,
                                                             invent1):
    # A cache that referred to itself, say through its stores' compute
    # closures, would outlive its last reference until the cyclic
    # collector ran, keeping every stored kernel alive.
    psi = coarsest_partition(invent1)
    cache = TransientBoundCache(invent)
    abstract(invent, invent1, psi, cache=cache)
    freed = weakref.ref(cache)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del cache
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_crossed_bounds_meet_at_midpoint(invent, monkeypatch):
    # An invariance vector inflated above 1 lifts lower above upper on a
    # near-point gap.  By float noise (at most _NOISE) the two meet at
    # their midpoint; beyond it the bounds are refused.
    import condreach.abstraction as abstraction

    gap = np.array([[1.0, 1.0 + 2.0**-45]])

    def inflate(excess):
        monkeypatch.setattr(
            abstraction, "invariance_vector",
            lambda ctmc, tau: np.full((len(tau), ctmc.n_states), 1 + excess),
        )

    inflate(1e-12)
    stacks = _stacks(_cache(invent), gap)
    K = transient_matrix(invent, gap[:, 0], 1e-10)
    R = reach_matrix(invent, gap[:, 1] - gap[:, 0], 1e-10)
    lo = np.clip(K * (1 + 1e-12), 0.0, 1.0)
    hi = np.clip(K @ R, 0.0, 1.0)
    crossed = lo > hi
    assert crossed.any() and (lo - hi).max() <= abstraction._NOISE
    mid = 0.5 * (lo + hi)
    _assert_stacks_equal(
        stacks, lumped(np.where(crossed, mid, lo), np.where(crossed, mid, hi))
    )
    assert np.all(stacks.room >= 0.0)
    inflate(1e-6)
    with pytest.raises(AbstractionError):
        _stacks(_cache(invent), gap)


def test_in_place_assembly_keeps_the_cache_intact(tandem):
    # Two calls with overlapping gap sets, each mixing point and wide
    # gaps, then one of wide gaps only whose minima are every stored
    # kernel in order: lower is assembled in the gathered kernel copy and
    # upper written in place, never in a stored part.
    calls = [
        np.array([(0.5, 0.5), (0.5, 1.0), (0.25, 0.75), (1.0, 1.0)]),
        np.array([(0.25, 0.75), (1.0, 1.0), (0.5, 0.75), (0.0, 0.0),
                  (0.5, 1.0)]),
        np.array([(0.0, 0.25), (0.25, 0.75), (0.5, 1.0), (1.0, 1.25)]),
    ]
    cache = _cache(tandem)
    stores = (cache._kernels, cache._spreads)
    first = _stacks(cache, calls[0])
    kept = [a.copy() for a in _arrays(first)]
    stored = [(s.keys.copy(), s.buffer[s.rows].copy()) for s in stores]
    results = [first] + [_stacks(cache, g) for g in calls[1:]]
    for gaps, got in zip(calls, results):
        _assert_stacks_equal(got, _stacks(_cache(tandem), gaps))
        for a in _arrays(got):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0
    # A gap gets the same bits from a mixed batch and an all-wide one.
    for a, b in zip(_gaps_of(results[0], [1, 2]),
                    _gaps_of(results[2], [2, 1])):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(_arrays(first), kept):
        np.testing.assert_array_equal(a, b)
    # Every kernel and spread stored before the later calls keeps its bits.
    for (keys, values), store in zip(stored, stores):
        at = np.searchsorted(store.keys, keys)
        np.testing.assert_array_equal(store.keys[at], keys)
        np.testing.assert_array_equal(store.buffer[store.rows[at]], values)


def test_keyed_stack_computes_each_key_once():
    # Batches of overlapping keys in any order: each get returns the
    # buffer rows of its queries' values in query order and computes only
    # the keys not stored yet, written in place, while the buffer grows
    # and the keys stay sorted.  Without a compute, only stored keys are
    # served.
    computed = []

    def compute(keys, out):
        assert np.all(np.diff(keys) > 0)
        assert out.shape == (len(keys), 2)
        computed.extend(keys.tolist())
        out[:] = np.stack((keys, 2 * keys), axis=1)

    store = _KeyedStack((2,))
    rng = np.random.default_rng(7)
    for size in (1, 5, 3, 17, 2, 40, 9, 60):
        queries = rng.choice(np.arange(60.0) / 4, size)
        rows = store.get(queries, compute)
        assert rows.shape == queries.shape and rows.max() < store.size
        pairs = store.buffer[rows]
        np.testing.assert_array_equal(pairs,
                                      np.stack((queries, 2 * queries), 1))
        np.testing.assert_array_equal(store.get(queries), rows)
        # A gathered copy is free to be written; the buffer keeps its values.
        pairs[:] = np.nan
    assert sorted(computed) == sorted(set(computed)) == store.keys.tolist()
    assert store.size == len(computed) <= len(store.buffer)
    np.testing.assert_array_equal(store.buffer[store.rows][:, 1],
                                  2 * store.keys)
    with pytest.raises(KeyError):
        store.get([100.0])


@pytest.fixture()
def part_calls(monkeypatch):
    """Count the cache's calls to transient_matrix and reach_matrix, the
    names bench/run.py's tracer wraps."""
    import condreach.abstraction as abstraction

    calls = {"transient_matrix": 0, "reach_matrix": 0}
    for attr in calls:

        def counted(*args, fn=getattr(abstraction, attr), attr=attr):
            calls[attr] += 1
            return fn(*args)

        monkeypatch.setattr(abstraction, attr, counted)
    return calls


@pytest.mark.parametrize("chain, evidence",
                         [("invent", "invent1"), ("tandem", "tandem1"),
                          ("tandem", "tandem2")])
def test_one_cache_call_per_model(chain, evidence, part_calls, request):
    ctmc = request.getfixturevalue(chain)
    omega = request.getfixturevalue(evidence)

    def build(psi, cache=None):
        before = dict(part_calls)
        imdp = abstract(ctmc, omega, psi, cache=cache)
        made = [part_calls[k] - before[k] for k in part_calls]
        return imdp, made

    cache = _cache(ctmc)
    psi = coarsest_partition(omega)
    warm = []
    for level in range(4):
        if level:
            psi = apply_splits(psi, psi.splittable())
        imdp, made = build(psi, cache)
        assert max(made) <= 1, made
        warm.append((psi, imdp))
    # A model from the warm cache equals a cold-cache one bit for bit.
    for psi, imdp in warm:
        cold, made = build(psi)
        assert made == [1, 1]
        for a, b in zip(imdp.stacks, cold.stacks):
            _assert_stacks_equal(a, b)
        for a, b in zip(imdp.gap_index, cold.gap_index):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def _marched(ctmc, eps):
    """K(t) of one time at a call, marched (marched_kernels) from a keyed
    stack of its own, with roots from transient_matrix: the kernels of a
    cache on an evidence whose window endpoints are short binary
    fractions, computed here one pair's time at a time."""
    memo = _KeyedStack((ctmc.n_states, ctmc.n_states))

    def kernel(t):
        [row] = marched_kernels(
            np.array([t]), memo, lambda ts: transient_matrix(ctmc, ts, eps)
        )
        return memo.buffer[row]

    return kernel


def test_refined_model_assembles_only_new_gaps(tandem, tandem1,
                                              monkeypatch):
    # The cache carries the last model's stacks per layer: a refined
    # model builds full rows only for the gaps of a layer that the same
    # layer of the last model lacked, and a model of another evidence,
    # whose rows and sinks differ, builds all of its gaps.
    built = []
    full_rows = TransientBoundCache._full_rows

    def counted(self, kernels, *args):
        built.append(len(kernels))
        return full_rows(self, kernels, *args)

    monkeypatch.setattr(TransientBoundCache, "_full_rows", counted)
    cache = _cache(tandem)
    psi = coarsest_partition(tandem1)
    last, carried = None, 0
    for _ in range(4):
        imdp = abstract(tandem, tandem1, psi, cache=cache)
        gaps = [{tuple(g) for g in layer_gaps(imdp, i).tolist()}
                for i in range(imdp.n_layers - 1)]
        old = last or [set()] * len(gaps)
        assert sum(built) == sum(len(g - o) for g, o in zip(gaps, old))
        carried += sum(len(g & o) for g, o in zip(gaps, old))
        # Carried and freshly built stacks are bit-identical.
        for a, b in zip(imdp.stacks, abstract(tandem, tandem1, psi).stacks):
            _assert_stacks_equal(a, b)
        built.clear()
        last = gaps
        # Split each window's first cell only, as guided refinement
        # splits some: a full split changes every gap.
        psi = apply_splits(psi, [np.arange(len(m)) == 0
                                 for m in psi.splittable()])
    assert carried
    other = parse_evidence(fixture_text("tandem2.evidence"))
    imdp = abstract(tandem, other, coarsest_partition(other), cache=cache)
    assert sum(built) == sum(len(st.slack) for st in imdp.stacks)


def test_only_binary_grids_are_marched(invent, invent1, tandem, tandem1,
                                       computed):
    # invent1's windows end at 0.9, 1.1, ...: its kernels are all
    # transient_matrix's, bit for bit, also at gap minima that are short
    # binary fractions by accident (0.875 = 0.111b).  tandem1's end at
    # 2.5, 3.0, 5.0 and 5.5, so transient_matrix computes only roots,
    # zero, powers of two and long expansions, and the other kernels are
    # one product of two stored ones.
    for ctmc, omega in ((invent, invent1), (tandem, tandem1)):
        cache = _cache(ctmc)
        psi = coarsest_partition(omega)
        for _ in range(4):
            abstract(ctmc, omega, psi, cache=cache)
            psi = apply_splits(psi, psi.splittable())
        stack = cache._kernels
        keys, kernels = stack.keys, stack.buffer[stack.rows]
        marched = [binary_parent(t) is not None for t in keys]
        assert any(marched)
        if ctmc is invent:
            assert sorted(computed["kernels"]) == keys.tolist()
            np.testing.assert_array_equal(
                kernels, transient_matrix(ctmc, keys, 1e-10)
            )
        else:
            assert not any(map(binary_parent, computed["kernels"]))
            for t, k in zip(keys[marched], kernels[marched]):
                [a, b] = stack.get(np.array(binary_parent(t)))
                np.testing.assert_array_equal(
                    k, stack.buffer[a] @ stack.buffer[b]
                )
        computed["kernels"].clear()


def test_anchor_gap_bits_do_not_depend_on_its_chunk(tandem, tandem1):
    # The anchor layer keeps the initial state's row alone and lumps the
    # next layer's reset states into one sink column.  Each of its gaps
    # gets the same bits assembled alone, a chunk of one one-row gap, as
    # among the others, which is what lets a later model carry it: numpy
    # sums the gathered sink columns of one row pairwise and of several
    # rows in order, which differ from 8 columns on.
    sink = tandem.reset_masks(tandem1.formulas)[1]
    assert np.count_nonzero(sink) >= 8
    rows = [np.array([tandem.initial])]
    lo = 2.5 + np.arange(16) / 32
    gaps = np.stack((lo, lo + 1 / 32), axis=1)
    [together] = _cache(tandem).bound_matrices([gaps], rows, [sink])
    for g in range(len(gaps)):
        [alone] = _cache(tandem).bound_matrices([gaps[g:g + 1]], rows,
                                                [sink])
        for a, b in zip(_gaps_of(together, [g]), _arrays(alone)):
            np.testing.assert_array_equal(a, b)


def _per_pair_build(ctmc, omega, psi, eps, direct, kernel=None):
    """L and U of every layer, built cell pair by cell pair from the
    kernels of kernel(t), or of transient_matrix without it."""
    layers = (np.zeros((1, 2)), *psi.cells)
    n = ctmc.n_states
    lower, upper = [], []
    for row, row2 in zip(layers, layers[1:]):
        L = np.empty((len(row), len(row2), n, n))
        U = np.empty_like(L)
        for j, (lo, hi) in enumerate(row):
            for j2, (lo2, hi2) in enumerate(row2):
                gap = (lo2 - hi, hi2 - lo)
                if gap not in direct:
                    direct[gap] = _direct_bounds(ctmc, *gap, eps, kernel)
                L[j, j2], U[j, j2] = direct[gap]
        lower.append(L)
        upper.append(U)
    return lower, upper


def _stored_states(reset_masks, initial):
    """Per layer but the last, the states whose rows a model stores: the
    initial one in the anchor layer, the non-reset ones after it."""
    return [np.array([initial])] + [
        np.flatnonzero(~reset) for reset in reset_masks[1:-1]
    ]


def _from_dense(layers, lower, upper, gap_index, reset_masks, initial=0):
    """An IntervalMdp from dense (g, n, n) gap stacks: the lumping of the
    rows of the states it stores."""
    rows = _stored_states(reset_masks, initial)
    return IntervalMdp(
        layers=layers,
        stacks=tuple(
            lumped(L[:, r], U[:, r], sink)
            for L, U, r, sink in zip(lower, upper, rows,
                                     sinks_of(reset_masks))
        ),
        gap_index=tuple(gap_index),
        reset_masks=tuple(reset_masks),
        initial=initial,
        n_states=lower[0].shape[-1],
    )


def _dense_rows(lower, upper, gap_index, reset_masks, initial=0):
    """What dense_bounds gives for _from_dense's model: per layer, the
    stored rows of the dense stacks scattered to the cell pairs."""
    rows = _stored_states(reset_masks, initial)
    return [
        (L[:, r][index], U[:, r][index])
        for L, U, index, r in zip(lower, upper, gap_index, rows)
    ]


def test_abstract_matches_per_pair_build(invent, invent1, invent_weights,
                                         tandem, tandem1, tandem_weights):
    # The gap-grouped build, with its stacks carried across models,
    # equals a cell-pair loop bit for bit on its stored rows, over three
    # guided refinement rounds.  tandem1's window endpoints are short
    # binary fractions, so its kernels are marched; invent1's are not.
    for ctmc, omega, w, kernel in (
        (invent, invent1, invent_weights, None),
        (tandem, tandem1, tandem_weights, _marched(tandem, 1e-10)),
    ):
        cache, direct = _cache(ctmc), {}
        psi = coarsest_partition(omega)
        for level in range(4):
            imdp = abstract(ctmc, omega, psi, cache=cache)
            want_L, want_U = _per_pair_build(ctmc, omega, psi, 1e-10, direct,
                                             kernel)
            dense = dense_bounds(imdp, cache)
            assert len(dense) == len(want_L)
            for (L, U), dL, dU, rows in zip(dense, want_L, want_U,
                                            imdp.rows):
                np.testing.assert_array_equal(L, dL[:, :, rows])
                np.testing.assert_array_equal(U, dU[:, :, rows])
            if level == 3:
                break
            report = compute_bounds(imdp, w, ctmc, omega)
            reach = reachable_under(imdp, report.guide_scheduler)
            targets = guided_split_targets(psi, reach)
            assert any(m.any() for m in targets)
            psi = apply_splits(psi, targets)


def test_stacks_hold_exactly_the_live_rows(tandem, tandem1, tandem2):
    # Each layer stores the rows of the states the model defines there,
    # the initial one in the anchor layer and the non-reset ones after
    # it, and they equal those rows of the dense per-pair build bit for
    # bit.  tandem2 resets most states of its middle layer.
    for omega, rounds in ((tandem1, 1), (tandem2, 2)):
        psi = coarsest_partition(omega)
        for _ in range(rounds):
            psi = apply_splits(psi, psi.splittable())
        cache = _cache(tandem)
        imdp = abstract(tandem, omega, psi, cache=cache)
        want = _stored_states(imdp.reset_masks, tandem.initial)
        assert len(imdp.rows) == len(want) == imdp.n_layers - 1
        np.testing.assert_array_equal(imdp.rows[0], [tandem.initial])
        n = imdp.n_states
        want_L, want_U = _per_pair_build(tandem, omega, psi, 1e-10, {},
                                         _marched(tandem, 1e-10))
        dense = dense_bounds(imdp, cache)
        for i, rows in enumerate(imdp.rows):
            np.testing.assert_array_equal(rows, want[i])
            st, cols = imdp.stacks[i], imdp.columns[i]
            g, k = len(st.slack), n if cols is None else len(cols)
            assert st.lower.shape == st.room.shape == (k, g, len(rows))
            assert st.slack.shape == st.excess.shape == (g, len(rows))
            assert st.support.shape == (g, len(rows), n)
            L, U = dense[i]
            np.testing.assert_array_equal(L, want_L[i][:, :, rows])
            np.testing.assert_array_equal(U, want_U[i][:, :, rows])
        assert min(len(r) for r in imdp.rows[1:]) < n
    # A model whose arrays do not match its rows or its columns is
    # refused: the anchor's arrays with a second row, the first layer's
    # without their sink column, and a support of floats.
    anchor, first, *rest = imdp.stacks
    assert imdp.columns[0] is not None
    two_rows = dataclasses.replace(
        anchor, lower=anchor.lower[:, :, [0, 0]],
        room=anchor.room[:, :, [0, 0]], slack=anchor.slack[:, [0, 0]],
        excess=anchor.excess[:, [0, 0]], support=anchor.support[:, [0, 0]],
    )
    no_sink = dataclasses.replace(anchor, lower=anchor.lower[:-1],
                                  room=anchor.room[:-1])
    floats = dataclasses.replace(first, support=first.support * 1.0)
    for stacks in ((two_rows, first, *rest), (no_sink, first, *rest),
                   (anchor, floats, *rest)):
        with pytest.raises(ValueError):
            dataclasses.replace(imdp, stacks=stacks)
    assert dataclasses.replace(imdp, stacks=(anchor, first, *rest))


@pytest.mark.parametrize("chain, evidence, rounds", [
    ("invent", "invent1", 3), ("tandem", "tandem1", 2),
    ("tandem", "tandem2", 2),
])
def test_stacks_are_the_lumped_full_rows(chain, evidence, rounds, request):
    # Assembly reduces the full rows a chunk of gaps at a time.  Every
    # layer's lower bounds, room, slack and excess equal bit for bit the
    # lumping of whole stacks built from the same kernels and spreads,
    # and its support is their U > 0, over rounds of full refinement.
    ctmc = request.getfixturevalue(chain)
    omega = request.getfixturevalue(evidence)
    cache = _cache(ctmc)
    psi = coarsest_partition(omega)
    chunks = lumps = 0
    for level in range(rounds + 1):
        if level:
            psi = apply_splits(psi, psi.splittable())
        imdp = abstract(ctmc, omega, psi, cache=cache)
        sinks = sinks_of(imdp.reset_masks)
        for i, (st, rows) in enumerate(zip(imdp.stacks, imdp.rows)):
            L, U = full_bounds(cache, layer_gaps(imdp, i), rows)
            _assert_stacks_equal(st, lumped(L, U, sinks[i]))
            chunks += len(L) > max(1, _CHUNK // L[0].size)
            lumps += sinks[i] is not None
    assert lumps
    if evidence == "tandem1":
        # Some layer's gaps took more than one chunk.
        assert chunks


def test_abstract_refuses_a_partition_of_another_evidence(invent, invent1,
                                                         invent2):
    # invent3 has nine windows; invent1's first four are the same.
    invent3 = parse_evidence(fixture_text("invent3.evidence"))
    with pytest.raises(SemanticError):
        abstract(invent, invent3, coarsest_partition(invent1))
    with pytest.raises(SemanticError):
        abstract(invent, invent1, coarsest_partition(invent3))
    # Touching cells merge back into their window; invent2 has invent1's
    # windows under other formulas.
    psi = coarsest_partition(invent1)
    refined = psi.split(psi.splittable())
    abstract(invent, invent1, refined)
    abstract(invent, invent2, refined)
    for base, shift in ((psi, [[0.05, 0.05]]),  # a shifted cell
                        (refined, [[0.0, 0.0], [0.05, 0.05]]),
                        (refined, [[0.0, 0.0], [0.05, 0.0]])):  # a hole
        rows = list(base.cells)
        rows[2] = rows[2] + shift
        with pytest.raises(SemanticError):
            abstract(invent, invent1, TimePartition(tuple(rows)))


def test_abstract_shapes(invent, invent1):
    psi = coarsest_partition(invent1)
    imdp = abstract(invent, invent1, psi)
    assert imdp.n_layers == 5  # anchor + 4 observations
    assert [imdp.n_cells(i) for i in range(5)] == [1, 1, 1, 1, 1]
    assert imdp.initial == invent.initial
    # Observation layers reset exactly the violating states.
    np.testing.assert_array_equal(
        imdp.reset_masks[1], np.array([True, False, False])
    )
    np.testing.assert_array_equal(
        imdp.reset_masks[3], np.array([False, True, True])
    )
    # The last observation layer has its own mask, not an all-False one.
    np.testing.assert_array_equal(
        imdp.reset_masks[4], np.array([True, False, False])
    )


def test_feasibility_of_rows(invent, invent1):
    psi = coarsest_partition(invent1)
    imdp = abstract(invent, invent1, psi)
    dense = dense_bounds(imdp, TransientBoundCache(invent))
    for i, (L, U) in enumerate(dense):
        # Every stored row is a non-reset state's.
        assert not imdp.reset_masks[i][imdp.rows[i]].any()
        lo = L.sum(axis=3)
        hi = U.sum(axis=3)
        assert np.all(lo <= 1.0 + 1e-9)
        assert np.all(hi >= 1.0 - 1e-9)
        assert np.all(imdp.stacks[i].excess <= 1e-9)


def test_parent_intersection_nests(invent, invent1, invent_weights, tandem,
                                   tandem1, tandem_weights, assert_nested):
    # Each partition is abstracted on its own; over two guided refinement
    # rounds every child block must still lie inside its parent's.
    for ctmc, omega, w in (
        (invent, invent1, invent_weights),
        (tandem, tandem1, tandem_weights),
    ):
        cache = _cache(ctmc)
        psi = coarsest_partition(omega)
        imdp = abstract(ctmc, omega, psi, cache=cache)
        for _ in range(2):
            report = compute_bounds(imdp, w, ctmc, omega)
            reach = reachable_under(imdp, report.guide_scheduler)
            targets = guided_split_targets(psi, reach)
            assert any(m.any() for m in targets)
            child_psi = apply_splits(psi, targets)
            child = abstract(ctmc, omega, child_psi, cache=cache)
            assert_nested(child, child_psi, imdp, psi, 1e-12, cache)
            psi, imdp = child_psi, child


def _every_state(imdp):
    """Per-layer masks that hold every abstract state."""
    return [np.ones((len(row), imdp.n_states), bool) for row in imdp.layers]


def test_reachable_and_restrict(invent, invent1):
    psi = coarsest_partition(invent1)
    imdp = abstract(invent, invent1, psi)
    reach = reachable_states(imdp)
    # Layer 0 holds only the initial abstract state.
    assert reach[0][0].sum() == 1 and reach[0][0, imdp.initial]
    active = restrict_reachable(imdp)
    for a, r in zip(active, reach):
        np.testing.assert_array_equal(a, r)
    states, actions, transitions = imdp.sizes(active)
    full_states, _, _ = imdp.sizes(_every_state(imdp))
    # Of the anchor layer only the initial state is a state of the model.
    assert full_states == 1 + sum(len(row) for row in imdp.layers[1:]) * 3
    assert states < full_states
    assert actions >= states - active[-1].sum()
    assert transitions >= actions


def test_sizes_count_reset_as_single_action(invent, invent1):
    psi = coarsest_partition(invent1)
    imdp = abstract(invent, invent1, psi)
    states, actions, transitions = imdp.sizes(_every_state(imdp))
    # The anchor's initial state and 4 layers x 1 cell x 3 states, all
    # active before pruning.
    assert states == 13
    n_reset = [int(m.sum()) for m in imdp.reset_masks]
    assert n_reset[0] == 0
    # The last layer's reset states redirect; its other states are terminal.
    assert n_reset[-1] > 0
    live = 1 + 3 * 3 - sum(n_reset[1:-1])
    assert actions == live + sum(n_reset)  # one per cell pair or reset


def test_scheduler_reachability(invent, invent1):
    psi = coarsest_partition(invent1)
    imdp = abstract(invent, invent1, psi)
    choices = tuple(
        np.zeros((imdp.n_cells(i), imdp.n_states), dtype=int)
        for i in range(imdp.n_layers - 1)
    )
    for i, c in enumerate(choices):
        c[:, imdp.reset_masks[i]] = -1
    reach = reachable_states(imdp, Scheduler(choices))
    free = reachable_states(imdp)
    for r, f in zip(reach, free):
        assert np.all(r <= f)


def _reference_reachable(imdp, scheduler=None):
    """Forward pass looping over every (cell, next cell) pair."""
    reach = [np.zeros((len(row), imdp.n_states), bool) for row in imdp.layers]
    reach[0][0, imdp.initial] = True
    for i in range(imdp.n_layers - 1):
        support, index = imdp.stacks[i].support, imdp.gap_index[i]
        # Row k of a stack is state ids[k]'s; no reset state has a row.
        ids = imdp.rows[i]
        assert not imdp.reset_masks[i][ids].any()
        for j in range(imdp.n_cells(i)):
            here = reach[i][j][ids]
            for j2 in range(imdp.n_cells(i + 1)):
                rows = here
                if scheduler is not None:
                    rows = here & (scheduler.choices[i][j][ids] == j2)
                if rows.any():
                    block = support[index[j, j2]]
                    reach[i + 1][j2] |= block[rows].any(axis=0)
    return tuple(reach)


def _random_scheduler(imdp, rng):
    choices = []
    for i in range(imdp.n_layers - 1):
        c = rng.integers(0, imdp.n_cells(i + 1),
                         (imdp.n_cells(i), imdp.n_states))
        c[:, imdp.reset_masks[i]] = -1
        choices.append(c)
    return Scheduler(tuple(choices))


def _sparse_imdp(rng):
    """Random layered interval MDP whose rows have random sparse support.

    Each layer has between one gap and one gap per cell pair, and the
    gap index picks among them at random, so cell pairs share gaps.
    """
    n = int(rng.integers(2, 5))
    counts = [1, *rng.integers(1, 4, int(rng.integers(1, 4))), 1]
    layers = tuple(
        np.repeat(10.0 * i + np.arange(c), 2).reshape(c, 2)
        for i, c in enumerate(counts)
    )
    lower, upper, index = [], [], []
    for nc, nc2 in zip(counts, counts[1:]):
        g = int(rng.integers(1, nc * nc2 + 1))
        support = rng.random((g, n, n)) < 0.4
        support[..., 0] |= ~support.any(axis=-1)
        U = support * rng.uniform(0.5, 1.0, support.shape)
        lower.append(np.zeros_like(U))
        upper.append(U)
        index.append(rng.integers(0, g, (nc, nc2)))
    reset_masks = [rng.random(n) < 0.2 for _ in layers]
    # The anchor layer violates no observation.
    reset_masks[0][:] = False
    return _from_dense(layers, lower, upper, index, reset_masks)


def test_reachable_states_matches_per_cell_loop(imdp_cases):
    rng = np.random.default_rng(11)
    for name, (imdp, _) in imdp_cases.items():
        schedulers = [None] + [_random_scheduler(imdp, rng) for _ in range(5)]
        for sched in schedulers:
            got = reachable_states(imdp, sched)
            want = _reference_reachable(imdp, sched)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == bool, name
                np.testing.assert_array_equal(g, w, err_msg=name)
    for _ in range(100):
        imdp = _sparse_imdp(rng)
        for sched in (None, _random_scheduler(imdp, rng)):
            for g, w in zip(reachable_states(imdp, sched),
                            _reference_reachable(imdp, sched)):
                np.testing.assert_array_equal(g, w)


def test_infeasible_intervals_raise(invent):
    n = 3
    lower = np.full((1, n, n), 0.6)
    upper = np.full((1, n, n), 0.7)
    excess = lumped(lower, upper).excess
    with pytest.raises(AbstractionError):
        _check_feasible(excess, np.zeros((1, 1), int), np.arange(n), 0)



def test_infeasible_row_is_named_by_cell_action_and_state():
    # Three gaps shared by a 3 x 2 layer.  Only gap 2's row of state 2
    # is infeasible; state 0 resets and has no row, so state 2 is the
    # second stored row, and the error must name the state itself.
    n = 3
    rows = np.array([1, 2])
    lower = np.zeros((3, len(rows), n))
    upper = np.ones((3, len(rows), n))
    upper[2, 1] = 0.2
    index = np.array([[0, 1], [1, 0], [0, 2]])
    with pytest.raises(AbstractionError) as err:
        _check_feasible(lumped(lower, upper).excess, index, rows, 4)
    assert str(err.value) == (
        "infeasible interval row at layer 4, cell 2, action 1, state 2"
    )
    upper[2, 1] = 1.0
    _check_feasible(lumped(lower, upper).excess, index, rows, 4)


def test_model_is_stored_by_gap(tandem, tandem1):
    # No attribute holds a per-pair (nc, nc2, r, n) or (nc, nc2, n, n)
    # array, even on layers whose cell pairs outnumber their distinct
    # gaps, nor a float (g, r, n) stack of full rows.
    psi = coarsest_partition(tandem1)
    for _ in range(2):
        psi = apply_splits(psi, psi.splittable())
    imdp = abstract(tandem, tandem1, psi)
    n = imdp.n_states
    dense = set()
    for i, index in enumerate(imdp.gap_index):
        nc, nc2 = imdp.n_cells(i), imdp.n_cells(i + 1)
        assert index.shape == (nc, nc2)
        g, r = len(imdp.stacks[i].slack), len(imdp.rows[i])
        assert imdp.stacks[i].support.shape == (g, r, n)
        assert index.min() == 0 and index.max() == g - 1
        if nc * nc2 > g:
            dense.update(((nc, nc2, r, n), (nc, nc2, n, n)))
    assert dense, "no layer shares gaps between its cell pairs"

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for v in value:
                yield from arrays(v)
        elif dataclasses.is_dataclass(value):
            for a in _arrays(value):
                yield from arrays(a)

    seen = 0
    for f in dataclasses.fields(imdp):
        for a in arrays(getattr(imdp, f.name)):
            seen += 1
            assert a.shape not in dense, f.name
            # Only the supports span every successor, as bools.
            if a.ndim == 3 and a.shape[2] == n:
                assert a.dtype == bool, f.name
    assert seen > 5 * (imdp.n_layers - 1)


def _reference_sizes(imdp, active):
    """(states, actions, transitions) counted state by state and action
    by action over the active abstract states; of the anchor layer only
    the initial state is one."""
    states = actions = transitions = 0
    for i in range(imdp.n_layers):
        for j in range(imdp.n_cells(i)):
            for s in np.flatnonzero(active[i][j]):
                if i == 0 and s != imdp.initial:
                    continue
                states += 1
                if imdp.reset_masks[i][s]:
                    actions += 1
                    transitions += 1
                elif i < imdp.n_layers - 1:
                    # The stored row of state s.
                    [k] = np.flatnonzero(imdp.rows[i] == s)
                    for j2 in range(imdp.n_cells(i + 1)):
                        gap = imdp.gap_index[i][j, j2]
                        actions += 1
                        transitions += int(
                            imdp.stacks[i].support[gap, k].sum()
                        )
    return states, actions, transitions


def test_sizes_match_per_action_count(imdp_cases):
    rng = np.random.default_rng(29)
    imdps = [imdp for imdp, _ in imdp_cases.values()]
    imdps += [_sparse_imdp(rng) for _ in range(50)]
    for imdp in imdps:
        every = _every_state(imdp)
        assert imdp.sizes(every) == _reference_sizes(imdp, every)
        active = restrict_reachable(imdp)
        assert imdp.sizes(active) == _reference_sizes(imdp, active)
