import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from condreach import driver, solver, unfolding
from condreach.abstraction import TransientBoundCache, abstract
from condreach.ctmc import from_rates
from condreach.driver import AnalysisConfig, analyze, apply_splits
from condreach.evidence import (
    ImpreciseEvidence,
    PreciseEvidence,
    TimeSet,
    coarsest_partition,
    parse_evidence,
    parse_formula,
)
from condreach.solver import (
    DEFAULT_VI_TOL,
    WITNESS_MARGIN,
    BoundsReport,
    SolverError,
    _expand,
    _Layer,
    _prepare,
    _q_values,
    _rows,
    _sweep,
    compute_bounds,
    evaluate_scheduler,
    greedy_distribution,
    repair_consistency,
    robust_value_iteration,
    witness_times,
)
from condreach.unfolding import (
    ZeroLikelihoodError,
    conditional_weight,
    evidence_likelihood,
)
from oracles import audit_consistency, dense_bounds, lumped
from test_abstraction import (
    _dense_rows,
    _from_dense,
    _random_scheduler,
    _reference_reachable,
    _sparse_imdp,
)


def _random_intervals(rng, k):
    """Feasible (lower, upper) interval rows over k successors."""
    while True:
        lower = rng.uniform(0.0, 0.6, k)
        upper = lower + rng.uniform(0.0, 1.0, k)
        if lower.sum() <= 1.0 <= upper.sum():
            return lower, np.minimum(upper, 1.0)


def _lp_optimum(lower, upper, values, maximize):
    c = -values if maximize else values
    res = linprog(
        c,
        A_eq=np.ones((1, len(values))),
        b_eq=[1.0],
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    assert res.success
    return -res.fun if maximize else res.fun


def test_greedy_matches_lp_oracle():
    rng = np.random.default_rng(123)
    for _ in range(300):
        k = rng.integers(2, 4)
        lower, upper = _random_intervals(rng, k)
        values = rng.uniform(-1.0, 2.0, k)
        for maximize in (True, False):
            p = greedy_distribution(lower, upper, values, maximize)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= lower - 1e-12) and np.all(p <= upper + 1e-12)
            assert p @ values == pytest.approx(
                _lp_optimum(lower, upper, values, maximize), abs=1e-9
            )


def test_greedy_broadcasts_over_rows():
    rng = np.random.default_rng(5)
    lower = np.stack([_random_intervals(rng, 3)[0] for _ in range(4)])
    upper = np.clip(lower + 0.5, None, 1.0)
    values = np.array([0.3, 0.9, 0.1])
    p = greedy_distribution(lower, upper, values, True)
    assert p.shape == (4, 3)
    for row_lo, row in zip(lower, p):
        q = greedy_distribution(row_lo, np.clip(row_lo + 0.5, None, 1.0),
                                values, True)
        np.testing.assert_allclose(row, q, atol=1e-12)


def test_degenerate_imdp_reproduces_exact_value(invent, invent_weights):
    # All-point partition: one realizable kernel per step, so robust VI
    # collapses to the exact conditional weight.
    from condreach.evidence import ImpreciseEvidence, TimeSet, parse_formula

    times = (0.4, 1.2, 2.6)
    forms = ("nonempty", "nonempty", "nonempty")
    omega = ImpreciseEvidence(
        tuple(
            (TimeSet.point(t), parse_formula(f)) for t, f in zip(times, forms)
        )
    )
    imdp = abstract(invent, omega, coarsest_partition(omega))
    report = compute_bounds(imdp, invent_weights, invent, omega)
    exact = conditional_weight(invent, omega.to_precise(), invent_weights)
    assert report.lower == pytest.approx(exact, abs=1e-9)
    assert report.upper == pytest.approx(exact, abs=1e-9)


def test_bounds_order_and_direction(invent, invent1, invent_weights):
    imdp = abstract(invent, invent1, coarsest_partition(invent1))
    rmax = compute_bounds(imdp, invent_weights, invent, invent1,
                          direction="max")
    rmin = compute_bounds(imdp, invent_weights, invent, invent1,
                          direction="min")
    assert rmax.lower <= rmax.upper
    assert rmin.lower <= rmin.upper
    # The min problem's optimum cannot exceed the max problem's.
    assert rmin.lower <= rmax.upper
    with pytest.raises(ValueError):
        compute_bounds(imdp, invent_weights, invent, invent1,
                       direction="sideways")


def test_repaired_scheduler_is_consistent(invent, invent1, invent_weights):
    imdp = abstract(invent, invent1, coarsest_partition(invent1))
    report = compute_bounds(imdp, invent_weights, invent, invent1)
    assert audit_consistency(imdp, report.repaired_scheduler)
    # Evaluating a consistent scheduler pessimistically stays below the
    # robust optimum.
    val = evaluate_scheduler(
        imdp, invent_weights, report.repaired_scheduler, inner="min"
    )
    assert val <= report.upper + 1e-9


def test_repaired_scheduler_holds_one_choice_per_cell(invent, invent1,
                                                      invent_weights):
    # At cap 10 a cell of the refined model has reachable states and
    # states no scheduler reaches; the repaired scheduler still makes one
    # choice for all of its rows.  Both schedulers hold one choice per
    # row of the model, the anchor's one row included.
    trace = analyze(invent, invent1, invent_weights,
                    AnalysisConfig(max_iters=10))
    imdp = abstract(invent, invent1, trace.final_partition)
    report = trace.final_report
    _assert_on_rows(imdp, report.guide_scheduler)
    _assert_one_choice_per_cell(imdp, report.repaired_scheduler)
    assert report.repaired_scheduler[0].shape == (1, 1)


def _toy_imdp(n_mid=2):
    """4-layer, 3-state interval MDP with full-support uniform intervals.

    Layer 1 has a single cell whose three states are all reachable, so a
    repair vote there has three voters; they choose among layer 2's two
    cells.  Every cell pair of a layer shares its one gap.
    """
    n = 3
    layers = (
        np.zeros((1, 2)),
        np.array([[1.0, 1.5]]),
        2.0 + np.arange(n_mid)[:, None] + [0.0, 0.5],
        np.array([[9.0, 9.0]]),
    )
    return _from_dense(
        layers,
        (np.zeros((1, n, n)),) * 3,
        (np.ones((1, n, n)),) * 3,
        (np.zeros((len(row), len(row2)), int)
         for row, row2 in zip(layers, layers[1:])),
        [np.zeros(n, bool) for _ in layers],
    )


def _toy_sched(mid_votes, n_mid=2):
    """Choices on _toy_imdp's rows: the anchor's initial state, then
    all three states of every cell."""
    return (
        np.array([[0]]),
        np.array([mid_votes]),
        np.zeros((n_mid, 3), dtype=int),
    )


def test_repair_majority_vote():
    # Mixed votes 0/1/1 inside one shared cell repair to the majority 1.
    imdp = _toy_imdp()
    repaired = repair_consistency(imdp, _toy_sched([0, 1, 1]))
    np.testing.assert_array_equal(repaired[1][0], [1, 1, 1])
    assert audit_consistency(imdp, repaired)


def test_repair_tie_breaks_low():
    imdp = _toy_imdp(n_mid=3)
    # With three distinct votes the lowest action index wins.
    repaired = repair_consistency(imdp, _toy_sched([1, 0, 2], n_mid=3))
    assert set(repaired[1][0]) == {0}


def test_audit_detects_inconsistency():
    imdp = _toy_imdp()
    assert not audit_consistency(imdp, _toy_sched([0, 1, 1]))


def test_bounds_report_validates_order(monkeypatch, invent, invent1,
                                      invent_weights):
    s = (np.zeros((1, 1), int),)
    with pytest.raises(SolverError, match="lower bound 0.9 exceeds upper"):
        BoundsReport(lower=0.9, upper=0.1, guide_scheduler=s,
                     repaired_scheduler=s)
    # Non-convergence names the solve, its sweeps, the last change of the
    # reset value and the sensitivity b.
    imdp = abstract(invent, invent1, coarsest_partition(invent1))
    _, sched = robust_value_iteration(imdp, invent_weights)
    monkeypatch.setattr(solver, "_MAX_SWEEPS", 1)
    tail = r": sweeps 1, last reset-value change 0\.\d+, b = 0\.\d+$"
    with pytest.raises(SolverError, match=r"\(outer max, inner min\)" + tail):
        robust_value_iteration(imdp, invent_weights, "max", "min")
    with pytest.raises(SolverError,
                       match=r"\(fixed scheduler, inner max\)" + tail):
        evaluate_scheduler(imdp, invent_weights, sched, "max")


def test_zero_likelihood_evidence_raises(invent, invent_weights):
    # Initial state is nonempty; an empty observation at time 0 can never
    # be satisfied, so the reset loop does not contract.
    from condreach.evidence import ImpreciseEvidence, TimeSet, parse_formula

    omega = ImpreciseEvidence(
        ((TimeSet.point(0.0), parse_formula("empty")),)
    )
    imdp = abstract(invent, omega, coarsest_partition(omega))
    with pytest.raises(ZeroLikelihoodError):
        compute_bounds(imdp, invent_weights, invent, omega)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_robust_vi_monotone_in_inner(invent, invent1, invent_weights, seed):
    # For the same outer direction, friendly nature never does worse
    # than adversarial nature.
    imdp = abstract(invent, invent1, coarsest_partition(invent1))
    vmax, _ = robust_value_iteration(imdp, invent_weights, "max", "max")
    vmin, _ = robust_value_iteration(imdp, invent_weights, "max", "min")
    assert vmax[0][0, imdp.initial] >= vmin[0][0, imdp.initial] - 1e-9


def _separated(q_val, outer):
    """Rows whose best two q-values differ by more than 1e-12."""
    if q_val.shape[1] < 2:
        return np.ones((q_val.shape[0], q_val.shape[2]), bool)
    ranked = np.sort(q_val, axis=1)
    if outer == "max":
        gap = ranked[:, -1] - ranked[:, -2]
    else:
        gap = ranked[:, 1] - ranked[:, 0]
    return gap > 1e-12


def _model_rows(imdp, i, a):
    """Layer i of a sweep's (n_cells_i, n_states) array at the model's
    states: the anchor layer holds one, the initial state."""
    return a[:, [imdp.initial]] if i == 0 else a


def _assert_sweep_matches(imdp, got, want, q_vals=None, outer=None,
                          err_msg=""):
    """Values and betas of two sweeps agree to 1e-12 at every model row,
    and so do the choices, each on the model's rows, wherever the best
    q-value is separated."""
    for i in range(imdp.n_layers):
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_allclose(
                _model_rows(imdp, i, a[i]), _model_rows(imdp, i, b[i]),
                rtol=0, atol=1e-12, err_msg=err_msg,
            )
    for i, rows in enumerate(imdp.rows):
        assert got[2][i].shape == (imdp.n_cells(i), len(rows)), err_msg
    for i, q_val in enumerate(q_vals or ()):
        sure = _separated(q_val, outer)
        np.testing.assert_array_equal(got[2][i][sure], want[2][i][sure],
                                      err_msg=err_msg)


def _full_sweep(imdp, layout, weights, v0, outer, inner, fixed=None):
    """A sweep's expanded (values, betas, choices).

    _expand returns the values and expands the sweep's vbs in place,
    whose betas are at [:, 1]; the choices are the sweep's own.  A
    second sweep with the same arguments, as _solve runs it before the
    fixpoint, must read (f, b) equal to the expanded values[0][0,
    initial] and betas[0][0, initial] bit for bit, although it may take
    its fills from the layers' memos.
    """
    vbs, choices = _sweep(imdp, layout, weights, v0, outer, inner, fixed)
    values = _expand(imdp, vbs)
    full = values, [a[:, 1] for a in vbs], choices
    vbs, _ = _sweep(imdp, layout, weights, v0, outer, inner, fixed)
    f, b = vbs[0][0, :, imdp.initial]
    assert f.tobytes() == full[0][0][0, imdp.initial].tobytes()
    assert b.tobytes() == full[1][0][0, imdp.initial].tobytes()
    return full


@pytest.mark.parametrize("outer", ["max", "min"])
@pytest.mark.parametrize("inner", ["max", "min"])
def test_batched_sweep_matches_row_greedy(imdp_cases, case_caches,
                                         reference_sweep, outer, inner):
    v0 = 0.0375
    for name, (imdp, weights) in imdp_cases.items():
        dense = dense_bounds(imdp, case_caches[name.split("-")[0]])
        layout = _prepare(imdp)
        got = _full_sweep(imdp, layout, weights, v0, outer, inner)
        *want, q_vals = reference_sweep(imdp, dense, weights, v0, outer,
                                        inner)
        _assert_sweep_matches(imdp, got, want, q_vals, outer, name)
        # Under one fixed scheduler both passes follow the same actions.
        fixed = tuple(got[2])
        got = _full_sweep(imdp, layout, weights, v0, None, inner, fixed)
        *want, _ = reference_sweep(imdp, dense, weights, v0, None, inner,
                                   fixed)
        _assert_sweep_matches(imdp, got, want, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    nc=st.integers(1, 3),
    nc2=st.integers(1, 3),
    n=st.integers(1, 6),
    maximize=st.booleans(),
)
# One-state blocks that are exactly 1 in two cells: every block equals the
# identity, yet the layer still has one row per cell.
@example(seed=109277, nc=2, nc2=1, n=1, maximize=False)
def test_q_values_match_greedy_on_tied_values(seed, nc, nc2, n, maximize):
    # Feasible rows around a random distribution with some zero and some
    # point-interval entries; values take three levels, so successors tie.
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), (nc, nc2, n))
    p[rng.random(p.shape) < 0.3] = 0.0
    p[..., 0] += p.sum(axis=-1) == 0
    p /= p.sum(axis=-1, keepdims=True)
    lower = p * rng.uniform(0.0, 1.0, p.shape)
    upper = np.minimum(1.0, p + rng.uniform(0.0, 0.5, p.shape))
    tight = rng.random(p.shape) < 0.2
    lower[tight] = upper[tight] = p[tight]
    vb = np.stack(
        (rng.integers(0, 3, (nc2, n)) / 2.0, rng.uniform(0, 1, (nc2, n))),
        axis=1,
    )
    # One gap per cell pair: the rows of a layer before the last.
    index = np.arange(nc * nc2).reshape(nc, nc2)
    layer = _rows(lumped(lower.reshape(-1, n, n), upper.reshape(-1, n, n)),
                  index, np.arange(n), None)
    q = _q_values(layer, vb, maximize).reshape(nc2, 2, nc, n)
    for j in range(nc):
        for j2 in range(nc2):
            for s in range(n):
                row = greedy_distribution(lower[j, j2, s], upper[j, j2, s],
                                          vb[j2, 0], maximize)
                np.testing.assert_allclose(q[j2, :, j, s], vb[j2] @ row,
                                           rtol=0, atol=1e-12)


def _random_gap_stacks(rng, n, counts):
    """Layers and dense (g, n, n) gap stacks whose cell pairs share gaps
    at random: (layers, lower, upper, index).

    Each layer draws between one gap and one gap per cell pair, with
    feasible rows around a random distribution (some entries zero, some
    point intervals), and a random gap index over them.
    """
    layers = tuple(
        np.repeat(10.0 * i + np.arange(c), 2).reshape(c, 2)
        for i, c in enumerate(counts)
    )
    lower, upper, index = [], [], []
    for nc, nc2 in zip(counts, counts[1:]):
        g = int(rng.integers(1, nc * nc2 + 1))
        p = rng.dirichlet(np.ones(n), (g, n))
        p[rng.random(p.shape) < 0.3] = 0.0
        p[..., 0] += p.sum(axis=-1) == 0
        p /= p.sum(axis=-1, keepdims=True)
        lo = p * rng.uniform(0.0, 1.0, p.shape)
        hi = np.minimum(1.0, p + rng.uniform(0.0, 0.5, p.shape))
        tight = rng.random(p.shape) < 0.2
        lo[tight] = hi[tight] = p[tight]
        lower.append(lo)
        upper.append(hi)
        index.append(rng.integers(0, g, (nc, nc2)))
    return layers, lower, upper, index


def _random_gap_imdp(rng, n, counts, reset_p=0.2):
    """Random interval MDP over _random_gap_stacks, storing the rows of
    its initial anchor state and its non-reset states, with its dense
    bounds per cell pair.  Each state of each layer after the anchor
    resets with probability reset_p."""
    layers, lower, upper, index = _random_gap_stacks(rng, n, counts)
    reset_masks = [rng.random(n) < reset_p for _ in layers]
    # The anchor layer violates no observation.
    reset_masks[0][:] = False
    return (_from_dense(layers, lower, upper, index, reset_masks),
            _dense_rows(lower, upper, index, reset_masks))


def _check_random_sweep(reference_sweep, rng, imdp, dense, tied, outer,
                        inner):
    """Check a free and a fixed-scheduler sweep of imdp against the dense
    reference over its dense bounds, with weights tied at three levels
    or not; returns the layout."""
    n = imdp.n_states
    if tied:
        weights = rng.integers(0, 3, n) / 2.0
    else:
        weights = rng.uniform(0.0, 1.0, n)
    v0 = 0.3
    layout = _prepare(imdp)
    got = _full_sweep(imdp, layout, weights, v0, outer, inner)
    *want, q_vals = reference_sweep(imdp, dense, weights, v0, outer, inner)
    _assert_sweep_matches(imdp, got, want, q_vals, outer)
    fixed = tuple(got[2])
    got = _full_sweep(imdp, layout, weights, v0, None, inner, fixed)
    *want, _ = reference_sweep(imdp, dense, weights, v0, None, inner, fixed)
    _assert_sweep_matches(imdp, got, want)
    return layout


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    cells=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    tied=st.booleans(),
    outer=st.sampled_from(["max", "min"]),
    inner=st.sampled_from(["max", "min"]),
)
@example(seed=7, n=1, cells=[3, 2], tied=True, outer="max", inner="min")
def test_sweep_by_gap_matches_dense_reference(reference_sweep, seed, n, cells,
                                              tied, outer, inner):
    # Values, betas and choices of the by-gap sweep equal the dense
    # per-row reference, with gaps repeated across cell pairs and weights
    # tied (three levels) or not.
    rng = np.random.default_rng(seed)
    imdp, dense = _random_gap_imdp(rng, n, [1, *cells])
    _check_random_sweep(reference_sweep, rng, imdp, dense, tied, outer,
                        inner)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    cells=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    reset_p=st.floats(0.5, 1.0),
    tied=st.booleans(),
    outer=st.sampled_from(["max", "min"]),
    inner=st.sampled_from(["max", "min"]),
)
# Steps into 0, 3 (all but one) and 1 reset successors of 4; then into
# 5 (all but one), 6 (all) and 2 of 6.
@example(seed=394, n=4, cells=[2, 2, 1], reset_p=0.5, tied=False,
         outer="max", inner="min")
@example(seed=15, n=6, cells=[2, 1, 2], reset_p=0.7, tied=True, outer="min",
         inner="max")
def test_sweep_with_dense_resets_matches_dense_reference(
    reference_sweep, seed, n, cells, reset_p, tied, outer, inner
):
    # Most states reset, so steps lump two or more reset successors into
    # one sink column, or keep their columns with fewer; the sweep still
    # equals the dense per-row reference at every model row.
    rng = np.random.default_rng(seed)
    imdp, dense = _random_gap_imdp(rng, n, [1, *cells], reset_p)
    layout = _check_random_sweep(reference_sweep, rng, imdp, dense, tied,
                                 outer, inner)
    for layer, reset in zip(layout, imdp.reset_masks[1:]):
        k = n if reset.sum() < 2 else n - reset.sum() + 1
        assert layer.lower.shape[1] == k


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    nc=st.integers(1, 4),
    nc2=st.integers(1, 4),
    maximize=st.booleans(),
)
def test_fill_memo_matches_fresh_layer(seed, n, nc, nc2, maximize):
    # One layer is fed a sequence of vectors; each result is bit-equal to
    # the one of a freshly built layer, whatever the memo holds.
    rng = np.random.default_rng(seed)
    _, [L], [U], [index] = _random_gap_stacks(rng, n, [nc, nc2])
    stacks = lumped(L, U)
    layer = _rows(stacks, index, np.arange(n), None)

    def check(vb, maximize):
        got = _q_values(layer, vb, maximize)
        want = _q_values(_rows(stacks, index, np.arange(n), None), vb,
                         maximize)
        assert np.array_equal(got, want)

    vb = rng.uniform(0.0, 1.0, (nc2, 2, n))
    check(vb, maximize)
    assert (layer.built, layer.reused) == (1, 0)
    # New values in the same order, and new betas.
    vb = np.stack((2.0 * vb[:, 0] + 0.5, rng.uniform(0.0, 1.0, (nc2, n))),
                  axis=1)
    check(vb, maximize)
    assert (layer.built, layer.reused) == (1, 1)
    # The other direction, then back.
    check(vb, not maximize)
    check(vb, maximize)
    # The order changes in the last next cell alone.
    vb = vb.copy()
    vb[-1, 0] = vb[-1, 0, ::-1]
    check(vb, maximize)
    # Values tied at three levels, then the same ties with new betas.
    vb[:, 0] = rng.integers(0, 3, (nc2, n)) / 2.0
    check(vb, maximize)
    vb[:, 1] = rng.uniform(0.0, 1.0, (nc2, n))
    check(vb, maximize)
    assert layer.built + layer.reused == 7
    assert layer.reused >= 2


def test_fill_counters_count_every_greedy(monkeypatch, imdp_cases,
                                          case_bounds):
    # On refined tandem1 the sweeps reuse fills, every _q_values call
    # either builds or reuses one, and each sweep calls it once per layer.
    imdp, _ = imdp_cases["tandem1-refined1"]
    calls = []
    q_values = solver._q_values

    def counted(*args):
        calls.append(1)
        return q_values(*args)

    monkeypatch.setattr(solver, "_q_values", counted)
    info = case_bounds("tandem1-refined1").info
    assert info["fills_reused"] > 0
    assert info["fills_built"] + info["fills_reused"] == len(calls)
    assert info["sweeps"] >= 2
    assert info["sweeps"] * (imdp.n_layers - 1) == len(calls)


def test_sweeps_stop_at_the_fixpoint(monkeypatch, case_bounds):
    # Warm-started at its own cold fixpoint, the robust solve takes the
    # sweep that finds it and one more for its values and scheduler.
    # Each sweep runs once per counted sweep.
    calls = []
    sweep = solver._sweep

    def counted(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(solver, "_sweep", counted)
    for name in ("invent1-refined0", "tandem1-refined0"):
        cold = case_bounds(name)
        assert cold.info["sweeps"] == len(calls), name
        calls.clear()
        warm = case_bounds(name, start=cold.info["fixpoint"])
        assert warm.info["sweeps"] == 2, name
        assert len(calls) == 2, name
        calls.clear()


def test_info_counts_solved_rows_and_columns(imdp_cases, case_bounds):
    # tandem1's anchor layer solves its one state, the initial one, and
    # every layer solves only its non-reset rows, towards the next
    # layer's non-reset states and one reset sink.
    imdp, _ = imdp_cases["tandem1-refined1"]
    info = case_bounds("tandem1-refined1").info
    n = imdp.n_states
    assert info["rows"][0] == (1, n)
    for i in range(1, imdp.n_layers - 1):
        live = n - int(imdp.reset_masks[i].sum())
        nc = imdp.n_cells(i)
        assert info["rows"][i] == (nc * live, nc * n)
    for i, (kept, dense) in enumerate(info["columns"]):
        resets = int(imdp.reset_masks[i + 1].sum())
        assert resets >= 2 and dense == n
        assert kept == n - resets + 1


def _reference_repair(imdp, sched):
    """Repair that reruns the full forward pass before fixing each layer."""
    choices = [c.copy() for c in sched]
    for i, rows in enumerate(imdp.rows):
        reach = _reference_reachable(imdp, tuple(choices))
        if not len(rows):
            continue
        for j in range(imdp.n_cells(i)):
            voters = reach[i][j][rows]
            votes = choices[i][j][voters if voters.any() else slice(None)]
            choices[i][j] = np.bincount(votes).argmax()
    return tuple(choices)


def _assert_repair_matches_reference(imdp, sched, err_msg=""):
    got = repair_consistency(imdp, sched)
    want = _reference_repair(imdp, sched)
    assert len(got) == len(want), err_msg
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, err_msg=err_msg)
    return got


def _assert_on_rows(imdp, sched, err_msg=""):
    """One int array per layer below the last, one choice per cell and
    row of the model."""
    assert len(sched) == imdp.n_layers - 1, err_msg
    for i, (choice, rows) in enumerate(zip(sched, imdp.rows)):
        assert choice.dtype.kind == "i", f"{err_msg} layer {i}"
        assert choice.shape == (imdp.n_cells(i), len(rows)), (
            f"{err_msg} layer {i}")


def _assert_one_choice_per_cell(imdp, sched, err_msg=""):
    """sched is on the model's rows, and every row of a cell holds the
    cell's one choice."""
    _assert_on_rows(imdp, sched, err_msg)
    for i, choice in enumerate(sched):
        assert (choice == choice[:, :1]).all(), f"{err_msg} layer {i}"


def _tied_votes_imdp():
    """Six-state interval MDP whose rows may move anywhere, with cells
    (1, 2, 3, 3, 1): every state a chosen row leads into is reachable."""
    n = 6
    counts = (1, 2, 3, 3, 1)
    layers = tuple(
        np.repeat(10.0 * i + np.arange(c), 2).reshape(c, 2)
        for i, c in enumerate(counts)
    )
    return _from_dense(
        layers,
        (np.zeros((1, n, n)),) * 4,
        (np.ones((1, n, n)),) * 4,
        (np.zeros((c, c2), int) for c, c2 in zip(counts, counts[1:])),
        [np.zeros(n, bool) for _ in counts],
    )


def test_one_pass_repair_matches_rerun_reachability(imdp_cases):
    rng = np.random.default_rng(3)
    for name, (imdp, weights) in imdp_cases.items():
        _, sigma_star = robust_value_iteration(imdp, weights, "max", "max")
        _, sigma_minus = robust_value_iteration(imdp, weights, "max", "min")
        schedulers = [sigma_star, sigma_minus]
        schedulers += [_random_scheduler(imdp, rng) for _ in range(4)]
        # Solved schedulers hold one choice per row of the model: the
        # anchor's initial state alone, then every non-reset state.
        for sched in (sigma_star, sigma_minus):
            _assert_on_rows(imdp, sched, name)
        for sched in schedulers:
            got = _assert_repair_matches_reference(imdp, sched, name)
            _assert_one_choice_per_cell(imdp, got, name)
    # Three-way ties and cells with no reachable voter.  The anchor
    # chooses layer 1's cell 1, so its cell 0 falls back to its non-reset
    # states, which elect action 2; cell 1 ties 2-2-2 and elects action 0,
    # which leaves layer 2's cells 1 and 2 unreached.  There cell 0 ties
    # 2-2-2 among its reachable voters, and cells 1 and 2 among all their
    # states; each elects 0.
    imdp = _tied_votes_imdp()
    sched = (
        np.array([[1]]),
        np.array([[2, 2, 2, 1, 1, 0], [2, 1, 0, 0, 1, 2]]),
        np.array([[1, 2, 0, 2, 1, 0], [2, 2, 1, 1, 0, 0], [2, 0, 1, 2, 0, 1]]),
        np.array([[0] * 6] * 3),
    )
    got = _assert_repair_matches_reference(imdp, sched)
    np.testing.assert_array_equal(got[0], [[1]])
    np.testing.assert_array_equal(got[1], [[2] * 6, [0] * 6])
    np.testing.assert_array_equal(got[2], [[0] * 6] * 3)
    # Sparse supports, where a repaired choice changes what is reachable.
    for _ in range(200):
        imdp = _sparse_imdp(rng)
        sched = _random_scheduler(imdp, rng)
        got = _assert_repair_matches_reference(imdp, sched)
        _assert_one_choice_per_cell(imdp, got)


def test_warm_start_keeps_bounds(imdp_cases, case_bounds):
    # The reset value's first guess changes the number of sweeps, not the
    # fixpoint the solve converges to.
    for name in imdp_cases:
        cold = case_bounds(name)
        for start in (cold.info["fixpoint"], 1.0):
            warm = case_bounds(name, start=start)
            assert warm.lower == pytest.approx(cold.lower, abs=1e-9), name
            assert warm.upper == pytest.approx(cold.upper, abs=1e-9), name


def test_reset_fixpoint_cannot_cycle(monkeypatch, tandem, tandem_weights):
    # On this evidence the max/min solve's g(v0) is neither convex nor
    # concave, and at iteration 3 plain Newton steps on the reset value
    # cycle with period 3 (1.2367e-4, 2.7491e-4, 2.2140e-4) until the
    # sweep cap.  A step that leaves the bracket of the root falls back
    # to the bracket's midpoint, so every solve converges in few sweeps:
    # each iteration's robust solve, and a max/min solve on its model.
    omega = parse_evidence(
        "evidence\n"
        "obs !first_full @ 0.1..0.6\n"
        "obs first_full & !second_full @ 1.0..1.5\n"
    )
    sweeps, calls = [], []
    bounds, sweep = solver.compute_bounds, solver._sweep

    def counted_sweep(*args):
        calls.append(1)
        return sweep(*args)

    def counted(imdp, weights, *args, **kwargs):
        report = bounds(imdp, weights, *args, **kwargs)
        sweeps.append(report.info["sweeps"])
        calls.clear()
        robust_value_iteration(imdp, weights, "max", "min")
        sweeps.append(len(calls))
        return report

    monkeypatch.setattr(solver, "_sweep", counted_sweep)
    monkeypatch.setattr(driver, "compute_bounds", counted)
    trace = analyze(tandem, omega, tandem_weights, AnalysisConfig(max_iters=6))
    assert len(trace.rows) == 6
    assert max(sweeps) <= 20, sweeps
    assert trace.lower <= trace.upper
    assert trace.lower == pytest.approx(0.00271958378698, rel=1e-9)
    assert trace.upper == pytest.approx(0.0259887837072, rel=1e-9)


def test_last_step_reads_the_stacks_in_place(imdp_cases):
    # The step into the last layer solves one row per gap and state,
    # which is how its gap stacks are stored: its greedy arrays are views
    # of them, not copies.  The other steps gather rows per cell pair.
    for name, (imdp, _) in imdp_cases.items():
        layout = _prepare(imdp)
        for layer, stacks in zip(layout, imdp.stacks):
            shared = [np.shares_memory(a, b) for a, b in (
                (layer.lower, stacks.lower), (layer.room, stacks.room),
                (layer.slack, stacks.slack))]
            if layer is layout[-1]:
                assert all(shared), name
            else:
                assert not any(shared), name


@pytest.mark.parametrize("nc2, k, m", [(2, 5, 12), (3, 7, 4), (1, 40, 1)])
@pytest.mark.parametrize("maximize", [True, False])
def test_fill_is_the_clipped_cumsum_bit_for_bit(nc2, k, m, maximize):
    # Rows outnumbering successors take k - 1 vector adds for the running
    # sum, the others cumsum; either way the fill is cumsum's, clipped.
    rng = np.random.default_rng(nc2 * k * m)
    room = rng.uniform(0.0, 0.3, (nc2 * k, m))
    room[rng.random(room.shape) < 0.3] = 0.0
    slack = rng.uniform(0.0, 1.0, (nc2, 1, m))
    layer = _Layer(rng.uniform(0.0, 0.1, (nc2, k, m)), room, slack, None,
                   None)
    vb = rng.integers(0, 4, (nc2, 2, k)) / 3.0
    _q_values(layer, vb, maximize)
    order, fill = layer.memo
    gathered = room[(order + k * np.arange(nc2)[:, None]).ravel()]
    gathered = gathered.reshape(nc2, k, m)
    want = np.clip(slack - (np.cumsum(gathered, axis=1) - gathered), 0.0,
                   gathered)
    assert fill.tobytes() == want.tobytes()


def test_witness_follows_the_repaired_path(invent):
    # The path's cells give their midpoints.
    imdp = _toy_imdp()
    sched = repair_consistency(imdp, _toy_sched([0, 1, 1]))
    assert witness_times(imdp, sched) == (1.25, 3.25, 9.0)
    # No state satisfies the second observation, so every state resets
    # at its layer, which has no rows: the repaired scheduler has no
    # choice there, and the path through it no timing.
    omega = parse_evidence(
        "evidence\n"
        "obs true @ 0.5..1\n"
        "obs empty & !empty @ 1.5..2\n"
        "obs true @ 2.5..3\n"
    )
    imdp = abstract(invent, omega, coarsest_partition(omega))
    assert [len(rows) for rows in imdp.rows] == [1, 3, 0]
    sched = repair_consistency(imdp, tuple(
        np.zeros((imdp.n_cells(i), len(rows)), int)
        for i, rows in enumerate(imdp.rows)))
    _assert_one_choice_per_cell(imdp, sched)
    assert sched[2].shape == (1, 0)
    assert witness_times(imdp, sched) is None


def test_zero_likelihood_witness_keeps_the_fallback(monkeypatch, invent,
                                                    invent1, invent_weights):
    # Observed in state a somewhere in [0, 2], a chain that leaves a at
    # rate 30 is in a at the window's midpoint with probability e^-30,
    # below ZERO_LIKELIHOOD: the witness has zero likelihood, and the
    # lower bound falls back to min(w), or keeps the best witness so far.
    ctmc = from_rates(["a", "b"], "a", {("a", "b"): 30.0},
                      {"a": ["up"], "b": ["down"]})
    omega = ImpreciseEvidence(
        ((TimeSet.of((0.0, 2.0)), parse_formula("up")),))
    imdp = abstract(ctmc, omega, coarsest_partition(omega))
    w = np.array([0.5, 0.2])
    report = compute_bounds(imdp, w, ctmc, omega)
    assert report.info["witness"] is None
    assert report.lower == 0.2
    assert report.upper == pytest.approx(0.5, abs=1e-9)
    best = ((0.0,), 0.5)
    report = compute_bounds(imdp, w, ctmc, omega, best=best)
    assert report.info["witness"] == best
    assert report.lower == 0.5 * (1.0 - WITNESS_MARGIN)

    # Under either direction, on invent1's coarsest model with every
    # witness weighed as zero likelihood.
    def refused(*args):
        raise ZeroLikelihoodError("zero likelihood")

    monkeypatch.setattr(unfolding, "conditional_weight", refused)
    imdp = abstract(invent, invent1, coarsest_partition(invent1))
    rmax = compute_bounds(imdp, invent_weights, invent, invent1)
    rmin = compute_bounds(imdp, invent_weights, invent, invent1,
                          direction="min")
    assert rmax.info["witness"] is rmin.info["witness"] is None
    assert rmax.lower == invent_weights.min()
    assert rmin.upper == invent_weights.max()


def _windows(formulas):
    """Three 0.4-wide windows at 0.5, 1.5 and 2.5, and the instance at
    their midpoints."""
    omega = ImpreciseEvidence(tuple(
        (TimeSet.of((a, a + 0.4)), parse_formula(f))
        for a, f in zip((0.5, 1.5, 2.5), formulas)
    ))
    return omega, PreciseEvidence(tuple(zip((0.7, 1.7, 2.7), omega.formulas)))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 6),
    formulas=st.lists(st.sampled_from(("true", "a", "!a", "b", "!b")),
                      min_size=3, max_size=3),
    direction=st.sampled_from(["max", "min"]),
)
# The coarsest model's max/max solve took the reset value 0,
# 0.19545507894, 0.19545508114, and then a Newton step left a bracket
# still open above, (-inf, inf) at the start, whose midpoint made it inf
# and every later sweep nan.  The fixpoint is a convex combination of
# the weights, so the bracket starts at [min(w), max(w)].
@example(seed=8525, n=4, formulas=["a", "true", "!b"], direction="max")
def test_witness_lies_inside_the_outer_bound(random_chain, seed, n, formulas,
                                              direction):
    # A witness is one timing's exact weight, so the robust optimum over
    # all timings bounds it: below the upper bound under max, above the
    # lower under min, over two rounds of refinement.  The outer bound is
    # the solve's iterate, within its tolerance of the fixpoint, and a
    # reset loop that barely contracts amplifies its rounding: the
    # witness passed it by up to 2.8e-11 in 3 of 1296 such cases (see the
    # next test).  As in the other random-evidence tests, the evidence is
    # likely enough (1e-3 at the windows' midpoints); a model whose
    # evidence has (near-)zero likelihood is no case of the property, but
    # a solve that does not converge fails it.
    rng = np.random.default_rng(seed)
    ctmc = random_chain(rng, n)
    omega, mid = _windows(formulas)
    assume(all(obs.aps <= ctmc.alphabet for obs in omega.formulas))
    assume(evidence_likelihood(ctmc, mid) >= 1e-3)
    w = rng.uniform(0.0, 1.0, n)
    cache = TransientBoundCache(ctmc)
    psi = coarsest_partition(omega)
    for _ in range(2):
        imdp = abstract(ctmc, omega, psi, cache=cache)
        try:
            report = compute_bounds(imdp, w, ctmc, omega, direction=direction)
        except ZeroLikelihoodError:
            assume(False)
        value = report.info["witness"][1]
        if direction == "max":
            assert value <= report.upper + DEFAULT_VI_TOL
        else:
            assert value >= report.lower - DEFAULT_VI_TOL
        psi = apply_splits(psi, psi.splittable())


@pytest.mark.xfail(strict=True, reason=(
    "the robust solve stops within vi_tol of a reset fixpoint whose loop "
    "barely contracts (b = 1 - 5.3e-9), so its upper bound undershoots"))
def test_outer_bound_dominates_a_low_likelihood_witness(random_chain):
    # Hypothesis's counterexample: the midpoint instance has likelihood
    # 5.8e-4, and its exact weight 0.86280824190626 exceeds the coarsest
    # model's upper bound 0.8628082418843689 by 2.2e-11.  A bound the
    # solve certifies, not an iterate within its tolerance, would hold.
    rng = np.random.default_rng(17919)
    ctmc = random_chain(rng, 3)
    omega, mid = _windows(["!a", "true", "!a"])
    w = rng.uniform(0.0, 1.0, 3)
    imdp = abstract(ctmc, omega, coarsest_partition(omega))
    report = compute_bounds(imdp, w, ctmc, omega)
    assert conditional_weight(ctmc, mid, w) <= report.upper + 1e-12


@pytest.mark.parametrize("tol", [1e-11, 1e-12, 1e-14])
def test_tight_tolerance_solve_converges(random_chain, tol):
    # The model of the xfail above diverged to a nan reset value at these
    # tolerances, as its bracket opened at (-inf, inf), like the example
    # of test_witness_lies_inside_the_outer_bound.  From [min(w), max(w)]
    # the solve converges in a few sweeps, and this tightly its upper
    # bound dominates the midpoint instance.
    rng = np.random.default_rng(17919)
    ctmc = random_chain(rng, 3)
    omega, mid = _windows(["!a", "true", "!a"])
    w = rng.uniform(0.0, 1.0, 3)
    imdp = abstract(ctmc, omega, coarsest_partition(omega))
    report = compute_bounds(imdp, w, ctmc, omega, tol=tol)
    assert report.info["sweeps"] <= 5
    assert conditional_weight(ctmc, mid, w) <= report.upper + 1e-12
