import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import condreach.ctmc as ctmc_module
from condreach.ctmc import Ctmc, parse_ctmc
from condreach.driver import (
    AnalysisConfig,
    analyze,
    apply_splits,
    guided_split_targets,
)
from condreach import driver, solver, unfolding
from condreach.evidence import (
    ImpreciseEvidence,
    PreciseEvidence,
    SemanticError,
    TimeSet,
    coarsest_partition,
    is_instance,
    parse_evidence,
    parse_formula,
    sample_instance,
)
from condreach.fixtures import fixture_text
from condreach.unfolding import (
    bayes_quotient_weight,
    conditional_weight,
    evidence_likelihood,
)
from oracles import refines


def test_config_validation():
    AnalysisConfig()
    with pytest.raises(ValueError):
        AnalysisConfig(time_limit=0)
    with pytest.raises(ValueError):
        AnalysisConfig(mode="fast")
    with pytest.raises(ValueError):
        AnalysisConfig(direction="up")
    with pytest.raises(ValueError):
        AnalysisConfig(vi_tol=-1)
    # A transient tolerance is a probability mass to drop.
    for bad in (1.0, 5.0, 0.0, float("nan")):
        with pytest.raises(SemanticError, match="transient"):
            AnalysisConfig(transient_tol=bad)
    # A bad setting is a semantic error, which the CLI maps to exit 3.
    for bad in (0, -3):
        with pytest.raises(SemanticError):
            AnalysisConfig(max_iters=bad)


@pytest.mark.parametrize("w", [
    [-1.0, 0.0, 1.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]],
    [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
])
def test_analyze_rejects_malformed_weights(invent, invent1, w):
    # analyze checks the weights as the exact oracles do, before any work.
    with pytest.raises(ValueError, match="weights must be"):
        analyze(invent, invent1, w, AnalysisConfig(max_iters=1))


@pytest.mark.parametrize("mode", ["guided", "full"])
def test_one_model_alive_at_a_time(monkeypatch, tandem, tandem1,
                                   tandem_weights, mode):
    # Each iteration's interval MDP is freed, by reference counting alone,
    # before the next iteration's is built.
    from condreach import driver

    models = []
    build = driver.abstract

    def tracked(*args, **kwargs):
        alive = [k for k, ref in enumerate(models, 1) if ref() is not None]
        assert not alive, f"the models of iterations {alive} are alive"
        imdp = build(*args, **kwargs)
        models.append(weakref.ref(imdp))
        return imdp

    monkeypatch.setattr(driver, "abstract", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace = analyze(tandem, tandem1, tandem_weights,
                        AnalysisConfig(max_iters=4, mode=mode))
    finally:
        if enabled:
            gc.enable()
    assert len(models) == len(trace.rows) == 4


def test_analyze_peak_memory(tandem1, tandem_weights):
    # The traced allocation peak of tandem1 at cap 8 stays under a fixed
    # bound: 11.3 MB, set while the last model's gap stacks are
    # assembled, with stacks that keep only what the solves read
    # (lumped columns and a bool support).  Full (gap, rows, n) float
    # stacks read 19.6 MB, and 34.6 MB with the previous model alive.
    # A dense temporary brought back fails here, not only in the
    # benchmark's peak RSS.  Mutants that fail: keeping each gap's full
    # float lower and upper rows beside the reduced stacks read 20.7 MB,
    # building a layer's full rows in one chunk 22.9 MB, and a float
    # support 24.5 MB.  The chain is parsed here, so that its table of
    # jump powers (15 of 120 x 120, 1.7 MB) is always counted, whatever
    # ran before on a shared chain.
    chain = parse_ctmc(fixture_text("tandem.ctmc"))
    tracemalloc.start()
    try:
        analyze(chain, tandem1, tandem_weights, AnalysisConfig(max_iters=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15e6, f"peak {peak / 1e6:.1f} MB"


def test_chain_keeps_the_highest_power_asked(monkeypatch, tandem1,
                                             tandem_weights):
    # After an analyze and exact weights of sampled instances, the chain's
    # table holds P^0 .. P^s for the largest s = ceil(sqrt(cut)) that a
    # kernel or a series asked for, and no power more; its table of
    # initial rows holds e_init P^0 .. e_init P^(c - 1) for the largest
    # first-gap cut c that an exact weight asked for, and no row more.
    chain = parse_ctmc(fixture_text("tandem.ctmc"))
    cuts, first_cuts = [], []
    series, initial_rows = ctmc_module.polynomial_series, Ctmc.initial_rows

    def seen_series(powers, coef, start=None, left=False):
        # The rows of a stack of kernels are as long as its longest cut.
        cuts.append(np.shape(coef)[-1])
        return series(powers, coef, start, left)

    def seen_initial_rows(self, top):
        first_cuts.append(top + 1)
        return initial_rows(self, top)

    monkeypatch.setattr(ctmc_module, "polynomial_series", seen_series)
    monkeypatch.setattr(unfolding, "polynomial_series", seen_series)
    monkeypatch.setattr(Ctmc, "initial_rows", seen_initial_rows)
    analyze(chain, tandem1, tandem_weights, AnalysisConfig(max_iters=8))
    rng = np.random.default_rng(11)
    for _ in range(20):
        conditional_weight(chain, sample_instance(tandem1, rng),
                           tandem_weights)
    top = max(math.isqrt(c - 1) + 1 for c in cuts)
    assert top > 1
    assert len(chain._tables["powers"]) == top + 1
    assert len(first_cuts) > 20
    assert len(chain._tables["rows"]) == max(first_cuts)


def test_splittable_skips_points(invent1):
    psi = coarsest_partition(invent1)
    # Observation 0 is the point window {0}; the other three can split.
    assert [m.tolist() for m in psi.splittable()] == [
        [False], [True], [True], [True]
    ]


def test_guided_targets_respect_reachability(invent1):
    psi = coarsest_partition(invent1)
    # Reachability masks: layer i+1 belongs to observation i.
    reach = [np.ones((1, 3), bool) for _ in range(6)]
    reach[3] = np.zeros((1, 3), bool)  # observation 2 unreachable
    assert [m.tolist() for m in guided_split_targets(psi, reach)] == [
        [False], [True], [False], [True]
    ]


def test_apply_splits_keeps_indices_valid(invent1):
    psi = coarsest_partition(invent1)
    child = apply_splits(psi, [[False], [True], [False], [True]])
    assert child.cell_counts() == (1, 2, 1, 2)
    assert refines(child, psi)


def test_analyze_iterates_and_tightens(invent, invent1, invent_weights):
    trace = analyze(
        invent, invent1, invent_weights,
        AnalysisConfig(time_limit=60, max_iters=6),
    )
    assert len(trace.rows) == 6
    widths = [r.upper - r.lower for r in trace.rows]
    assert widths[-1] < widths[0]
    assert trace.rows[0].splits == 0
    assert all(r.splits > 0 for r in trace.rows[1:])
    # Lower bounds may only rely on sound schedulers: order always holds.
    assert all(r.lower <= r.upper + 1e-9 for r in trace.rows)
    # Nested refinements cannot loosen the outer bound beyond the solver
    # tolerance.
    tol = AnalysisConfig().vi_tol
    uppers = [r.upper for r in trace.rows]
    assert all(b <= a + tol for a, b in zip(uppers, uppers[1:]))
    assert refines(trace.final_partition, coarsest_partition(invent1))


def test_frozen_coarsest_bounds(invent, invent1, invent_weights):
    trace = analyze(
        invent, invent1, invent_weights,
        AnalysisConfig(time_limit=60, max_iters=1),
    )
    # The witness timing of the coarsest model is (0, 1, 2, 3), the
    # windows' midpoints.
    assert trace.lower == pytest.approx(0.0786201633114, abs=1e-9)
    assert trace.upper == pytest.approx(0.132121889564, abs=1e-9)


def test_width_target_stops_early(invent, invent1, invent_weights):
    trace = analyze(
        invent, invent1, invent_weights,
        AnalysisConfig(time_limit=60, width_target=0.05),
    )
    assert trace.upper - trace.lower <= 0.05
    assert len(trace.rows) < 30


def test_degenerate_evidence_single_iteration(invent, invent_weights):
    omega = ImpreciseEvidence(
        tuple(
            (TimeSet.point(t), parse_formula("nonempty"))
            for t in (0.5, 1.5, 2.5)
        )
    )
    trace = analyze(invent, omega, invent_weights,
                    AnalysisConfig(time_limit=60))
    assert len(trace.rows) == 1  # nothing left to split
    exact = conditional_weight(invent, omega.to_precise(), invent_weights)
    assert trace.lower == pytest.approx(exact, abs=1e-9)
    assert trace.upper == pytest.approx(exact, abs=1e-9)


_FORMULAS = ("true", "a", "!a", "b", "!b", "a & b", "a & !b", "!a & !b")


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 6),
    times=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4,
                   unique=True),
    formulas=st.lists(st.sampled_from(_FORMULAS), min_size=4, max_size=4),
    direction=st.sampled_from(["max", "min"]),
)
def test_point_evidence_unfoldings_agree(random_chain, seed, n, times,
                                         formulas, direction):
    # On point evidence the reset-fixpoint unfolding, the Bayes quotient
    # and the one-iteration interval MDP must all give the same weight.
    # The last observation's formula is random, so both unfoldings' resets
    # on the last layer are exercised.
    rng = np.random.default_rng(seed)
    ctmc = random_chain(rng, n)
    w = rng.uniform(0.0, 1.0, n)
    omega = ImpreciseEvidence(tuple(
        (TimeSet.point(t), parse_formula(f))
        for t, f in zip(sorted(times), formulas)
    ))
    assume(all(obs.aps <= ctmc.alphabet for obs in omega.formulas))
    rho = omega.to_precise()
    assume(evidence_likelihood(ctmc, rho) >= 1e-3)
    exact = conditional_weight(ctmc, rho, w)
    assert exact == pytest.approx(bayes_quotient_weight(ctmc, rho, w),
                                  abs=1e-11)
    trace = analyze(ctmc, omega, w, AnalysisConfig(direction=direction))
    assert len(trace.rows) == 1
    assert trace.lower == pytest.approx(exact, abs=1e-9)
    assert trace.upper == pytest.approx(exact, abs=1e-9)


def test_trace_csv_shape(invent, invent1, invent_weights):
    trace = analyze(invent, invent1, invent_weights,
                    AnalysisConfig(time_limit=60, max_iters=2))
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == (
        "iter,elapsed_s,lower,upper,splits,imdp_states,imdp_actions,"
        "imdp_transitions,abstract_s,prune_s,solve_s"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and len(first) == 11


def test_min_direction(invent, invent1, invent_weights):
    tmax = analyze(invent, invent1, invent_weights,
                   AnalysisConfig(time_limit=60, max_iters=4))
    tmin = analyze(invent, invent1, invent_weights,
                   AnalysisConfig(time_limit=60, max_iters=4, direction="min"))
    assert tmin.lower <= tmin.upper
    # The minimal conditional weight cannot exceed the maximal one.
    assert tmin.lower <= tmax.upper + 1e-9


def test_inner_bound_never_loosens(invent, invent1, invent_weights):
    # The inner bound is the best witness so far: under max the lower
    # bound never falls, under min the upper never rises, each exactly.
    # The final witness is an instance of the evidence, and its exact
    # weight lies inside the bounds.
    invent3 = parse_evidence(fixture_text("invent3.evidence"))
    for omega, direction in ((invent1, "max"), (invent3, "min")):
        trace = analyze(invent, omega, invent_weights,
                        AnalysisConfig(max_iters=12, direction=direction))
        inner = [r.lower if direction == "max" else -r.upper
                 for r in trace.rows]
        assert all(b >= a for a, b in zip(inner, inner[1:])), direction
        assert inner[-1] > inner[0], direction
        times, value = trace.final_report.info["witness"]
        rho = PreciseEvidence(tuple(zip(times, omega.formulas)))
        assert is_instance(rho, omega)
        assert conditional_weight(invent, rho, invent_weights) == value
        assert trace.lower <= value <= trace.upper


@pytest.mark.parametrize("chain, evidence, weights, cap", [
    ("invent", "invent1", "invent_weights", 60),
    ("tandem", "tandem1", "tandem_weights", 8),
])
def test_witness_dominates_the_repaired_minus_scheduler(
    monkeypatch, request, chain, evidence, weights, cap
):
    # The value of the repaired guide scheduler under minimizing nature
    # is a sound inner bound too.  No theorem orders it and the witness,
    # but on these pinned runs the best witness so far is at least that
    # value at every iteration, less the margin.
    bounds = solver.compute_bounds
    seen = []

    def checked(imdp, w, *args, **kwargs):
        report = bounds(imdp, w, *args, **kwargs)
        sigma_hat = solver.repair_consistency(imdp, report.guide_scheduler)
        old = solver.evaluate_scheduler(imdp, w, sigma_hat, "min")
        seen.append((report.info["witness"][1], old))
        return report

    monkeypatch.setattr(driver, "compute_bounds", checked)
    analyze(request.getfixturevalue(chain), request.getfixturevalue(evidence),
            request.getfixturevalue(weights), AnalysisConfig(max_iters=cap))
    assert len(seen) == cap
    for k, (witness, old) in enumerate(seen, 1):
        assert witness >= old * (1.0 - solver.WITNESS_MARGIN), k


def test_full_mode_counts_every_splittable_cell(invent, invent1, invent_weights):
    # invent1's three windows each bisect every cell: 3, then 6 splits.
    trace = analyze(invent, invent1, invent_weights,
                    AnalysisConfig(mode="full", max_iters=3))
    assert [r.splits for r in trace.rows] == [0, 3, 6]
    assert trace.final_partition.cell_counts() == (1, 4, 4, 4)


# Per iteration (lower, upper, splits, IMDP states, actions, transitions)
# of refinement runs, keyed by (chain, evidence, weights, cap, mode).  The
# invent1 run was recorded before the Poisson weights were batched and
# the bound cache was called once per model, the full-mode tandem2 run
# before the solver lumped reset successors into one column, and the
# tandem1 run, to the benchmark's cap of 8, before its kernels were
# marched and its gap stacks carried between models.  The lower bounds
# were recorded again when the inner bound became the exact weight of the
# best witness timing so far, and the upper bounds of tandem1's row 1 and
# tandem2's rows 1 and 2 when the reset fixpoint was solved on the excess
# (see test_reset_fixpoint_is_the_dense_reference_root).  A change that
# moves a bound by more than 1e-12 relative, or a split or a size at all,
# shows here.
_GOLDEN_TRACES = {
    ("invent", "invent1", "invent_weights", 12, "guided"): [
        (0.0786201633113967, 0.1321218895642676, 0, 11, 9, 17),
        (0.08030535094140433, 0.11558728629001724, 3, 20, 23, 51),
        (0.08030535094140433, 0.11232808603605017, 3, 29, 43, 103),
        (0.08134239961223443, 0.10229332550840009, 3, 38, 69, 173),
        (0.08134239961223443, 0.10017625254880808, 3, 47, 101, 261),
        (0.08134239961223443, 0.09856332406702904, 3, 56, 139, 367),
        (0.08134239961223443, 0.0973315790575859, 3, 65, 183, 491),
        (0.08191850217286095, 0.09347777158345263, 3, 74, 233, 633),
        (0.08191850217286095, 0.09229537995510581, 3, 83, 289, 793),
        (0.08191850217286095, 0.09126627404507472, 3, 92, 351, 971),
        (0.08191850217286095, 0.09036987638489843, 3, 101, 419, 1167),
        (0.08191850217286095, 0.08958844693190249, 3, 110, 493, 1381),
    ],
    ("tandem", "tandem1", "tandem_weights", 8, "guided"): [
        (0.0038389012919716704, 0.28710743340087297, 0, 241, 227, 12722),
        (0.0040259111346810745, 0.18898181532720768, 2, 481, 662, 50404),
        (0.0040259111346810745, 0.12375819941127467, 3, 841, 1723, 150592),
        (0.004032012172975788, 0.07249506936007376, 3, 1201, 3200, 300700),
        (0.004043579669305294, 0.058907717161175134, 3, 1561, 5093,
         500728),
        (0.004043579669305294, 0.05168525387869962, 3, 1921, 7402, 750676),
        (0.004043579669305294, 0.04541355022346746, 3, 2281, 10127,
         1050544),
        (0.004043579669305294, 0.02345066926415537, 3, 2641, 13268,
         1400332),
    ],
    ("tandem", "tandem2", "tandem_phase2_weights", 4, "full"): [
        (0.14355177317917278, 0.9635967831508196, 0, 241, 239, 2262),
        (0.14360496352497418, 0.6361371919407346, 2, 481, 510, 8364),
        (0.14360496352497418, 0.3209980449005693, 4, 961, 1148, 32088),
        (0.1436412205019187, 0.21177663168658248, 8, 1921, 2808, 125616),
    ],
}

@pytest.mark.parametrize("case", list(_GOLDEN_TRACES), ids=lambda c: c[1])
def test_golden_trace(case, request):
    chain, evidence, weights, cap, mode = case
    trace = analyze(
        request.getfixturevalue(chain), request.getfixturevalue(evidence),
        request.getfixturevalue(weights),
        AnalysisConfig(max_iters=cap, mode=mode),
    )
    golden = _GOLDEN_TRACES[case]
    assert len(trace.rows) == len(golden)
    for row, (lower, upper, *counts) in zip(trace.rows, golden):
        assert row.lower == pytest.approx(lower, rel=1e-12, abs=0)
        assert row.upper == pytest.approx(upper, rel=1e-12, abs=0)
        assert [row.splits, row.imdp_states, row.imdp_actions,
                row.imdp_transitions] == counts, row.iteration
