"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a `criterion N:` line with the measured numbers so the
verbose run doubles as a report.  Shared expensive runs are session
fixtures.
"""

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.linalg import expm

from condreach.abstraction import TransientBoundCache, abstract
from condreach.cli import main as cli_main
from condreach.ctmc import transient_matrix
from condreach.driver import AnalysisConfig, analyze
from condreach.evidence import (
    ImpreciseEvidence,
    PreciseEvidence,
    TimeSet,
    coarsest_partition,
    is_instance,
    parse_formula,
    sample_instance,
)
from condreach.fixtures import fixture_path
from condreach.simulate import sample_envelope
from condreach.solver import (
    compute_bounds,
    greedy_distribution,
    repair_consistency,
)
from condreach.unfolding import bayes_quotient_weight, conditional_weight
from oracles import (
    audit_consistency,
    dense_bounds,
    refines,
    rejection_estimate,
    simulate_states_at,
)
from test_solver import _lp_optimum, _random_intervals, _toy_imdp, _toy_sched

INVENT = str(fixture_path("invent.ctmc"))
INVENT1 = str(fixture_path("invent1.evidence"))
WEIGHTS = "prop:'empty'@0.1"

# Reference bounds for the first benchmark evidence.
REF_LOWER = 0.082536
REF_UPPER = 0.087138


@pytest.fixture(scope="session")
def invent1_cli_run(tmp_path_factory):
    """Converged cmd_analyze run on the first benchmark evidence.

    60 iterations converge well inside the 10-minute budget (seconds on a
    laptop); the budget itself is passed through as the time limit.
    """
    out = tmp_path_factory.mktemp("acc") / "trace.csv"
    res = CliRunner().invoke(
        cli_main,
        ["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
         "--time-limit", "600", "--max-iters", "60", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    summary = dict(
        kv.split("=") for kv in res.output.strip().splitlines()[-1].split()
    )
    return float(summary["lower"]), float(summary["upper"]), out


@pytest.fixture(scope="session")
def invent_runs(invent, invent1, invent2, invent_weights):
    """Library-level refinement runs for both benchmark evidences."""
    cfg = AnalysisConfig(time_limit=300, max_iters=25)
    return {
        1: analyze(invent, invent1, invent_weights, cfg),
        2: analyze(invent, invent2, invent_weights, cfg),
    }


@pytest.fixture(scope="session")
def envelopes(invent, invent1, invent2, invent_weights):
    return {
        1: sample_envelope(invent, invent1, invent_weights, 500, seed=0),
        2: sample_envelope(invent, invent2, invent_weights, 500, seed=0),
    }


def test_criterion_1_benchmark_reproduction(invent1_cli_run, envelopes):
    lower, upper, _ = invent1_cli_run
    assert 0.080 <= lower <= 0.0826, f"lower bound {lower} out of range"
    assert upper <= 0.090, f"upper bound {upper} too loose"
    env_max = envelopes[1].max
    if 0.0871 <= upper:
        note = "upper in the reference plateau range"
    else:
        # Tighter than the reference plateau: still sound as long as it
        # dominates the sampled envelope and the reference lower bound.
        assert upper >= env_max - 1e-9
        assert upper >= REF_LOWER - 1e-6
        note = (
            f"upper {upper:.6f} tighter than the reference plateau "
            f"[{REF_LOWER}, {REF_UPPER}], still above the sampled "
            f"envelope max {env_max:.6f}"
        )

    # 60-second smoke variant must reach width <= 0.02.
    res = CliRunner().invoke(
        cli_main,
        ["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
         "--time-limit", "60", "--width-target", "0.02"],
    )
    assert res.exit_code == 0, res.output
    summary = dict(
        kv.split("=") for kv in res.output.strip().splitlines()[-1].split()
    )
    width = float(summary["upper"]) - float(summary["lower"])
    assert width <= 0.02
    print(
        f"criterion 1: PASS bounds=[{lower:.6f}, {upper:.6f}] "
        f"smoke_width={width:.4f} ({note})"
    )


def test_criterion_2_sandwich_soundness(
    invent, invent1, invent2, invent_weights, invent_runs, envelopes
):
    for k, omega in ((1, invent1), (2, invent2)):
        trace = invent_runs[k]
        env = envelopes[k]
        values = [v for _, v in env.samples]
        # Every instance value sits below the upper bound; the lower
        # bound is witnessed by an instance whose exact weight the report
        # carries (instance values below L exist by design: L is one
        # realized timing's weight, not a bound on every instance).
        assert all(v <= trace.upper + 1e-9 for v in values)
        assert env.max <= trace.upper + 1e-9
        times, value = trace.final_report.info["witness"]
        witness = PreciseEvidence(tuple(zip(times, omega.formulas)))
        assert is_instance(witness, omega)
        wv = conditional_weight(invent, witness, invent_weights)
        assert wv == value >= trace.lower
    print(
        "criterion 2: PASS "
        f"ev1 env=[{envelopes[1].min:.6f}, {envelopes[1].max:.6f}] "
        f"bounds=[{invent_runs[1].lower:.6f}, {invent_runs[1].upper:.6f}]; "
        f"ev2 env=[{envelopes[2].min:.6f}, {envelopes[2].max:.6f}] "
        f"bounds=[{invent_runs[2].lower:.6f}, {invent_runs[2].upper:.6f}]"
    )


def test_criterion_3_precise_exactness(invent, invent1, invent_weights):
    rng = np.random.default_rng(2024)
    runner = CliRunner()
    instances = [sample_instance(invent1, rng) for _ in range(20)]
    # One run of 10**6 paths, read at the union of all instances' times,
    # gives each instance its own 10**6-path estimate; the estimates of
    # different instances are correlated.
    grid = np.unique(np.concatenate([rho.times for rho in instances]))
    states = simulate_states_at(invent, grid, 10**6, rng)
    worst = 0.0
    for k, rho in enumerate(instances):
        body = "evidence\n" + "".join(
            f"obs {f} @ {t!r}..{t!r}\n" for t, f in rho.observations
        )
        with runner.isolated_filesystem():
            with open("rho.evidence", "w") as fh:
                fh.write(body)
            res = runner.invoke(
                cli_main,
                ["precise", INVENT, "rho.evidence", "--weights", WEIGHTS],
            )
        assert res.exit_code == 0, res.output
        got = float(res.output)
        columns = np.searchsorted(grid, rho.times)
        mc = rejection_estimate(invent, rho, invent_weights, states[:, columns])
        assert mc.n_accepted > 0
        assert abs(got - mc.value) <= 3.0 * mc.sigma, (
            f"instance {k}: cli {got} vs MC {mc.value} +- {mc.sigma}"
        )
        quotient = bayes_quotient_weight(invent, rho, invent_weights)
        assert got == pytest.approx(quotient, abs=1e-9)
        worst = max(worst, abs(got - mc.value) / mc.sigma)
    print(f"criterion 3: PASS 20 instances, worst MC deviation {worst:.2f} sigma")


def test_criterion_4_transient_accuracy(random_chain):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        chain = random_chain(rng, int(rng.integers(2, 11)), max_rate=10.0)
        Q = chain.generator()
        for t in rng.uniform(0.0, 4.0, 10):
            err = np.abs(transient_matrix(chain, t) - expm(Q * t)).max()
            worst = max(worst, err)
    assert worst <= 1e-8
    print(f"criterion 4: PASS 100 chains x 10 times, max error {worst:.2e}")


def test_criterion_5_interval_soundness(invent, invent1):
    rng = np.random.default_rng(99)
    cache = TransientBoundCache(invent)
    psi = coarsest_partition(invent1)
    partitions = [psi]
    imdp = abstract(invent, invent1, psi, cache=cache)
    models = [imdp]
    for _ in range(2):
        from condreach.driver import apply_splits

        child = apply_splits(partitions[-1], partitions[-1].splittable())
        models.append(abstract(invent, invent1, child, cache=cache))
        partitions.append(child)

    checked = 0
    for imdp in models:
        # The model keeps no per-state bounds; the dense helper builds
        # them whole from the same cache, one block per cell pair.
        dense = dense_bounds(imdp, cache)
        for i in range(imdp.n_layers - 1):
            for j, (lo, hi) in enumerate(imdp.layers[i]):
                for j2, (lo2, hi2) in enumerate(imdp.layers[i + 1]):
                    L, U = (a[j, j2] for a in dense[i])
                    ts = rng.uniform(lo, hi, 100)
                    tps = rng.uniform(lo2, hi2, 100)
                    for t, tp in zip(ts, tps):
                        # The kernel's rows of the states the model stores.
                        K = transient_matrix(invent, tp - t)[imdp.rows[i]]
                        assert np.all(L <= K + 1e-9)
                        assert np.all(K <= U + 1e-9)
                        checked += 1
    print(f"criterion 5: PASS {checked} sampled kernels inside bounds")


def test_criterion_6_refinement_nesting(invent, invent1, invent_weights,
                                        random_chain, assert_nested):
    rng = np.random.default_rng(17)
    other = random_chain(rng, 5)
    other_omega = ImpreciseEvidence(
        tuple(
            (TimeSet.of((a, a + 0.4)), parse_formula("true"))
            for a in (0.5, 1.5, 2.5)
        )
    )
    other_w = rng.uniform(0.0, 1.0, 5)
    cases = [
        (invent, invent1, invent_weights),
        (other, other_omega, other_w),
    ]
    rounds = 0
    for chain, omega, w in cases:
        cache = TransientBoundCache(chain)
        psi = coarsest_partition(omega)
        imdp = abstract(chain, omega, psi, cache=cache)
        for _ in range(5):
            report = compute_bounds(imdp, w, chain, omega)
            from condreach.driver import apply_splits, guided_split_targets
            from condreach.solver import reachable_under

            reach = reachable_under(imdp, report.guide_scheduler)
            targets = guided_split_targets(psi, reach)
            if not any(m.any() for m in targets):
                break
            child_psi = apply_splits(psi, targets)
            child = abstract(chain, omega, child_psi, cache=cache)
            assert refines(child_psi, psi)
            # Child transition intervals nest inside their parents'.
            assert_nested(child, child_psi, imdp, psi, 1e-9, cache)
            psi, imdp = child_psi, child
            rounds += 1
    print(f"criterion 6: PASS nesting held over {rounds} refinement rounds")


def test_criterion_7_inner_step_exactness():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 4))
        lower, upper = _random_intervals(rng, k)
        values = rng.uniform(-1.0, 2.0, k)
        maximize = bool(rng.integers(2))
        p = greedy_distribution(lower, upper, values, maximize)
        opt = _lp_optimum(lower, upper, values, maximize)
        worst = max(worst, abs(p @ values - opt))
    assert worst <= 1e-9
    print(f"criterion 7: PASS 1000 cases, max gap to LP optimum {worst:.2e}")


def test_criterion_8_consistency_repair(invent, invent1, invent_weights,
                                        invent_runs):
    # Benchmark runs: every repaired scheduler passes the audit and the
    # bound order holds on each iteration's final report.
    audited = 0
    psi = coarsest_partition(invent1)
    cache = TransientBoundCache(invent)
    for _ in range(3):
        imdp = abstract(invent, invent1, psi, cache=cache)
        report = compute_bounds(imdp, invent_weights, invent, invent1)
        assert audit_consistency(imdp, report.repaired_scheduler)
        assert report.lower <= report.upper + 1e-9
        audited += 1
        from condreach.driver import apply_splits

        psi = apply_splits(psi, psi.splittable())
    for trace in invent_runs.values():
        assert trace.lower <= trace.upper + 1e-9

    # The fixed inconsistent-vote fixture repairs to one uniform action.
    toy = _toy_imdp()
    repaired = repair_consistency(toy, _toy_sched([0, 1, 1]))
    assert np.all(repaired.choices[1][0] == 1)
    assert audit_consistency(toy, repaired)
    print(f"criterion 8: PASS {audited} benchmark audits + vote fixture")


def test_criterion_9_degenerate_collapse(tmp_path):
    ev = tmp_path / "points.evidence"
    ev.write_text(
        "evidence\n"
        "obs nonempty @ 0..0\n"
        "obs nonempty @ 1..1\n"
        "obs empty @ 2..2\n"
        "obs nonempty @ 3..3\n"
    )
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["analyze", INVENT, str(ev), "--weights", WEIGHTS,
         "--out", str(tmp_path / "t.csv")],
    )
    assert res.exit_code == 0, res.output
    summary = dict(
        kv.split("=") for kv in res.output.strip().splitlines()[-1].split()
    )
    assert summary["iters"] == "1"
    res2 = runner.invoke(
        cli_main, ["precise", INVENT, str(ev), "--weights", WEIGHTS]
    )
    assert res2.exit_code == 0
    exact = float(res2.output)
    assert float(summary["lower"]) == pytest.approx(exact, abs=1e-9)
    assert float(summary["upper"]) == pytest.approx(exact, abs=1e-9)
    print(
        f"criterion 9: PASS single iteration, "
        f"L=U={exact:.9f} matches the exact value"
    )
