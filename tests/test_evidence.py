import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreach.abstraction import abstract
from condreach.driver import AnalysisConfig, analyze
from condreach.evidence import (
    EvidenceError,
    Formula,
    ImpreciseEvidence,
    PreciseEvidence,
    SemanticError,
    TimePartition,
    TimeSet,
    coarsest_partition,
    is_instance,
    parse_evidence,
    parse_formula,
    refines,
    sample_instance,
    serialize_evidence,
)


# --- formulas ---------------------------------------------------------------


def test_parse_formula():
    f = parse_formula("a & !b")
    assert f.literals == (("a", True), ("b", False))
    assert str(f) == "a & !b"
    assert str(parse_formula("true")) == "true"
    assert parse_formula("true").literals == ()


def test_formula_order_insensitive():
    assert parse_formula("a & !b") == parse_formula("!b & a")


def test_contradiction_is_unsatisfiable_not_rejected(two_state):
    f = parse_formula("up & !up")
    assert f.literals == (("up", False), ("up", True))
    assert not two_state.satisfying(f).any()


def test_formula_rejects_junk():
    with pytest.raises(EvidenceError):
        parse_formula("a | b")
    with pytest.raises(EvidenceError):
        parse_formula("")


def test_bind_check():
    parse_formula("a").bind_check({"a", "b"})
    with pytest.raises(SemanticError):
        parse_formula("a & c").bind_check({"a", "b"})


# --- time sets --------------------------------------------------------------


def test_time_set_basics():
    ts = TimeSet.of((1.0, 2.0), (3.0, 3.5))
    assert ts.lo == 1.0 and ts.hi == 3.5
    assert ts.total_length == pytest.approx(1.5)
    assert ts.contains(1.5) and ts.contains(3.0)
    assert not ts.contains(2.5)
    assert TimeSet.point(2.0).is_point


@pytest.mark.parametrize(
    "intervals",
    [(), ((2.0, 1.0),), ((-1.0, 1.0),), ((0.0, 1.0), (0.5, 2.0)), ((0.0, 1.0), (1.0, 2.0))],
)
def test_time_set_rejects(intervals):
    with pytest.raises(EvidenceError):
        TimeSet(tuple(intervals))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_time_set_sample_stays_inside(seed):
    ts = TimeSet.of((0.5, 1.0), (2.0, 2.0), (3.0, 4.5))
    t = ts.sample(np.random.default_rng(seed))
    assert ts.contains(t)


def test_point_set_sampling():
    ts = TimeSet.of((1.0, 1.0), (2.0, 2.0))
    draws = {ts.sample(np.random.default_rng(k)) for k in range(40)}
    assert draws <= {1.0, 2.0}
    assert len(draws) == 2


# --- evidence ---------------------------------------------------------------


def test_precise_ordering_is_semantic():
    f = parse_formula("a")
    with pytest.raises(SemanticError):
        PreciseEvidence(((1.0, f), (1.0, f)))


def test_imprecise_windows_must_be_separated():
    f = parse_formula("a")
    with pytest.raises(SemanticError):
        ImpreciseEvidence(
            ((TimeSet.of((0.0, 1.0)), f), (TimeSet.of((1.0, 2.0)), f))
        )


def test_instances(invent1):
    rng = np.random.default_rng(3)
    rho = sample_instance(invent1, rng)
    assert is_instance(rho, invent1)
    assert rho.times[0] == 0.0  # point window
    shifted = PreciseEvidence(
        tuple((t + 5.0, f) for t, f in rho.observations)
    )
    assert not is_instance(shifted, invent1)


def test_to_precise(invent1):
    with pytest.raises(SemanticError, match="precisely timed"):
        invent1.to_precise()
    points = ImpreciseEvidence(
        ((TimeSet.point(1.0), parse_formula("a")),)
    )
    assert points.is_precise
    assert points.to_precise().times == (1.0,)


def test_parse_evidence_round_trip(invent1):
    again = parse_evidence(serialize_evidence(invent1))
    assert again == invent1
    assert len(invent1) == 4
    assert invent1.time_sets[2].intervals == ((1.9, 2.1),)
    assert invent1.formulas[2] == parse_formula("empty")


def test_parse_evidence_rejects():
    with pytest.raises(EvidenceError):
        parse_evidence("obs a @ 1..2")  # missing header
    with pytest.raises(EvidenceError):
        parse_evidence("evidence\nobs a @ 2..1")
    with pytest.raises(SemanticError):
        parse_evidence("evidence\nobs a @ 1..3\nobs b @ 2..4")


# --- partitions -------------------------------------------------------------


def _targets(psi):
    """Every splittable cell of psi as an (observation, cell) pair."""
    return [(i, int(j)) for i, m in enumerate(psi.splittable())
            for j in np.flatnonzero(m)]


def _marks(psi, targets):
    """Split masks of psi marking exactly the given (observation, cell)
    pairs."""
    marks = [np.zeros(n, bool) for n in psi.cell_counts()]
    for i, j in targets:
        marks[i][j] = True
    return marks


def _same(a, b):
    return len(a.cells) == len(b.cells) and all(
        np.array_equal(r, r2) for r, r2 in zip(a.cells, b.cells)
    )


def test_coarsest_partition(invent, invent1):
    psi = coarsest_partition(invent1)
    assert psi.cell_counts() == (1, 1, 1, 1)
    for row, ts in zip(psi.cells, invent1.time_sets):
        np.testing.assert_array_equal(row, ts.intervals)
        assert not row.flags.writeable
    # The abstraction puts the point anchor {0} before the cells.
    np.testing.assert_array_equal(
        abstract(invent, invent1, psi).layers[0], [[0.0, 0.0]]
    )


def test_split_and_lookup(invent1):
    psi = coarsest_partition(invent1)
    child = psi.split(_marks(psi, [(1, 0)]))
    assert child.cell_counts() == (1, 2, 1, 1)
    assert child.cells[1][0, 1] == child.cells[1][1, 0] == pytest.approx(1.0)
    with pytest.raises(EvidenceError):
        psi.split(_marks(psi, [(0, 0)]))  # point cell


def test_split_reuses_unmarked_rows(invent1):
    psi = coarsest_partition(invent1)
    for _ in range(2):
        psi = psi.split(psi.splittable())
    child = psi.split(_marks(psi, [(1, 0), (1, 3), (3, 2)]))
    for i, (row, new) in enumerate(zip(psi.cells, child.cells)):
        if i in (1, 3):
            assert new is not row and not new.flags.writeable
        else:
            assert new is row  # read-only, so shared as it is
    assert child.cell_counts() == (1, 6, 4, 5)
    # Rows handed to the constructor are still copied.
    row = np.array([[0.0, 1.0]])
    assert TimePartition((row,)).cells[0] is not row
    assert row.flags.writeable


def test_refines(invent1):
    psi = coarsest_partition(invent1)
    child = psi.split(_marks(psi, [(2, 0)]))
    child = child.split(_marks(child, [(1, 0)]))
    assert refines(child, psi)
    assert refines(psi, psi)
    assert not refines(psi, child)
    # A point cell on a shared endpoint lies in two parent cells, not one.
    parent = TimePartition(([[0.0, 1.0], [1.0, 2.0]],))
    assert not refines(
        TimePartition(([[0.0, 1.0], [1.0, 1.0], [1.0, 2.0]],)), parent
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_split_chain_nests(invent1, data):
    psi = coarsest_partition(invent1)
    current = psi
    for _ in range(4):
        target = data.draw(st.sampled_from(_targets(current)))
        current = current.split(_marks(current, [target]))
    assert refines(current, psi)
    # Total covered length never changes under splitting.
    for row, orig in zip(current.cells, psi.cells):
        assert np.diff(row).sum() == pytest.approx(np.diff(orig).sum())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_pass_split_matches_chained_split_cell(invent1, data):
    # A partition refined by a few random splits, then a random target
    # set split in one pass and one cell at a time, last index first.
    psi = coarsest_partition(invent1)
    for _ in range(data.draw(st.integers(0, 4))):
        psi = psi.split(_marks(psi, [data.draw(st.sampled_from(_targets(psi)))]))
    targets = data.draw(st.sets(st.sampled_from(_targets(psi))))
    chained = psi
    for target in sorted(targets, reverse=True):
        chained = chained.split(_marks(chained, [target]))
    marks = _marks(psi, targets)
    assert _same(psi.split(marks), chained)
    assert _same(psi.split([m.tolist() for m in marks]), chained)
    assert _same(psi.split(_marks(psi, [])), psi)


def test_ulp_wide_cell_is_never_split(invent, invent_weights):
    # The midpoint of an ulp-wide cell rounds onto an endpoint, so
    # bisecting it would only add a point cell and never tighten.
    ulp = (1.0, np.nextafter(1.0, 2.0))
    psi = TimePartition((np.array([ulp]), np.array([[1.5, 2.0]])))
    assert [m.tolist() for m in psi.splittable()] == [[False], [True]]
    with pytest.raises(EvidenceError):
        psi.split([[True], [False]])
    for _ in range(3):
        psi = psi.split((np.zeros(1, bool), psi.splittable()[1]))
    assert psi.cell_counts() == (1, 8)
    np.testing.assert_array_equal(psi.cells[0], [ulp])
    # Full mode runs out of cells to split after one iteration.
    true = parse_formula("true")
    omega = ImpreciseEvidence(((TimeSet.of(ulp), true),
                               (TimeSet.point(2.0), true)))
    trace = analyze(invent, omega, invent_weights,
                    AnalysisConfig(mode="full", max_iters=5))
    assert len(trace.rows) == 1
    assert _same(trace.final_partition, coarsest_partition(omega))


@pytest.mark.parametrize("row", [
    [1.0, 2.0],                # one-dimensional
    np.zeros((1, 3)),          # three endpoints
    np.zeros((0, 2)),          # no cell
    [[1.0, np.inf]],           # not finite
    [[np.nan, 1.0]],
    [[-1.0, 1.0]],             # negative
    [[2.0, 1.0]],              # reversed
    [[0.0, 2.0], [1.0, 3.0]],  # overlapping
    [[1.0, 2.0], [0.0, 0.5]],  # out of order
])
def test_partition_rejects(row):
    with pytest.raises(EvidenceError):
        TimePartition(([[0.0, 0.0]], row))


def test_partition_accepts_touching_cells():
    psi = TimePartition(([[0.0, 1.0], [1.0, 1.0], [1.0, 2.0]],))
    assert psi.cell_counts() == (3,)
    with pytest.raises(ValueError):
        psi.cells[0][0, 0] = 5.0  # read-only
    with pytest.raises(EvidenceError):
        TimePartition(())


def test_split_rejects_bad_masks(invent1):
    psi = coarsest_partition(invent1)
    marks = _marks(psi, [(1, 0)])
    with pytest.raises(EvidenceError):
        psi.split(marks[:3])  # one mask short
    with pytest.raises(EvidenceError):
        psi.split([*marks[:3], np.zeros(2, bool)])  # one entry too many
    with pytest.raises(EvidenceError):
        psi.split(_marks(psi, [(0, 0), (1, 0)]))  # the point cell {0}
