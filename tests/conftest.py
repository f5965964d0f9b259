import numpy as np
import pytest

from condreach.ctmc import from_rates, parse_ctmc, weight_from_property
from condreach.evidence import parse_evidence, parse_formula
from condreach.fixtures import fixture_text


@pytest.fixture(scope="session")
def invent():
    return parse_ctmc(fixture_text("invent.ctmc"))


@pytest.fixture(scope="session")
def invent_weights(invent):
    # P(empty inventory within time 0.1), the benchmark weight function.
    target = invent.satisfying(parse_formula("empty"))
    return weight_from_property(invent, target, 0.1)


@pytest.fixture(scope="session")
def invent1():
    return parse_evidence(fixture_text("invent1.evidence"))


@pytest.fixture(scope="session")
def invent2():
    return parse_evidence(fixture_text("invent2.evidence"))


@pytest.fixture(scope="session")
def two_state():
    # a -> b at rate 1.5, b absorbing; closed-form transients.
    return from_rates(
        ["a", "b"], "a", {("a", "b"): 1.5}, {"a": ["up"], "b": ["down"]}
    )


@pytest.fixture(scope="session")
def random_chain():
    """Factory for random irreducible-ish labeled chains."""

    def make(rng, n, max_rate=10.0, aps=("a", "b")):
        names = [f"s{i}" for i in range(n)]
        rates = {}
        for i in range(n):
            # Ring edge keeps every state non-absorbing and connected.
            rates[(names[i], names[(i + 1) % n])] = rng.uniform(1e-3, max_rate)
            for j in range(n):
                if j != i and rng.random() < 0.4:
                    rates[(names[i], names[j])] = rng.uniform(1e-3, max_rate)
        labels = {
            name: [ap for ap in aps if rng.random() < 0.5] for name in names
        }
        return from_rates(names, names[0], rates, labels)

    return make


@pytest.fixture(scope="session")
def tandem():
    return parse_ctmc(fixture_text("tandem.ctmc"))


@pytest.fixture(scope="session")
def tandem1():
    return parse_evidence(fixture_text("tandem1.evidence"))


@pytest.fixture(scope="session")
def tandem_weights(tandem):
    target = tandem.satisfying(parse_formula("second_full"))
    return weight_from_property(tandem, target, 0.5)


@pytest.fixture(scope="session")
def per_time_uniformization():
    """The uniformization sum of one time at a time, as an oracle.

    Steps its own power sequence for each time and adds the weights in
    order, with the truncated tail on the last power; kind "transient"
    gives the kernel, "reach" the all-pairs reach matrix.  The package's
    batched core must reproduce it bit for bit.
    """
    from condreach.ctmc import _RATE_INFLATION, _poisson_weights

    def steps(kind):
        if kind == "transient":
            return lambda P, X: X @ P

        def absorbing(P, X):
            X = P @ X
            np.fill_diagonal(X, 1.0)
            return X

        return absorbing

    def run(ctmc, t, eps=1e-10, kind="transient"):
        step = steps(kind)
        n = ctmc.n_states
        lam = float(np.max(ctmc.exit_rates)) * _RATE_INFLATION
        if t == 0.0 or lam == 0.0:
            return np.eye(n)
        P = np.eye(n) + ctmc.generator() / lam
        weights = _poisson_weights(lam * t, eps)
        X = np.eye(n)
        acc = weights[0] * X
        for w in weights[1:]:
            X = step(P, X)
            acc += w * X
        acc += (1.0 - weights.sum()) * X
        return np.clip(acc, 0.0, 1.0) if kind == "reach" else acc

    return run


@pytest.fixture(scope="session")
def assert_nested():
    """Check that a refined interval MDP nests inside the coarser one.

    Each child cell is mapped to the one parent cell that contains it, and
    every (cell, next cell) block of the child must lie inside the block
    of the parent cell pair, within atol.
    """

    def parent_cells(row, parent_row):
        mapping = []
        for cell in row:
            hits = [
                pj for pj, p in enumerate(parent_row)
                if p.lo <= cell.lo and cell.hi <= p.hi
            ]
            assert len(hits) == 1, f"{cell} is not inside one parent cell"
            mapping.append(hits[0])
        return mapping

    def check(child, child_psi, parent, parent_psi, atol):
        maps = [
            [0],
            *(parent_cells(row, prow)
              for row, prow in zip(child_psi.cells, parent_psi.cells)),
            [0],
        ]
        for i in range(child.n_layers - 1):
            pairs = np.ix_(maps[i], maps[i + 1])
            assert np.all(
                child.lower[i] >= parent.lower[i][pairs] - atol
            ), f"lower bound below the parent's at layer {i}"
            assert np.all(
                child.upper[i] <= parent.upper[i][pairs] + atol
            ), f"upper bound above the parent's at layer {i}"

    return check


@pytest.fixture(scope="session")
def imdp_cases(invent, invent1, invent_weights, tandem, tandem1,
               tandem_weights):
    """Pruned interval MDPs of invent1 and tandem1, with their weights.

    Each evidence is abstracted at its coarsest partition and at a refined
    one (every positive-width cell bisected, twice for invent1 and once for
    tandem1), so the solver and reachability kernels see one-cell and
    many-cell layers of a 3-state and a 120-state chain.
    """
    from condreach.abstraction import abstract, restrict_reachable
    from condreach.driver import all_split_targets, apply_splits
    from condreach.evidence import coarsest_partition

    cases = {}
    for name, ctmc, omega, weights, rounds in (
        ("invent1", invent, invent1, invent_weights, 2),
        ("tandem1", tandem, tandem1, tandem_weights, 1),
    ):
        psi = coarsest_partition(omega)
        for level in range(rounds + 1):
            if level:
                psi = apply_splits(psi, all_split_targets(psi))
            imdp = restrict_reachable(abstract(ctmc, omega, psi))
            cases[f"{name}-refined{level}"] = (imdp, weights)
    return cases
