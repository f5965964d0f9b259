"""Observation formulas, timed evidence, and time partitions.

Precise evidence fixes each observation time exactly; imprecise evidence
only confines each time to a finite union of closed intervals.  A time
partition decomposes those unions into cells and is the refinement unit
for the abstraction loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EvidenceError(ValueError):
    """Raised for malformed evidence or partitions."""


class SemanticError(EvidenceError):
    """Well-formed input with bad meaning: unknown AP, bad ordering."""


# ---------------------------------------------------------------------------
# Observation formulas: conjunctions of literals over APs, plus `true`.


@dataclass(frozen=True)
class Formula:
    """Conjunction of literals.

    literals is a sorted tuple of (ap, polarity) pairs; an empty tuple is
    the constant true.
    """

    literals: tuple

    def __post_init__(self):
        # Contradictory literals are legal: the formula is unsatisfiable.
        for ap, _ in self.literals:
            if not ap or not isinstance(ap, str):
                raise EvidenceError("atomic proposition must be a nonempty string")

    @property
    def aps(self):
        return frozenset(ap for ap, _ in self.literals)

    def holds(self, label_set):
        """Evaluate against a state's atomic-proposition set."""
        return all((ap in label_set) == pol for ap, pol in self.literals)

    def bind_check(self, alphabet):
        """Validate that every referenced AP exists in the model."""
        missing = self.aps - alphabet
        if missing:
            raise SemanticError(
                "unknown atomic proposition(s): " + ", ".join(sorted(missing))
            )

    def __str__(self):
        if not self.literals:
            return "true"
        return " & ".join(ap if pol else "!" + ap for ap, pol in self.literals)


def parse_formula(text):
    """Parse `AP`, `!AP`, `&`-conjunctions, and the constant `true`."""
    text = text.strip()
    if not text:
        raise EvidenceError("empty formula")
    literals = []
    for part in text.split("&"):
        part = part.strip()
        if part == "true":
            continue
        pol = True
        if part.startswith("!"):
            pol = False
            part = part[1:].strip()
        if not part or any(c.isspace() for c in part) or part in ("true", "!"):
            raise EvidenceError(f"bad literal {part!r} in formula {text!r}")
        literals.append((part, pol))
    return Formula(tuple(sorted(set(literals))))


# ---------------------------------------------------------------------------
# Time sets: finite unions of closed intervals.


@dataclass(frozen=True)
class TimeSet:
    """Sorted disjoint union of closed intervals [lo, hi], lo <= hi."""

    intervals: tuple

    def __post_init__(self):
        if not self.intervals:
            raise EvidenceError("time set must be nonempty")
        prev_hi = None
        for lo, hi in self.intervals:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise EvidenceError(f"interval [{lo}, {hi}] is not finite")
            if lo > hi:
                raise EvidenceError(f"interval [{lo}, {hi}] is reversed")
            if lo < 0:
                raise EvidenceError("time set endpoints must be nonnegative")
            if prev_hi is not None and lo <= prev_hi:
                raise EvidenceError("time set intervals must be sorted and disjoint")
            prev_hi = hi

    @classmethod
    def of(cls, *intervals):
        return cls(tuple((float(a), float(b)) for a, b in intervals))

    @classmethod
    def point(cls, t):
        return cls(((float(t), float(t)),))

    @property
    def lo(self):
        return self.intervals[0][0]

    @property
    def hi(self):
        return self.intervals[-1][1]

    @property
    def total_length(self):
        return sum(hi - lo for lo, hi in self.intervals)

    @property
    def is_point(self):
        return len(self.intervals) == 1 and self.lo == self.hi

    def contains(self, t):
        return any(lo <= t <= hi for lo, hi in self.intervals)

    def sample(self, rng):
        """Uniform draw w.r.t. length; a pure point set returns its point."""
        length = self.total_length
        if length == 0.0:
            # All-point components: pick one uniformly by count.
            lo, _ = self.intervals[rng.integers(len(self.intervals))]
            return lo
        u = rng.uniform(0.0, length)
        for lo, hi in self.intervals:
            if u <= hi - lo:
                return lo + u
            u -= hi - lo
        return self.hi


# ---------------------------------------------------------------------------
# Evidence.


@dataclass(frozen=True)
class PreciseEvidence:
    """Ordered (time, formula) observations with strictly increasing times."""

    observations: tuple

    def __post_init__(self):
        prev = None
        for t, obs in self.observations:
            if not 0 <= t < math.inf:
                raise EvidenceError(
                    "observation times must be finite and nonnegative"
                )
            if prev is not None and t <= prev:
                raise SemanticError("observation times must strictly increase")
            if not isinstance(obs, Formula):
                raise EvidenceError("observation must be a Formula")
            prev = t

    @property
    def times(self):
        return tuple(t for t, _ in self.observations)

    @property
    def formulas(self):
        return tuple(obs for _, obs in self.observations)

    def __len__(self):
        return len(self.observations)

    def bind_check(self, alphabet):
        for _, obs in self.observations:
            obs.bind_check(alphabet)


@dataclass(frozen=True)
class ImpreciseEvidence:
    """Ordered (time set, formula) observations with separated windows."""

    observations: tuple

    def __post_init__(self):
        prev_hi = None
        for times, obs in self.observations:
            if not isinstance(times, TimeSet):
                raise EvidenceError("observation needs a TimeSet")
            if not isinstance(obs, Formula):
                raise EvidenceError("observation must be a Formula")
            if prev_hi is not None and times.lo <= prev_hi:
                raise SemanticError(
                    "observation windows must be strictly ordered "
                    f"(window starting at {times.lo} overlaps or touches "
                    f"the previous one ending at {prev_hi})"
                )
            prev_hi = times.hi

    @property
    def time_sets(self):
        return tuple(ts for ts, _ in self.observations)

    @property
    def formulas(self):
        return tuple(obs for _, obs in self.observations)

    def __len__(self):
        return len(self.observations)

    def bind_check(self, alphabet):
        for _, obs in self.observations:
            obs.bind_check(alphabet)

    @property
    def is_precise(self):
        return all(ts.is_point for ts in self.time_sets)

    def to_precise(self):
        if not self.is_precise:
            raise SemanticError(
                "evidence has nondegenerate time windows; "
                "this command needs precisely timed evidence"
            )
        return PreciseEvidence(
            tuple((ts.lo, obs) for ts, obs in self.observations)
        )


def is_instance(rho, omega):
    """True iff rho is a precisely timed instance of omega."""
    if len(rho) != len(omega):
        return False
    return all(
        ts.contains(t) and obs == obs2
        for (t, obs), (ts, obs2) in zip(rho.observations, omega.observations)
    )


def sample_instance(omega, rng):
    """Draw an instance with each time uniform over its time set."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    return PreciseEvidence(
        tuple((ts.sample(rng), obs) for ts, obs in omega.observations)
    )


# ---------------------------------------------------------------------------
# Time partitions.


@dataclass(frozen=True)
class TimePartition:
    """Per-observation ordered cells covering each time set.

    cells[i] is a tuple of TimeSet cells for observation i.  The
    synthetic anchor cell {0} precedes them.
    """

    cells: tuple

    def __post_init__(self):
        if not self.cells:
            raise EvidenceError("partition needs at least one observation")
        for row in self.cells:
            if not row:
                raise EvidenceError("each observation needs at least one cell")
            prev_hi = None
            for cell in row:
                if len(cell.intervals) != 1:
                    raise EvidenceError("partition cells are single intervals")
                if prev_hi is not None and cell.lo < prev_hi:
                    raise EvidenceError("cells must be ordered and non-overlapping")
                prev_hi = cell.hi

    @property
    def n_obs(self):
        return len(self.cells)

    @property
    def anchor_zero(self):
        return TimeSet.point(0.0)

    def cell_counts(self):
        return tuple(len(row) for row in self.cells)

    def split(self, targets):
        """Bisect every targeted cell at its midpoint, in one pass.

        targets holds (observation, cell) index pairs into this
        partition; a pair named twice splits its cell once.  The new
        partition is validated once, however many cells split.
        """
        by_row = {}
        for i, j in targets:
            i = range(self.n_obs)[i]
            by_row.setdefault(i, set()).add(range(len(self.cells[i]))[j])
        cells = list(self.cells)
        for i, marked in by_row.items():
            row = []
            for j, cell in enumerate(cells[i]):
                if j not in marked:
                    row.append(cell)
                    continue
                a, b = cell.lo, cell.hi
                if a == b:
                    raise EvidenceError("cannot split a point cell")
                m = 0.5 * (a + b)
                row += (TimeSet.of((a, m)), TimeSet.of((m, b)))
            cells[i] = tuple(row)
        return TimePartition(tuple(cells))

    def split_cell(self, index, j):
        """Bisect cell j of observation `index` at its midpoint."""
        return self.split([(index, j)])


def coarsest_partition(omega):
    """One cell per maximal interval of each time set."""
    return TimePartition(tuple(
        tuple(TimeSet.of(iv) for iv in ts.intervals) for ts in omega.time_sets
    ))


def refines(child, parent):
    """Structural nesting check: every child cell inside one parent cell."""
    if child.n_obs != parent.n_obs:
        return False
    for c_row, p_row in zip(child.cells, parent.cells):
        for cell in c_row:
            hits = [
                p for p in p_row if p.lo <= cell.lo and cell.hi <= p.hi
            ]
            if len(hits) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Evidence file parsing.


def _parse_time_range(token, lineno):
    if ".." in token:
        a_txt, b_txt = token.split("..", 1)
    else:
        a_txt = b_txt = token
    try:
        a, b = float(a_txt), float(b_txt)
    except ValueError:
        raise EvidenceError(f"line {lineno}: bad time range {token!r}") from None
    return a, b


def parse_evidence(text):
    """Parse the line-oriented evidence format.

    Format::

        evidence
        obs <formula> @ <a>..<b> [+ <a>..<b> ...]
    """
    observations = []
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_header:
            if line != "evidence":
                raise EvidenceError(f"line {lineno}: expected 'evidence' header")
            seen_header = True
            continue
        if not line.startswith("obs"):
            raise EvidenceError(f"line {lineno}: expected an obs line")
        body = line[3:].strip()
        if "@" not in body:
            raise EvidenceError(f"line {lineno}: missing '@' time separator")
        formula_txt, times_txt = body.rsplit("@", 1)
        try:
            obs = parse_formula(formula_txt)
        except EvidenceError as exc:
            raise EvidenceError(f"line {lineno}: {exc}") from None
        intervals = [
            _parse_time_range(tok.strip(), lineno)
            for tok in times_txt.split("+")
        ]
        try:
            times = TimeSet.of(*intervals)
        except EvidenceError as exc:
            raise EvidenceError(f"line {lineno}: {exc}") from None
        observations.append((times, obs))
    if not seen_header:
        raise EvidenceError("empty document")
    if not observations:
        raise EvidenceError("evidence needs at least one observation")
    try:
        return ImpreciseEvidence(tuple(observations))
    except EvidenceError as exc:
        # Keep the subtype: ordering violations stay semantic errors.
        raise type(exc)(str(exc)) from None


def serialize_evidence(omega):
    """Inverse of :func:`parse_evidence` (up to float formatting)."""
    lines = ["evidence"]
    for ts, obs in omega.observations:
        ranges = " + ".join(f"{lo!r}..{hi!r}" for lo, hi in ts.intervals)
        lines.append(f"obs {obs} @ {ranges}")
    return "\n".join(lines) + "\n"
