"""Observation formulas, timed evidence, and time partitions.

Precise evidence fixes each observation time exactly; imprecise evidence
only confines each time to a finite union of closed intervals.  A time
partition decomposes those unions into cells, held as one (n, 2) array
of endpoints per observation, and is the refinement unit for the
abstraction loop: split() bisects the cells that per-observation masks
mark.
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


@dataclass(frozen=True, eq=False)
class TimePartition:
    """Per-observation ordered cells covering each time window.

    cells[i] is a read-only (n_i, 2) float array whose rows are the
    [lo, hi] endpoints of observation i's cells in time order; cells may
    touch but not overlap.  Split decisions are boolean masks, one per
    observation, over these rows.
    """

    cells: tuple

    def __post_init__(self):
        if not self.cells:
            raise EvidenceError("partition needs at least one observation")
        rows = tuple(_checked_row(np.array(row, dtype=float)) for row in self.cells)
        object.__setattr__(self, "cells", rows)

    @classmethod
    def _of_checked(cls, rows):
        """A partition of rows that _checked_row has already passed."""
        psi = object.__new__(cls)
        object.__setattr__(psi, "cells", rows)
        return psi

    def cell_counts(self):
        return tuple(len(row) for row in self.cells)

    def splittable(self):
        """Per observation, the mask of cells whose midpoint lies strictly
        inside them; point and ulp-wide cells cannot split."""
        masks = []
        for lo, hi in (row.T for row in self.cells):
            mid = 0.5 * (lo + hi)
            masks.append((lo < mid) & (mid < hi))
        return tuple(masks)

    def split(self, marks):
        """Bisect every marked cell at its midpoint, in one pass.

        marks holds one boolean mask per observation over its cells, each
        marked cell splittable.  A row repeats its marked cells and moves
        the endpoint each two copies share to the midpoint; a row with no
        mark is kept as it is, since rows are read-only.
        """
        if len(marks) != len(self.cells):
            raise EvidenceError(f"need one split mask per row, got {len(marks)}")
        rows = []
        for row, mark in zip(self.cells, marks):
            mark = np.asarray(mark, dtype=bool)
            if mark.shape != (len(row),):
                raise EvidenceError(f"split mask {mark.shape} for {len(row)} cells")
            if not mark.any():
                rows.append(row)
                continue
            at = np.flatnonzero(mark)
            lo, hi = row[at].T
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).all():
                raise EvidenceError("cannot split a cell without interior midpoint")
            at += np.arange(len(at))  # where each first copy lands
            row = np.repeat(row, 1 + mark, axis=0)
            row[at, 1] = row[at + 1, 0] = mid
            rows.append(_checked_row(row))
        return TimePartition._of_checked(tuple(rows))

    def check_covers(self, omega):
        """Raise SemanticError unless row i, with touching cells merged, is
        exactly the intervals of observation i's time set."""
        if len(self.cells) != len(omega):
            raise SemanticError("partition needs one row per observation")
        for i, (row, ts) in enumerate(zip(self.cells, omega.time_sets)):
            # Flat lo_0, hi_0, lo_1, ... without each touching hi_k, lo_k+1.
            ends = row.reshape(-1)
            joint = np.zeros(len(ends), bool)
            joint[1:-1:2] = joint[2::2] = ends[1:-1:2] == ends[2::2]
            if not np.array_equal(ends[~joint], np.ravel(ts.intervals)):
                raise SemanticError(f"partition row {i} does not tile its window")


def _checked_row(row):
    """Freeze a float partition row after checking it, or raise
    EvidenceError."""
    if row.ndim != 2 or row.shape[1] != 2 or not len(row):
        raise EvidenceError("partition rows need shape (n, 2) with n >= 1")
    if not np.isfinite(row).all() or (row < 0).any():
        raise EvidenceError("cell endpoints must be finite and nonnegative")
    # Flat lo_0, hi_0, lo_1, ... is sorted iff no cell is reversed or overlaps.
    if (np.diff(row.reshape(-1)) < 0).any():
        raise EvidenceError("cells must be ordered, unreversed and disjoint")
    row.setflags(write=False)
    return row


def coarsest_partition(omega):
    """One cell per maximal interval of each time set."""
    return TimePartition(tuple(np.array(ts.intervals) for ts in omega.time_sets))


def refines(child, parent):
    """Structural nesting check: every child cell inside one parent cell."""
    if len(child.cells) != len(parent.cells):
        return False
    for c, p in zip(child.cells, parent.cells):
        inside = (p[:, 0] <= c[:, :1]) & (c[:, 1:] <= p[:, 1])
        if (inside.sum(axis=1) != 1).any():
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
