"""Command-line front end.

A failure is a typed error, raised where it arises, and its type alone
decides the exit code (EXIT_CODES, most specific type first):

- 2, parse error: ModelError, EvidenceError, or a file that cannot be
  opened, read or decoded as UTF-8 (OSError, UnicodeError);
- 3, semantic error (SemanticError): an unknown atomic proposition or
  state, invalid ordering, windowed evidence where a command needs
  precise timing, a bad weight spec or weight, a bad option value;
- 4, numeric failure (any ArithmeticError): zero-likelihood evidence,
  non-convergence, a chain too stiff to uniformize over the times asked.

Success is 0, and click's own usage errors exit 2.  The loader adds the
path to a failure in a model, evidence or weights file; the group's
handler maps every other failure of the table.  Any other exception is
a bug and surfaces as a traceback.
"""

from __future__ import annotations

import contextlib
import math
import sys
import warnings

import click
import numpy as np

from .ctmc import (
    ModelError,
    UniformizationError,
    parse_ctmc,
    weight_from_property,
)
from .driver import AnalysisConfig, analyze
from .evidence import EvidenceError, SemanticError, parse_evidence, parse_formula
from .simulate import sample_envelope
from .unfolding import conditional_weight, evidence_likelihood

# Looked up in order: a SemanticError is also an EvidenceError.
EXIT_CODES = {
    SemanticError: 3,
    ModelError: 2,
    EvidenceError: 2,
    OSError: 2,
    UnicodeError: 2,
    ArithmeticError: 4,
}
_FAILURES = tuple(EXIT_CODES)


class CliError(click.ClickException):
    """A failure of the table, shown as its message with its exit code."""

    def __init__(self, message, exc):
        super().__init__(message)
        self.exit_code = next(
            code for family, code in EXIT_CODES.items()
            if isinstance(exc, family)
        )


class _Main(click.Group):
    """The one handler that turns a failure into its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _FAILURES as exc:
            raise CliError(str(exc), exc) from None


def _read(path, parse):
    """parse applied to the UTF-8 text of the file at path.

    A failure keeps its exit code and gets the path in its message.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except _FAILURES as exc:
        detail = getattr(exc, "strerror", None) or exc
        raise CliError(f"{path}: {detail}", exc) from None


def _evidence(path, ctmc):
    """The evidence file at path, checked against the model's labels."""

    def parse(text):
        omega = parse_evidence(text)
        omega.bind_check(ctmc.alphabet)
        return omega

    return _read(path, parse)


def _parse_weights(text, ctmc):
    """Weight vector from `<state> <weight>` lines, one per state."""
    weights = np.full(ctmc.n_states, np.nan)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ModelError(f"line {lineno}: expected '<state> <weight>'")
        name, value_txt = parts
        if name not in ctmc.state_names:
            raise SemanticError(f"line {lineno}: unknown state {name!r}")
        state = ctmc.state_index(name)
        if not np.isnan(weights[state]):
            raise ModelError(f"line {lineno}: duplicate weight for {name!r}")
        try:
            value = float(value_txt)
        except ValueError:
            raise ModelError(
                f"line {lineno}: bad weight {value_txt!r}"
            ) from None
        if not 0 <= value < math.inf:
            raise SemanticError(
                f"line {lineno}: weights must be finite and nonnegative"
            )
        weights[state] = value
    if np.isnan(weights).any():
        missing = ctmc.state_names[int(np.isnan(weights).argmax())]
        raise SemanticError(f"missing weight for state {missing}")
    return weights


def _weights(spec, ctmc, eps):
    """`prop:'<formula>'@<horizon>` or `file:<path>` to a weight vector."""
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        return _read(path, lambda text: _parse_weights(text, ctmc))
    if not spec.startswith("prop:"):
        raise SemanticError("weight spec must start with 'prop:' or 'file:'")
    if "@" not in spec:
        raise SemanticError("weight property needs '@<horizon>'")
    formula_txt, horizon_txt = spec[len("prop:"):].rsplit("@", 1)
    formula = parse_formula(formula_txt.strip().strip("'\""))
    formula.bind_check(ctmc.alphabet)
    try:
        horizon = float(horizon_txt)
    except ValueError:
        raise SemanticError(f"bad weight horizon {horizon_txt!r}") from None
    if not 0 <= horizon < math.inf:
        raise SemanticError("weight horizon must be finite and nonnegative")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            weights = weight_from_property(
                ctmc, ctmc.satisfying(formula), horizon, eps
            )
        except UniformizationError as exc:
            raise UniformizationError(f"weight horizon: {exc}") from None
    # A warning, such as an empty target set, is one line on stderr.
    for w in caught:
        click.echo(f"warning: {w.message}", err=True)
    return weights


@click.group(cls=_Main)
def main():
    """Bounds on conditional reachability in labeled CTMCs observed at
    imprecisely known times."""


def _open_out(out):
    """The file out opened for writing, or stdout when out is None.

    Opened before the work, so that a bad path fails before a long run.
    """
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="\n")


def _dropped_mass(ctx, param, value):
    """Reject a truncation tolerance outside (0, 1): it is a probability
    mass to drop, and at 1 or above it bounds nothing."""
    if not 0 < value < 1:
        raise SemanticError(f"{param.opts[0]} must be in (0, 1)")
    return value


_transient_tol_option = click.option(
    "--transient-tol", type=float, default=1e-10, show_default=True,
    callback=_dropped_mass, help="Transient truncation tolerance.",
)


@main.command("analyze")
@click.argument("model", type=click.Path())
@click.argument("evidence", type=click.Path())
@click.option("--weights", "weight_spec", required=True,
              help="prop:'<formula>'@<horizon> or file:<path>.")
@click.option("--time-limit", type=float, default=600.0, show_default=True)
@click.option("--max-iters", type=int, default=None)
@click.option("--width-target", type=float, default=None,
              help="Stop once upper - lower is at or below this width.")
@click.option("--vi-tol", type=float, default=1e-9, show_default=True)
@click.option("--mode", type=click.Choice(["guided", "full"]),
              default="guided", show_default=True)
@click.option("--direction", type=click.Choice(["max", "min"]),
              default="max", show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Trace CSV path (stdout if omitted).")
@_transient_tol_option
def cmd_analyze(model, evidence, weight_spec, time_limit, max_iters,
                width_target, vi_tol, mode, direction, out, transient_tol):
    """Refinement loop producing sound lower/upper bounds and a trace."""
    ctmc = _read(model, parse_ctmc)
    omega = _evidence(evidence, ctmc)
    config = AnalysisConfig(
        time_limit=time_limit,
        max_iters=max_iters,
        width_target=width_target,
        transient_tol=transient_tol,
        vi_tol=vi_tol,
        mode=mode,
        direction=direction,
    )
    weights = _weights(weight_spec, ctmc, transient_tol)
    with _open_out(out) as sink:
        trace = analyze(ctmc, omega, weights, config)
        sink.write(trace.to_csv())
    click.echo(
        f"lower={trace.lower:.12g} upper={trace.upper:.12g} "
        f"iters={len(trace.rows)} total_s={trace.total_s:.2f}"
    )


@main.command("precise")
@click.argument("model", type=click.Path())
@click.argument("evidence", type=click.Path())
@click.option("--weights", "weight_spec", required=True)
@_transient_tol_option
def cmd_precise(model, evidence, weight_spec, transient_tol):
    """Exact conditional weight for precisely timed evidence."""
    ctmc = _read(model, parse_ctmc)
    rho = _evidence(evidence, ctmc).to_precise()
    weights = _weights(weight_spec, ctmc, transient_tol)
    value = conditional_weight(ctmc, rho, weights, transient_tol)
    click.echo(f"{value:.12g}")


@main.command("likelihood")
@click.argument("model", type=click.Path())
@click.argument("evidence", type=click.Path())
@_transient_tol_option
def cmd_likelihood(model, evidence, transient_tol):
    """Probability that the model generates precisely timed evidence."""
    ctmc = _read(model, parse_ctmc)
    rho = _evidence(evidence, ctmc).to_precise()
    value = evidence_likelihood(ctmc, rho, transient_tol)
    click.echo(f"{value:.12g}")


@main.command("sample")
@click.argument("model", type=click.Path())
@click.argument("evidence", type=click.Path())
@click.option("--weights", "weight_spec", required=True)
@click.option("-n", "n", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_transient_tol_option
def cmd_sample(model, evidence, weight_spec, n, seed, out, transient_tol):
    """Exact conditional weights of sampled precise instances."""
    ctmc = _read(model, parse_ctmc)
    omega = _evidence(evidence, ctmc)
    weights = _weights(weight_spec, ctmc, transient_tol)
    with _open_out(out) as sink:
        env = sample_envelope(ctmc, omega, weights, n, seed, transient_tol)
        sink.write(env.to_csv())
    click.echo(f"min={env.min:.12g} max={env.max:.12g} n={n}", err=True)
