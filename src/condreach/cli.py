"""Command-line front end.

Exit codes: 0 success, 2 parse error (including a non-finite number in a
model or evidence file), 3 semantic error (unknown atomic proposition,
invalid ordering, bad weight spec, non-finite option), 4 numeric failure
(zero-likelihood evidence, non-convergence, a chain too stiff to
uniformize over the times asked).
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from .abstraction import AbstractionError
from .ctmc import (
    ModelError,
    UniformizationError,
    parse_ctmc,
    weight_from_property,
)
from .driver import AnalysisConfig, analyze
from .evidence import EvidenceError, SemanticError, parse_evidence, parse_formula
from .simulate import sample_envelope
from .solver import SolverError
from .unfolding import (
    ZeroLikelihoodError,
    conditional_weight,
    evidence_likelihood,
)

EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_NUMERIC = 4


class CliError(click.ClickException):
    def __init__(self, message, code):
        super().__init__(message)
        self.exit_code = code


def _load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_ctmc(fh.read())
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}", EXIT_PARSE) from None
    except ModelError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from None


def _load_evidence(path, ctmc):
    try:
        with open(path, encoding="utf-8") as fh:
            omega = parse_evidence(fh.read())
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}", EXIT_PARSE) from None
    except SemanticError as exc:
        raise CliError(f"{path}: {exc}", EXIT_SEMANTIC) from None
    except EvidenceError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from None
    try:
        omega.bind_check(ctmc.alphabet)
    except EvidenceError as exc:
        raise CliError(f"{path}: {exc}", EXIT_SEMANTIC) from None
    return omega


def _parse_weights(spec, ctmc, eps):
    """`prop:'<formula>'@<horizon>` or `file:<path>` to a weight vector."""
    if spec.startswith("prop:"):
        body = spec[len("prop:"):]
        if "@" not in body:
            raise CliError("weight property needs '@<horizon>'", EXIT_SEMANTIC)
        formula_txt, horizon_txt = body.rsplit("@", 1)
        formula_txt = formula_txt.strip().strip("'\"")
        try:
            formula = parse_formula(formula_txt)
            formula.bind_check(ctmc.alphabet)
        except EvidenceError as exc:
            raise CliError(f"weight formula: {exc}", EXIT_SEMANTIC) from None
        try:
            horizon = float(horizon_txt)
        except ValueError:
            raise CliError(
                f"bad weight horizon {horizon_txt!r}", EXIT_SEMANTIC
            ) from None
        if not 0 <= horizon < math.inf:
            raise CliError(
                "weight horizon must be finite and nonnegative", EXIT_SEMANTIC
            )
        try:
            return weight_from_property(
                ctmc, ctmc.satisfying(formula), horizon, eps
            )
        except UniformizationError as exc:
            raise CliError(f"weight horizon: {exc}", EXIT_NUMERIC) from None
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        weights = np.full(ctmc.n_states, np.nan)
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror}", EXIT_PARSE) from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise CliError(
                    f"{path}: line {lineno}: expected '<state> <weight>'",
                    EXIT_PARSE,
                )
            try:
                state = ctmc.state_index(parts[0])
            except ModelError as exc:
                raise CliError(f"{path}: line {lineno}: {exc}", EXIT_SEMANTIC)
            try:
                value = float(parts[1])
            except ValueError:
                raise CliError(
                    f"{path}: line {lineno}: bad weight {parts[1]!r}",
                    EXIT_PARSE,
                ) from None
            if not 0 <= value < math.inf:
                raise CliError(
                    f"{path}: line {lineno}: weights must be finite and "
                    "nonnegative",
                    EXIT_SEMANTIC,
                )
            weights[state] = value
        if np.isnan(weights).any():
            missing = ctmc.state_names[int(np.isnan(weights).argmax())]
            raise CliError(
                f"{path}: missing weight for state {missing}", EXIT_SEMANTIC
            )
        return weights
    raise CliError(
        "weight spec must start with 'prop:' or 'file:'", EXIT_SEMANTIC
    )


def _to_precise(omega, path):
    try:
        return omega.to_precise()
    except EvidenceError:
        raise CliError(
            f"{path}: evidence has nondegenerate time windows; "
            "this command needs precisely timed evidence",
            EXIT_SEMANTIC,
        ) from None


@click.group()
def main():
    """Bounds on conditional reachability in labeled CTMCs observed at
    imprecisely known times."""


def _write_csv(csv, out):
    """Write a CSV document to the path out, or to stdout when out is None."""
    if out is None:
        sys.stdout.write(csv)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv)


def _positive_finite(ctx, param, value):
    """Reject a tolerance that is not a positive finite number."""
    if not 0 < value < math.inf:
        raise CliError(
            f"{param.opts[0]} must be positive and finite", EXIT_SEMANTIC
        )
    return value


_transient_tol_option = click.option(
    "--transient-tol", type=float, default=1e-10, show_default=True,
    callback=_positive_finite, help="Transient truncation tolerance.",
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
    ctmc = _load_model(model)
    omega = _load_evidence(evidence, ctmc)
    try:
        config = AnalysisConfig(
            time_limit=time_limit,
            max_iters=max_iters,
            width_target=width_target,
            transient_tol=transient_tol,
            vi_tol=vi_tol,
            mode=mode,
            direction=direction,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_SEMANTIC) from None
    weights = _parse_weights(weight_spec, ctmc, transient_tol)
    try:
        trace = analyze(ctmc, omega, weights, config)
    except (SolverError, AbstractionError, ZeroLikelihoodError,
            UniformizationError) as exc:
        raise CliError(str(exc), EXIT_NUMERIC) from None
    _write_csv(trace.to_csv(), out)
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
    ctmc = _load_model(model)
    omega = _load_evidence(evidence, ctmc)
    rho = _to_precise(omega, evidence)
    weights = _parse_weights(weight_spec, ctmc, transient_tol)
    try:
        value = conditional_weight(ctmc, rho, weights, transient_tol)
    except (ZeroLikelihoodError, UniformizationError) as exc:
        raise CliError(f"{evidence}: {exc}", EXIT_NUMERIC) from None
    click.echo(f"{value:.12g}")


@main.command("likelihood")
@click.argument("model", type=click.Path())
@click.argument("evidence", type=click.Path())
@_transient_tol_option
def cmd_likelihood(model, evidence, transient_tol):
    """Probability that the model generates precisely timed evidence."""
    ctmc = _load_model(model)
    omega = _load_evidence(evidence, ctmc)
    rho = _to_precise(omega, evidence)
    try:
        value = evidence_likelihood(ctmc, rho, transient_tol)
    except UniformizationError as exc:
        raise CliError(f"{evidence}: {exc}", EXIT_NUMERIC) from None
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
    ctmc = _load_model(model)
    omega = _load_evidence(evidence, ctmc)
    weights = _parse_weights(weight_spec, ctmc, transient_tol)
    if n < 1:
        raise CliError("need at least one sample", EXIT_SEMANTIC)
    try:
        env = sample_envelope(ctmc, omega, weights, n, seed, transient_tol)
    except (ZeroLikelihoodError, UniformizationError) as exc:
        raise CliError(f"{evidence}: {exc}", EXIT_NUMERIC) from None
    _write_csv(env.to_csv(), out)
    click.echo(f"min={env.min:.12g} max={env.max:.12g} n={n}", err=True)
