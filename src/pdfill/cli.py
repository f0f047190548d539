"""Command-line front end.

Commands: complex | fill | folner | slim | constants | transfer.  Output
is JSON with a fixed key order and exact numbers only (ints, or "p/q"
strings); the two sweep commands can emit CSV instead.  Identical
invocations with identical seeds produce byte-identical output.

Exit codes: 0 success, 2 usage or spec error, 3 budget exceeded,
4 internal invariant violation.  The PDFILL_BUDGET environment variable,
a positive integer, overrides the default budget on the ball's size, on
fill's distinct cycles, and, 25 times over, on fill's walk visits and
folner's grown sets; any other value is a usage error.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from .errors import (
    BudgetError,
    InvalidCharacterError,
    InvariantError,
    PdfillError,
    SpecParseError,
)
from .groups import DEFAULT_BALL_BUDGET, make_group

# Every other library name comes from the package, which imports its
# module on first use, so a command loads only its own layer.  Commands
# read these names through ``_module``, so a caller that replaces one on
# this module (as perfbench/probe.py times a library call) sees every call.
_module = sys.modules[__name__]


def __getattr__(name):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


def _budget() -> int:
    raw = os.environ.get("PDFILL_BUDGET")
    if raw is None:
        return DEFAULT_BALL_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise SpecParseError(f"PDFILL_BUDGET must be a positive integer, got {raw!r}")
    return value


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    click.echo(text, nl=False)


def _emit_json(payload: dict, output: str | None):
    _emit(json.dumps(payload, indent=2) + "\n", output)


def _emit_csv(rows, output: str | None):
    lines = [",".join(str(cell) for cell in row) for row in rows]
    _emit("\n".join(lines) + "\n", output)


def _handle_errors(command):
    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except InvariantError as err:
            click.echo(f"invariant violation: {err}", err=True)
            sys.exit(4)
        except BudgetError as err:
            click.echo(f"budget exceeded: {err}", err=True)
            sys.exit(3)
        except PdfillError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
def main():
    """Group-ring chain complexes and isoperimetric probes on Cayley balls."""


@main.command("complex")
@click.argument("group_spec")
@click.argument("ring_spec")
@click.option("--dualize", is_flag=True, help="Reverse and conjugate-transpose.")
@click.option("--twist", "twist_spec", default=None, help='Character, e.g. "a:-1,b:1".')
@click.option("--euler", is_flag=True, help="Report the Euler characteristic.")
@click.option("--homology", "homology_field", default=None, help="Field, e.g. Q or Z/2.")
@click.option("--output", default=None, type=click.Path(), help="Also write to a file.")
@_handle_errors
def cmd_complex(group_spec, ring_spec, dualize, twist_spec, euler, homology_field, output):
    """Presentation chain complex of GROUP over RING, with optional transforms."""
    group = make_group(group_spec)
    ring = _module.parse_ring(ring_spec)
    complex_ = _module.presentation_complex(group, ring)
    applied = []
    if dualize:
        complex_ = complex_.dualize()
        applied.append("dualize")
    character = None
    if twist_spec is not None:
        character = _module.Character.parse(twist_spec, ring, group.generator_count)
        if not character.is_valid_on(group.presentation):
            raise InvalidCharacterError(
                f"character {twist_spec!r} does not kill every relator of {group.name}"
            )
        complex_ = complex_.twist(character)
        applied.append("twist")
    payload = {
        "group": group.name,
        "ring": ring.name,
        "applied": applied,
        "twist": character.format() if character else None,
        "ranks": list(complex_.ranks),
        "differentials": [d.format() for d in complex_.differentials],
    }
    if euler:
        payload["euler"] = complex_.euler_characteristic()
    if homology_field:
        field = _module.parse_ring(homology_field)
        payload["homology"] = {
            "field": field.name,
            "dimensions": complex_.homology_dimensions(field),
        }
    _emit_json(payload, output)


@main.command("fill")
@click.argument("group_spec")
@click.argument("ring_spec")
@click.option("--radius", required=True, type=int)
@click.option("--max-word", required=True, type=int)
@click.option("--coeff-bound", default=1, type=int, show_default=True)
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV instead of JSON.")
@click.option("--output", default=None, type=click.Path())
@_handle_errors
def cmd_fill(group_spec, ring_spec, radius, max_word, coeff_bound, as_csv, output):
    """Minimal fillings of all closed words up to a length cap in a window.

    Fillings are integral: RING must be Z.
    """
    group = make_group(group_spec)
    ring = _module.parse_ring(ring_spec)
    if ring.name != "Z":
        raise SpecParseError(f"fill works over Z only, got {ring.name}")
    report = _module.isoperimetric_sweep(
        group, radius, max_word, coefficient_bound=coeff_bound, budget=_budget()
    )
    if as_csv:
        _emit_csv(report.csv_rows(), output)
    else:
        _emit_json(report.to_json_dict(), output)


@main.command("folner")
@click.argument("group_spec")
@click.option("--family", required=True, help="balls:R | boxes:N | connected:K")
@click.option("--threshold", default="1/10", show_default=True,
              help="Vanishing threshold for non-exhaustive families.")
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV instead of JSON.")
@click.option("--output", default=None, type=click.Path())
@_handle_errors
def cmd_folner(group_spec, family, threshold, as_csv, output):
    """Boundary-to-size ratios over a family of finite sets."""
    group = make_group(group_spec)
    threshold = _module.RATIONALS.parse_value(threshold).payload
    report = _module.folner_sweep(group, family, threshold=threshold, budget=_budget())
    if as_csv:
        _emit_csv(report.csv_rows(), output)
    else:
        _emit_json(report.to_json_dict(), output)


@main.command("slim")
@click.argument("group_spec")
@click.option("--radius", required=True, type=int)
@click.option("--samples", default=None, type=int,
              help="Triangle sample size (default: all up to 20000).")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--csv", "as_csv", is_flag=True,
              help="Emit a (radius, delta_hat) series up to --radius as CSV.")
@click.option("--output", default=None, type=click.Path())
@_handle_errors
def cmd_slim(group_spec, radius, samples, seed, as_csv, output):
    """Worst triangle slimness over a window."""
    group = make_group(group_spec)
    if as_csv:
        if radius < 0:    # the series below would be empty, not an error
            raise SpecParseError("radius must be >= 0")
        rows = [("radius", "delta_hat")]
        for r in range(radius + 1):
            report = _module.slimness_sweep(group, r, sample=samples, seed=seed, budget=_budget())
            rows.append((r, report.delta_hat))
        _emit_csv(rows, output)
        return
    report = _module.slimness_sweep(group, radius, sample=samples, seed=seed, budget=_budget())
    _emit_json(report.to_json_dict(), output)


@main.command("constants")
@click.argument("group_spec")
@click.option("--kappa", required=True, type=int)
@click.option("--output", default=None, type=click.Path())
@_handle_errors
def cmd_constants(group_spec, kappa, output):
    """Corridor constants derived from the longest relator."""
    group = make_group(group_spec)
    if group.presentation is None:
        raise SpecParseError(f"group {group.name} has no presentation")
    constants = _module.slimness_constants(group.presentation, kappa)
    _emit_json(constants.to_json_dict(), output)


@main.command("transfer")
@click.option("--kappa", required=True, help="Filling constant, int or p/q.")
@click.option("--norm-x", required=True, type=int)
@click.option("--norm-z", required=True, type=int)
@click.option("--norm-h", required=True, type=int)
@click.option("--output", default=None, type=click.Path())
@_handle_errors
def cmd_transfer(kappa, norm_x, norm_z, norm_h, output):
    """kappa*|X|*|Z| + |H|: carry a filling constant across chain maps."""
    kappa = _module.RATIONALS.parse_value(kappa).payload
    value = _module.transfer_constant(kappa, norm_x, norm_z, norm_h)
    _emit_json({"constant": _module.frac_str(value)}, output)


if __name__ == "__main__":
    main()
