"""Command-line front end.

Commands: complex | fill | folner | slim | constants | transfer.  Output
is JSON with a fixed key order and exact numbers only (ints, or "p/q"
strings); the two sweep commands can emit CSV instead.  Identical
invocations with identical seeds produce byte-identical output.

Exit codes: 0 success, 2 usage or spec error, 3 budget exceeded,
4 internal invariant violation.  Arguments are parsed by the standard
library's argparse, which starts faster than a third-party parser; options
must be spelled out in full, and ``--help`` lists a command's options.  The
PDFILL_BUDGET environment variable, a positive integer, overrides the
default budget on the ball's size, on fill's distinct cycles, and,
``groups.WORK_PER_BUDGET`` (25) times over, on fill's walk visits and
folner's grown sets; any other value is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    sys.stdout.write(text)
    sys.stdout.flush()


def _emit_json(payload: dict, output: str | None):
    _emit(json.dumps(payload, indent=2) + "\n", output)


def _emit_csv(rows, output: str | None):
    lines = [",".join(str(cell) for cell in row) for row in rows]
    _emit("\n".join(lines) + "\n", output)


def _emit_report(report, as_csv: bool, output: str | None):
    if as_csv:
        _emit_csv(report.csv_rows(), output)
    else:
        _emit_json(report.to_json_dict(), output)


def _make_parser(factory, *args, **kwargs):
    """A parser from ``factory`` that takes options spelled out in full,
    and ``--help`` but no short option."""
    parser = factory(*args, allow_abbrev=False, add_help=False, **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


_PARSER = _make_parser(
    argparse.ArgumentParser,
    prog="pdfill",
    description="Group-ring chain complexes and isoperimetric probes on Cayley balls.",
)
_COMMANDS = _PARSER.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _command(name, function):
    """The parser of one command, which runs ``function`` on its arguments."""
    parser = _make_parser(
        _COMMANDS.add_parser,
        name,
        help=function.__doc__.splitlines()[0],
        description=function.__doc__,
    )
    parser.set_defaults(command=function)
    return parser


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


_parser = _command("complex", cmd_complex)
_parser.add_argument("group_spec")
_parser.add_argument("ring_spec")
_parser.add_argument("--dualize", action="store_true", help="Reverse and conjugate-transpose.")
_parser.add_argument("--twist", dest="twist_spec", help='Character, e.g. "a:-1,b:1".')
_parser.add_argument("--euler", action="store_true", help="Report the Euler characteristic.")
_parser.add_argument("--homology", dest="homology_field", help="Field, e.g. Q or Z/2.")
_parser.add_argument("--output", help="Also write to a file.")


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
    _emit_report(report, as_csv, output)


_parser = _command("fill", cmd_fill)
_parser.add_argument("group_spec")
_parser.add_argument("ring_spec")
_parser.add_argument("--radius", required=True, type=int)
_parser.add_argument("--max-word", required=True, type=int)
_parser.add_argument("--coeff-bound", default=1, type=int, help="[default: %(default)s]")
_parser.add_argument("--csv", dest="as_csv", action="store_true", help="Emit CSV instead of JSON.")
_parser.add_argument("--output")


def cmd_folner(group_spec, family, threshold, as_csv, output):
    """Boundary-to-size ratios over a family of finite sets."""
    group = make_group(group_spec)
    threshold = _module.RATIONALS.parse_value(threshold).payload
    report = _module.folner_sweep(group, family, threshold=threshold, budget=_budget())
    _emit_report(report, as_csv, output)


_parser = _command("folner", cmd_folner)
_parser.add_argument("group_spec")
_parser.add_argument("--family", required=True, help="balls:R | boxes:N | connected:K")
_parser.add_argument("--threshold", default="1/10",
                     help="Vanishing threshold for non-exhaustive families. [default: %(default)s]")
_parser.add_argument("--csv", dest="as_csv", action="store_true", help="Emit CSV instead of JSON.")
_parser.add_argument("--output")


def cmd_slim(group_spec, radius, samples, seed, as_csv, output):
    """Worst triangle slimness over a window."""
    group = make_group(group_spec)

    def sweep(r):
        return _module.slimness_sweep(group, r, sample=samples, seed=seed, budget=_budget())

    if as_csv:
        if radius < 0:    # the series below would be empty, not an error
            raise SpecParseError("radius must be >= 0")
        rows = [("radius", "delta_hat")]
        for r in range(radius + 1):
            if r % 2 == 0:    # radius 2k + 1 reads the same sphere, at k, as 2k
                report = sweep(r)
            rows.append((r, report.delta_hat))
        _emit_csv(rows, output)
        return
    _emit_json(sweep(radius).to_json_dict(), output)


_parser = _command("slim", cmd_slim)
_parser.add_argument("group_spec")
_parser.add_argument("--radius", required=True, type=int)
_parser.add_argument("--samples", type=int, help="Triangle sample size (default: all up to 20000).")
_parser.add_argument("--seed", default=0, type=int, help="[default: %(default)s]")
_parser.add_argument("--csv", dest="as_csv", action="store_true",
                     help="Emit a (radius, delta_hat) series up to --radius as CSV.")
_parser.add_argument("--output")


def cmd_constants(group_spec, kappa, output):
    """Corridor constants derived from the longest relator."""
    group = make_group(group_spec)
    if group.presentation is None:
        raise SpecParseError(f"group {group.name} has no presentation")
    constants = _module.slimness_constants(group.presentation, kappa)
    _emit_json(constants.to_json_dict(), output)


_parser = _command("constants", cmd_constants)
_parser.add_argument("group_spec")
_parser.add_argument("--kappa", required=True, type=int)
_parser.add_argument("--output")


def cmd_transfer(kappa, norm_x, norm_z, norm_h, output):
    """kappa*|X|*|Z| + |H|: carry a filling constant across chain maps."""
    kappa = _module.RATIONALS.parse_value(kappa).payload
    value = _module.transfer_constant(kappa, norm_x, norm_z, norm_h)
    _emit_json({"constant": _module.frac_str(value)}, output)


_parser = _command("transfer", cmd_transfer)
_parser.add_argument("--kappa", required=True, help="Filling constant, int or p/q.")
_parser.add_argument("--norm-x", required=True, type=int)
_parser.add_argument("--norm-z", required=True, type=int)
_parser.add_argument("--norm-h", required=True, type=int)
_parser.add_argument("--output")


def main(args=None, prog_name=None, standalone_mode=True):
    """Run one command, as ``pdfill ARGS`` does.

    ``args`` defaults to ``sys.argv[1:]``, and ``prog_name``, the program's
    name in usage and help, to ``pdfill``.  Usage errors exit 2; pdfill
    errors print one line on stderr and exit 2, 3 or 4.  A command that
    succeeds exits 0 in standalone mode and returns otherwise.
    """
    _PARSER.prog = prog_name or "pdfill"
    for name, parser in _COMMANDS.choices.items():
        parser.prog = f"{_PARSER.prog} {name}"
    arguments = vars(_PARSER.parse_args(args))
    command = arguments.pop("command")
    try:
        command(**arguments)
    except InvariantError as err:
        sys.stderr.write(f"invariant violation: {err}\n")
        sys.exit(4)
    except BudgetError as err:
        sys.stderr.write(f"budget exceeded: {err}\n")
        sys.exit(3)
    except PdfillError as err:
        sys.stderr.write(f"error: {err}\n")
        sys.exit(2)
    except BrokenPipeError:
        # the reader closed stdout early (pdfill ... | head): end quietly
        # with 1, and let the final flush write to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)


# click.testing.CliRunner and perfbench/probe.py call ``main.main(args=...,
# prog_name=..., standalone_mode=...)`` and name the program ``main.name``,
# as they would a click command
main.main = main
main.name = "pdfill"


if __name__ == "__main__":
    main()
