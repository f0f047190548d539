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
default budget on the ball's size, on fill's distinct cycles and on the
word table's entries, and, ``groups.WORK_PER_BUDGET`` (25) times over, on
fill's walk visits, folner's grown sets, the elements of folner's boxes
and the letters of the conjugate table a Dehn group builds; any other
value is a usage error.  The library
reads it (``groups.current_budget``) wherever a search spends it, so a
library call obeys it as a command does.  An ``--output`` file that
cannot be written is an error too, with nothing printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain

from .errors import (
    BudgetError,
    InvalidCharacterError,
    InvariantError,
    PdfillError,
    SpecParseError,
)
from .groups import make_group

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


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as err:
            raise PdfillError(f"cannot write {output}: {err.strerror}") from None
    sys.stdout.write(text)
    sys.stdout.flush()


def _emit_json(payload: dict, output: str | None):
    _emit(_render(payload, "\n") + "\n", output)


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encoder(pad: str) -> json.JSONEncoder:
    """A compact encoder whose item separator is a comma and ``pad``.

    Without ``indent`` it runs json's C encoder, several times faster than
    the pure-Python one that ``indent=2`` runs.
    """
    return json.JSONEncoder(separators=("," + pad, ": "))


def _scalars_only(values) -> bool:
    """Whether no value is a dict, list or tuple, tested once per type."""
    return not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values)))


def _render(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, where ``pad``
    is a newline and the indentation of the value's own lines."""
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    if _scalars_only(value.values() if isinstance(value, dict) else value):
        text = _encoder(inner).encode(value)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if isinstance(value, dict):
        # json's own text for each key is what it writes between "{" and ": 0}"
        members = (
            json.dumps({key: 0})[1:-4] + ": " + _render(item, inner) for key, item in value.items()
        )
        return "{" + inner + ("," + inner).join(members) + pad + "}"
    dicts = all(issubclass(kind, dict) for kind in set(map(type, value))) and all(value)
    if dicts and _scalars_only(chain.from_iterable(map(dict.values, value))):
        # one encoder call separates the dicts' members at their depth, and
        # the dicts at the same depth; re-indent each seam between dicts.
        # JSON strings escape newlines, so "},\n" appears only at a seam
        deeper = inner + "  "
        text = _encoder(deeper).encode(value)
        text = text.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        return "[" + inner + "{" + deeper + text[2:-2] + inner + "}" + pad + "]"
    return "[" + inner + ("," + inner).join(_render(item, inner) for item in value) + pad + "]"


def _emit_csv(rows, output: str | None):
    lines = [",".join(str(cell) for cell in row) for row in rows]
    _emit("\n".join(lines) + "\n", output)


def _emit_report(report, as_csv: bool, output: str | None):
    if as_csv:
        _emit_csv(report.csv_rows(), output)
    else:
        _emit_json(report.to_json_dict(), output)


class _Parser(argparse.ArgumentParser):
    """A parser that takes options spelled out in full, and ``--help`` but
    no short option.  The token after an option that takes a value is that
    value, even when it starts with ``-`` (``--kappa -1/2``), as in click."""

    def __init__(self, **kwargs):
        self.value_options = set()
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs is None:
            self.value_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens = iter(sys.argv[1:] if args is None else args)
        joined = []
        for token in tokens:
            if token in self.value_options:
                value = next(tokens, None)
                if value is not None:
                    token = f"{token}={value}"
            joined.append(token)
        return super().parse_known_args(joined, namespace)


_PARSER = _Parser(
    prog="pdfill",
    description="Group-ring chain complexes and isoperimetric probes on Cayley balls.",
)
_COMMANDS = _PARSER.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _command(name, function):
    """The parser of one command, which runs ``function`` on its arguments."""
    parser = _COMMANDS.add_parser(
        name, help=function.__doc__.splitlines()[0], description=function.__doc__
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
    report = _module.isoperimetric_sweep(group, radius, max_word, coefficient_bound=coeff_bound)
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
    report = _module.folner_sweep(group, family, threshold=threshold)
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
        return _module.slimness_sweep(group, r, sample=samples, seed=seed)

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
