"""Group rings with involution, presentation chain complexes, and
isoperimetric probes (fillings, boundary ratios, slim triangles) on
finite windows of Cayley 2-complexes."""

import importlib

# module -> the names it exports; a name is imported on first use
# (PEP 562), so importing the package, or one command, loads only the
# modules it reads
_EXPORTS = {
    "complexes": ("ChainComplex", "fox_derivatives_all", "fox_jacobian", "presentation_complex"),
    "errors": (
        "BudgetError",
        "GroupMismatchError",
        "InvalidCharacterError",
        "InvariantError",
        "NoFillingError",
        "NotACycleError",
        "NotAFieldError",
        "OutOfWindowError",
        "PdfillError",
        "RingMismatchError",
        "SpecParseError",
        "UnsupportedTwistError",
    ),
    "filling": (
        "CayleyBallComplex",
        "FillingResult",
        "OneCycle",
        "SweepReport",
        "build_ball_complex",
        "isoperimetric_sweep",
        "minimal_filling",
        "transfer_constant",
        "word_cycle",
    ),
    "folner": (
        "FolnerReport",
        "boundary_differential",
        "folner_boundary",
        "folner_sweep",
        "verify_filling_bound",
    ),
    "group_ring": ("Character", "GroupRingElement", "GroupRingMatrix", "parse_element"),
    "groups": (
        "GroupOracle",
        "Presentation",
        "ball",
        "builtin_group_specs",
        "cyclic_table",
        "finite_table",
        "free_abelian",
        "free_group",
        "klein_bottle",
        "make_group",
        "nonorientable_type",
        "orientable_type",
        "surface_group",
    ),
    "rings": (
        "INTEGERS",
        "QUATERNIONS",
        "RATIONALS",
        "Ring",
        "RingValue",
        "frac_str",
        "parse_ring",
        "residue_ring",
    ),
    "slimness": (
        "SlimnessConstants",
        "SlimnessReport",
        "all_geodesics",
        "lex_geodesic",
        "slimness_constants",
        "slimness_sweep",
        "triangle_slimness",
    ),
    "words": ("word_from_string", "word_to_string"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
