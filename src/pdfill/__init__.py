"""Group rings with involution, presentation chain complexes, and
isoperimetric probes (fillings, boundary ratios, slim triangles) on
finite windows of Cayley 2-complexes."""

from .complexes import (
    ChainComplex,
    fox_derivatives_all,
    fox_jacobian,
    presentation_complex,
)
from .errors import (
    BudgetError,
    GroupMismatchError,
    InvalidCharacterError,
    InvariantError,
    NoFillingError,
    NotACycleError,
    NotAFieldError,
    OutOfWindowError,
    PdfillError,
    RingMismatchError,
    SpecParseError,
    UnsupportedTwistError,
)
from .filling import (
    CayleyBallComplex,
    FillingResult,
    OneCycle,
    SweepReport,
    build_ball_complex,
    isoperimetric_sweep,
    minimal_filling,
    transfer_constant,
    word_cycle,
)
from .folner import (
    FolnerReport,
    boundary_differential,
    folner_boundary,
    folner_sweep,
    verify_filling_bound,
)
from .group_ring import Character, GroupRingElement, GroupRingMatrix, parse_element
from .groups import (
    GroupOracle,
    Presentation,
    ball,
    builtin_group_specs,
    cyclic_table,
    finite_table,
    free_abelian,
    free_group,
    klein_bottle,
    make_group,
    nonorientable_type,
    orientable_type,
    surface_group,
)
from .rings import (
    INTEGERS,
    QUATERNIONS,
    RATIONALS,
    Ring,
    RingValue,
    frac_str,
    parse_ring,
    residue_ring,
)
from .slimness import (
    SlimnessConstants,
    SlimnessReport,
    all_geodesics,
    lex_geodesic,
    slimness_constants,
    slimness_sweep,
    triangle_slimness,
)
from .words import word_from_string, word_to_string

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
