"""Truncated Cayley 2-complexes and minimal-support filling search.

The complex is the radius-r window of the universal cover of a
presentation 2-complex: vertices are group elements of the ball, there is
one directed edge per (vertex, generator) whose endpoint stays in the
ball, and one 2-cell per (vertex, relator) whose whole attaching path
stays in the ball.  Every solver and check works on the per-face boundary
dicts (``face_boundaries``) over edge ids; no matrix is built.

The group is consulted once, through ``groups.ball``, which grows the
window and its step table together: one integer array per signed letter,
-1 where a step leaves the ball.  The edge that leaves vertex v by
generator g (of m) has the id ``v*m + g - 1`` and exists where
``steps[g][v] >= 0``; its target is ``steps[g][v]``.  So the window keeps
no edge table, and its ids, though not dense, increase in (vertex,
generator) order.  Every walk (attaching paths, ``word_cycle``, the
closed-walk enumeration) is an array lookup through one tracer,
``_trace``, which also sums the walk's signed edge coefficients.  Each
face's boundary is summed once, when the face is traced.

When the window is built it is collapsed once (Whitehead's elementary
collapses): while some edge is used by exactly one live face, that face
is retired through that free edge.  The retirements are kept in order as
``collapse_order``; the faces never retired form the ``core``.  Every
2-cycle of the window lies on the core, so with an empty core a cycle has
at most one filling, and back-substitution through the collapse order
finds it.  The one-relator windows in the tests all collapse completely
(their presentation complexes are aspherical, Lyndon 1950); Z^3 keeps a
core.

``minimal_filling`` finds a 2-chain of minimal support with a prescribed
boundary and coefficients in [-bound, bound].  Each retired face's value
is forced by back-substitution, and only what is left on the core is
searched, by exhaustive branch and bound capped at ``MAX_SEARCH_NODES``
nodes per cycle.  All of it is deterministic: faces and edges are ordered
by construction and ties break by index.

The sweep solves one cycle per symmetry orbit.  A signed permutation of
the generators that reads every relator as a cyclic conjugate of a
relator or of its inverse (``letter_automorphisms``) is an automorphism
of the group.  It fixes the identity and keeps word length, so it maps
the window onto itself, faces onto faces up to sign, and a closed walk
from the identity onto a closed walk of the same length whose cycle is
the image cycle.  A filling maps to a filling of the image with the same
support and coefficients up to sign, so the minimal filling norm and the
unfilled verdict are the same at every bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .errors import (
    BudgetError,
    InvariantError,
    NoFillingError,
    NotACycleError,
    OutOfWindowError,
    SpecParseError,
)
from .groups import DEFAULT_BALL_BUDGET, GroupOracle, ball
from .rings import frac_str
from .words import invert_word, word_to_string

MAX_SEARCH_NODES = 1_000_000
WALK_VISITS_PER_BUDGET = 25    # closed-walk search: at most this many visits per unit of budget


@dataclass
class CayleyBallComplex:
    """A finite window of the Cayley 2-complex of a presentation."""

    group: GroupOracle
    radius: int
    vertices: list
    distances: list
    steps: dict          # signed letter -> array: index of vertex * letter, -1 outside
    faces: list          # (base vertex index, relator index)
    face_boundaries: list  # per face: {edge id v*m + g - 1: nonzero coefficient}

    def __post_init__(self):
        edge_faces: dict = {}
        for f, boundary in enumerate(self.face_boundaries):
            for e in boundary:
                edge_faces.setdefault(e, []).append(f)
        self.edge_faces = edge_faces
        # (face, free edge, coefficient) per retirement, and the faces left
        self.collapse_order, self.core = _collapse(self.face_boundaries, edge_faces)

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def edge_count(self):
        return sum(len(s) - s.count(-1) for g, s in self.steps.items() if g > 0)

    @property
    def face_count(self):
        return len(self.faces)

    @property
    def max_face_length(self):
        return max((len(rel) for rel in self.group.presentation.relators), default=0)


def _collapse(face_boundaries, edge_faces):
    """Retire faces through free edges until none is left.

    A free edge is one that exactly one live face uses.  Returns the
    retirements in order, as (face, free edge, coefficient of the edge in
    the face), and the sorted faces never retired.  Retiring a face only
    frees more edges, so which faces are retired does not depend on the
    order they are taken in.
    """
    users = {e: len(faces) for e, faces in edge_faces.items()}
    live = [True] * len(face_boundaries)
    free = sorted((e for e, n in users.items() if n == 1), reverse=True)
    order = []
    while free:
        e = free.pop()
        if users[e] != 1:
            continue
        face = next(f for f in edge_faces[e] if live[f])
        live[face] = False
        order.append((face, e, face_boundaries[face][e]))
        for other in face_boundaries[face]:
            users[other] -= 1
            if users[other] == 1:
                free.append(other)
    return order, [f for f, alive in enumerate(live) if alive]


def build_ball_complex(
    group: GroupOracle,
    radius: int,
    budget: int = DEFAULT_BALL_BUDGET,
) -> CayleyBallComplex:
    presentation = group.presentation
    if presentation is None:
        raise SpecParseError(f"group {group.name} has no presentation")
    elements = ball(group, radius, budget=budget)
    vertices = [g for g, _ in elements]
    distances = [d for _, d in elements]
    steps = elements.steps
    del elements    # the (element, distance) pairs: vertices and distances hold them
    m = group.generator_count

    faces = []
    face_boundaries = []
    # a face's path leaves its base vertex by its first letter and comes
    # back by its last, so both steps must exist there (the table holds
    # each step both ways)
    ends = [
        (r, rel, steps[rel[0]], steps[-rel[-1]])
        for r, rel in enumerate(presentation.relators)
    ]
    for i in range(len(vertices)):
        for r, relator, first, last in ends:
            if first[i] < 0 or last[i] < 0:
                continue
            traced = _trace(steps, m, i, relator)
            if traced is None:
                continue
            end, boundary = traced
            if end != i:
                raise InvariantError("attaching path of a relator did not close up")
            faces.append((i, r))
            face_boundaries.append(boundary)

    window = CayleyBallComplex(
        group=group,
        radius=radius,
        vertices=vertices,
        distances=distances,
        steps=steps,
        faces=faces,
        face_boundaries=face_boundaries,
    )
    if not all(_is_cycle(window, boundary) for boundary in face_boundaries):
        raise InvariantError("face boundaries are not cycles: d1 o d2 != 0")
    return window


def _trace(steps, m, start, word):
    """Read a word from a start vertex through the step arrays.

    Returns (end vertex, {edge id: nonzero coefficient}), where a letter
    s adds +1 on the s-edge it crosses forwards and s^-1 adds -1 on the
    s-edge it crosses backwards; None when the path leaves the window.
    The s-edge leaving v has the id v*m + s - 1, for m generators.
    """
    current = start
    coefficients: dict = {}
    for letter in word:
        target = steps[letter][current]
        if target < 0:
            return None
        if letter > 0:
            e = current * m + letter - 1
            coefficients[e] = coefficients.get(e, 0) + 1
        else:
            e = target * m - letter - 1
            coefficients[e] = coefficients.get(e, 0) - 1
        current = target
    return current, {e: c for e, c in coefficients.items() if c}


def _is_cycle(complex_, coefficients) -> bool:
    """Whether a 1-chain {edge id: coefficient} has zero boundary.

    Each edge adds +c at its target and -c at its source, so a self-loop
    nets to zero at its one vertex.  An id with no edge in the window,
    whether outside [0, vertex count * m) or a step that leaves the
    window, makes no cycle.
    """
    m, steps = complex_.group.generator_count, complex_.steps
    ids = coefficients.keys()
    if ids and not 0 <= min(ids) <= max(ids) < complex_.vertex_count * m:
        return False
    net: dict = {}
    for e, c in coefficients.items():
        s, g = divmod(e, m)
        t = steps[g + 1][s]
        if t < 0:
            return False
        net[t] = net.get(t, 0) + c
        net[s] = net.get(s, 0) - c
    return not any(net.values())


@dataclass
class OneCycle:
    """An integer 1-chain in the kernel of the edge boundary."""

    complex: CayleyBallComplex
    coefficients: dict

    def __post_init__(self):
        self.coefficients = {e: c for e, c in self.coefficients.items() if c}
        if not self.is_cycle():
            raise NotACycleError("chain is not in the kernel of the boundary")

    def is_cycle(self) -> bool:
        return _is_cycle(self.complex, self.coefficients)

    def support_norm(self) -> int:
        return len(self.coefficients)


def word_cycle(complex_: CayleyBallComplex, word) -> OneCycle:
    """The signed edge-indicator of a closed word traced from the identity."""
    for letter in word:
        if not 1 <= abs(letter) <= complex_.group.generator_count:
            raise SpecParseError(f"letter {letter} out of range")
    center = 0   # ``ball`` lists the identity first
    traced = _trace(complex_.steps, complex_.group.generator_count, center, word)
    if traced is None:
        raise OutOfWindowError(f"path leaves the radius-{complex_.radius} window")
    end, coefficients = traced
    if end != center:
        raise NotACycleError("word does not evaluate to the identity")
    return OneCycle(complex_, coefficients)


@dataclass
class FillingResult:
    filler: dict
    cycle_norm: int
    filler_norm: int
    ratio: Fraction
    nodes_explored: int      # core-search nodes; 0 when the core is not searched


def minimal_filling(
    complex_: CayleyBallComplex,
    cycle: OneCycle,
    coefficient_bound: int = 1,
) -> FillingResult:
    """A minimal-support 2-chain whose boundary is the given cycle.

    First the cycle is back-substituted through the window's collapse
    order.  When a face is retired through its free edge e, no live face
    uses e and every face retired before it has its value already, so the
    face must take residual(e) / coefficient.  That value is exact: it is
    forced on every filling, whatever the core faces take, and no other
    choice exists.  A value that is not an integer or lies outside
    [-bound, bound] leaves no filling at this bound.

    What is left of the cycle must be filled by core faces alone, and the
    core is searched exhaustively (``_exact_search``).  So the minimal
    support is the forced support plus the core's minimal support, and
    every result is optimal.  ``nodes_explored`` counts the core search's
    nodes, 0 when nothing is left for the core.

    Raises ``NoFillingError`` when nothing in the window at this bound has
    the right boundary; that never distinguishes a small window from a
    non-bounding cycle.  Raises ``BudgetError`` when the core search
    passes ``MAX_SEARCH_NODES`` nodes, and ``SpecParseError`` when the
    cycle belongs to another window, whose edges are numbered otherwise.
    """
    if cycle.complex is not complex_:
        raise SpecParseError("cycle lies in another window")
    if coefficient_bound < 1:
        raise SpecParseError("coefficient bound must be >= 1")
    if not cycle.coefficients:
        return FillingResult({}, 0, 0, Fraction(0), 0)
    face_boundaries = complex_.face_boundaries
    residual = dict(cycle.coefficients)
    filler = {}
    for face, e, c in complex_.collapse_order:
        r = residual.get(e)
        if r is None:
            continue
        value, rest = divmod(r, c)
        if rest or abs(value) > coefficient_bound:
            raise _no_filling(coefficient_bound)
        filler[face] = value
        _subtract(residual, face_boundaries[face], value)
    nodes = 0
    if residual:
        core_filler, nodes = _exact_search(complex_, cycle, residual, coefficient_bound)
        filler.update(core_filler)
    filler = dict(sorted(filler.items()))
    _verify_filler(complex_, cycle, filler)
    filler_norm = len(filler)
    cycle_norm = cycle.support_norm()
    return FillingResult(
        filler, cycle_norm, filler_norm, Fraction(filler_norm, cycle_norm), nodes
    )


def _no_filling(bound):
    return NoFillingError(
        f"no filling in the window with coefficients in [-{bound}, {bound}] "
        "(window may be too small)"
    )


def _subtract(residual, boundary, value):
    """residual -= value * boundary, dropping the edges that reach zero."""
    for e, c in boundary.items():
        new = residual.get(e, 0) - value * c
        if new:
            residual[e] = new
        else:
            residual.pop(e, None)


def _verify_filler(complex_, cycle, filler):
    boundary: dict = {}
    for f, c in filler.items():
        for e, b in complex_.face_boundaries[f].items():
            boundary[e] = boundary.get(e, 0) + c * b
    if {e: c for e, c in boundary.items() if c} != cycle.coefficients:
        raise InvariantError("filler boundary does not match the cycle")


def _exact_search(complex_, cycle, residual, bound):
    """Depth-first branch and bound over the core faces' coefficients.

    Fills ``residual``, what is left of ``cycle`` after back-substitution,
    with core faces only; every retired face stays at its forced value.
    A residual edge with the fewest unassigned incident faces is chosen;
    one of those faces must be nonzero, and branching on which face is the
    first nonzero one partitions the space whatever order the faces are
    tried in.  They are tried best-first: by the smallest residual support
    any allowed value leaves, then by index.  The lower bound is
    ceil(residual support / max face length).  Returns (core filler,
    nodes); raises ``BudgetError`` past ``MAX_SEARCH_NODES`` nodes.
    """
    max_len = max(complex_.max_face_length, 1)
    edge_faces = complex_.edge_faces
    face_boundaries = complex_.face_boundaries

    # retired faces are not searched: they count as assigned
    assigned = [0] * complex_.face_count
    for f in complex_.core:
        assigned[f] = None
    best: dict = {"support": math.inf, "filler": None}
    nodes = 0
    values = [v for k in range(1, bound + 1) for v in (k, -k)]

    def choose_edge():
        best_edge, best_free = None, None
        for e in residual:
            free = 0
            for f in edge_faces.get(e, ()):
                if assigned[f] is None:
                    free += 1
            if best_free is None or free < best_free or (
                free == best_free and e < best_edge
            ):
                best_edge, best_free = e, free
                if free == 0:
                    break
        return best_edge, best_free

    def ranked(face):
        """(smallest support left, face, values in the order to try them)."""
        order = sorted(
            (_support_after(residual, face_boundaries[face], v), v < 0, abs(v), v)
            for v in values
        )
        return order[0][0], face, [v for *_, v in order]

    def recurse(nonzero_count):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise BudgetError(
                f"filling search exceeded {MAX_SEARCH_NODES} nodes on a cycle "
                f"of norm {cycle.support_norm()}"
            )
        if not residual:
            if nonzero_count < best["support"]:
                best["support"] = nonzero_count
                best["filler"] = {
                    f: v for f, v in enumerate(assigned) if v
                }
            return
        lower = nonzero_count + math.ceil(len(residual) / max_len)
        if lower >= best["support"]:
            return
        edge, free = choose_edge()
        if free == 0:
            return
        candidates = sorted(
            ranked(f) for f in edge_faces[edge] if assigned[f] is None
        )
        for pos, (_, face, ordered) in enumerate(candidates):
            # faces before position pos stay zero on this branch
            for _, earlier, _ in candidates[:pos]:
                assigned[earlier] = 0
            for value in ordered:
                assigned[face] = value
                _subtract(residual, face_boundaries[face], value)
                recurse(nonzero_count + 1)
                _subtract(residual, face_boundaries[face], -value)
                assigned[face] = None
            for _, earlier, _ in candidates[:pos]:
                assigned[earlier] = None

    recurse(0)
    if best["filler"] is None:
        raise _no_filling(bound)
    return best["filler"], nodes


def _support_after(residual, boundary, value):
    support = len(residual)
    for e, c in boundary.items():
        old = residual.get(e, 0)
        new = old - value * c
        if old and not new:
            support -= 1
        elif not old and new:
            support += 1
    return support


@dataclass
class SweepReport:
    group: str
    radius: int
    word_length_cap: int
    coefficient_bound: int
    corpus_size: int
    filled: int
    unfilled: int
    max_ratio: Fraction
    per_cycle: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "radius": self.radius,
            "max_word": self.word_length_cap,
            "coeff_bound": self.coefficient_bound,
            "corpus_size": self.corpus_size,
            "filled": self.filled,
            "unfilled": self.unfilled,
            "max_ratio": frac_str(self.max_ratio),
            "kappa_hat": frac_str(self.max_ratio),
            "per_cycle": self.per_cycle,
        }

    def csv_rows(self):
        yield ("word", "word_length", "cycle_norm", "filler_norm", "ratio", "optimal")
        for entry in self.per_cycle:
            yield (
                entry["word"],
                entry["word_length"],
                entry["cycle_norm"],
                entry.get("filler_norm", ""),
                entry.get("ratio", ""),
                entry.get("optimal", ""),
            )


def isoperimetric_sweep(
    group: GroupOracle,
    radius: int,
    word_length_cap: int,
    coefficient_bound: int = 1,
    budget: int = DEFAULT_BALL_BUDGET,
) -> SweepReport:
    """Fill every null-homotopic word up to the cap whose path fits the window.

    Closed words are enumerated as non-backtracking walks from the center
    vertex (a walk is null-homotopic exactly when it returns to the
    center), deduplicated by their signed edge vectors, and each distinct
    nonzero cycle is filled.  Cycles with no filling at the coefficient
    bound are reported and excluded from the ratio statistics.  ``budget``
    bounds the window's vertices, the distinct cycles and, scaled by
    ``WALK_VISITS_PER_BUDGET``, the walk search; past any of them,
    ``BudgetError`` is raised before any cycle is filled.

    Each solved cycle's verdict is kept under the image of its walk by
    each letter automorphism σ but the identity, drawing at most one σ per
    cycle of the corpus: that walk, traced from the identity, is
    σ(cycle), whose verdict is the same (see the module docstring).  A
    later cycle whose first walk is such an image takes the verdict over
    unsolved; its norm must equal the solved cycle's, or
    ``InvariantError`` is raised.  Every other cycle is solved, so an
    orbit whose members are first reached by walks that are not images of
    each other is solved more than once.
    """
    if coefficient_bound < 1:
        raise SpecParseError("coefficient bound must be >= 1")
    if word_length_cap < 0:
        raise SpecParseError("word length cap must be >= 0")
    complex_ = build_ball_complex(group, radius, budget=budget)
    cycles = _closed_cycles(complex_, word_length_cap, budget)
    # at most one map per cycle, so a group with many symmetries (Z^n has
    # n!·2^n) costs no more than its corpus; a window with no cycle draws
    # none.  Any subset of the maps is sound, each being an automorphism.
    # The identity is left out: it maps a walk onto itself, already solved.
    automorphisms = [
        sigma for sigma in islice(letter_automorphisms(group.presentation), len(cycles))
        if any(s != t for s, t in sigma.items())
    ]
    verdicts: dict = {}   # walk -> (cycle norm, ratio or None, report fields)
    per_cycle = []
    max_ratio = Fraction(0)
    filled = 0
    unfilled = 0
    for word, cycle in cycles:
        norm = cycle.support_norm()
        # a walk is the first of one cycle only, so its verdict is read once
        verdict = verdicts.pop(word, None)
        if verdict is None:
            try:
                result = minimal_filling(complex_, cycle, coefficient_bound)
            except NoFillingError as err:
                verdict = norm, None, {"status": "unfilled", "reason": str(err)}
            else:
                verdict = norm, result.ratio, {
                    "status": "filled",
                    "filler_norm": result.filler_norm,
                    "ratio": frac_str(result.ratio),
                    "optimal": True,   # the search is exhaustive
                }
            for sigma in automorphisms:
                verdicts[tuple([sigma[x] for x in word])] = verdict
        elif verdict[0] != norm:
            raise InvariantError("an automorphic image of a cycle changed its norm")
        _, ratio, fields = verdict
        per_cycle.append({
            "word": word_to_string(word),
            "word_length": len(word),
            "cycle_norm": norm,
            **fields,
        })
        if ratio is None:
            unfilled += 1
        else:
            filled += 1
            if ratio > max_ratio:
                max_ratio = ratio
    return SweepReport(
        group=group.name,
        radius=radius,
        word_length_cap=word_length_cap,
        coefficient_bound=coefficient_bound,
        corpus_size=len(per_cycle),
        filled=filled,
        unfilled=unfilled,
        max_ratio=max_ratio,
        per_cycle=per_cycle,
    )


def letter_automorphisms(presentation):
    """Yield the signed generator permutations that map the relators onto themselves.

    Each is a dict from signed letter to signed letter, with
    σ(-g) = -σ(g), under which every relator reads as a cyclic conjugate
    of a relator or of that relator's inverse, distinct relators going to
    distinct ones.  Each is an automorphism of the group.  The search picks
    each relator's image among those conjugates, letter by letter,
    consistent with the letters already fixed, so it never lists the
    m!·2^m signed permutations; a generator that appears in no relator is
    fixed.  The maps are yielded one at a time, so a caller that needs a
    few of them pays for those only (Z^n has n!·2^n).  The identity is
    among them.
    """
    relators = presentation.relators
    images = list(dict.fromkeys(   # a periodic relator repeats its conjugates
        (r, word[k:] + word[:k])
        for r, relator in enumerate(relators)
        for word in (relator, invert_word(relator))
        for k in range(len(relator))
    ))
    starting: dict = {}   # first letter -> the images that start with it
    for r, image in images:
        starting.setdefault(image[0], []).append((r, image))
    letters = range(1, presentation.generator_count + 1)
    sigma: dict = {}
    preimage: dict = {}
    taken = [False] * len(relators)

    def extend(i):
        if i == len(relators):
            yield {s: sigma.get(s, s) for g in letters for s in (g, -g)}
            return
        relator = relators[i]
        first = sigma.get(relator[0])
        for r, image in images if first is None else starting.get(first, ()):
            if taken[r] or len(image) != len(relator):
                continue
            fixed = []
            for x, y in zip(relator, image):
                if x in sigma:
                    if sigma[x] == y:
                        continue
                elif y not in preimage:
                    sigma[x], sigma[-x] = y, -y
                    preimage[y], preimage[-y] = x, -x
                    fixed.append(x)
                    continue
                break
            else:
                taken[r] = True
                yield from extend(i + 1)
                taken[r] = False
            for x in fixed:
                y = sigma.pop(x)
                del sigma[-x], preimage[y], preimage[-y]

    return extend(0)


def _closed_cycles(complex_, cap, budget=DEFAULT_BALL_BUDGET):
    """Distinct nonzero cycles of closed non-backtracking walks at the center.

    Depth-first over the window's step arrays, moves ordered by generator
    index then sign, so discovery order is deterministic.  A move is
    skipped when its target lies farther from the center than the moves
    left, since no walk from there closes within the cap.  Raises
    ``BudgetError`` once more than ``budget`` distinct cycles are found,
    or once the search makes more than ``WALK_VISITS_PER_BUDGET * budget``
    visits.
    """
    center = 0   # ``ball`` lists the identity first
    steps = complex_.steps
    moves = list(steps.items())
    distances = complex_.distances
    m = complex_.group.generator_count
    found: dict = {}
    walk: list = []
    max_visits = WALK_VISITS_PER_BUDGET * budget
    visits = 0

    def visit(vertex, last_move):
        nonlocal visits
        visits += 1
        if visits > max_visits:
            raise BudgetError(
                f"closed walks up to length {cap} exceeded {max_visits} visits "
                f"({WALK_VISITS_PER_BUDGET} per unit of budget {budget})"
            )
        if walk and vertex == center:
            _, coefficients = _trace(steps, m, center, walk)
            key = tuple(sorted(coefficients.items()))
            if key and key not in found:
                if len(found) == budget:
                    raise BudgetError(
                        f"closed walks up to length {cap} exceeded budget "
                        f"{budget} distinct cycles"
                    )
                found[key] = (tuple(walk), OneCycle(complex_, coefficients))
        left = cap - len(walk) - 1     # moves left after the next one
        if left < 0:
            return
        for move, column in moves:
            target = column[vertex]
            if target < 0 or move == -last_move or distances[target] > left:
                continue
            walk.append(move)
            visit(target, move)
            walk.pop()

    visit(center, 0)
    return list(found.values())


def transfer_constant(kappa, norm_x: int, norm_z: int, norm_h: int) -> Fraction:
    """The filling-constant bound carried across a pair of chain maps.

    With chain maps of norms ``norm_x`` and ``norm_z`` translating between
    two complexes and a homotopy of norm ``norm_h``, a filling constant
    kappa for one complex yields kappa*|X|*|Z| + |H| for the other.
    """
    kappa = Fraction(kappa)
    if kappa < 0 or norm_x < 0 or norm_z < 0 or norm_h < 0:
        raise SpecParseError("transfer constant inputs must be non-negative")
    return kappa * norm_x * norm_z + norm_h
