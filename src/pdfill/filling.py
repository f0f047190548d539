"""Truncated Cayley 2-complexes and minimal-support filling search.

The complex is the radius-r window of the universal cover of a
presentation 2-complex: vertices are group elements of the ball, there is
one directed edge per (vertex, generator) whose endpoint stays in the
ball, and one 2-cell per (vertex, relator) whose whole attaching path
stays in the ball.  Every solver and check works on the per-face boundary
dicts (``cells.boundaries``) over edge ids; no matrix is built.

The group is consulted once, through ``groups.ball``, which grows the
window and its step table together: one integer array per signed letter,
-1 where a step leaves the ball.  The edge that leaves vertex v by
generator g (of m) has the id ``v*m + g - 1`` and exists where
``steps[g][v] >= 0``; its target is ``steps[g][v]``.  So the window keeps
no edge table, and its ids, though not dense, increase in (vertex,
generator) order.  A step is an array lookup.  Attaching paths and
``word_cycle`` are read through one tracer, ``_trace``, which also sums
the walk's signed edge coefficients; each face's boundary is summed once,
when the face is traced.  The closed-walk search retraces no walk: it
keeps the chain of its walk up to the last closure, adds the steps taken
since at each closure, and takes a step back off as it backs out of it.
It returns one dict, {sorted chain key: first walk}, and builds no
``OneCycle``; the sweep builds each cycle from its key, which checks it,
as it reads the entry, and drops it once the entry is written.

The exact solver reads one level of cells, ``Cells``: each cell's
boundary as a dict over the level below, here faces over edges.  It never
asks what the cells are, so it fills a 2-cycle by 3-cells the same way.
The level is collapsed once (Whitehead's elementary collapses): while
some lower cell is used by exactly one live cell, that cell is retired
through it.  The retirements are kept in order as ``collapse_order``; the
cells never retired form the ``core``.  Every cycle of the level lies on
the core, so with an empty core a chain has at most one filling, and
back-substitution through the collapse order finds it.  The one-relator
windows in the tests all collapse completely (their presentation
complexes are aspherical, Lyndon 1950); Z^3 keeps a core.

``fill`` finds a chain of minimal support with a prescribed boundary and
coefficients in [-bound, bound], and ``minimal_filling`` calls it on a
window's faces.  Each retired cell's value is forced by
back-substitution, and only what is left on the core is searched, by
exhaustive branch and bound capped at ``MAX_SEARCH_NODES`` nodes per
chain.  A core cell tries first the values that cancel residual entries
and then the rest lazily.  The rest all leave one support, so one lower
bound prunes them all or none, and a pruned rest is counted in one step:
``--coeff-bound`` costs time only through the node bound.  All of it is
deterministic: cells and lower cells are ordered by construction and
ties break by index.

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
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .errors import (
    BudgetError,
    InvariantError,
    NoFillingError,
    NotACycleError,
    OutOfWindowError,
    SpecParseError,
)
from .groups import WORK_PER_BUDGET, GroupOracle, ball, current_budget
from .rings import frac_str
from .words import word_to_string

MAX_SEARCH_NODES = 1_000_000


class Cells:
    """One level of cells over the level below: faces over edges, say.

    ``boundaries[i]`` is cell i's boundary, {lower cell id: nonzero
    coefficient}.  Built once, it keeps what every fill reads: the
    ``cofaces`` of each lower cell (the cells whose boundary uses it, in
    index order), the ``collapse_order`` and ``core`` of the collapse, and
    ``longest``, the largest boundary support.

    The collapse retires a cell through a free lower cell, one that
    exactly one live cell uses, until none is left.  ``collapse_order``
    lists the retirements in order, as (cell, free lower cell, coefficient
    of the lower cell in the cell); the ``core`` is the sorted cells never
    retired.  Retiring a cell only frees more lower cells, so which cells
    are retired does not depend on the order they are taken in.
    """

    def __init__(self, boundaries):
        self.boundaries = boundaries
        self.cofaces: dict = {}
        for f, boundary in enumerate(boundaries):
            for e in boundary:
                self.cofaces.setdefault(e, []).append(f)
        self.longest = max(map(len, boundaries), default=0)
        users = {e: len(cells) for e, cells in self.cofaces.items()}
        live = [True] * len(boundaries)
        free = sorted((e for e, n in users.items() if n == 1), reverse=True)
        self.collapse_order = []
        while free:
            e = free.pop()
            if users[e] != 1:
                continue
            cell = next(f for f in self.cofaces[e] if live[f])
            live[cell] = False
            self.collapse_order.append((cell, e, boundaries[cell][e]))
            for other in boundaries[cell]:
                users[other] -= 1
                if users[other] == 1:
                    free.append(other)
        self.core = [f for f, alive in enumerate(live) if alive]


class CayleyBallComplex:
    """A finite window of the Cayley 2-complex of a presentation."""

    def __init__(self, group: GroupOracle, radius: int, vertices: list, distances: list,
                 steps: dict, faces: list, cells: Cells):
        self.group = group
        self.radius = radius
        self.vertices = vertices
        self.distances = distances
        self.steps = steps      # signed letter -> array: index of vertex * letter, -1 outside
        self.faces = faces      # (base vertex index, relator index)
        self.cells = cells      # the faces over edge ids v*m + g - 1

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def edge_count(self):
        return sum(len(s) - s.count(-1) for g, s in self.steps.items() if g > 0)

    @property
    def face_count(self):
        return len(self.faces)


def build_ball_complex(group: GroupOracle, radius: int) -> CayleyBallComplex:
    presentation = group.presentation
    if presentation is None:
        raise SpecParseError(f"group {group.name} has no presentation")
    elements = ball(group, radius)
    vertices = [g for g, _ in elements]
    distances = [d for _, d in elements]
    steps = elements.steps
    del elements    # the (element, distance) pairs: vertices and distances hold them
    m = group.generator_count

    # a face's path is walked through its letters' step columns, and only
    # a path that stays in the window is traced for its boundary.  It
    # leaves its base vertex by its first letter and comes back by its
    # last, so both steps must exist there (the table holds each step both
    # ways).  Faces are kept by (base vertex, relator index)
    found = []
    for r, relator in enumerate(presentation.relators):
        first, *rest = (steps[s] for s in relator)
        for i, (end, back) in enumerate(zip(first, steps[-relator[-1]])):
            if end < 0 or back < 0:
                continue
            for column in rest:
                if (end := column[end]) < 0:
                    break
            else:
                if end != i:
                    raise InvariantError("attaching path of a relator did not close up")
                found.append((i, r, _trace(steps, m, i, relator)[1]))
    found.sort(key=itemgetter(0, 1))
    faces = [(i, r) for i, r, _ in found]
    face_boundaries = [boundary for _, _, boundary in found]

    window = CayleyBallComplex(
        group=group,
        radius=radius,
        vertices=vertices,
        distances=distances,
        steps=steps,
        faces=faces,
        cells=Cells(face_boundaries),
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
    id_count = complex_.vertex_count * m
    net: dict = {}
    get = net.get
    for e, c in coefficients.items():
        if not 0 <= e < id_count:
            return False
        s, g = divmod(e, m)
        t = steps[g + 1][s]
        if t < 0:
            return False
        net[t] = get(t, 0) + c
        net[s] = get(s, 0) - c
    return not any(net.values())


class OneCycle:
    """An integer 1-chain in the kernel of the edge boundary.

    It keeps the chain's nonzero entries: the dict it is given when that
    holds no zero, as the ones the sweep and ``word_cycle`` build for it
    do, and a copy without the zeros otherwise.
    """

    def __init__(self, complex: CayleyBallComplex, coefficients: dict):
        self.complex = complex
        if 0 in coefficients.values():
            coefficients = {e: c for e, c in coefficients.items() if c}
        self.coefficients = coefficients
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


class FillingResult:
    def __init__(self, filler: dict, cycle_norm: int, filler_norm: int, ratio: Fraction,
                 nodes_explored: int):
        self.filler = filler
        self.cycle_norm = cycle_norm
        self.filler_norm = filler_norm
        self.ratio = ratio
        self.nodes_explored = nodes_explored    # core-search nodes; 0 when the core is not searched


def minimal_filling(
    complex_: CayleyBallComplex,
    cycle: OneCycle,
    coefficient_bound: int = 1,
) -> FillingResult:
    """A minimal-support 2-chain whose boundary is the given cycle.

    The cycle is filled by the window's faces through ``fill``, so every
    result is optimal, and ``nodes_explored`` counts the core search's
    nodes, 0 when nothing is left for the core.

    Raises ``NoFillingError`` when nothing in the window at this bound has
    the right boundary; that never distinguishes a small window from a
    non-bounding cycle.  Raises ``BudgetError`` when the core search
    passes ``MAX_SEARCH_NODES`` nodes, and ``SpecParseError`` when the
    cycle belongs to another window, whose edges are numbered otherwise.
    """
    if cycle.complex is not complex_:
        raise SpecParseError("cycle lies in another window")
    filler, nodes = fill(complex_.cells, cycle.coefficients, coefficient_bound)
    cycle_norm = cycle.support_norm()   # 0 only for the zero cycle, whose filler is empty
    return FillingResult(
        filler, cycle_norm, len(filler), Fraction(len(filler), cycle_norm or 1), nodes
    )


def fill(cells, chain, bound):
    """(filler, core-search nodes): a minimal-support chain of ``cells``
    with coefficients in [-bound, bound] whose boundary is ``chain``.

    ``chain`` is {lower cell id: nonzero coefficient}.  First it is
    back-substituted through the collapse order.  When a cell is retired
    through its free lower cell e, no live cell uses e and every cell
    retired before it has its value already, so the cell must take the
    value that cancels residual(e).  That value is exact: it is forced on
    every filling, whatever the core cells take, and no other choice
    exists.  A value that is not an integer or lies outside [-bound,
    bound] leaves no filling at this bound.

    What is left must be filled by core cells alone, and the core is
    searched exhaustively (``_exact_search``).  So the minimal support is
    the forced support plus the core's minimal support.  The filler's
    boundary is subtracted from ``chain`` again, and nothing may be left.

    Raises ``NoFillingError`` when no filling exists at this bound,
    ``BudgetError`` past ``MAX_SEARCH_NODES`` core-search nodes, and
    ``SpecParseError`` for a bound below 1.
    """
    if bound < 1:
        raise SpecParseError("coefficient bound must be >= 1")
    residual = dict(chain)
    filler = {}
    for cell, e, c in cells.collapse_order:
        if e in residual:
            value = _cancelling(residual[e], c, bound)
            if value is None:
                raise _no_filling(bound)
            filler[cell] = value
            _subtract(residual, cells.boundaries[cell], value)
    nodes = 0
    if residual:
        core_filler, nodes = _exact_search(cells, chain, residual, bound)
        filler.update(core_filler)
    filler = dict(sorted(filler.items()))
    _verify_filler(cells, chain, filler)
    return filler, nodes


def _no_filling(bound):
    return NoFillingError(
        f"no filling in the window with coefficients in [-{bound}, {bound}] "
        "(window may be too small)"
    )


def _cancelling(r, c, bound):
    """The v with r - v*c = 0, or None unless it is an integer in [-bound, bound]."""
    value, rest = divmod(r, c)
    return None if rest or abs(value) > bound else value


def _value_order(cancels, bound):
    """The values a cell tries, given {value: residual entries it cancels}.

    The values that cancel most come first.  The rest cancel nothing and
    all leave the same support; they follow lazily.  Ties go in the order
    1..bound, then -1..-bound.
    """
    yield from sorted(cancels, key=lambda v: (-cancels[v], v < 0, abs(v)))
    for k in (1, -1):
        for value in range(k, k * (bound + 1), k):
            if value not in cancels:
                yield value


def _subtract(residual, boundary, value):
    """residual -= value * boundary, dropping the entries that reach zero."""
    for e, c in boundary.items():
        new = residual.get(e, 0) - value * c
        if new:
            residual[e] = new
        else:
            residual.pop(e, None)


def _verify_filler(cells, chain, filler):
    """Raise ``InvariantError`` unless chain - (boundary of filler) is empty."""
    residual = dict(chain)
    for f, c in filler.items():
        _subtract(residual, cells.boundaries[f], c)
    if residual:
        raise InvariantError("filler boundary does not match the cycle")


def _exact_search(cells, chain, residual, bound):
    """Depth-first branch and bound over the core cells' coefficients.

    Fills ``residual``, what is left of ``chain`` after back-substitution,
    with core cells only; every retired cell stays at its forced value.
    A residual entry with the fewest unassigned cofaces is chosen; one of
    those cells must be nonzero, and branching on which cell is the first
    nonzero one partitions the space whatever order the cells are tried
    in.  They are tried best-first: by the smallest residual support any
    allowed value leaves, then by index.  A value changes the support
    only where it cancels a residual entry, so the values that cancel
    some entry are tried first, those that cancel most first; every other
    value leaves the same support, and they follow lazily, 1..bound then
    -1..-bound, so a node costs no more at a larger bound.  The lower
    bound is ceil(residual support / longest boundary).  Since those last
    values leave one support, the bound prunes all of them or none; once
    it prunes one, the values left are counted as pruned nodes in one
    step.  Each cell is zeroed once its own branch is done, for the
    branches of the cells after it, and all are released together.
    Returns (core filler, nodes); raises ``BudgetError`` past
    ``MAX_SEARCH_NODES`` nodes.
    """
    longest = max(cells.longest, 1)
    cofaces = cells.cofaces
    boundaries = cells.boundaries

    # retired cells are not searched: they count as assigned
    assigned = [0] * len(boundaries)
    for f in cells.core:
        assigned[f] = None
    best: dict = {"support": math.inf, "filler": None}
    nodes = 0

    def choose_entry():
        best_entry, best_free = None, None
        for e in residual:
            free = 0
            for f in cofaces.get(e, ()):
                if assigned[f] is None:
                    free += 1
            if best_free is None or free < best_free or (
                free == best_free and e < best_entry
            ):
                best_entry, best_free = e, free
                if free == 0:
                    break
        return best_entry, best_free

    def ranked(cell):
        """(smallest support a value leaves, cell, {value: entries it
        cancels}, the support a value that cancels nothing leaves)."""
        support = len(residual)
        cancels: dict = {}
        for e, c in boundaries[cell].items():
            if e in residual:
                value = _cancelling(residual[e], c, bound)
                if value is not None:
                    cancels[value] = cancels.get(value, 0) + 1
            else:
                support += 1
        return support - max(cancels.values(), default=0), cell, cancels, support

    def count(visited):
        nonlocal nodes
        nodes += visited
        if nodes > MAX_SEARCH_NODES:
            raise BudgetError(
                f"filling search exceeded {MAX_SEARCH_NODES} nodes on a cycle "
                f"of norm {len(chain)}"
            )

    def recurse(nonzero_count):
        count(1)
        if not residual:
            if nonzero_count < best["support"]:
                best["support"] = nonzero_count
                best["filler"] = {
                    f: v for f, v in enumerate(assigned) if v
                }
            return
        lower = nonzero_count + math.ceil(len(residual) / longest)
        if lower >= best["support"]:
            return
        entry, free = choose_entry()
        if free == 0:
            return
        candidates = sorted(
            ranked(f) for f in cofaces[entry] if assigned[f] is None
        )
        for _, cell, cancels, spread in candidates:
            # the values that cancel nothing come last and all leave
            # ``spread`` entries: once the lower bound prunes one, it prunes
            # every value left, each one node
            spread_lower = nonzero_count + 1 + math.ceil(spread / longest)
            left = 2 * bound
            for value in _value_order(cancels, bound):
                if value not in cancels and spread_lower >= best["support"]:
                    count(left)
                    break
                left -= 1
                assigned[cell] = value
                _subtract(residual, boundaries[cell], value)
                recurse(nonzero_count + 1)
                _subtract(residual, boundaries[cell], -value)
            assigned[cell] = 0    # the cell stays zero on the later branches
        for _, cell, _, _ in candidates:
            assigned[cell] = None

    recurse(0)
    if best["filler"] is None:
        raise _no_filling(bound)
    return best["filler"], nodes


class SweepReport:
    def __init__(self, group: str, radius: int, word_length_cap: int, coefficient_bound: int,
                 corpus_size: int, filled: int, unfilled: int, max_ratio: Fraction,
                 per_cycle: list | None = None):
        self.group = group
        self.radius = radius
        self.word_length_cap = word_length_cap
        self.coefficient_bound = coefficient_bound
        self.corpus_size = corpus_size
        self.filled = filled
        self.unfilled = unfilled
        self.max_ratio = max_ratio
        self.per_cycle = [] if per_cycle is None else per_cycle

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
) -> SweepReport:
    """Fill every null-homotopic word up to the cap whose path fits the window.

    Closed words are enumerated as non-backtracking walks from the center
    vertex (a walk is null-homotopic exactly when it returns to the
    center), deduplicated by their signed edge vectors, and each distinct
    nonzero cycle is filled.  The walk search hands over {sorted chain key:
    first walk}; each entry's ``OneCycle``, built from its key as the
    entry is read, checks that it is a cycle and lives for that entry
    only.  Cycles with no filling at the coefficient bound are reported
    and excluded from the ratio statistics.  The budget,
    ``PDFILL_BUDGET`` as the command line reads it (``current_budget``),
    bounds the window's vertices, the distinct cycles and, scaled by
    ``WORK_PER_BUDGET``, the walk search; past any of them,
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
    complex_ = build_ball_complex(group, radius)
    cycles = _closed_cycles(complex_, word_length_cap)
    # at most one map per cycle, so a group with many symmetries (Z^n has
    # n!·2^n) draws no more maps than its corpus has cycles; a window with
    # no cycle draws none.  The memo writes still number solved cycles ×
    # maps: 7.9 million on fill Z^8 Z --radius 3 --max-word 6.  Any subset
    # of the maps is sound, each being an automorphism.
    # The identity is left out: it maps a walk onto itself, already solved.
    automorphisms = [
        sigma for sigma in islice(letter_automorphisms(group.presentation), len(cycles))
        if any(s != t for s, t in sigma.items())
    ]
    verdicts: dict = {}   # walk -> (cycle norm, ratio or None, report fields)
    per_cycle = []
    max_ratio = Fraction(0)
    unfilled = 0
    for key, word in cycles.items():
        norm = len(key)
        cycle = OneCycle(complex_, dict(key))   # checks every cycle, kept for this entry only
        # a walk is the first of one cycle only, so its verdict is read once
        verdict = verdicts.pop(word, None)
        if verdict is None:
            try:
                result = minimal_filling(complex_, cycle, coefficient_bound)
            except NoFillingError as err:
                verdict = norm, None, {"status": "unfilled", "reason": str(err)}
            else:
                # the cycles that take this verdict over share its ratio
                if result.ratio > max_ratio:
                    max_ratio = result.ratio
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
    return SweepReport(
        group=group.name,
        radius=radius,
        word_length_cap=word_length_cap,
        coefficient_bound=coefficient_bound,
        corpus_size=len(per_cycle),
        filled=len(per_cycle) - unfilled,
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
    fixed.  The conjugates are ``presentation.conjugates``, which the Dehn
    oracle's half-swaps read too.  The maps are yielded one at a time, so a caller that needs a
    few of them pays for those only (Z^n has n!·2^n).  The identity is
    among them.
    """
    relators = presentation.relators
    images = presentation.conjugates
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


def _closed_cycles(complex_, cap):
    """Distinct nonzero cycles of closed non-backtracking walks at the center.

    Depth-first over the window's step arrays, moves ordered by generator
    index then sign, so discovery order is deterministic.  A move is
    skipped when its target lies farther from the center than the moves
    left, since no walk from there closes within the cap.  Raises
    ``BudgetError`` once more than ``current_budget()`` distinct cycles
    are found, or once the search makes more than ``WORK_PER_BUDGET``
    times that many visits, the scale folner's grown sets share.

    Returns {sorted chain key: first walk} in discovery order: the key is
    the cycle's (edge id, nonzero coefficient) pairs, sorted, and the walk
    the tuple of signed letters that first closed it.  No cycle is checked
    here; the caller builds a ``OneCycle`` from the key, which checks it.

    A closing walk's chain is not summed from the center.  The search
    keeps one chain, the signed edge sum of the walk up to its last
    closure, and the vertex where that part ends.  A closure adds the
    steps taken since, each with the sign ``_trace`` gives it.  Backing
    out of a step that the chain holds takes that one edge back off: the
    step ``-move`` from the part's end crosses the same edge the other
    way.  So a step that closes no walk costs one comparison.
    """
    center = 0   # ``ball`` lists the identity first
    steps = complex_.steps
    moves = list(steps.items())
    distances = complex_.distances
    m = complex_.group.generator_count
    found: dict = {}
    walk: list = []
    chain: dict = {}    # {edge id: nonzero coefficient} of walk[:synced]
    synced = 0
    synced_end = center
    budget = current_budget()
    max_visits = WORK_PER_BUDGET * budget
    visits = 1          # the center

    def add(source, letter):
        """Add the step by ``letter`` from ``source`` to the chain; its target."""
        target = steps[letter][source]
        if letter > 0:
            e = source * m + letter - 1
            c = chain.get(e, 0) + 1
        else:
            e = target * m - letter - 1
            c = chain.get(e, 0) - 1
        if c:
            chain[e] = c
        else:
            del chain[e]
        return target

    def close():
        nonlocal synced, synced_end
        end = synced_end
        for move in walk[synced:]:
            end = add(end, move)
        synced, synced_end = len(walk), end
        if not chain:
            return
        key = tuple(sorted(chain.items()))
        if key not in found:
            if len(found) == budget:
                raise BudgetError(
                    f"closed walks up to length {cap} exceeded budget "
                    f"{budget} distinct cycles"
                )
            found[key] = tuple(walk)

    def extend(vertex, last_move):
        nonlocal visits, synced, synced_end
        depth = len(walk)
        left = cap - depth - 1     # moves left after the next one
        for move, column in moves:
            target = column[vertex]
            if target < 0 or move == -last_move or distances[target] > left:
                continue
            visits += 1
            if visits > max_visits:
                raise BudgetError(
                    f"closed walks up to length {cap} exceeded {max_visits} visits "
                    f"({WORK_PER_BUDGET} per unit of budget {budget})"
                )
            walk.append(move)
            if target == center:
                close()
            if left:
                extend(target, move)
            if synced > depth:
                # the chain holds this step, its last: step back over it
                synced, synced_end = depth, add(synced_end, -move)
            walk.pop()

    extend(center, 0)
    return found


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
