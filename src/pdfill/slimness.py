"""Slim-triangle probes on Cayley balls, and the derived search constants.

A geodesic triangle on three vertices is d-slim when every vertex of each
side lies within distance d of the union of the other two sides.  The
sweep measures the worst d over sampled triangles in a window; trees stay
at 0, flat groups grow with the radius, hyperbolic surface windows
stabilise.  Reports are window-relative estimates, never certificates.

Distances use the exact word metric of the group, which agrees with
ball-graph distances without window distortion.  The side from a to b
spells the shortlex-least geodesic word of a^-1 b, with letters ordered
1, -1, 2, -2, ...: it is a times the prefixes of ``as_word(a^-1 b)``,
the path a steepest descent taking the first shortening letter would
walk.

One sweep asks for the same distance and the same side many times over:
a corner sits in many triangles, and a side vertex is measured against
many other sides.  ``slimness_sweep`` keeps a memo of both and drops it
when it returns: per side vertex, a dict of its distances filled on first
lookup, and the sides keyed by the ordered corner pair (the side from a
to b need not be the side from b to a reversed).  The all-geodesic
cross-check reads the same distances, and keeps the geodesic families
per ordered corner pair in the same memo.  A sampled sweep draws
triple indices and unranks them, and a full sweep walks
``itertools.combinations``, so the list of every triple is never built.

The sweep keeps as witness the first triangle whose slimness exceeds the
running maximum, so it measures each triangle only as far as that
maximum: ``triangle_slimness`` takes it as a floor and returns the larger
of the floor and the slimness.  Both ends of a side lie on the other two
sides, so the vertex at position t of a side of length L is within
min(t, L - t) of them.  Three exact prunes follow.  A triangle whose
longest side has floor(L/2) at most the floor returns the floor, its side
lengths read from the distance memo and no side built.  A side vertex
with min(t, L - t) at most the current worst is skipped.  A vertex's
scan of the other sides stops at the first distance at most the current
worst.  None of them can skip a value above the running maximum, so
every report is the unpruned one.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

from .errors import SpecParseError
from .groups import (
    FreeAbelianOracle,
    FreeGroupOracle,
    GroupOracle,
    Presentation,
    ball,
)
from .words import word_to_string

DEFAULT_TRIPLE_BUDGET = 20_000


def lex_geodesic(oracle: GroupOracle, start, end) -> list:
    """One geodesic vertex path, smallest generator move first on ties:
    start times the prefixes of the shortlex-least word of start^-1 end."""
    path = [start]
    for letter in oracle.as_word(oracle.multiply(oracle.invert(start), end)):
        path.append(oracle.multiply(path[-1], oracle.letter(letter)))
    return path


def all_geodesics(oracle: GroupOracle, start, end, metric: _SweepMetric | None = None) -> list:
    """Every geodesic vertex path between two elements (small distances only)."""
    metric = metric or _SweepMetric(oracle)
    out = []
    path = [start]

    def descend(current, remaining):
        if remaining == 0:
            out.append(list(path))
            return
        for image in oracle.letters.values():
            candidate = oracle.multiply(current, image)
            if metric.rows[candidate][end] == remaining - 1:
                path.append(candidate)
                descend(candidate, remaining - 1)
                path.pop()

    descend(start, metric.rows[start][end])
    return out


def _unranker(items, r: int):
    """A function from index to the index-th entry of
    ``itertools.combinations(items, r)``."""
    n = len(items)
    # the combinations in a block whose next item lies below c number
    # total - comb(n - c, left); negated, comb(n - c, left) rises with c,
    # so a plain bisect finds the last c with at most ``index`` of them
    negated = {left: [-math.comb(n - c, left) for c in range(n + 1)] for left in range(1, r + 1)}

    def unrank(index: int) -> tuple:
        out = []
        lo = 0
        for left in range(r, 0, -1):
            row = negated[left]
            total = -row[lo]
            c = bisect.bisect_right(row, index - total, lo, n - left + 1) - 1
            index -= total + row[c]
            out.append(items[c])
            lo = c + 1
        return tuple(out)

    return unrank


class SlimnessReport:
    def __init__(self, group: str, radius: int, triangles_examined: int, delta_hat: int,
                 witness: tuple | None, sampled: bool, all_geodesic_delta_hat: int | None = None,
                 geodesic_choice_agrees: bool | None = None):
        self.group = group
        self.radius = radius
        self.triangles_examined = triangles_examined
        self.delta_hat = delta_hat
        self.witness = witness
        self.sampled = sampled
        self.all_geodesic_delta_hat = all_geodesic_delta_hat
        self.geodesic_choice_agrees = geodesic_choice_agrees

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "radius": self.radius,
            "triangles_examined": self.triangles_examined,
            "delta_hat": self.delta_hat,
            "witness": list(self.witness) if self.witness else None,
            "sampled": self.sampled,
            "all_geodesic_delta_hat": self.all_geodesic_delta_hat,
            "geodesic_choice_agrees": self.geodesic_choice_agrees,
        }


class _Memo(dict):
    """A dict that makes a missing value on first lookup, and keeps it."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _SweepMetric:
    """Distances, lex-geodesic sides and geodesic families, each made once
    per sweep.

    All are keyed by the ordered pair: distances as ``rows[x][y]``, sides
    as ``sides[a, b]``, families as ``families[a, b]``.  Sides and
    families are made through the module's functions, looked up when made.
    A function given no ``metric`` makes one for its own call.
    """

    def __init__(self, oracle: GroupOracle):
        self.rows = _Memo(lambda x: _Memo(lambda y: oracle.distance(x, y)))
        self.sides = _Memo(lambda pair: lex_geodesic(oracle, *pair))
        self.families = _Memo(lambda pair: all_geodesics(oracle, *pair, self))


def triangle_slimness(
    oracle: GroupOracle, corners, metric: _SweepMetric | None = None, floor: int = 0
) -> int:
    """The larger of ``floor`` and the minimal d such that the lex-geodesic
    triangle on the corners is d-slim; with no floor, that d itself."""
    metric = metric or _SweepMetric(oracle)
    rows = metric.rows
    a, b, c = corners
    pairs = ((a, b), (b, c), (c, a))
    if max(rows[x][y] for x, y in pairs) // 2 <= floor:
        return floor
    sides = [metric.sides[pair] for pair in pairs]
    worst = floor
    for i in range(3):
        others = sides[(i + 1) % 3] + sides[(i + 2) % 3]
        length = len(sides[i]) - 1
        for t, x in enumerate(sides[i]):
            # both ends of the side lie on the other two
            nearest = min(t, length - t)
            if nearest <= worst:
                continue
            row = rows[x]
            for y in others:
                distance = row[y]
                if distance <= worst:
                    break
                if distance < nearest:
                    nearest = distance
            else:
                worst = nearest
    return worst


def triangle_slimness_all_geodesics(
    oracle: GroupOracle, corners, metric: _SweepMetric | None = None
) -> int:
    """Worst slimness over every choice of geodesic for every side."""
    metric = metric or _SweepMetric(oracle)
    a, b, c = corners
    families = [metric.families[a, b], metric.families[b, c], metric.families[c, a]]
    vertex_pool = [{x for path in family for x in path} for family in families]
    # farthest one can sit from the worst-case geodesic of a side
    def worst_distance(x, family):
        distance = metric.rows[x].__getitem__
        return max(min(map(distance, path)) for path in family)

    worst = 0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for x in vertex_pool[i]:
            value = min(worst_distance(x, families[j]), worst_distance(x, families[k]))
            if value > worst:
                worst = value
    return worst


def slimness_sweep(
    oracle: GroupOracle,
    radius: int,
    sample: int | None = None,
    seed: int = 0,
) -> SlimnessReport:
    """Worst slimness over triangles with corners on the half-radius sphere.

    All corner triples are examined when there are at most ``sample`` of
    them (``DEFAULT_TRIPLE_BUDGET`` when not given); otherwise a seeded
    uniform sample of that many.
    Free and free abelian groups, where geodesic families are small, also
    get the all-geodesic variant when 1 to 200 triangles are examined;
    otherwise both cross-check fields are None.  Triples are generated
    one at a time, never listed.  The budget, ``PDFILL_BUDGET`` as the
    command line reads it (``groups.current_budget``), bounds the ball and
    the word table that answers distances in a group with no closed-form
    word length (``T11b:2``, finite tables); past either, ``BudgetError``.
    """
    if radius < 0:
        raise SpecParseError("radius must be >= 0")
    if sample is not None and sample < 0:
        raise SpecParseError("sample must be >= 0")
    sphere_radius = radius // 2
    elements = ball(oracle, sphere_radius)
    corners = [g for g, d in elements if d == sphere_radius]
    limit = DEFAULT_TRIPLE_BUDGET if sample is None else sample
    count = math.comb(len(corners), 3)
    sampled = count > limit
    if sampled:
        # random.sample reads population[j] only at the indices it draws,
        # so these are the triples it would draw from the full list
        indices = random.Random(seed).sample(range(count), limit)
        triples = map(_unranker(corners, 3), indices)
    else:
        triples = itertools.combinations(corners, 3)
    examined = limit if sampled else count
    cross_check = (
        isinstance(oracle, (FreeGroupOracle, FreeAbelianOracle))
        and 0 < examined <= 200
    )
    if cross_check:
        triples = list(triples)    # at most 200, and read twice

    metric = _SweepMetric(oracle)
    delta_hat = 0
    witness = None
    for triple in triples:
        value = triangle_slimness(oracle, triple, metric, delta_hat)
        if value > delta_hat:
            delta_hat = value
            witness = triple
    all_delta = agrees = None
    if cross_check:
        all_delta = max(triangle_slimness_all_geodesics(oracle, t, metric) for t in triples)
        agrees = all_delta == delta_hat
    return SlimnessReport(
        group=oracle.name,
        radius=radius,
        triangles_examined=examined,
        delta_hat=delta_hat,
        witness=tuple(word_to_string(oracle.as_word(g)) for g in witness)
        if witness
        else None,
        sampled=sampled,
        all_geodesic_delta_hat=all_delta,
        geodesic_choice_agrees=agrees,
    )


class SlimnessConstants:
    """Derived constants of the filling-versus-slimness comparison.

    N is the longest attaching path of a 2-cell, kappa an integer filling
    constant; k = kappa*N^2 + 1 and m = kappa*N are the corridor depth and
    layer count used when a fat triangle is played against the filling
    bound, and the comparison yields a contradiction once the slimness
    defect exceeds 6k.  Constants compare and hash by N and kappa.
    """

    def __init__(self, N: int, kappa: int):
        self.N = N
        self.kappa = kappa

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.N, self.kappa) == (other.N, other.kappa)

    def __hash__(self):
        return hash((self.N, self.kappa))

    def __repr__(self):
        return f"SlimnessConstants(N={self.N!r}, kappa={self.kappa!r})"

    @property
    def k(self) -> int:
        return self.kappa * self.N**2 + 1

    @property
    def m(self) -> int:
        return self.kappa * self.N

    @property
    def contradiction_threshold(self) -> int:
        return 6 * self.k

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "m": self.m,
            "kappa": self.kappa,
            "contradiction_threshold": self.contradiction_threshold,
        }


def slimness_constants(presentation: Presentation, kappa: int) -> SlimnessConstants:
    if kappa < 1 or int(kappa) != kappa:
        raise SpecParseError("kappa must be a positive integer")
    if not presentation.relators:
        raise SpecParseError("no relators: the maximal attaching length is undefined")
    return SlimnessConstants(N=max(map(len, presentation.relators)), kappa=kappa)
