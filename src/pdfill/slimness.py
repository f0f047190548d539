"""Slim-triangle probes on Cayley balls, and the derived search constants.

A geodesic triangle on three vertices is d-slim when every vertex of each
side lies within distance d of the union of the other two sides.  The
sweep measures the worst d over sampled triangles in a window; trees stay
at 0, flat groups grow with the radius, hyperbolic surface windows
stabilise.  Reports are window-relative estimates, never certificates.

Distances use the exact word metric of the group (canonical forms are
geodesic words), which agrees with ball-graph distances without window
distortion.  Geodesic sides are built by steepest descent with moves
ordered by generator index, matching a breadth-first search with
lexicographic tie-breaking.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import SpecParseError
from .groups import DEFAULT_BALL_BUDGET, FreeAbelianOracle, FreeGroupOracle, GroupOracle, Presentation, ball
from .words import word_to_string

DEFAULT_TRIPLE_BUDGET = 20_000


def lex_geodesic(oracle: GroupOracle, start, end) -> list:
    """One geodesic vertex path, smallest generator move first on ties."""
    path = [start]
    current = start
    remaining = oracle.distance(current, end)
    while remaining > 0:
        for index in range(1, oracle.generator_count + 1):
            for letter in (index, -index):
                candidate = oracle.multiply(current, oracle.letter(letter))
                if oracle.distance(candidate, end) == remaining - 1:
                    current = candidate
                    break
            else:
                continue
            break
        else:
            raise SpecParseError("no distance-decreasing move: metric is broken")
        path.append(current)
        remaining -= 1
    return path


def all_geodesics(oracle: GroupOracle, start, end) -> list:
    """Every geodesic vertex path between two elements (small distances only)."""
    out = []
    path = [start]

    def descend(current, remaining):
        if remaining == 0:
            out.append(list(path))
            return
        for index in range(1, oracle.generator_count + 1):
            for letter in (index, -index):
                candidate = oracle.multiply(current, oracle.letter(letter))
                if oracle.distance(candidate, end) == remaining - 1:
                    path.append(candidate)
                    descend(candidate, remaining - 1)
                    path.pop()

    descend(start, oracle.distance(start, end))
    return out


@dataclass
class SlimnessReport:
    group: str
    radius: int
    triangles_examined: int
    delta_hat: int
    witness: tuple | None
    sampled: bool
    all_geodesic_delta_hat: int | None = None
    geodesic_choice_agrees: bool | None = None

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


def triangle_slimness(oracle: GroupOracle, corners) -> int:
    """Minimal d such that the lex-geodesic triangle on the corners is d-slim."""
    a, b, c = corners
    sides = [
        lex_geodesic(oracle, a, b),
        lex_geodesic(oracle, b, c),
        lex_geodesic(oracle, c, a),
    ]
    worst = 0
    for i in range(3):
        others = sides[(i + 1) % 3] + sides[(i + 2) % 3]
        for x in sides[i]:
            nearest = min(oracle.distance(x, y) for y in others)
            if nearest > worst:
                worst = nearest
    return worst


def triangle_slimness_all_geodesics(oracle: GroupOracle, corners) -> int:
    """Worst slimness over every choice of geodesic for every side."""
    a, b, c = corners
    families = [
        all_geodesics(oracle, a, b),
        all_geodesics(oracle, b, c),
        all_geodesics(oracle, c, a),
    ]
    vertex_pool = [
        sorted({x for path in family for x in path}, key=oracle.sort_key)
        for family in families
    ]
    # farthest one can sit from the worst-case geodesic of a side
    def worst_distance(x, family):
        return max(min(oracle.distance(x, y) for y in path) for path in family)

    worst = 0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for x in vertex_pool[i]:
            value = min(
                worst_distance(x, families[j]), worst_distance(x, families[k])
            )
            if value > worst:
                worst = value
    return worst


def slimness_sweep(
    oracle: GroupOracle,
    radius: int,
    sample: int | None = None,
    seed: int = 0,
    cross_check: bool | None = None,
    budget: int = DEFAULT_BALL_BUDGET,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
) -> SlimnessReport:
    """Worst slimness over triangles with corners on the half-radius sphere.

    All corner triples are examined when there are at most ``triple_budget``
    of them (or ``sample`` when given); otherwise a seeded uniform sample.
    ``cross_check`` additionally measures the all-geodesic variant; by
    default it runs for free and free abelian groups, where geodesic
    families are small.
    """
    if radius < 0:
        raise SpecParseError("radius must be >= 0")
    sphere_radius = radius // 2
    elements = ball(oracle, sphere_radius, budget=budget)
    corners = [g for g, d in elements if d == sphere_radius]
    triples = list(itertools.combinations(corners, 3))
    limit = triple_budget if sample is None else sample
    sampled = len(triples) > limit
    if sampled:
        rng = random.Random(seed)
        triples = rng.sample(triples, limit)
    if cross_check is None:
        cross_check = (
            isinstance(oracle, (FreeGroupOracle, FreeAbelianOracle))
            and len(triples) <= 200
        )

    delta_hat = 0
    witness = None
    for triple in triples:
        value = triangle_slimness(oracle, triple)
        if value > delta_hat:
            delta_hat = value
            witness = triple
    all_delta = None
    agrees = None
    if cross_check:
        all_delta = 0
        for triple in triples:
            value = triangle_slimness_all_geodesics(oracle, triple)
            if value > all_delta:
                all_delta = value
        agrees = all_delta == delta_hat
    return SlimnessReport(
        group=oracle.name,
        radius=radius,
        triangles_examined=len(triples),
        delta_hat=delta_hat,
        witness=tuple(word_to_string(oracle.as_word(g)) for g in witness)
        if witness
        else None,
        sampled=sampled,
        all_geodesic_delta_hat=all_delta,
        geodesic_choice_agrees=agrees,
    )


@dataclass(frozen=True)
class SlimnessConstants:
    """Derived constants of the filling-versus-slimness comparison.

    N is the longest attaching path of a 2-cell, kappa an integer filling
    constant; k = kappa*N^2 + 1 and m = kappa*N are the corridor depth and
    layer count used when a fat triangle is played against the filling
    bound, and the comparison yields a contradiction once the slimness
    defect exceeds 6k.
    """

    N: int
    kappa: int
    k: int
    m: int

    def __post_init__(self):
        if self.k != self.kappa * self.N**2 + 1 or self.m != self.kappa * self.N:
            raise SpecParseError("constants out of sync with their defining formulas")

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
    n = max(len(rel) for rel in presentation.relators)
    return SlimnessConstants(N=n, kappa=kappa, k=kappa * n * n + 1, m=kappa * n)
