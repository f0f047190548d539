"""Boundary ratios of finite sets: the amenability side of the dichotomy.

The boundary of a finite set F is the set of g in F with g s_i^-1 outside
F for some generator s_i.  Small boundary-to-size ratios along a family of
sets witness amenability; a uniform positive lower bound epsilon over all
finite sets gives the filling constant 1/epsilon for the one-step
differential (1 - r_i s_i).

Verdicts are family-relative only: ``ratio-vanishing`` when the examined
family drops below a threshold in (0, 1), ``ratio-bounded-below`` when an
exhaustive family has a positive minimum, ``inconclusive`` otherwise.
Nothing here claims amenability or non-amenability of the group itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BudgetError, SpecParseError
from .groups import DEFAULT_BALL_BUDGET, FreeAbelianOracle, GroupOracle, ball
from .rings import Ring, frac_str

# only the differential needs the group ring, so only it imports it
if TYPE_CHECKING:
    from .group_ring import GroupRingElement

DEFAULT_VANISHING_THRESHOLD = Fraction(1, 10)
MAX_EXHAUSTIVE_SIZE = 12
GROWN_SETS_PER_BUDGET = 25    # the enumeration grows at most this many sets per unit of budget


def folner_boundary(oracle: GroupOracle, subset) -> set:
    """Elements g of the set with g s_i^-1 outside it for some generator."""
    members = set(subset)
    inverses = [oracle.letter(-i) for i in range(1, oracle.generator_count + 1)]
    return {g for g in members if any(oracle.multiply(g, s) not in members for s in inverses)}


@dataclass
class FolnerReport:
    group: str
    family: str
    sets_examined: int
    best_set_size: int
    best_ratio: Fraction
    epsilon_hat: Fraction
    kappa_hat: Fraction | None
    verdict: str
    series: list = field(default_factory=list)   # (set size, ratio) pairs

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "family": self.family,
            "sets_examined": self.sets_examined,
            "best_set_size": self.best_set_size,
            "best_ratio": frac_str(self.best_ratio),
            "epsilon_hat": frac_str(self.epsilon_hat),
            "kappa_hat": frac_str(self.kappa_hat) if self.kappa_hat is not None else None,
            "verdict": self.verdict,
            "series": [[size, frac_str(ratio)] for size, ratio in self.series],
        }

    def csv_rows(self):
        yield ("set_size", "ratio")
        for size, ratio in self.series:
            yield (size, frac_str(ratio))


def parse_family(spec: str):
    """Parse ``"balls:6"``, ``"boxes:20"`` or ``"connected:10"``."""
    name, _, arg = spec.partition(":")
    name = name.strip()
    if name not in ("balls", "boxes", "connected"):
        raise SpecParseError(f"unknown family {spec!r}")
    try:
        limit = int(arg)
    except ValueError:
        raise SpecParseError(f"family {spec!r} needs an integer limit") from None
    if limit < 1:
        raise SpecParseError(f"family limit must be >= 1 in {spec!r}")
    return name, limit


def folner_sweep(
    oracle: GroupOracle,
    family: str,
    threshold: Fraction = DEFAULT_VANISHING_THRESHOLD,
    budget: int = DEFAULT_BALL_BUDGET,
) -> FolnerReport:
    if not 0 < threshold < 1:
        raise SpecParseError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    name, limit = parse_family(family)
    exhaustive = name == "connected"
    if exhaustive:
        if limit > MAX_EXHAUSTIVE_SIZE:
            raise BudgetError(
                f"exhaustive connected family capped at size {MAX_EXHAUSTIVE_SIZE}",
            )
        series, sets_examined = _connected_series(oracle, limit, budget)
    else:
        if name == "balls":
            elements = ball(oracle, limit, budget=budget)
            sets = ([g for g, d in elements if d <= r] for r in range(limit + 1))
        else:
            if not isinstance(oracle, FreeAbelianOracle):
                raise SpecParseError("the box family is defined for free abelian groups")
            rank = oracle.generator_count
            boxes = range(1, limit + 1)
            sets = (list(itertools.product(range(n), repeat=rank)) for n in boxes)
        series = [
            (len(members), Fraction(len(folner_boundary(oracle, members)), len(members)))
            for members in sets
        ]
        sets_examined = len(series)

    best_size, best_ratio = min(series, key=lambda item: (item[1], item[0]))
    kappa_hat = 1 / best_ratio if best_ratio > 0 else None
    if exhaustive:
        verdict = "ratio-bounded-below" if best_ratio > 0 else "ratio-vanishing"
    elif best_ratio < threshold:
        verdict = "ratio-vanishing"
    else:
        verdict = "inconclusive"
    return FolnerReport(
        group=oracle.name,
        family=family,
        sets_examined=sets_examined,
        best_set_size=best_size,
        best_ratio=best_ratio,
        epsilon_hat=best_ratio,
        kappa_hat=kappa_hat,
        verdict=verdict,
        series=series,
    )


def _connected_series(oracle, size_max, budget):
    """Exhaustive minimum boundary ratio over connected sets containing 1.

    Boundary ratios are invariant under left translation, so every
    connected set is represented by a translate through the identity.
    Enumeration follows Redelmeier (*Counting polyominoes: yet another
    attack*, Discrete Math. 36, 1981): a connected set is grown one
    Cayley-neighbor at a time from an untried list, and a vertex is
    *reached* once it is in the set or adjacent to it.  When v joins, its
    only new candidates are its unreached neighbors; they are flagged,
    appended to the untried list for the recursion, and unflagged on
    backtrack.  A vertex popped from the untried list stays reached, so
    later siblings never add it again and every connected set appears
    exactly once.  The boundary count is maintained incrementally, and
    the minimum boundary per size does not depend on enumeration order.

    The last level is counted, not grown.  At a set of size
    ``size_max - 1`` each candidate u (the untried list plus v's unreached
    neighbors) completes exactly one set of size ``size_max``, so the
    count rises by the number of candidates.  Adding u turns gain(u)
    vertices interior: u itself when all its test points are in the set
    or are u, and each member w whose last missing test point is u.
    Gains are taken by decrementing ``missing`` and restoring it, so a
    generator listed twice is counted with multiplicity.  No candidate
    gains more than one plus the most tests pointing at a vertex, so when
    even that gain cannot lower the size-``size_max`` minimum the gains
    are skipped; the skipped sets could not have changed it.

    Raises ``BudgetError`` once more than ``GROWN_SETS_PER_BUDGET * budget``
    sets are grown (the last size is counted, not grown).
    """
    # the Ball list is dropped at once: only its step arrays are read
    steps = ball(oracle, size_max - 1, budget=budget).steps
    inverse_letters = range(-1, -oracle.generator_count - 1, -1)

    # graph adjacency (both directions) and one-directional boundary tests
    neighbors = [
        sorted({j for j in row if j >= 0 and j != i})
        for i, row in enumerate(zip(*steps.values()))
    ]
    # indices of g s_i^-1, -1 if outside
    test_nbrs = list(zip(*(steps[letter] for letter in inverse_letters)))
    del steps
    n = len(neighbors)
    rev_test = [[] for _ in range(n)]       # vertices whose test points here
    for i, tests in enumerate(test_nbrs):
        for inv in tests:
            if inv >= 0 and inv != i:
                rev_test[inv].append(i)

    in_set = [False] * n
    reached = [False] * n    # in the set or adjacent to it
    missing = [0] * n        # per member: how many of its test points are absent
    # size + 1 stays only for sizes no connected set reaches (finite groups)
    best_boundary = [size + 1 for size in range(size_max + 1)]
    gain_cap = 1 + max(map(len, rev_test))    # no new member makes more vertices interior
    max_grown = GROWN_SETS_PER_BUDGET * budget
    grown = 1    # the root

    def grow(v, untried, size, interior):
        """Add v as the size-th member, record the set, extend it; count sets.

        A set one short of ``size_max`` is not extended: its extensions are
        counted, and their best boundary is read off the candidates' gains.
        """
        nonlocal grown
        in_set[v] = True
        miss = 0
        for t in test_nbrs[v]:
            if t == -1 or not in_set[t]:
                miss += 1
        missing[v] = miss
        if miss == 0:
            interior += 1
        for w in rev_test[v]:
            if in_set[w]:
                missing[w] -= 1
                if missing[w] == 0:
                    interior += 1
        if size - interior < best_boundary[size]:
            best_boundary[size] = size - interior
        count = 1
        if size < size_max - 1:
            new = [u for u in neighbors[v] if not reached[u]]
            for u in new:
                reached[u] = True
            untried = untried + new
            grown += len(untried)    # each is grown below, so check before growing any
            if grown > max_grown:
                raise BudgetError(
                    f"connected sets up to size {size_max} exceeded {max_grown} grown sets "
                    f"({GROWN_SETS_PER_BUDGET} per unit of budget {budget})"
                )
            while untried:
                count += grow(untried.pop(), untried, size + 1, interior)
            for u in new:
                reached[u] = False
        elif size == size_max - 1:
            candidates = untried + [u for u in neighbors[v] if not reached[u]]
            count += len(candidates)
            if candidates and size_max - interior - gain_cap < best_boundary[size_max]:
                best_gain = 0
                for u in candidates:
                    gain = 1
                    for t in test_nbrs[u]:
                        if t != u and (t == -1 or not in_set[t]):
                            gain = 0
                            break
                    tests = rev_test[u]
                    for w in tests:
                        if in_set[w]:
                            missing[w] -= 1
                            if missing[w] == 0:
                                gain += 1
                    for w in tests:
                        if in_set[w]:
                            missing[w] += 1
                    if gain > best_gain:
                        best_gain = gain
                if size_max - interior - best_gain < best_boundary[size_max]:
                    best_boundary[size_max] = size_max - interior - best_gain
        for w in rev_test[v]:
            if in_set[w]:
                missing[w] += 1
        in_set[v] = False
        return count

    root = 0     # ball() lists the identity first
    reached[root] = True
    count = grow(root, [], 1, 0)

    series = [
        (size, Fraction(best_boundary[size], size))
        for size in range(1, size_max + 1)
        if best_boundary[size] <= size
    ]
    return series, count


def boundary_differential(
    element: GroupRingElement, coefficients=None
) -> list:
    """The entries (d - d r_i s_i) of the one-step differential applied to d."""
    from .group_ring import GroupRingElement

    ring = element.ring
    group = element.group
    if coefficients is None:
        coefficients = [ring.one] * group.generator_count
    shifts = [
        GroupRingElement.monomial(ring, group, group.generator(i), coefficients[i - 1])
        for i in range(1, group.generator_count + 1)
    ]
    return [element - element * shift for shift in shifts]


def verify_filling_bound(
    oracle: GroupOracle,
    ring: Ring,
    samples: int,
    support_radius: int,
    epsilon_hat: Fraction,
    rng,
    max_support_size: int = 12,
) -> dict:
    """Sample chains d and test |d| <= (1/epsilon)|boundary(d)|.

    Also checks the support-inclusion step the bound rests on: every
    boundary element of supp(d) appears in the support of some entry of
    the differential.  A norm violation refutes epsilon for this family of
    supports, not the inclusion property, so both counts are reported.
    """
    from .group_ring import GroupRingElement

    elements = [g for g, _ in ball(oracle, support_radius)]
    norm_violations = []
    inclusion_failures = []
    for trial in range(samples):
        size = rng.randint(0, min(len(elements), max_support_size))
        support = rng.sample(elements, size)
        d = GroupRingElement(
            ring,
            oracle,
            [(g, ring.sample(rng, nonzero=True)) for g in support],
        )
        entries = boundary_differential(d)
        gamma_norm = sum(entry.support_norm() for entry in entries)
        boundary = folner_boundary(oracle, d.support())
        covered = set().union(*(entry.support() for entry in entries))
        if not boundary <= covered:
            inclusion_failures.append(trial)
        if epsilon_hat * d.support_norm() > gamma_norm:
            norm_violations.append(trial)
    return {
        "samples": samples,
        "support_radius": support_radius,
        "epsilon_hat": frac_str(epsilon_hat),
        "norm_violations": norm_violations,
        "inclusion_failures": inclusion_failures,
    }
