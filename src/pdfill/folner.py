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

import functools
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BudgetError, SpecParseError
from .groups import WORK_PER_BUDGET, FreeAbelianOracle, GroupOracle, ball, current_budget
from .rings import Ring, frac_str

# only the differential needs the group ring, so only it imports it
if TYPE_CHECKING:
    from .group_ring import GroupRingElement

DEFAULT_VANISHING_THRESHOLD = Fraction(1, 10)
MAX_EXHAUSTIVE_SIZE = 12


def folner_boundary(oracle: GroupOracle, subset) -> set:
    """Elements g of the set with g s_i^-1 outside it for some generator."""
    members = set(subset)
    inverses = [oracle.letter(-i) for i in range(1, oracle.generator_count + 1)]
    return {g for g in members if any(oracle.multiply(g, s) not in members for s in inverses)}


class FolnerReport:
    def __init__(self, group: str, family: str, sets_examined: int, best_set_size: int,
                 best_ratio: Fraction, epsilon_hat: Fraction, kappa_hat: Fraction | None,
                 verdict: str, series: list | None = None):
        self.group = group
        self.family = family
        self.sets_examined = sets_examined
        self.best_set_size = best_set_size
        self.best_ratio = best_ratio
        self.epsilon_hat = epsilon_hat
        self.kappa_hat = kappa_hat
        self.verdict = verdict
        self.series = [] if series is None else series    # (set size, ratio) pairs

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
) -> FolnerReport:
    """Boundary ratios over a family of sets (``parse_family``) and a verdict.

    The budget, ``PDFILL_BUDGET`` as the command line reads it
    (``groups.current_budget``), bounds the ball and, ``WORK_PER_BUDGET``
    times over, the connected sets grown and the elements the boxes list
    (the sum of n^rank over the sides n); past any of them,
    ``BudgetError``, raised for the boxes before any is listed.
    """
    if not 0 < threshold < 1:
        raise SpecParseError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    name, limit = parse_family(family)
    exhaustive = name == "connected"
    if exhaustive:
        if limit > MAX_EXHAUSTIVE_SIZE:
            raise BudgetError(
                f"exhaustive connected family capped at size {MAX_EXHAUSTIVE_SIZE}",
            )
        series, sets_examined = _connected_series(oracle, limit)
    else:
        if name == "balls":
            elements = ball(oracle, limit)
            sets = ([g for g, d in elements if d <= r] for r in range(limit + 1))
        else:
            if not isinstance(oracle, FreeAbelianOracle):
                raise SpecParseError("the box family is defined for free abelian groups")
            rank = oracle.generator_count
            boxes = range(1, limit + 1)
            budget = current_budget()
            max_elements = WORK_PER_BUDGET * budget
            listed = 0
            for n in boxes:     # stops once past the bound, however large the side
                listed += n**rank
                if listed > max_elements:
                    raise BudgetError(
                        f"boxes up to side {limit} exceeded {max_elements} elements "
                        f"({WORK_PER_BUDGET} per unit of budget {budget})"
                    )
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


def _cayley_graph(oracle, radius):
    """The ball of ``radius`` as three lists over its ``ball`` indices.

    Per vertex: its tests (the indices of g s_i^-1, -1 if outside) and its
    distance from vertex 0, the identity.  Per vertex inside the outer
    sphere only: its distinct neighbors in the ball (itself excluded).
    No reader asks for an outer vertex's neighbors: the connected-set
    sweep reads them to distance ``radius - 1``, and ``_has_short_cycle``
    to half the cycle length it looks for.
    """
    elements = ball(oracle, radius)
    steps = elements.steps
    distance = [d for _, d in elements]
    del elements    # only the distances and the step arrays are read
    inside = bisect_left(distance, radius)    # the ball lists vertices by distance
    inverse_letters = range(-1, -oracle.generator_count - 1, -1)
    neighbors = [
        sorted({j for j in row if j >= 0 and j != i})
        for i, row in enumerate(zip(*(step[:inside] for step in steps.values())))
    ]
    tests = list(zip(*(steps[letter] for letter in inverse_letters)))
    return neighbors, tests, distance


def _has_short_cycle(neighbors, distance, length) -> bool:
    """Whether the Cayley graph has a simple cycle of at most ``length`` vertices.

    A Cayley graph is vertex-transitive, so a shortest cycle may be taken
    through the identity, and then the ball's distances along it are its
    distances around the cycle.  A shortest cycle of odd length 2d + 1 so
    has an edge between two vertices at distance d, and one of even length
    2d a vertex at distance d with two neighbors at distance d - 1.
    Conversely either pattern closes a cycle of at most that length
    through the two shortest paths back to their last common vertex.
    ``neighbors`` must list every vertex to distance ``length // 2``.
    """
    for v, row in enumerate(neighbors):
        d = distance[v]
        if 2 * d > length:
            return False    # the ball lists vertices by distance
        nearer = 0
        for u in row:
            if distance[u] == d - 1:
                nearer += 1
            elif distance[u] == d and 2 * d + 1 <= length:
                return True
        if nearer > 1:
            return True
    return False


def _gain_cap(tests, tree) -> int:
    """The most vertices one candidate turns interior in a set below the
    size whose cycles ``tree`` rules out (``_has_short_cycle``)."""
    if not tree:
        # the candidate, and each vertex whose test points at it; the
        # identity's tests are the inverse generators
        return 1 + sum(t != 0 for t in tests[0])
    # the candidate touches the set at one vertex, its only member that
    # can turn interior; it turns interior itself only with one test
    return 1 + (len(set(tests[0]) - {0}) <= 1)


def _connected_series(oracle, size_max):
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
    generator listed twice is counted with multiplicity.  When even a
    gain of ``gain_cap`` cannot lower the size-``size_max`` minimum the
    gains are skipped; the skipped sets could not have changed it.

    A subtree is counted, not grown, when it cannot lower a minimum.
    Interior vertices stay interior as a set grows, so the extensions of
    a set of size s with I interior vertices by i vertices have boundary
    at least s - I - i (gain_cap - 1).  When that is no less than the
    size-(s + i) minimum so far for every i up to ``size_max - s``, the
    set's W candidates are not grown.  Without a simple cycle of
    ``size_max`` vertices or fewer (``_has_short_cycle``), any size may be
    counted so: each extension by j vertices is a forest of disjoint
    branches, each rooted at a candidate, whose other vertices are
    unreached, since a branch that met another or came back next to the
    set would close such a cycle.  So each branch vertex has d - 1
    children, d being the number of distinct neighbors of a vertex, and
    with B = 1 + x B^(d - 1) the subtree holds [x^j] B^W =
    W / ((d - 1) j + W) C((d - 1) j + W, j) sets at depth j (Lagrange
    inversion).  With a short cycle only size ``size_max - 2`` is
    counted, and explicitly: the candidate at position i of the list
    would be grown with the i - 1 before it still untried, plus its own
    unreached neighbors, which backtracking unflags before the next.  So
    the subtree holds W + W(W - 1)/2 sets plus, for each candidate, its
    neighbors not reached; below the girth that is the forest count at
    j = 1, 2.

    ``gain_cap`` is one plus the number of tests pointing at a vertex,
    unless the Cayley graph has no simple cycle of length ``size_max``
    or less.  Then a candidate x touches a connected set S of size below
    ``size_max`` at one vertex, since two would close a cycle of length
    at most |S| + 1 through a path in S.  A member that x turns interior
    has x as a test, so it is a neighbor of x; there is one.  x turns
    interior only if all its tests lie in S or are x, and two distinct
    tests other than x would be two neighbors of x in S.  So
    ``gain_cap`` is 1, or 2 when the inverse generators name at most one
    element other than 1.

    Raises ``BudgetError`` once more than ``WORK_PER_BUDGET`` times
    ``current_budget()`` sets are grown, the scale fill's walk search
    shares.  The sets a counted subtree would have grown are added first,
    so the bound counts every set below the last size.
    """
    # neighbors reach distance size_max - 2, so size_max // 2 from size 3
    # on; below it a vertex at distance 1 closes no cycle of length 2
    neighbors, test_nbrs, distance = _cayley_graph(oracle, size_max - 1)
    tree = not _has_short_cycle(neighbors, distance, size_max)
    gain_cap = _gain_cap(test_nbrs, tree)
    del distance
    n = len(test_nbrs)    # neighbors stops short of the outer sphere
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
    # a set of size s with I interior vertices has its subtree counted
    # once s - I >= need[s], the most over i of the size-(s + i) minimum
    # plus i (gain_cap - 1).  ``lower`` keeps it at the sizes that may be
    # counted; elsewhere it stays size_max, above any s - I
    need = [size_max] * size_max
    counted_sizes = range(1 if tree else max(1, size_max - 2), size_max - 1)
    branching = len(neighbors[0]) - 1 if neighbors else 0    # d - 1
    budget = current_budget()
    max_grown = WORK_PER_BUDGET * budget
    grown = 1    # the root

    def lower(size, boundary):
        """Record a new least boundary at ``size``, and the ``need`` it sets."""
        best_boundary[size] = boundary
        for s in counted_sizes:
            need[s] = max(
                best_boundary[s + i] + i * (gain_cap - 1) for i in range(1, size_max - s + 1)
            )

    @functools.cache
    def forest(width, depth):
        """The sets with 1 to depth - 1, and with 1 to depth, members more
        than a set with ``width`` candidates has, below the girth."""
        layers = [
            width * math.comb(branching * j + width, j) // (branching * j + width)
            for j in range(1, depth + 1)
        ]
        return sum(layers) - layers[-1], sum(layers)

    def grow(v, untried, size, interior):
        """Add v as the size-th member, record the set, extend it; count sets.

        A set one short of ``size_max`` is not extended: its extensions are
        counted, and their best boundary is read off the candidates' gains.
        A smaller set is not extended when its subtree cannot lower a
        minimum: its subtree is counted from its candidates.
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
            lower(size, size - interior)
        count = 1
        if size < size_max - 1:
            new = [u for u in neighbors[v] if not reached[u]]
            for u in new:
                reached[u] = True
            untried = untried + new
            width = len(untried)
            # the sets a counted subtree would grow count as grown too
            counted = size - interior >= need[size]
            if not counted:
                grown += width
            elif tree:
                below, sets = forest(width, size_max - size)
                grown += below
                count += sets
            else:
                grown += width
                count += width * (width + 1) // 2
                for u in untried:
                    for w in neighbors[u]:
                        if not reached[w]:
                            count += 1
            if grown > max_grown:
                raise BudgetError(
                    f"connected sets up to size {size_max} exceeded {max_grown} grown sets "
                    f"({WORK_PER_BUDGET} per unit of budget {budget})"
                )
            if not counted:
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
                    lower(size_max, size_max - interior - best_gain)
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
