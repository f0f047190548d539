import itertools
import math
import random
from fractions import Fraction

import pytest

from pdfill import (
    INTEGERS,
    boundary_differential,
    builtin_group_specs,
    cyclic_table,
    finite_table,
    folner_boundary,
    folner_sweep,
    free_abelian,
    free_group,
    make_group,
    residue_ring,
    verify_filling_bound,
)
from pdfill.errors import BudgetError, SpecParseError
from pdfill.folner import (
    _cayley_graph,
    _gain_cap,
    _has_short_cycle,
)
from pdfill.group_ring import GroupRingElement
from pdfill import folner
from pdfill.groups import WORK_PER_BUDGET, ball

# connected subsets of the 4-regular tree containing the root, of size at
# most K: there are (4 / (3k + 4)) * C(3k + 4, k) rooted subtrees with
# k + 1 vertices
TREE_SUBSET_COUNTS = {7: 16580, 8: 93492, 9: 537507, 10: 3138807, 11: 18565647}

# fixed polyominoes with n cells (OEIS A001168); each has n translates
# with a cell at the origin
FIXED_POLYOMINOES = [1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446]


def naive_connected_series(oracle, size_max):
    """(size, minimum boundary ratio) series and set count, by closure.

    Connected sets through 1 are closed under adjoining a Cayley neighbor,
    and every one of size k + 1 arises from one of size k, so growing
    {1} one neighbor at a time, layer by layer, finds each exactly once
    per layer.
    """
    letters = [x for i in range(1, oracle.generator_count + 1) for x in (i, -i)]
    tests = [oracle.letter(-i) for i in range(1, oracle.generator_count + 1)]
    layer = {frozenset([oracle.identity()])}
    series, count = [], 0
    for size in range(1, size_max + 1):
        if size > 1:
            layer = {
                s | {h}
                for s in layer
                for g in s
                for h in (oracle.multiply(g, oracle.letter(x)) for x in letters)
                if h not in s
            }
        if not layer:
            break
        count += len(layer)
        best = min(
            sum(any(oracle.multiply(g, t) not in s for t in tests) for g in s)
            for s in layer
        )
        series.append((size, Fraction(best, size)))
    return series, count


def test_boundary_of_boxes():
    z2 = free_abelian(2)
    for n in range(2, 21):
        box = {(i, j) for i in range(n) for j in range(n)}
        boundary = folner_boundary(z2, box)
        assert len(boundary) == 2 * n - 1
        # left column and bottom row exactly
        assert boundary == {(i, j) for i, j in box if i == 0 or j == 0}


def test_boundary_of_singleton_and_small_ball():
    f2 = free_group(2)
    assert folner_boundary(f2, [f2.identity()]) == {f2.identity()}
    # the identity is interior to the unit ball: both its test points
    # 1*a^-1 and 1*b^-1 lie inside, so only the sphere is boundary
    ball1 = [g for g, _ in ball(f2, 1)]
    assert folner_boundary(f2, ball1) == set(ball1) - {f2.identity()}


def test_boundary_subset_invariant():
    rng = random.Random(0)
    for spec in ("F2", "Z^2", "Klein"):
        oracle = make_group(spec)
        elements = [g for g, _ in ball(oracle, 3)]
        for _ in range(30):
            subset = set(rng.sample(elements, rng.randint(1, 12)))
            assert folner_boundary(oracle, subset) <= subset


def test_sweep_boxes_vanishing():
    report = folner_sweep(free_abelian(2), "boxes:20")
    assert report.verdict == "ratio-vanishing"
    ratios = dict(report.series)
    for n in range(2, 21):
        assert ratios[n * n] == Fraction(2 * n - 1, n * n)


def test_sweep_balls_klein_ratios_decrease():
    report = folner_sweep(make_group("Klein"), "balls:6")
    ratios = [ratio for _, ratio in report.series]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < Fraction(1, 2)


def test_sweep_connected_f2_exhaustive():
    report = folner_sweep(free_group(2), "connected:7")
    assert report.sets_examined == TREE_SUBSET_COUNTS[7]
    assert report.verdict == "ratio-bounded-below"
    assert report.epsilon_hat > 0
    assert report.kappa_hat * report.epsilon_hat == 1
    assert folner_sweep(free_group(2), "connected:9").sets_examined == (
        TREE_SUBSET_COUNTS[9]
    )


def test_tree_subset_counts_match_formula():
    for size_max, count in TREE_SUBSET_COUNTS.items():
        assert count == sum(
            Fraction(4, 3 * k + 4) * math.comb(3 * k + 4, k) for k in range(size_max)
        )


def test_connected_count_z2_rooted_polyominoes():
    report = folner_sweep(free_abelian(2), "connected:8")
    rooted = sum(n * a for n, a in enumerate(FIXED_POLYOMINOES[:8], start=1))
    assert report.sets_examined == rooted == 28830
    # at size 10 some sets two short of it are counted, not grown, and the
    # plane's short cycles make that count explicit
    report = folner_sweep(free_abelian(2), "connected:10")
    rooted = sum(n * a for n, a in enumerate(FIXED_POLYOMINOES, start=1))
    assert report.sets_examined == rooted == 482480


# cyclic groups by (order, generators): the identity as a generator, an
# involution and a repeated generator each give a vertex that is its own
# test point, or a member two of whose tests point at one vertex
CYCLIC_CASES = {
    "C6": (6, [1]),
    "C5-identity": (5, [0]),
    "C5-identity-and-1": (5, [0, 1]),
    "C6-involution": (6, [3, 2]),
    "C6-repeated": (6, [1, 1]),
    "C4-repeated": (4, [2, 2, 1]),
    "C1": (1, []),
    "C3-no-generators": (3, []),
}


@pytest.mark.parametrize(
    "spec, size_max",
    [
        ("F2", 1), ("F2", 2), ("F2", 3), ("F2", 6), ("F2", 7), ("F2", 8), ("F1", 6),
        ("Z^2", 3), ("Z^2", 6), ("Z^3", 5), ("F3", 5), ("Sigma2", 4), ("Klein", 6),
        ("T11b:3", 5), ("T11b:3", 6), ("C6", 6), ("C6", 8), ("C5-identity", 5),
        ("C5-identity-and-1", 5), ("C6-involution", 6), ("C6-involution", 7),
        ("C6-repeated", 6), ("C6-repeated", 7), ("C4-repeated", 4),
        ("C4-repeated", 5), ("C1", 1), ("C1", 3), ("C3-no-generators", 1),
        ("C3-no-generators", 2), ("C3-no-generators", 4),
    ],
)
def test_connected_series_matches_naive_closure(spec, size_max):
    if spec in CYCLIC_CASES:
        order, generators = CYCLIC_CASES[spec]
        oracle = finite_table(cyclic_table(order), generators=generators, name=spec)
    else:
        oracle = make_group(spec)
    report = folner_sweep(oracle, f"connected:{size_max}")
    assert (report.series, report.sets_examined) == naive_connected_series(
        oracle, size_max
    )


def test_connected_f2_series_is_the_tree_minimum():
    # a subtree of the 4-regular tree with n vertices has at least n//2 + 1
    # boundary vertices, and the sweep reaches that minimum at every size
    report = folner_sweep(free_group(2), "connected:11")
    assert report.series == [(n, Fraction(n // 2 + 1, n)) for n in range(1, 12)]
    assert report.sets_examined == TREE_SUBSET_COUNTS[11]


@pytest.mark.parametrize(
    "spec, girth",
    [
        ("Z^2", 4), ("Klein", 4), ("T11b:3", 6), ("Sigma2", 8), ("C6", 6),
        ("C5-identity-and-1", 5), ("C6-involution", 3),
    ],
)
def test_shortest_cycle_found_from_the_ball(spec, girth):
    if spec in CYCLIC_CASES:
        order, generators = CYCLIC_CASES[spec]
        oracle = finite_table(cyclic_table(order), generators=generators, name=spec)
    else:
        oracle = make_group(spec)
    neighbors, _, distance = _cayley_graph(oracle, girth // 2 + 1)
    assert _has_short_cycle(neighbors, distance, girth)
    assert not _has_short_cycle(neighbors, distance, girth - 1)


def test_free_groups_have_no_short_cycle():
    for rank in (2, 3):
        neighbors, _, distance = _cayley_graph(free_group(rank), 7)
        assert not _has_short_cycle(neighbors, distance, 12)


def gain_cap(oracle, radius, size_max):
    neighbors, tests, distance = _cayley_graph(oracle, radius)
    return _gain_cap(tests, not _has_short_cycle(neighbors, distance, size_max))


def test_gain_cap_below_the_girth():
    # below the girth a candidate touches the set at one vertex; on F1 it
    # can also turn interior itself, as its one test may lie in the set
    # (the girth check reads neighbors to distance size_max // 2, and the
    # graph lists them inside its outer sphere only)
    assert gain_cap(free_group(1), 5, 9) == 2
    assert gain_cap(free_group(2), 5, 9) == 1
    assert gain_cap(make_group("Sigma2"), 4, 7) == 1
    # at or past it, one plus the tests pointing at a vertex
    assert gain_cap(free_abelian(2), 4, 6) == 3
    assert gain_cap(make_group("Sigma2"), 5, 8) == 5


def test_sweep_connected_finite_group_reaches_zero():
    c6 = finite_table(cyclic_table(6), generators=[1], name="C6")
    report = folner_sweep(c6, "connected:6")
    # the whole group has empty boundary, so the exhaustive minimum is zero
    assert report.best_ratio == 0
    assert report.verdict == "ratio-vanishing"


def test_sweep_family_validation():
    with pytest.raises(SpecParseError):
        folner_sweep(free_group(2), "hills:3")
    with pytest.raises(SpecParseError):
        folner_sweep(free_group(2), "boxes:5")   # boxes need a free abelian group
    with pytest.raises(BudgetError):
        folner_sweep(free_group(2), "connected:13")


def test_connected_sets_stop_past_the_grown_set_bound(monkeypatch):
    # connected:7 on Z^3 grows the 23,952 sets of size 1 to 6 and counts
    # the rest: the budget that just admits them passes, one less stops
    unbounded = folner_sweep(free_abelian(3), "connected:7")
    budget = math.ceil(23_952 / WORK_PER_BUDGET)
    monkeypatch.setenv("PDFILL_BUDGET", str(budget))
    assert vars(folner_sweep(free_abelian(3), "connected:7")) == vars(unbounded)
    smaller = WORK_PER_BUDGET * (budget - 1)
    monkeypatch.setenv("PDFILL_BUDGET", str(budget - 1))
    with pytest.raises(BudgetError, match=f"exceeded {smaller} grown sets"):
        folner_sweep(free_abelian(3), "connected:7")


def test_counted_subtrees_spend_the_grown_set_bound(monkeypatch):
    # connected:9 on F2 counts most subtrees rather than growing them, but
    # the bound still counts every set of size 1 to 8: the budget that just
    # admits them passes, one less stops
    unbounded = folner_sweep(free_group(2), "connected:9")
    monkeypatch.setattr(folner, "WORK_PER_BUDGET", 1)
    monkeypatch.setenv("PDFILL_BUDGET", str(TREE_SUBSET_COUNTS[8]))
    assert vars(folner_sweep(free_group(2), "connected:9")) == vars(unbounded)
    monkeypatch.setenv("PDFILL_BUDGET", str(TREE_SUBSET_COUNTS[8] - 1))
    with pytest.raises(BudgetError, match="exceeded 93491 grown sets"):
        folner_sweep(free_group(2), "connected:9")


@pytest.mark.parametrize("rank, side, listed", [(2, 20, 2870), (3, 8, 1296)])
def test_boxes_stop_past_the_element_bound(monkeypatch, rank, side, listed):
    # boxes:N on Z^k lists the sum of n^k over n <= N elements: the budget
    # that just admits them passes, one less stops before any box is tested
    group, family = free_abelian(rank), f"boxes:{side}"
    unbounded = folner_sweep(group, family)
    assert sum(size for size, _ in unbounded.series) == listed
    budget = math.ceil(listed / WORK_PER_BUDGET)
    monkeypatch.setenv("PDFILL_BUDGET", str(budget))
    assert vars(folner_sweep(group, family)) == vars(unbounded)
    smaller = WORK_PER_BUDGET * (budget - 1)
    monkeypatch.setenv("PDFILL_BUDGET", str(budget - 1))
    tested = []
    monkeypatch.setattr(folner, "folner_boundary", lambda oracle, members: tested.append(members))
    with pytest.raises(BudgetError, match=f"boxes up to side {side} exceeded {smaller} elements"):
        folner_sweep(group, family)
    assert tested == []


def brute_force_series(neighbors, tests, size_max):
    """(series, sets) over the connected sets holding vertex 0, each listed
    as a subset of the vertices and checked for connectedness."""
    best, sets = {}, 0
    for size in range(1, size_max + 1):
        for rest in itertools.combinations(range(1, len(neighbors)), size - 1):
            members = {0, *rest}
            seen, stack = {0}, [0]
            while stack:
                for u in neighbors[stack.pop()]:
                    if u in members and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen != members:
                continue
            sets += 1
            boundary = sum(any(t not in members for t in tests[g]) for g in members)
            best[size] = min(best.get(size, size), boundary)
    return [(size, Fraction(b, size)) for size, b in sorted(best.items())], sets


def test_connected_series_needs_its_size_k_clause(monkeypatch):
    # a Schreier graph of two permutations of 7 points, where the counted
    # last two levels must also leave the size-K minimum alone.  Each
    # vertex is the test of two, so the gain cap is 3.  Counting the
    # subtrees whenever they cannot lower the size-(K - 1) minimum alone
    # gives (5, 2/5); the least boundary of a 5-set is 1
    neighbors = [[1, 2, 3, 4], [0, 5, 6], [0, 4, 6], [0, 5, 6], [0, 2], [1, 3], [1, 2, 3]]
    tests = [(1, 3), (6, 5), (4, 0), (5, 6), (0, 4), (3, 1), (2, 2)]
    distance = [0, 1, 1, 1, 1, 2, 2]
    monkeypatch.setattr(
        folner, "_cayley_graph", lambda oracle, radius: (neighbors, tests, distance)
    )
    assert _has_short_cycle(neighbors, distance, 5) and _gain_cap(tests, False) == 3
    series, sets = folner._connected_series(None, 5)
    assert series[-1] == (5, Fraction(1, 5)) and sets == 47
    assert (series, sets) == brute_force_series(neighbors, tests, 5)


def test_connected_series_counts_deeper_subtrees_only_below_the_girth(monkeypatch):
    # a 5-cycle whose every vertex is its own test point: no set has a
    # boundary and the gain cap is 1, so from the first set of each size on
    # no subtree can lower a minimum.  Counting {0, 1}'s subtree as a
    # branch of a tree gives three sets, but {0, 1, 3, 4, 2} came with 2,
    # tried before 1: only {0, 1, 3} and {0, 1, 3, 4} are new
    neighbors = [[1, 2], [0, 3], [0, 4], [1, 4], [2, 3]]
    tests = [(v,) for v in range(5)]
    distance = [0, 1, 1, 2, 2]
    monkeypatch.setattr(
        folner, "_cayley_graph", lambda oracle, radius: (neighbors, tests, distance)
    )
    assert _has_short_cycle(neighbors, distance, 5) and _gain_cap(tests, False) == 1
    series, sets = folner._connected_series(None, 5)
    assert (series, sets) == ([(n, Fraction(0)) for n in range(1, 6)], 11)
    assert (series, sets) == brute_force_series(neighbors, tests, 5)


@pytest.mark.parametrize("spec", builtin_group_specs()[:6])
def test_support_inclusion_property(spec):
    # every boundary element of supp(d) appears in the support of some
    # entry of the one-step differential, whatever the ring
    oracle = make_group(spec)
    rng = random.Random(9)
    for ring in (INTEGERS, residue_ring(2)):
        elements = [g for g, _ in ball(oracle, 2)]
        for _ in range(60):
            support = rng.sample(elements, rng.randint(0, min(10, len(elements))))
            d = GroupRingElement(
                ring, oracle, [(g, ring.sample(rng, nonzero=True)) for g in support]
            )
            entries = boundary_differential(d)
            covered = set()
            for entry in entries:
                covered |= entry.support()
            boundary = folner_boundary(oracle, d.support())
            assert boundary <= covered
            assert sum(e.support_norm() for e in entries) >= len(boundary)


def test_support_inclusion_with_zero_divisor_coefficients():
    z4 = residue_ring(4)
    oracle = free_abelian(2)
    rng = random.Random(10)
    elements = [g for g, _ in ball(oracle, 2)]
    two = z4.value(2)
    for _ in range(100):
        support = rng.sample(elements, rng.randint(0, 8))
        d = GroupRingElement(
            z4, oracle, [(g, z4.sample(rng, nonzero=True)) for g in support]
        )
        entries = boundary_differential(d, [two, two])
        covered = set()
        for entry in entries:
            covered |= entry.support()
        assert folner_boundary(oracle, d.support()) <= covered


def test_verify_filling_bound_zero_chain():
    report = verify_filling_bound(
        free_group(2), INTEGERS, 5, 0, Fraction(1, 2), random.Random(0)
    )
    assert report["norm_violations"] == []
    assert report["inclusion_failures"] == []


def test_verify_filling_bound_f2_with_exhaustive_epsilon():
    f2 = free_group(2)
    epsilon = folner_sweep(f2, "connected:7").epsilon_hat
    # components of a disconnected set cannot reach each other in a tree,
    # so the connected-family minimum binds every set of size <= 7
    report = verify_filling_bound(
        f2, INTEGERS, 150, 2, epsilon, random.Random(1), max_support_size=7
    )
    assert report["inclusion_failures"] == []
    assert report["norm_violations"] == []


def test_box_indicators_defeat_any_positive_epsilon():
    # |differential(box indicator)| / |box| = 4n / n^2, so no epsilon survives
    z2 = free_abelian(2)
    for n in (3, 5, 8):
        box = [(i, j) for i in range(n) for j in range(n)]
        d = GroupRingElement(INTEGERS, z2, [(g, INTEGERS.one) for g in box])
        entries = boundary_differential(d)
        gamma_norm = sum(e.support_norm() for e in entries)
        assert Fraction(gamma_norm, d.support_norm()) == Fraction(4 * n, n * n)
