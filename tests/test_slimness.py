import itertools
import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from pdfill import (
    cyclic_table,
    finite_table,
    free_abelian,
    free_group,
    lex_geodesic,
    make_group,
    slimness_constants,
    slimness_sweep,
    surface_group,
    triangle_slimness,
)
from pdfill import slimness
from pdfill.errors import SpecParseError
from pdfill.groups import Presentation, ball, builtin_group_specs
from pdfill.slimness import (
    SlimnessConstants,
    _SweepMetric,
    _unranker,
    all_geodesics,
    triangle_slimness_all_geodesics,
)
from pdfill.words import word_to_string

BUILTINS = builtin_group_specs()


def test_lex_geodesic_trivial_and_tree():
    f2 = free_group(2)
    a = f2.letter(1)
    assert lex_geodesic(f2, a, a) == [a]
    u = f2.evaluate((1, 2))
    path = lex_geodesic(f2, f2.identity(), u)
    assert path == [(), (1,), (1, 2)]
    assert len(all_geodesics(f2, f2.identity(), u)) == 1


def test_lex_geodesic_plane_tie_break():
    z2 = free_abelian(2)
    path = lex_geodesic(z2, (0, 0), (1, 1))
    # the first generator moves first on ties
    assert path == [(0, 0), (1, 0), (1, 1)]
    assert len(all_geodesics(z2, (0, 0), (1, 1))) == 2


def test_triangle_slimness_degenerate():
    f2 = free_group(2)
    a, b = f2.letter(1), f2.letter(2)
    assert triangle_slimness(f2, (a, b, f2.identity())) == 0


def test_sweep_free_group_is_zero_at_all_radii():
    f2 = free_group(2)
    for radius in range(7):
        report = slimness_sweep(f2, radius)
        assert report.delta_hat == 0
        if report.all_geodesic_delta_hat is not None:
            assert report.geodesic_choice_agrees


def test_sweep_plane_grows_with_radius():
    z2 = free_abelian(2)
    deltas = {r: slimness_sweep(z2, r).delta_hat for r in (2, 4, 6)}
    assert deltas[2] < deltas[4] < deltas[6]


def test_sweep_plane_cross_check_agrees():
    z2 = free_abelian(2)
    for radius in (2, 4):
        report = slimness_sweep(z2, radius)
        assert report.geodesic_choice_agrees


@pytest.mark.parametrize(
    "spec, radius, sample, checked",
    [
        ("F2", 6, 200, True),
        ("F2", 6, 201, False),
        ("Z^2", 4, None, True),     # 56 triangles
        ("Z^2", 6, None, False),    # 220 triangles
        ("Sigma2", 2, None, False),  # 56 triangles, but not free
        ("Sigma2", 4, 10, False),
    ],
)
def test_cross_check_runs_on_free_and_free_abelian_groups_up_to_200_triangles(
    spec, radius, sample, checked
):
    report = slimness_sweep(make_group(spec), radius, sample=sample)
    assert (report.all_geodesic_delta_hat is not None) == checked
    assert (report.geodesic_choice_agrees is not None) == checked


@pytest.mark.parametrize("spec, radius, sample", [("Z^2", 0, None), ("F2", 2, 0), ("F2", 1, None)])
def test_no_cross_check_over_no_triangles(spec, radius, sample):
    # radius 0 and 1 leave one corner; a zero sample draws no triple
    report = slimness_sweep(make_group(spec), radius, sample=sample)
    assert report.triangles_examined == 0
    assert report.all_geodesic_delta_hat is None
    assert report.geodesic_choice_agrees is None


def test_full_sweep_measures_triples_as_they_are_generated(monkeypatch):
    # 220 triples of Z^2 radius 6, never listed: the first is measured
    # when only one has been generated
    drawn = [0]
    measured = []

    def counted_combinations(items, r):
        for triple in itertools.combinations(items, r):
            drawn[0] += 1
            yield triple

    def measure(oracle, corners, metric=None, floor=0):
        measured.append(drawn[0])
        return triangle_slimness(oracle, corners, metric, floor)

    monkeypatch.setattr(slimness, "itertools", SimpleNamespace(combinations=counted_combinations))
    monkeypatch.setattr(slimness, "triangle_slimness", measure)
    report = slimness_sweep(free_abelian(2), 6)
    assert report.triangles_examined == 220 == drawn[0]
    assert measured == list(range(1, 221))


def test_sweep_surface_stabilizes():
    s2 = surface_group(2)
    assert slimness_sweep(s2, 2).delta_hat == slimness_sweep(s2, 3).delta_hat


def test_sweep_monotone_in_radius():
    z2 = free_abelian(2)
    deltas = [slimness_sweep(z2, r).delta_hat for r in range(7)]
    assert deltas == sorted(deltas)
    for r, delta in enumerate(deltas):
        assert delta <= 2 * r


def test_sweep_witness_reproducible():
    z2 = free_abelian(2)
    report = slimness_sweep(z2, 4)
    assert report.witness is not None
    corners = tuple(z2.evaluate(_parse(w)) for w in report.witness)
    assert triangle_slimness(z2, corners) == report.delta_hat


def _parse(text):
    from pdfill.words import word_from_string

    return word_from_string(text)


def test_sweep_sampling_deterministic():
    z2 = free_abelian(2)
    first = slimness_sweep(z2, 8, sample=40, seed=3)
    second = slimness_sweep(z2, 8, sample=40, seed=3)
    assert first.to_json_dict() == second.to_json_dict()
    assert first.sampled and first.triangles_examined == 40


def test_constants_examples():
    s2 = surface_group(2)
    c = slimness_constants(s2.presentation, 1)
    assert (c.N, c.k, c.m) == (8, 65, 8)
    assert c.contradiction_threshold == 390
    k = make_group("Klein")
    c = slimness_constants(k.presentation, 1)
    assert (c.N, c.k, c.m) == (4, 17, 4)
    c = slimness_constants(s2.presentation, 2)
    assert (c.k, c.m) == (129, 16)


def test_constants_validation():
    s2 = surface_group(2)
    with pytest.raises(SpecParseError):
        slimness_constants(s2.presentation, 0)
    with pytest.raises(SpecParseError):
        slimness_constants(Presentation(2, ()), 1)
    # k, m and the threshold are derived from N and kappa, never passed
    c = SlimnessConstants(8, 1)
    assert (c.k, c.m, c.contradiction_threshold) == (65, 8, 390)
    with pytest.raises(TypeError):
        SlimnessConstants(N=8, kappa=1, k=64, m=8)


def sphere_words(oracle, radius):
    """Element -> a geodesic word, for every element at distance radius,
    found breadth-first with the oracle's multiplication alone."""
    words = {oracle.identity(): ()}
    frontier = [oracle.identity()]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for index in range(1, oracle.generator_count + 1):
                for letter in (index, -index):
                    h = oracle.multiply(g, oracle.letter(letter))
                    if h not in words:
                        words[h] = words[g] + (letter,)
                        nxt.append(h)
        frontier = nxt
    return {g: words[g] for g in frontier}


def naive_lex_geodesic(oracle, start, start_word, end):
    """Greedy descent over oracle.multiply, oracle.letter and
    oracle.word_length only: from each vertex take the first letter in the
    order 1, -1, 2, -2, ... that brings the end one step closer."""
    inverse = oracle.identity()
    for letter in reversed(start_word):
        inverse = oracle.multiply(inverse, oracle.letter(-letter))
    rest = oracle.multiply(inverse, end)     # current^-1 * end
    path = [start]
    remaining = oracle.word_length(rest)
    while remaining:
        for letter in (s for i in range(1, oracle.generator_count + 1) for s in (i, -i)):
            shorter = oracle.multiply(oracle.letter(-letter), rest)
            if oracle.word_length(shorter) == remaining - 1:
                path.append(oracle.multiply(path[-1], oracle.letter(letter)))
                rest, remaining = shorter, remaining - 1
                break
        else:
            raise AssertionError("no letter shortens the rest of the path")
    return path


C6_GENERATORS = {"C6[1]": [1], "C6[2,3]": [2, 3], "C6[0,1]": [0, 1]}


def oracle_for(spec):
    """A builtin group, or the cyclic group of order 6 on the generators
    named in brackets."""
    if spec in C6_GENERATORS:
        return finite_table(cyclic_table(6), generators=C6_GENERATORS[spec], name="C6")
    return make_group(spec)


@pytest.mark.parametrize(
    "spec, radii",
    [
        ("Sigma2", (1, 2)),
        ("T11a:3", (1, 2)),
        ("T11b:3", (1, 2)),
        ("T11b:4", (1, 2)),
        ("F2", (1, 2)),
        # sides up to 8 letters: long enough for geodesic bigons of more
        # than one relator cell, where a canonical form that is not the
        # lex-least geodesic would part from the descent
        ("Sigma2", (3, 4)),
        ("T11b:3", (3, 4)),
        # flat groups and finite tables, whose words are not their elements
        ("Z^2", (3, 4)),
        ("Z^3", (2, 3)),
        ("Klein", (3, 4)),
        ("T11a:1", (3, 4)),
        ("T11b:2", (3, 4)),
        ("C6[1]", (0, 1, 2, 3)),
        ("C6[2,3]", (0, 1, 2)),
        ("C6[0,1]", (0, 1, 2, 3)),
    ],
)
def test_lex_geodesic_matches_naive_descent(spec, radii):
    # sides are read off as_word; they must be the ones the greedy descent
    # takes, which knows only multiplication and word length
    oracle = oracle_for(spec)
    corners = {}
    for radius in radii:
        corners.update(sphere_words(oracle, radius))
    elements = list(corners)
    if len(elements) ** 2 > 3000:
        rng = random.Random(0)
        pairs = [tuple(rng.sample(elements, 2)) for _ in range(3000)]
    else:
        pairs = [(a, b) for a in elements for b in elements if a != b]
    for a, b in pairs:
        assert lex_geodesic(oracle, a, b) == naive_lex_geodesic(oracle, a, corners[a], b)


@pytest.mark.parametrize("spec, sphere_radius", [("Sigma2", 2), ("T11b:3", 2), ("Z^2", 3)])
def test_shared_memo_matches_fresh_triangles(spec, sphere_radius):
    # one memo across many triangles must give each triangle the slimness
    # it has on its own; the side from b to a is not the side from a to b
    # reversed, so sides are keyed by the ordered pair
    oracle = make_group(spec)
    corners = [g for g, d in ball(oracle, sphere_radius) if d == sphere_radius]
    triples = list(combinations(corners, 3))
    if len(triples) > 300:
        triples = random.Random(0).sample(triples, 300)
    shared = _SweepMetric(oracle)
    values = [triangle_slimness(oracle, t, shared) for t in triples]
    assert values == [triangle_slimness(oracle, t) for t in triples]
    assert len(set(values)) > 1


@pytest.mark.parametrize("spec, sphere_radius", [("Z^2", 3), ("F2", 2)])
def test_all_geodesic_slimness_shares_the_sweep_memo(spec, sphere_radius, monkeypatch):
    # with the sweep's memo each distance is computed once, however many
    # triangles and geodesic families ask for it, and every triangle keeps
    # the value it has on its own
    oracle = make_group(spec)
    corners = [g for g, d in ball(oracle, sphere_radius) if d == sphere_radius]
    triples = list(combinations(corners, 3))[:60]
    fresh = [triangle_slimness_all_geodesics(oracle, t) for t in triples]
    asked = []
    distance = oracle.distance

    def counted(x, y):
        asked.append((x, y))
        return distance(x, y)

    monkeypatch.setattr(oracle, "distance", counted)
    shared = _SweepMetric(oracle)
    assert [triangle_slimness_all_geodesics(oracle, t, shared) for t in triples] == fresh
    assert asked and len(asked) == len(set(asked))


def reference_slimness(oracle, corners):
    """Slimness of the lex-geodesic triangle by its definition: every side
    vertex, its distance to every vertex of the other two sides."""
    a, b, c = corners
    sides = [lex_geodesic(oracle, a, b), lex_geodesic(oracle, b, c), lex_geodesic(oracle, c, a)]
    return max(
        min(oracle.distance(x, y) for y in sides[(i + 1) % 3] + sides[(i + 2) % 3])
        for i in range(3)
        for x in sides[i]
    )


@pytest.mark.parametrize(
    "spec, sphere_radius", [("Sigma2", 2), ("T11b:3", 2), ("Z^2", 3), ("Klein", 3), ("F2", 2)]
)
def test_triangle_slimness_without_a_floor_is_exact(spec, sphere_radius):
    oracle = make_group(spec)
    corners = [g for g, d in ball(oracle, sphere_radius) if d == sphere_radius]
    triples = list(combinations(corners, 3))
    if len(triples) > 200:
        triples = random.Random(1).sample(triples, 200)
    shared = _SweepMetric(oracle)
    values = [reference_slimness(oracle, t) for t in triples]
    assert [triangle_slimness(oracle, t) for t in triples] == values
    assert [triangle_slimness(oracle, t, shared) for t in triples] == values


# every builtin group at two radii, sampled where there are more than 400
# triangles, and the seeded Sigma2 samples of the benchmark and the README
PRUNED_SWEEPS = [(spec, radius, 400, 0) for spec in BUILTINS for radius in (4, 6)] + [
    ("Sigma2", 4, 2000, 1),
    ("Sigma2", 6, 300, 5),
]


@pytest.mark.parametrize("spec, radius, sample, seed", PRUNED_SWEEPS)
def test_pruned_sweep_matches_every_triangle_at_floor_0(spec, radius, sample, seed, monkeypatch):
    # the sweep passes its running maximum as the floor; each triangle must
    # return the larger of that floor and its slimness measured at floor 0,
    # and the report must name the first triangle whose slimness exceeds
    # every earlier one
    oracle = make_group(spec)
    unpruned = _SweepMetric(oracle)
    measured = []
    pruned = slimness.triangle_slimness

    def measure(oracle, corners, metric=None, floor=0):
        value = pruned(oracle, corners, metric, floor)
        exact = pruned(oracle, corners, unpruned)
        assert value == max(floor, exact), (corners, floor)
        measured.append((corners, exact))
        return value

    monkeypatch.setattr(slimness, "triangle_slimness", measure)
    report = slimness_sweep(oracle, radius, sample=sample, seed=seed)
    delta_hat, witness = 0, None
    for corners, exact in measured:
        if exact > delta_hat:
            delta_hat, witness = exact, corners
    assert report.triangles_examined == len(measured)
    assert report.delta_hat == delta_hat
    if witness is None:
        assert report.witness is None
    else:
        assert report.witness == tuple(word_to_string(oracle.as_word(g)) for g in witness)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
def test_unrank_matches_itertools(n):
    items = [f"c{i}" for i in range(n)]
    for r in range(5):
        expected = list(combinations(items, r))
        unrank = _unranker(items, r)
        assert [unrank(i) for i in range(len(expected))] == expected


@pytest.mark.parametrize("n", [12, 20, 30, 56])
def test_sampled_indices_match_sampling_the_list(n):
    # the sweep samples triple indices and unranks them; the draws must be
    # those of sampling the list of every triple, in both of
    # random.sample's strategies
    items = list(range(n))
    triples = list(combinations(items, 3))
    unrank = _unranker(items, 3)
    for k in (1, 17, 300, 2000, 20000):
        k = min(k, len(triples))
        for seed in (0, 5):
            drawn = random.Random(seed).sample(range(len(triples)), k)
            assert [unrank(j) for j in drawn] == random.Random(seed).sample(triples, k)
