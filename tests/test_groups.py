import ast
import hashlib
import random
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from step_tables import counting_multiply, step_items

from pdfill import (
    INTEGERS,
    ball,
    build_ball_complex,
    builtin_group_specs,
    cyclic_table,
    finite_table,
    free_abelian,
    free_group,
    groups,
    klein_bottle,
    make_group,
    nonorientable_type,
    orientable_type,
    parse_element,
    surface_group,
)
from pdfill.errors import BudgetError, InvariantError, SpecParseError
from pdfill.groups import DEFAULT_BALL_BUDGET, GroupOracle, Presentation, current_budget
from pdfill.words import free_reduce, invert_word, join_reduced, word_from_string


def all_letters(oracle):
    m = oracle.generator_count
    return [i for i in range(1, m + 1)] + [-i for i in range(1, m + 1)]


def random_element(oracle, rng, max_len=8):
    word = tuple(rng.choice(all_letters(oracle)) for _ in range(rng.randint(0, max_len)))
    return oracle.evaluate(word)


def test_make_group_specs():
    assert make_group("F2").name == "F2"
    assert make_group("Z^3").generator_count == 3
    assert make_group("Sigma2").presentation.relators == ((1, 2, -1, -2, 3, 4, -3, -4),)
    assert make_group("Klein").presentation.relators == ((1, 2, 1, -2),)
    assert make_group("T11a:3").generator_count == 6
    assert make_group("T11b:2").presentation.relators == ((1, 1, 2, 2),)
    with pytest.raises(SpecParseError):
        make_group("Banana")


def test_parameter_validation():
    with pytest.raises(SpecParseError):
        surface_group(1)
    with pytest.raises(SpecParseError):
        orientable_type(0)
    with pytest.raises(SpecParseError):
        nonorientable_type(1)
    with pytest.raises(SpecParseError):
        Presentation(2, ((1, -1),))   # not freely reduced
    with pytest.raises(SpecParseError):
        Presentation(2, ((),))        # empty relator
    with pytest.raises(SpecParseError):
        Presentation(1, ((2,),))      # letter out of range
    with pytest.raises(SpecParseError):
        Presentation(2, ((1, 1.5, -1),))   # a letter that is not an integer
    with pytest.raises(SpecParseError):
        Presentation(2, ((1, "b", -1),))
    with pytest.raises(SpecParseError):
        Presentation(2, (5,))              # a relator that is not a sequence


def test_free_group_basics():
    f2 = free_group(2)
    a = f2.letter(1)
    assert f2.multiply(a, f2.invert(a)) == f2.identity()
    assert not f2.is_identity(f2.evaluate(word_from_string("a*b*a^-1*b^-1")))
    assert f2.evaluate((1, -1)) == f2.identity()


def test_free_abelian_basics():
    z2 = free_abelian(2)
    assert z2.multiply((1, 0), (0, 1)) == (1, 1)
    assert z2.is_identity(z2.evaluate((1, 2, -1, -2)))
    assert z2.as_word((2, -1)) == (1, 1, -2)


def test_ball_sizes():
    f2 = free_group(2)
    assert len(ball(f2, 1)) == 5
    assert len(ball(f2, 2)) == 17
    z2 = free_abelian(2)
    assert len(ball(z2, 2)) == 13
    s2 = surface_group(2)
    assert len(ball(s2, 1)) == 9


# Cannon's growth series for closed surface groups (Floyd-Plotnick 1987)
CANNON_SPHERE_SIZES = {
    "Sigma2": [1, 8, 56, 392, 2736, 19096],
    "T11a:3": [1, 12, 132, 1452, 15972],
}


@pytest.mark.parametrize("spec", sorted(CANNON_SPHERE_SIZES))
def test_sphere_sizes_match_cannon_growth_series(spec):
    expected = CANNON_SPHERE_SIZES[spec]
    elements = ball(make_group(spec), len(expected) - 1)
    sizes = [0] * len(expected)
    for _, d in elements:
        sizes[d] += 1
    assert sizes == expected


def test_free_sphere_sizes_formula():
    # spheres of the free group of rank n have size 2n (2n-1)^(r-1)
    for n in (2, 3):
        fn = free_group(n)
        elements = ball(fn, 3)
        for r in (1, 2, 3):
            sphere = [g for g, d in elements if d == r]
            assert len(sphere) == 2 * n * (2 * n - 1) ** (r - 1)


def test_ball_monotone_and_budget(monkeypatch):
    z2 = free_abelian(2)
    sizes = [len(ball(z2, r)) for r in range(5)]
    assert sizes == sorted(sizes)
    monkeypatch.setenv("PDFILL_BUDGET", "100")
    with pytest.raises(BudgetError) as err:
        ball(free_group(2), 8)
    assert err.value.attained_radius is not None


def test_surface_relator_trivial_and_dehn_reduction():
    s2 = surface_group(2)
    relator = s2.presentation.relators[0]
    assert s2.is_identity(s2.evaluate(relator))
    assert not s2.is_identity(s2.letter(1))
    # r * r^-1 collapses
    assert s2.canonical(relator + invert_word(relator)) == ()


@pytest.mark.parametrize("spec", ["Sigma2", "T11a:3", "T11b:3", "T11b:4"])
def test_dehn_canonical_relator_insertion_invariance(spec):
    # inserting a relator conjugate anywhere must not change the canonical form
    oracle = make_group(spec)
    rng = random.Random(7)
    letters = all_letters(oracle)
    conjugates = [word for _, word in oracle.presentation.conjugates]
    for _ in range(800):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 10)))
        pos = rng.randint(0, len(word))
        rho = rng.choice(conjugates)
        assert oracle.canonical(word[:pos] + rho + word[pos:]) == oracle.canonical(word)
    for _ in range(200):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        assert oracle.canonical(word + invert_word(word)) == ()


def common_prefix_length(u, v):
    n = 0
    while n < min(len(u), len(v)) and u[n] == v[n]:
        n += 1
    return n


def naive_dehn_reduce(word, relator):
    """Dehn's algorithm with no probe tables: at every position try every
    rotation of the relator and its inverse, and replace a match longer
    than half the relator by the inverse of the rest of that rotation."""
    rotations = [
        base[shift:] + base[:shift]
        for base in (relator, invert_word(relator))
        for shift in range(len(relator))
    ]
    word = free_reduce(word)
    while True:
        for start, rotation in product(range(len(word)), rotations):
            matched = common_prefix_length(word[start:], rotation)
            if 2 * matched > len(rotation):
                word = free_reduce(
                    word[:start] + invert_word(rotation[matched:]) + word[start + matched:]
                )
                break
        else:
            return word


def test_sigma2_ball_against_pairwise_dehn_dedup():
    # independent enumeration: dedup spheres by raw Dehn identity tests only
    s2 = surface_group(2)
    relator = s2.presentation.relators[0]

    def equal(u, v):
        return naive_dehn_reduce(u + invert_word(v), relator) == ()

    elements = [()]
    sphere = [()]
    for _ in range(2):
        frontier = []
        for g in sphere:
            for letter in all_letters(s2):
                h = naive_dehn_reduce(g + (letter,), relator)
                if any(equal(h, e) for e in elements + frontier):
                    continue
                frontier.append(h)
        elements.extend(frontier)
        sphere = frontier
    assert len(elements) == len(ball(s2, 2)) == 65


def test_dehn_canonical_of_a_long_relator_power_is_iterative():
    # 1,200 shortenings in a row: a canonical form that recursed once per
    # shortening would overflow the interpreter stack here
    s2 = surface_group(2)
    relator = s2.presentation.relators[0]
    assert s2.canonical(relator * 1200) == ()


def test_dehn_oracle_needs_exactly_one_relator():
    # the half-swap closure is proved for one relator; two relators of
    # different lengths would also need two half lengths
    sigma2 = surface_group(2).presentation.relators[0]
    two = Presentation(4, (sigma2, (1, 1, 1, 2, 2, 2)))
    with pytest.raises(SpecParseError):
        groups.DehnOracle("two", two)
    with pytest.raises(SpecParseError):
        groups.DehnOracle("none", Presentation(4, ()))


def test_klein_model():
    k = klein_bottle()
    assert k.evaluate(k.presentation.relators[0]) == k.identity()
    a, b = k.letter(1), k.letter(2)
    # b a b^-1 = a^-1
    conj = k.multiply(k.multiply(b, a), k.invert(b))
    assert conj == k.invert(a)
    assert k.as_word((2, -3)) == (1, 1, -2, -2, -2)
    assert k.evaluate(k.as_word((2, -3))) == (2, -3)


def test_squares_model_matches_presentation():
    t = nonorientable_type(2)
    g1, g2 = t.letter(1), t.letter(2)
    square = t.multiply(t.multiply(g1, g1), t.multiply(g2, g2))
    assert t.is_identity(square)
    rng = random.Random(3)
    for _ in range(200):
        g = random_element(t, rng)
        assert t.evaluate(t.as_word(g)) == g


def test_squares_distance_table_is_bounded():
    t = nonorientable_type(2)
    assert t.word_length((3, 4)) == 6
    # (400, 0) lies at radius 800, past the radius-316 sphere where the
    # table passes the budget; unbounded, the table would reach 1.28M entries
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        t.word_length((400, 0))
    assert time.perf_counter() - start < 10
    radius = err.value.attained_radius
    assert radius is not None and f"radius {radius}" in str(err.value)
    assert DEFAULT_BALL_BUDGET < len(t._words.entries) <= DEFAULT_BALL_BUDGET + 8 * (radius + 1)
    # the table stays whole: distances inside it still answer
    assert t.word_length((100, 0)) == 200
    assert t.word_length((3, 4)) == 6


def c6_oracles():
    return [
        finite_table(cyclic_table(6), generators=gens, name="C6")
        for gens in ([1], [2, 3], [0, 1])
    ]


every_oracle = pytest.mark.parametrize(
    "oracle",
    [make_group(spec) for spec in builtin_group_specs()] + c6_oracles(),
    ids=builtin_group_specs() + ["C6[1]", "C6[2,3]", "C6[0,1]"],
)


@every_oracle
def test_as_word_is_a_reduced_geodesic(oracle):
    # every oracle spells each element by a freely reduced word of the
    # element's length that evaluates back to it; ball distances come from
    # multiplication alone, so they check word_length independently
    radius = 3 if oracle.generator_count > 4 else 5
    for g, distance in ball(oracle, radius):
        word = oracle.as_word(g)
        assert free_reduce(word) == word
        assert len(word) == oracle.word_length(g) == distance
        assert oracle.evaluate(word) == g


def test_finite_table_oracle():
    z6 = finite_table(cyclic_table(6), generators=[1], name="C6")
    assert z6.identity() == 0
    assert z6.multiply(4, 5) == 3
    assert z6.invert(2) == 4
    assert len(ball(z6, 3)) == 6
    assert z6.evaluate(z6.as_word(5)) == 5
    with pytest.raises(SpecParseError):
        finite_table([[0, 1], [1, 1]])


@pytest.mark.parametrize("generators", [[-1], [6], [7], [1, -2]])
def test_finite_table_rejects_generators_outside_the_table(generators):
    # Python reads row -1 as the last row; none of these is an element
    with pytest.raises(SpecParseError):
        finite_table(cyclic_table(6), generators)


@every_oracle
def test_letters_are_ordered_inverse_pairs(oracle):
    m = oracle.generator_count
    assert list(oracle.letters) == [s for i in range(1, m + 1) for s in (i, -i)]
    for i in range(1, m + 1):
        assert oracle.is_identity(oracle.multiply(oracle.letter(i), oracle.letter(-i)))


@every_oracle
def test_out_of_range_letters_are_spec_errors(oracle):
    m = oracle.generator_count
    for letter in (0, m + 1, -(m + 1)):
        with pytest.raises(SpecParseError):
            oracle.letter(letter)


def test_letter_images_are_pinned():
    assert free_abelian(3).letter(-2) == (0, -1, 0)
    assert klein_bottle().letter(-2) == (0, -1)
    squares = nonorientable_type(2)
    assert squares.letter(1) == (1, 1)
    assert squares.letter(-2) == (0, 1)


def test_unknown_generator_in_element_text_is_a_spec_error():
    with pytest.raises(SpecParseError):
        parse_element("c", INTEGERS, klein_bottle())


def test_klein_closed_form_matches_word_table():
    # a^m b^n is right only for the normal-form generators; the
    # breadth-first table is right for any images
    k = klein_bottle()
    elements = ball(k, 8)
    assert len(elements) == 145
    for g, _ in elements:
        assert k.as_word(g) == GroupOracle.as_word(k, g)
        assert k.word_length(g) == GroupOracle.word_length(k, g)


@pytest.mark.parametrize(
    "spec, words",
    [
        ("T11b:2", {
            (0, 0): (), (0, -1): (2,), (0, 1): (-2,), (1, -1): (-1,), (1, 1): (1,),
            (-1, -2): (2, -1), (-1, 0): (2, 1), (-1, 2): (-2, 1), (0, -2): (-1, -1),
            (0, 2): (1, 1), (1, -2): (-1, 2), (1, 0): (1, 2), (1, 2): (1, -2),
        }),
        ("C6", {0: (), 1: (1,), 5: (-1,), 2: (1, 1), 4: (-1, -1)}),
    ],
)
def test_word_table_adds_no_attribute_once_read(spec, words):
    # an attribute added after construction takes CPython's instance dict
    # off its fast path, so the oracle makes its word table as it is made
    oracle = c6_oracles()[0] if spec == "C6" else make_group(spec)
    attributes = set(vars(oracle))
    assert {g: oracle.as_word(g) for g, _ in ball(oracle, 2)} == words
    assert [oracle.word_length(g) for g in words] == [len(w) for w in words.values()]
    assert set(vars(oracle)) == attributes


@pytest.mark.parametrize("spec", builtin_group_specs())
def test_group_axioms_randomized(spec):
    oracle = make_group(spec)
    rng = random.Random(5)
    for _ in range(60):
        g, h, k = (random_element(oracle, rng, 6) for _ in range(3))
        assert oracle.multiply(oracle.multiply(g, h), k) == oracle.multiply(
            g, oracle.multiply(h, k)
        )
        assert oracle.is_identity(oracle.multiply(g, oracle.invert(g)))
        # x == y iff is_identity(x y^-1)
        assert (g == h) == oracle.is_identity(
            oracle.multiply(g, oracle.invert(h))
        )
        assert oracle.evaluate(oracle.as_word(g)) == g


@pytest.mark.parametrize("spec", builtin_group_specs())
def test_word_length_is_a_metric_at_desk_scale(spec):
    oracle = make_group(spec)
    for g, d in ball(oracle, 3):
        assert oracle.word_length(g) == d


def assert_steps_match_multiplication(oracle, radius):
    """The ball's step table is every product inside it, keyed 1, -1, 2, -2, ..."""
    elements = ball(oracle, radius)
    vertices = [g for g, _ in elements]
    index = {g: i for i, g in enumerate(vertices)}
    m = oracle.generator_count
    letters = [letter for gen in range(1, m + 1) for letter in (gen, -gen)]
    assert list(elements.steps) == letters
    assert all(len(column) == len(vertices) for column in elements.steps.values())
    steps = step_items(elements.steps)
    for i, g in enumerate(vertices):
        expected = {}
        for letter in letters:
            j = index.get(oracle.multiply(g, oracle.letter(letter)))
            assert steps[i].get(letter) == j
            if j is not None:
                expected[letter] = j
        # no stray keys, and iteration runs 1, -1, 2, -2, ...
        assert list(steps[i].items()) == list(expected.items())


@pytest.mark.parametrize("spec", builtin_group_specs() + ["C6"])
def test_cayley_steps_match_multiplication(spec):
    if spec == "C6":
        # all five generators and no presentation: the outer sphere is
        # multiplied too, since steps can join two elements of one sphere
        oracle, radius = finite_table(cyclic_table(6)), 2
    else:
        oracle, radius = make_group(spec), 3
    assert_steps_match_multiplication(oracle, radius)


@pytest.mark.parametrize("generators", [[1], [3], [2, 3], [0, 1]])
def test_cayley_steps_on_cyclic_tables(generators):
    # an involution (3) gives two letters for one step; 0 is a self-loop
    for radius in range(4):
        assert_steps_match_multiplication(
            finite_table(cyclic_table(6), generators=generators), radius
        )


@pytest.mark.parametrize("spec", builtin_group_specs())
def test_every_step_changes_word_length_by_one(spec):
    # every builtin relator has even length, so no step stays in a sphere:
    # the reason the ball never multiplies its outer sphere
    oracle = make_group(spec)
    assert all(len(rel) % 2 == 0 for rel in oracle.presentation.relators)
    elements = ball(oracle, 4)
    lengths = [oracle.word_length(g) for g, _ in elements]
    assert lengths == [d for _, d in elements]
    for i, step in enumerate(step_items(elements.steps)):
        assert step
        for j in step.values():
            assert abs(lengths[j] - lengths[i]) == 1


def shortlex(word):
    # written out apart from words.shortlex_key: length, then a < a^-1 < b < b^-1 < ...
    return len(word), [2 * abs(letter) + (letter < 0) for letter in word]


@pytest.mark.parametrize(
    "spec, radius",
    [("Sigma2", 5), ("F2", 8), ("T11a:3", 3), ("T11b:3", 5), ("T11b:4", 4)],
)
def test_shortlex_balls_grow_sorted_spheres(spec, radius):
    # these oracles skip the sphere sort, so the order of discovery must
    # already be shortlex
    oracle = make_group(spec)
    assert oracle.shortlex_spheres
    elements = ball(oracle, radius)
    distances = [d for _, d in elements]
    assert distances == sorted(distances)
    for r in range(radius + 1):
        sphere = [g for g, d in elements if d == r]
        assert sphere == sorted(sphere, key=shortlex)


# sha256 of the (element, distance) pairs and the step items, as grown
# when every sphere was sorted by its canonical key and each product was
# looked up again once its sphere was complete.  Sigma2 and T11b:4 skip the
# sort; the others index each sphere in order of discovery and are sorted
# once at the end
BALL_DIGESTS = {
    ("Sigma2", 5): "178d68574ed822789e4a5b442f832543faf1a945752ba9f2f3fe1f8b9007aaaa",
    ("T11b:4", 4): "d8a6702af5b6503c7efa9163a9aead12989a172d1d874d59710cc175023cdc1b",
    ("Z^3", 4): "16fd37ae9ef317cac7bc44f9f8f47bd423508c02afa2f94b5ad6c790557c413b",
    ("Klein", 6): "a48b5b46cee8bc621fd43b8874429aee6415a13ee5dcab6c90285789c94b634a",
    ("T11b:2", 5): "9dc4b69ced13707087ff7019c849d0736563345fa91d35eff3b6b3bc2522232a",
    ("C12 by 2, 3", 3): "68c1bb62d17cfc68deef8671621c1fb20f6d1063006996d681eb8b34ebf22468",
}


@pytest.mark.parametrize("spec, radius", sorted(BALL_DIGESTS))
def test_ball_and_steps_match_pinned_digest(spec, radius):
    if spec == "C12 by 2, 3":
        oracle = finite_table(cyclic_table(12), [2, 3])
    else:
        oracle = make_group(spec)
    elements = ball(oracle, radius)
    steps = step_items(elements.steps)
    text = repr((list(elements), [list(step.items()) for step in steps]))
    assert hashlib.sha256(text.encode()).hexdigest() == BALL_DIGESTS[spec, radius]


# each step is formed from one end only, so these fell from 312 and 4,189
# when a step already written from its far end stopped being formed again.
# F2 forms every element by extension, with no product
BUDGET_MULTIPLY_CALLS = {"Sigma2": 301, "Z^3": 2_474, "F2": 0}


@pytest.mark.parametrize(
    "spec, radius, budget, products, attained",
    [
        ("Sigma2", 7, 30_000, 34_382, 5),
        ("Z^3", 20, 1_000, 4_189, 8),
        ("F2", 10, 30_000, 30_000, 8),
    ],
)
def test_ball_budget_fires_on_the_first_element_past_it(
    monkeypatch, spec, radius, budget, products, attained
):
    # products: how many products a ball that checks the budget on every
    # new element forms before it raises; BUDGET_MULTIPLY_CALLS: how many of
    # them go through multiply.  Sigma2 extends most words with no product,
    # yet a ball that formed the rest of sphere 6 before it checked would
    # still make more calls
    oracle = make_group(spec)
    calls = counting_multiply(oracle)
    monkeypatch.setenv("PDFILL_BUDGET", str(budget))
    with pytest.raises(BudgetError) as err:
        ball(oracle, radius)
    assert calls[0] <= products
    assert calls[0] == BUDGET_MULTIPLY_CALLS[spec]
    assert err.value.attained_radius == attained
    assert str(err.value) == (
        f"ball of {spec} exceeded budget {budget} at radius {attained + 1} "
        f"(previous radius {attained} complete)"
    )


@pytest.mark.parametrize(
    "spec, radius, edges",
    [("Z^2", 6, 144), ("Z^3", 4, 264), ("Klein", 6, 144), ("T11b:2", 5, 100)],
)
def test_ball_multiplies_once_per_edge(spec, radius, edges):
    # every step of these balls is a product, and each is formed from one
    # end only: the step back from the other end is written with it
    oracle = make_group(spec)
    calls = counting_multiply(oracle)
    ball(oracle, radius)
    assert calls[0] == build_ball_complex(make_group(spec), radius).edge_count == edges


def ball_of_products(oracle, radius):
    """``ball``'s (element, distance) pairs and step rows, with every
    element and step formed by ``multiply`` and each sphere sorted here."""
    letters = list(oracle.letters)
    key = shortlex if oracle.shortlex_spheres else oracle.sort_key
    elements = [(oracle.identity(), 0)]
    index = {oracle.identity(): 0}
    sphere = [oracle.identity()]
    for r in range(1, radius + 1):
        products = {oracle.multiply(g, oracle.letter(s)) for g in sphere for s in letters}
        sphere = sorted(products - index.keys(), key=key)
        for g in sphere:
            index[g] = len(elements)
            elements.append((g, r))
    rows = [
        {s: index[h] for s in letters if (h := oracle.multiply(g, oracle.letter(s))) in index}
        for g, _ in elements
    ]
    return elements, rows


@pytest.mark.parametrize(
    "spec, radius",
    [("F2", 9), ("Sigma2", 5), ("T11a:2", 5), ("T11a:3", 4), ("T11b:3", 6), ("T11b:4", 5)],
)
def test_ball_extensions_match_a_ball_of_products(spec, radius):
    # ball forms most words by extending a word with no half-relator by one
    # letter; the reference multiplies every product, on a fresh oracle
    elements = ball(make_group(spec), radius)
    expected = ball_of_products(make_group(spec), radius)
    assert (list(elements), step_items(elements.steps)) == expected


class NoCleanStep(dict):
    """An automaton whose every row sends every letter to -1."""

    def __init__(self, width):
        super().__init__()
        self.width = width

    def __missing__(self, state):
        return [-1] * self.width


@pytest.mark.parametrize("spec, radius", [("F2", 7), ("Sigma2", 4), ("T11b:3", 5)])
def test_ball_reads_every_product_through_the_steps(spec, radius):
    # with no clean step, every step goes through multiply, and each
    # product that is not g s itself is found by reading its word
    oracle = make_group(spec)
    oracle.automaton = NoCleanStep(2 * oracle.generator_count + 1)
    calls = counting_multiply(oracle)
    elements = ball(oracle, radius)
    assert (list(elements), step_items(elements.steps)) == ball_of_products(
        make_group(spec), radius
    )
    assert calls[0] == build_ball_complex(make_group(spec), radius).edge_count


@pytest.mark.parametrize("spec, radius", [("Sigma2", 4), ("T11b:3", 4)])
def test_ball_rejects_a_product_that_is_not_shortlex_least(spec, radius):
    # the greatest word of the product's swap closure: a geodesic of the
    # same element, so the ball is whole only if the read catches it
    oracle = make_group(spec)
    multiply = oracle.multiply

    def greatest(g, h):
        seen, _ = oracle._swap_closure(multiply(g, h))
        return max(seen, key=shortlex)

    oracle.multiply = greatest
    with pytest.raises(InvariantError, match="is not the canonical word of its element"):
        ball(oracle, radius)


def test_ball_keeps_no_element_index_for_a_dehn_group():
    # an index of the 22,289 words took 2.2 MB on top of what the ball
    # keeps; reading products through the steps needs about 0.35 MB
    oracle = make_group("Sigma2")
    tracemalloc.start()
    try:
        elements = ball(oracle, 5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(elements) == 22_289
    assert peak - kept < 500_000


@pytest.mark.parametrize("generators", [None, [2, 3], [1], [3]])
def test_ball_without_a_presentation_matches_a_ball_of_products(generators):
    # no presentation, so one more pass over the outer sphere writes the
    # steps that stay in it: it looks each product up and forms no element
    for radius in range(4):
        elements = ball(finite_table(cyclic_table(6), generators), radius)
        expected = ball_of_products(finite_table(cyclic_table(6), generators), radius)
        assert (list(elements), step_items(elements.steps)) == expected


AUTOMATON_SPECS = ["Sigma2", "Sigma3", "T11a:3", "T11b:3", "T11b:4"]


def half_rich_words(oracle):
    """Words of single letters and pieces of relator conjugates, so halves
    and their prefixes turn up often, and next to each other."""
    conjugates = [word for _, word in oracle.presentation.conjugates]
    length = len(conjugates[0])
    piece = st.one_of(
        st.sampled_from(list(oracle.letters)).map(lambda s: (s,)),
        st.tuples(
            st.sampled_from(conjugates), st.integers(0, length), st.integers(0, length)
        ).map(lambda drawn: drawn[0][drawn[1]:drawn[2]]),
    )
    return st.lists(piece, max_size=8).map(lambda pieces: sum(pieces, ()))


@pytest.mark.parametrize("spec", AUTOMATON_SPECS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_half_automaton_matches_the_sliced_scan(spec, data):
    # written out apart from the automaton: the halves are the first
    # halves of the relator conjugates, and a state spells the longest
    # suffix of the letters read that is a proper prefix of one of them
    oracle = make_group(spec)
    (relator,) = oracle.presentation.relators
    half = len(relator) // 2
    halves = {word[:half] for _, word in oracle.presentation.conjugates}
    prefixes = {h[:k] for h in halves for k in range(half)}
    automaton = oracle.automaton
    word = data.draw(half_rich_words(oracle))
    state = 0
    for end in range(1, len(word) + 1):
        state = automaton[state][word[end - 1]]
        read = word[:end]
        # -1 exactly where the last window of the letters read is a half
        assert (state < 0) == (read[-half:] in halves)
        if state < 0:
            break
        longest = next(read[k:] for k in range(end + 1) if read[k:] in prefixes)
        assert automaton.suffixes[state] == longest


def test_half_automaton_builds_rows_as_they_are_read():
    # make_group builds no row and knows only the empty suffix
    s2 = make_group("Sigma2")
    assert (len(s2.automaton), s2.automaton.suffixes) == (0, [()])
    ball(s2, 2)
    assert (len(s2.automaton), len(s2.automaton.suffixes)) == (9, 25)
    ball(s2, 5)
    assert (len(s2.automaton), len(s2.automaton.suffixes)) == (41, 41)
    assert not make_group("Sigma6").automaton
    # a free group has no halves: one state, which every letter keeps
    f2 = make_group("F2")
    ball(f2, 3)
    assert f2.automaton == {0: [0] * 5}


@pytest.mark.parametrize("spec", AUTOMATON_SPECS + ["Sigma6"])
def test_half_automaton_states_stay_within_the_bound(spec):
    # every row built: each state is a proper prefix of some conjugate's
    # first half, so there are at most 1 + conjugates × (half - 1)
    oracle = make_group(spec)
    automaton = oracle.automaton
    for state, _ in enumerate(automaton.suffixes):    # grows as rows are built
        automaton[state]
    bound = 1 + len(oracle.presentation.conjugates) * (automaton.half - 1)
    assert len(automaton) == len(automaton.suffixes) <= bound


def test_high_genus_group_builds_rows_for_balls_only():
    # Sigma80's halves are 640 words of 160 letters: their proper prefixes
    # would spell about 8M letters, 64 MB of references, where the
    # conjugate table holds 204,800.  Read through the rows, the first 200
    # letters of its relator would build about 160^2 / 2 of them, each of
    # 321 entries, as each state fails to its own suffix
    tracemalloc.start()
    try:
        oracle = make_group("Sigma80")
        relator = oracle.presentation.relators[0]
        assert oracle.canonical(relator[:200]) != relator[:200]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    assert not oracle.automaton


def closure_canonical(oracle, word):
    # the bare closure, restarted from each shorter word, with no cache
    word = free_reduce(word)
    while True:
        seen, shorter = oracle._swap_closure(word)
        if shorter is None:
            return min(seen, key=shortlex)
        word = shorter


@pytest.mark.parametrize("spec", ["Sigma2", "T11b:3"])
def test_canonical_forms_match_the_bare_closure(spec):
    # a word with no half-relator subword skips the closure; every window
    # of it is probed, the first and the last included
    oracle = make_group(spec)
    letters = all_letters(oracle)
    words = frontier = [()]
    for _ in range(5):
        frontier = [w + (s,) for w in frontier for s in letters if not w or w[-1] != -s]
        words = words + frontier
    rng = random.Random(17)
    words += [
        tuple(rng.choice(letters) for _ in range(rng.randint(0, 14))) for _ in range(2000)
    ]
    for w in words:
        assert oracle.canonical(w) == closure_canonical(oracle, w)


@pytest.mark.parametrize(
    "word, form",
    [("a*b*a^-1*b^-1*c", "d*c*d^-1"), ("a*b*a^-1*b^-1*c*d*c^-1*d^-1*a*a", "a^2")],
)
def test_half_relator_before_the_last_window_is_swapped(word, form):
    oracle = make_group("Sigma2")
    assert oracle.canonical(word_from_string(word)) == word_from_string(form)


@pytest.mark.parametrize("spec, radius", [("Sigma2", 4), ("T11b:3", 4), ("T11a:3", 3)])
def test_dehn_products_match_canonical_forms(spec, radius):
    # multiply cancels only at the seam and reads the cache first; the
    # reference reduces the whole word, with a cache no product has filled
    oracle = make_group(spec)
    reference = make_group(spec)
    elements = [g for g, _ in ball(oracle, radius)]
    for g in elements:
        for letter in all_letters(oracle):
            assert oracle.multiply(g, (letter,)) == reference.canonical(g + (letter,))
    rng = random.Random(5)
    for _ in range(500):
        g, h = rng.choice(elements), rng.choice(elements)
        assert oracle.multiply(g, h) == reference.canonical(g + h)


def test_join_reduced_is_free_reduction_of_reduced_words():
    words = [g for g, _ in ball(free_group(2), 3)]
    for u in words:
        for v in words:
            assert join_reduced(u, v) == free_reduce(u + v)


def test_canonical_cache_limit_changes_no_form(monkeypatch):
    limit = 200
    words = {}
    for spec in ("Sigma2", "T11b:3"):
        rng = random.Random(11)
        m = make_group(spec).generator_count
        words[spec] = [
            tuple(rng.choice([1, -1]) * rng.randint(1, m) for _ in range(rng.randint(0, 14)))
            for _ in range(1500)
        ]
    # each reference form from a fresh oracle, so from an empty cache
    unbounded = {spec: [make_group(spec).canonical(w) for w in ws] for spec, ws in words.items()}

    closures = [0]
    swap_closure = groups.DehnOracle._swap_closure

    def recording(self, word):
        seen, shorter = swap_closure(self, word)
        if seen is not None:
            closures[0] = max(closures[0], len(seen))
        return seen, shorter

    monkeypatch.setattr(groups, "CANONICAL_CACHE_LIMIT", limit)
    monkeypatch.setattr(groups.DehnOracle, "_swap_closure", recording)
    for spec, ws in words.items():
        oracle = make_group(spec)
        cache = oracle._canonical_cache
        sizes = []
        for w, expected in zip(ws, unbounded[spec]):
            assert oracle.canonical(w) == expected
            sizes.append(len(cache))
        assert max(sizes) <= limit + closures[0]
        # emptied more than once along the way
        assert sum(1 for a, b in zip(sizes, sizes[1:]) if b < a) > 1


def test_current_budget_reads_the_variable(monkeypatch):
    assert current_budget() == DEFAULT_BALL_BUDGET
    monkeypatch.setenv("PDFILL_BUDGET", "12")
    assert current_budget() == 12
    for raw in ("abc", "0", "-5", ""):
        monkeypatch.setenv("PDFILL_BUDGET", raw)
        with pytest.raises(SpecParseError, match="PDFILL_BUDGET must be a positive integer"):
            current_budget()


def test_conjugate_table_is_bounded_before_it_is_built(monkeypatch):
    # Sigma1000's relator has 4,000 letters: its table would hold 32M
    # letters and take about 1 GB; 5M letters is the bound at the default
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="conjugate table of 32000000 letters exceeded 5000000"):
            make_group("Sigma1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    # T11b:n holds 8 n^2 letters: 24,200 for n = 55 and 25,088 for n = 56
    monkeypatch.setenv("PDFILL_BUDGET", "1000")
    assert len(make_group("T11b:55").presentation.conjugates) == 2 * 110
    with pytest.raises(BudgetError, match=r"exceeded 25000 \(25 letters per unit of budget 1000\)"):
        make_group("T11b:56")


def scoped_nodes(tree):
    """Each node of ``tree`` with the names of the functions around it."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope += (getattr(node, "name", "<lambda>"),)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def test_the_budget_is_read_in_one_place():
    # no search takes the budget as a parameter; each reads the one
    # function that reads the environment
    parameters, reads = [], set()
    for path in sorted(Path(groups.__file__).parent.glob("*.py")):
        for node, scope in scoped_nodes(ast.parse(path.read_text())):
            where = (path.stem, *scope)
            if isinstance(node, ast.arg) and node.arg == "budget":
                parameters.append(where)
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
                reads.add(where)
            if isinstance(node, ast.alias) and node.name in ("environ", "environb", "getenv"):
                reads.add(where)
    assert parameters == []
    assert reads == {("groups", "current_budget")}
