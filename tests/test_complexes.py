import itertools
import random

import pytest

from pdfill import (
    INTEGERS,
    RATIONALS,
    Character,
    GroupRingElement,
    GroupRingMatrix,
    builtin_group_specs,
    free_group,
    klein_bottle,
    make_group,
    residue_ring,
)
from pdfill.complexes import ChainComplex, fox_derivatives_all, presentation_complex
from pdfill.errors import NotAFieldError, SpecParseError

RINGS = [INTEGERS, RATIONALS, residue_ring(2), residue_ring(5)]


def monomial(group, word, ring=INTEGERS):
    return GroupRingElement.monomial(ring, group, group.evaluate(word))


def test_fox_derivative_base_cases():
    f2 = free_group(2)
    one = GroupRingElement.one(INTEGERS, f2)
    assert fox_derivatives_all(INTEGERS, f2, (1,))[0] == one
    assert fox_derivatives_all(INTEGERS, f2, (2,))[0].is_zero()
    assert fox_derivatives_all(INTEGERS, f2, (-1,))[0] == -monomial(f2, (-1,))


def test_fox_derivative_commutator():
    f2 = free_group(2)
    one = GroupRingElement.one(INTEGERS, f2)
    # d(a b a^-1 b^-1)/da = 1 - a b a^-1
    assert fox_derivatives_all(INTEGERS, f2, (1, 2, -1, -2))[0] == one - monomial(
        f2, (1, 2, -1)
    )


@pytest.mark.parametrize("spec", builtin_group_specs())
def test_fox_fundamental_identity_randomized(spec):
    # w - 1 = sum_s (dw/ds)(s - 1), exactly, in the group ring of the group
    group = make_group(spec)
    ring = INTEGERS
    one = GroupRingElement.one(ring, group)
    rng = random.Random(17)
    letters = [i for i in range(1, group.generator_count + 1)]
    letters += [-i for i in letters]
    for _ in range(150):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 20)))
        derivatives = fox_derivatives_all(ring, group, word)
        total = GroupRingElement.zero(ring, group)
        for j, derivative in enumerate(derivatives, start=1):
            s = GroupRingElement.monomial(ring, group, group.generator(j))
            total = total + derivative * (s - one)
        assert total == monomial(group, word) - one


@pytest.mark.parametrize("spec", builtin_group_specs())
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_presentation_complex_double_boundary(spec, ring):
    group = make_group(spec)
    complex_ = presentation_complex(group, ring)   # constructor checks dd = 0
    m = group.generator_count
    assert complex_.ranks == (1, m, len(group.presentation.relators))
    complex_.dualize()
    complex_.twist(Character.trivial(ring, m))


def test_presentation_complex_examples():
    s2 = make_group("Sigma2")
    assert presentation_complex(s2, INTEGERS).ranks == (1, 4, 1)
    f2 = free_group(2)
    assert presentation_complex(f2, INTEGERS).ranks == (1, 2, 0)
    k = klein_bottle()
    ck = presentation_complex(k, INTEGERS)
    one = GroupRingElement.one(INTEGERS, k)
    # Jacobian of a b a b^-1: (1 + ab, a - 1); the second term closes up
    # because a b a b^-1 is trivial in the group
    assert ck.differential(2) == GroupRingMatrix.row(
        [one + monomial(k, (1, 2)), monomial(k, (1,)) - one]
    )


def test_dualize_examples():
    s2 = make_group("Sigma2")
    c = presentation_complex(s2, INTEGERS)
    d = c.dualize()
    assert d.ranks == (1, 4, 1)
    assert d.differential(2) == c.differential(1).conjugate_transpose()
    assert d.dualize().differentials == c.differentials

    f2 = free_group(2)
    cf = presentation_complex(f2, INTEGERS)
    df = cf.dualize()
    assert df.ranks == (0, 2, 1)
    one = GroupRingElement.one(INTEGERS, f2)
    expected = GroupRingMatrix.row(
        [one - monomial(f2, (-1,)), one - monomial(f2, (-2,))]
    )
    assert df.differential(2) == expected


def test_twist_complex():
    k = klein_bottle()
    c = presentation_complex(k, INTEGERS)
    rho = Character.parse("a:-1,b:1", INTEGERS, 2)
    one = GroupRingElement.one(INTEGERS, k)
    a, b = monomial(k, (1,)), monomial(k, (2,))
    twisted = c.twist(rho)   # constructor re-checks dd = 0
    assert twisted.differential(1) == GroupRingMatrix.column([one + a, one - b])
    assert twisted.twist(rho.inverse()).differentials == c.differentials
    trivial = Character.trivial(INTEGERS, 2)
    assert c.twist(trivial).differentials == c.differentials
    dual_twisted = c.dualize().twist(rho)
    assert dual_twisted.ranks == (1, 2, 1)


def test_euler_characteristic_examples():
    assert presentation_complex(make_group("Sigma2"), INTEGERS).euler_characteristic() == -2
    assert presentation_complex(make_group("Klein"), INTEGERS).euler_characteristic() == 0
    assert presentation_complex(free_group(2), INTEGERS).euler_characteristic() == -1


def test_euler_invariant_under_dualize():
    for spec in builtin_group_specs():
        c = presentation_complex(make_group(spec), INTEGERS)
        assert c.euler_characteristic() == c.dualize().euler_characteristic()


def test_homology_dimensions_examples():
    s2 = presentation_complex(make_group("Sigma2"), INTEGERS)
    assert s2.homology_dimensions(RATIONALS) == [1, 4, 1]
    k = presentation_complex(make_group("Klein"), INTEGERS)
    dims = k.homology_dimensions(RATIONALS)
    assert dims[0] == 1 and dims[1] >= 1
    f2 = presentation_complex(free_group(2), INTEGERS)
    assert f2.homology_dimensions(RATIONALS) == [1, 2, 0]
    # over the field with two elements the squares vanish and ranks drop
    assert k.homology_dimensions(residue_ring(2)) == [1, 2, 1]


def test_homology_alternating_sum_is_euler():
    for spec in builtin_group_specs():
        c = presentation_complex(make_group(spec), INTEGERS)
        for field in (RATIONALS, residue_ring(2), residue_ring(5)):
            dims = c.homology_dimensions(field)
            assert sum((-1) ** k * d for k, d in enumerate(dims)) == c.euler_characteristic()


def test_homology_rejects_non_fields():
    c = presentation_complex(free_group(2), INTEGERS)
    with pytest.raises(NotAFieldError):
        c.homology_dimensions(residue_ring(4))
    with pytest.raises(NotAFieldError):
        c.homology_dimensions(INTEGERS)
    cq = presentation_complex(free_group(2), residue_ring(3))
    with pytest.raises(NotAFieldError):
        cq.homology_dimensions(residue_ring(5))


def test_complex_serialization():
    c = presentation_complex(klein_bottle(), INTEGERS)
    assert list(c.ranks) == [1, 2, 1]
    assert c.differentials[0].format() == [["1 - a"], ["1 - b"]]


def test_complex_shape_validation():
    f2 = free_group(2)
    one = GroupRingElement.one(INTEGERS, f2)
    with pytest.raises(SpecParseError):
        ChainComplex(INTEGERS, f2, (1, 2), (GroupRingMatrix.row([one]),))


def _rank(entries, cols, field):
    """The rank over ``field`` of an integer matrix, read off homology.

    A one-differential complex from level 1 (one basis element per row) to
    level 0 (one per column) has H_0 of dimension cols - rank.
    """
    f2 = free_group(2)
    identity = f2.identity()
    matrix = GroupRingMatrix(
        INTEGERS,
        f2,
        [
            [GroupRingElement.monomial(INTEGERS, f2, identity, INTEGERS.value(v)) for v in row]
            for row in entries
        ],
        cols=cols,
    )
    complex_ = ChainComplex(INTEGERS, f2, (cols, len(entries)), (matrix,))
    return cols - complex_.homology_dimensions(field)[0]


def _random_matrix(rng, max_rows):
    rows, cols = rng.randint(0, max_rows), rng.randint(0, 5)
    entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    # plant dependencies that a full-rank random draw would rarely show
    if rows >= 2 and rng.random() < 0.3:
        entries[rng.randrange(rows)] = [-v for v in entries[rng.randrange(rows)]]
    if cols and rng.random() < 0.2:
        j = rng.randrange(cols)
        for row in entries:
            row[j] = 0
    return entries, cols


def _row_space_size(entries, cols, p):
    return len(
        {
            tuple(sum(c * row[j] for c, row in zip(combo, entries)) % p for j in range(cols))
            for combo in itertools.product(range(p), repeat=len(entries))
        }
    )


def test_rank_over_q_matches_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(29)
    for _ in range(200):
        entries, cols = _random_matrix(rng, 5)
        expected = (
            int(np.linalg.matrix_rank(np.array(entries, dtype=float)))
            if entries and cols
            else 0
        )
        assert _rank(entries, cols, RATIONALS) == expected, entries


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_over_prime_fields_matches_row_space_count(p):
    rng = random.Random(31 + p)
    for _ in range(150):
        entries, cols = _random_matrix(rng, 4)
        rank = _rank(entries, cols, residue_ring(p))
        assert p**rank == _row_space_size(entries, cols, p), entries


@pytest.mark.parametrize("field", [RATIONALS, residue_ring(2), residue_ring(3)], ids=lambda f: f.name)
def test_rank_of_empty_shapes(field):
    for n in range(4):
        assert _rank([], n, field) == 0
        assert _rank([[] for _ in range(n)], 0, field) == 0


# (Q, Z/2, Z/3) homology of each presentation complex over Z and of its
# dual, as the Fraction and modulus elimination computed them
PINNED_HOMOLOGY = {
    "F2": [((1, 2, 0), (1, 2, 0), (1, 2, 0)), ((0, 2, 1), (0, 2, 1), (0, 2, 1))],
    "Z^2": [((1, 2, 1), (1, 2, 1), (1, 2, 1)), ((1, 2, 1), (1, 2, 1), (1, 2, 1))],
    "Sigma2": [((1, 4, 1), (1, 4, 1), (1, 4, 1)), ((1, 4, 1), (1, 4, 1), (1, 4, 1))],
    "Klein": [((1, 1, 0), (1, 2, 1), (1, 1, 0)), ((0, 1, 1), (1, 2, 1), (0, 1, 1))],
    "T11a:1": [((1, 2, 1), (1, 2, 1), (1, 2, 1)), ((1, 2, 1), (1, 2, 1), (1, 2, 1))],
    "T11a:2": [((1, 4, 1), (1, 4, 1), (1, 4, 1)), ((1, 4, 1), (1, 4, 1), (1, 4, 1))],
    "T11a:3": [((1, 6, 1), (1, 6, 1), (1, 6, 1)), ((1, 6, 1), (1, 6, 1), (1, 6, 1))],
    "T11b:2": [((1, 1, 0), (1, 2, 1), (1, 1, 0)), ((0, 1, 1), (1, 2, 1), (0, 1, 1))],
    "T11b:3": [((1, 2, 0), (1, 3, 1), (1, 2, 0)), ((0, 2, 1), (1, 3, 1), (0, 2, 1))],
    "T11b:4": [((1, 3, 0), (1, 4, 1), (1, 3, 0)), ((0, 3, 1), (1, 4, 1), (0, 3, 1))],
}


@pytest.mark.parametrize("spec", builtin_group_specs())
def test_homology_dimensions_pinned(spec):
    c = presentation_complex(make_group(spec), INTEGERS)
    measured = [
        tuple(
            tuple(complex_.homology_dimensions(field))
            for field in (RATIONALS, residue_ring(2), residue_ring(3))
        )
        for complex_ in (c, c.dualize())
    ]
    assert measured == PINNED_HOMOLOGY[spec]
