import random

import pytest

from pdfill import (
    INTEGERS,
    QUATERNIONS,
    RATIONALS,
    Character,
    GroupRingElement,
    GroupRingMatrix,
    cyclic_table,
    finite_table,
    free_abelian,
    free_group,
    klein_bottle,
    make_group,
    parse_element,
    residue_ring,
    surface_group,
)
from pdfill.errors import (
    GroupMismatchError,
    InvalidCharacterError,
    RingMismatchError,
    SpecParseError,
    UnsupportedTwistError,
)


def gens(ring, group):
    one = GroupRingElement.one(ring, group)
    images = [
        GroupRingElement.monomial(ring, group, group.generator(i))
        for i in range(1, group.generator_count + 1)
    ]
    return one, images


def random_element(ring, group, rng, terms=4, max_len=5):
    letters = [i for i in range(1, group.generator_count + 1)]
    letters += [-i for i in letters]
    picks = []
    for _ in range(rng.randint(0, terms)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        picks.append((group.evaluate(word), ring.sample(rng)))
    return GroupRingElement(ring, group, picks)


def test_support_norm_examples():
    f2 = free_group(2)
    one, (a, b) = gens(INTEGERS, f2)
    zero = GroupRingElement.zero(INTEGERS, f2)
    assert zero.support_norm() == 0
    x = one + a + b.scale(INTEGERS.value(2))
    assert x.support_norm() == 3
    # a zero coefficient is dropped: 2g over Z/2 vanishes
    z2 = residue_ring(2)
    g = GroupRingElement.monomial(z2, f2, f2.generator(1), z2.value(2))
    assert g.support_norm() == 0 and g.is_zero()


def test_matrix_norm_examples():
    f2 = free_group(2)
    one, (a, b) = gens(INTEGERS, f2)
    zero2 = GroupRingMatrix.zero(INTEGERS, f2, 2, 2)
    assert zero2.support_norm() == 0
    column = GroupRingMatrix.column([one - a, one - b])
    assert column.support_norm() == 4
    assert (one - one).support_norm() == 0


def test_product_examples():
    f2 = free_group(2)
    one, (a, b) = gens(INTEGERS, f2)
    a2 = GroupRingElement.monomial(INTEGERS, f2, f2.evaluate((1, 1)))
    assert (one - a) * (one + a) == one - a2
    x = random_element(INTEGERS, f2, random.Random(1))
    assert x * one == x
    # (1+t)^2 = 0 over Z/2 of the order-2 group
    c2 = finite_table(cyclic_table(2), generators=[1], name="C2")
    z2 = residue_ring(2)
    t = GroupRingElement.monomial(z2, c2, 1)
    u = GroupRingElement.one(z2, c2) + t
    assert (u * u).is_zero()


def test_involute_examples():
    f2 = free_group(2)
    one, (a, _) = gens(INTEGERS, f2)
    ainv = GroupRingElement.monomial(INTEGERS, f2, f2.letter(-1))
    assert (one - a).involute() == one - ainv
    ig = GroupRingElement.monomial(
        QUATERNIONS, f2, f2.generator(1), QUATERNIONS.value((0, 1, 0, 0))
    )
    expected = GroupRingElement.monomial(
        QUATERNIONS, f2, f2.letter(-1), QUATERNIONS.value((0, -1, 0, 0))
    )
    assert ig.involute() == expected


def test_involution_laws_randomized_including_quaternions():
    rng = random.Random(2)
    f2 = free_group(2)
    for ring in (INTEGERS, QUATERNIONS, residue_ring(4)):
        for _ in range(250):
            x = random_element(ring, f2, rng)
            y = random_element(ring, f2, rng)
            assert x.involute().involute() == x
            assert (x * y).involute() == y.involute() * x.involute()


def test_norm_subadditive_submultiplicative():
    rng = random.Random(3)
    for spec in ("F2", "Z^2", "Sigma2", "Klein"):
        group = make_group(spec)
        for ring in (INTEGERS, residue_ring(2)):
            for _ in range(80):
                x = random_element(ring, group, rng)
                y = random_element(ring, group, rng)
                assert (x + y).support_norm() <= x.support_norm() + y.support_norm()
                assert (x * y).support_norm() <= x.support_norm() * y.support_norm()


def test_matrix_norm_submultiplicative_randomized():
    rng = random.Random(4)
    f2 = free_group(2)
    for _ in range(40):
        a = GroupRingMatrix(
            INTEGERS,
            f2,
            [[random_element(INTEGERS, f2, rng, 2, 3) for _ in range(3)] for _ in range(2)],
        )
        b = GroupRingMatrix(
            INTEGERS,
            f2,
            [[random_element(INTEGERS, f2, rng, 2, 3) for _ in range(2)] for _ in range(3)],
        )
        assert (a @ b).support_norm() <= a.support_norm() * b.support_norm()


def test_conjugate_transpose_examples():
    f2 = free_group(2)
    one, (a, b) = gens(INTEGERS, f2)
    ainv = GroupRingElement.monomial(INTEGERS, f2, f2.letter(-1))
    binv = GroupRingElement.monomial(INTEGERS, f2, f2.letter(-2))
    column = GroupRingMatrix.column([one - a, one - b])
    assert column.conjugate_transpose() == GroupRingMatrix.row([one - ainv, one - binv])
    assert column.conjugate_transpose().conjugate_transpose() == column
    g = GroupRingMatrix.from_rows([[a]])
    assert g.conjugate_transpose() == GroupRingMatrix.from_rows([[ainv]])


def test_conjugate_transpose_contravariant_randomized():
    rng = random.Random(5)
    f2 = free_group(2)
    for ring in (INTEGERS, QUATERNIONS):
        for _ in range(25):
            a = GroupRingMatrix(
                ring,
                f2,
                [[random_element(ring, f2, rng, 2, 3) for _ in range(3)] for _ in range(3)],
            )
            b = GroupRingMatrix(
                ring,
                f2,
                [[random_element(ring, f2, rng, 2, 3) for _ in range(3)] for _ in range(3)],
            )
            assert (a @ b).conjugate_transpose() == (
                b.conjugate_transpose() @ a.conjugate_transpose()
            )


def test_twist_klein_column():
    k = klein_bottle()
    one, (a, b) = gens(INTEGERS, k)
    column = GroupRingMatrix.column([one - a, one - b])
    rho = Character.parse("a:-1,b:1", INTEGERS, 2)
    assert rho.is_valid_on(k.presentation)
    twisted = column.twist(rho)
    assert twisted == GroupRingMatrix.column([one + a, one - b])


def test_twist_trivial_and_inverse():
    rng = random.Random(6)
    z2 = free_abelian(2)
    trivial = Character.trivial(INTEGERS, 2)
    rho = Character.parse("a:-1,b:-1", INTEGERS, 2)
    assert rho.is_valid_on(z2.presentation)
    for _ in range(100):
        x = random_element(INTEGERS, z2, rng)
        assert x.twist(trivial) == x
        assert x.twist(rho).twist(rho.inverse()) == x


def test_twist_is_multiplicative():
    rng = random.Random(7)
    k = klein_bottle()
    rho = Character.parse("a:-1,b:1", INTEGERS, 2)
    for _ in range(100):
        x = random_element(INTEGERS, k, rng)
        y = random_element(INTEGERS, k, rng)
        assert (x * y).twist(rho) == x.twist(rho) * y.twist(rho)


def test_twist_rejects_noncommutative_ring():
    f2 = free_group(2)
    x = GroupRingElement.one(QUATERNIONS, f2)
    rho = Character.trivial(QUATERNIONS, 2)
    with pytest.raises(UnsupportedTwistError):
        x.twist(rho)


def test_character_validation():
    k = klein_bottle()
    assert Character.parse("a:-1,b:1", INTEGERS, 2).is_valid_on(k.presentation)
    # a enters the Klein relator twice, so its square must be 1: 2^2 = 4 != 1 mod 5
    assert not Character.parse("a:2,b:1", residue_ring(5), 2).is_valid_on(k.presentation)
    s2 = surface_group(2)
    assert Character.trivial(INTEGERS, 4).is_valid_on(s2.presentation)
    z2 = free_abelian(2)
    assert Character.parse("a:-1,b:-1", INTEGERS, 2).is_valid_on(z2.presentation)
    with pytest.raises(InvalidCharacterError):
        Character(INTEGERS, (INTEGERS.value(2), INTEGERS.value(1)))
    with pytest.raises(InvalidCharacterError):
        Character.parse("a:2", INTEGERS, 2)


@pytest.mark.parametrize("text", ["a:-1,a:1", "a:1,b:1,a:1", "b:-1, b:-1"])
def test_character_rejects_a_generator_named_twice(text):
    with pytest.raises(InvalidCharacterError, match="named twice"):
        Character.parse(text, INTEGERS, 2)


def test_mismatch_errors():
    f2 = free_group(2)
    other = free_group(2)
    x = GroupRingElement.one(INTEGERS, f2)
    with pytest.raises(GroupMismatchError):
        x + GroupRingElement.one(INTEGERS, other)
    with pytest.raises(RingMismatchError):
        x + GroupRingElement.one(RATIONALS, f2)
    with pytest.raises(RingMismatchError):
        GroupRingElement(INTEGERS, f2, [((1,), 3)])


def test_format_and_parse_round_trip():
    f2 = free_group(2)
    one, (a, b) = gens(INTEGERS, f2)
    binv = GroupRingElement.monomial(INTEGERS, f2, f2.letter(-2), INTEGERS.value(2))
    x = one - a + binv
    assert x.format() == "1 - a + 2*b^-1"
    assert parse_element(x.format(), INTEGERS, f2) == x
    rng = random.Random(8)
    for spec in ("F2", "Z^2", "Klein", "Sigma2"):
        group = make_group(spec)
        for ring in (INTEGERS, RATIONALS):
            for _ in range(25):
                x = random_element(ring, group, rng)
                assert parse_element(x.format(), ring, group) == x
    assert parse_element("0", INTEGERS, f2).is_zero()


def test_parse_element_keeps_a_leading_coefficient():
    f2 = free_group(2)
    one, (a, b) = gens(INTEGERS, f2)
    two = INTEGERS.value(2)
    # after "2*" the rest is a word: "1" is the identity, "3" no word at all
    assert parse_element("2*1", INTEGERS, f2) == one.scale(two)
    assert parse_element("2*1", INTEGERS, f2).format() == "2"
    with pytest.raises(SpecParseError):
        parse_element("2*3", INTEGERS, f2)
    assert parse_element("3*a", INTEGERS, f2) == a.scale(INTEGERS.value(3))
    binv = GroupRingElement.monomial(INTEGERS, f2, f2.letter(-2), two)
    assert parse_element("1 - a + 2*b^-1", INTEGERS, f2) == one - a + binv
    assert parse_element("a*b", INTEGERS, f2) == a * b
    assert parse_element("-7", INTEGERS, f2) == one.scale(INTEGERS.value(-7))
