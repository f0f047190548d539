import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from pdfill import INTEGERS, QUATERNIONS, RATIONALS, frac_str, parse_ring, residue_ring
from pdfill.errors import RingMismatchError, SpecParseError
from pdfill.rings import PRIME_BASES, PRIME_TEST_LIMIT


def test_parse_ring_specs():
    assert parse_ring("Z") is INTEGERS
    assert parse_ring("Q") is RATIONALS
    assert parse_ring("H") is QUATERNIONS
    assert parse_ring("Z/4").modulus == 4
    assert parse_ring("Z/4").name == "Z/4"
    with pytest.raises(SpecParseError):
        parse_ring("Z/1")
    with pytest.raises(SpecParseError):
        parse_ring("GF(9)")


def test_integer_and_residue_arithmetic():
    assert (INTEGERS.value(2) + INTEGERS.value(3)).payload == 5
    z4 = residue_ring(4)
    assert (z4.value(3) + z4.value(3)).payload == 2
    assert (z4.value(2) * z4.value(2)).payload == 0


def test_quaternion_table():
    h = QUATERNIONS
    i = h.value((0, 1, 0, 0))
    j = h.value((0, 0, 1, 0))
    k = h.value((0, 0, 0, 1))
    assert i * j == k
    assert j * i == -k
    assert (h.value((1, 1, 0, 0)) + h.value((0, 0, 1, 1))).payload == (1, 1, 1, 1)


def test_involution_values():
    assert INTEGERS.value(5).star() == INTEGERS.value(5)
    assert QUATERNIONS.value((1, 1, 0, 0)).star().payload == (1, -1, 0, 0)


def test_involution_laws_exhaustive_on_small_residue_rings():
    for modulus in (2, 3, 4, 5, 6):
        ring = residue_ring(modulus)
        values = [ring.value(v) for v in range(modulus)]
        for a in values:
            assert a.star().star() == a
            for b in values:
                assert (a * b).star() == b.star() * a.star()


def test_involution_laws_random_quaternions():
    rng = random.Random(0)
    for _ in range(1000):
        a = QUATERNIONS.sample(rng)
        b = QUATERNIONS.sample(rng)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()


@pytest.mark.parametrize(
    "ring", [INTEGERS, RATIONALS, residue_ring(4), residue_ring(7), QUATERNIONS]
)
def test_ring_axioms_randomized(ring):
    rng = random.Random(11)
    one = ring.one
    for _ in range(300):
        a, b, c = (ring.sample(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * one == a and one * a == a
        assert a + (-a) == ring.zero


def test_units_per_ring():
    assert INTEGERS.value(-1).is_unit() and not INTEGERS.value(2).is_unit()
    assert RATIONALS.value(Fraction(3, 7)).is_unit() and not RATIONALS.value(0).is_unit()
    z6 = residue_ring(6)
    assert z6.value(5).is_unit() and not z6.value(2).is_unit() and not z6.value(0).is_unit()
    assert QUATERNIONS.value((0, -1, 0, 0)).is_unit()
    assert not QUATERNIONS.value((1, 1, 0, 0)).is_unit()
    for ring, raw in [(INTEGERS, -1), (RATIONALS, Fraction(3, 7)), (residue_ring(7), 4)]:
        v = ring.value(raw)
        assert v * v.inverse() == ring.one
    q = QUATERNIONS.value((0, 0, 1, 0))
    assert q * q.inverse() == QUATERNIONS.one


def test_mismatched_rings_rejected():
    with pytest.raises(RingMismatchError):
        INTEGERS.value(1) + RATIONALS.value(1)
    with pytest.raises(RingMismatchError):
        residue_ring(4).value(1) * residue_ring(5).value(1)


def test_value_formatting_and_parsing():
    assert RATIONALS.value(Fraction(-3, 2)).format() == "-3/2"
    assert RATIONALS.parse_value("-3/2").payload == Fraction(-3, 2)
    assert RATIONALS.parse_value(" 6/4 ").payload == Fraction(3, 2)
    assert RATIONALS.parse_value("1/-2").payload == Fraction(-1, 2)
    assert QUATERNIONS.parse_value("(1,-1,0,0)").payload == (1, -1, 0, 0)
    assert INTEGERS.parse_value("-7").payload == -7
    assert residue_ring(4).value(7).payload == 3


BAD_LITERALS = [
    (RATIONALS, "1/0"),
    (RATIONALS, "abc"),
    (RATIONALS, "1/2/3"),
    (RATIONALS, "x/2"),
    (RATIONALS, "2/"),
    (INTEGERS, "1/2"),
    (QUATERNIONS, "(1,x,0,0)"),
    (QUATERNIONS, "(1,1/2,0,0)"),
    (QUATERNIONS, "(1,2,3,4"),
    (QUATERNIONS, "((1,2,3,4))"),
    (QUATERNIONS, "(1,2,3,4))"),
]


@pytest.mark.parametrize(
    "ring, text", BAD_LITERALS, ids=[f"{ring.name} {text}" for ring, text in BAD_LITERALS]
)
def test_bad_literals_raise_spec_errors(ring, text):
    with pytest.raises(SpecParseError):
        ring.parse_value(text)


ALL_RINGS = [INTEGERS, RATIONALS, residue_ring(4), QUATERNIONS]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda ring: ring.name)
@pytest.mark.parametrize("raw", [True, False, (True, 0, 0, 0), (0, 0, False, 1)], ids=repr)
def test_bools_are_not_integers_in_any_ring(ring, raw):
    with pytest.raises(SpecParseError):
        ring.value(raw)


def test_quaternion_units_are_the_eight_signed_basis_elements():
    # the units of the integer quaternions, listed by hand
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    expected = {b for e in basis for b in (e, tuple(-c for c in e))}
    units = set()
    for raw in product(range(-2, 3), repeat=4):
        v = QUATERNIONS.value(raw)
        if v.is_unit():
            units.add(raw)
            assert v * v.inverse() == QUATERNIONS.one == v.inverse() * v
    assert units == expected


@pytest.mark.parametrize("modulus", range(2, 13))
def test_residue_units_are_the_residues_coprime_to_the_modulus(modulus):
    ring = residue_ring(modulus)
    for raw in range(modulus):
        v = ring.value(raw)
        assert v.is_unit() == (gcd(raw, modulus) == 1)
        if v.is_unit():
            assert v * v.inverse() == ring.one


def test_fields_are_q_and_prime_residue_rings():
    primes = {2, 3, 5, 7, 11}
    assert RATIONALS.is_field
    assert not INTEGERS.is_field and not QUATERNIONS.is_field
    for modulus in range(2, 13):
        assert residue_ring(modulus).is_field == (modulus in primes)


def strong_probable_prime(n, base):
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    x = pow(base, odd, n)
    return x in (1, n - 1) or any(
        pow(x, 2**k, n) == n - 1 for k in range(1, twos)
    )


def test_prime_moduli_match_a_sieve():
    size = 20_000
    composite = [False] * size
    for p in range(2, size):
        for multiple in range(p * p, size, p):
            composite[multiple] = True
    for modulus in range(2, size):
        assert residue_ring(modulus).is_field == (not composite[modulus])


def test_prime_test_decides_large_moduli():
    assert residue_ring(2**61 - 1).is_field
    # 561 is a Carmichael number, and 3,215,031,751 = 151 * 751 * 28351 is
    # a strong pseudoprime to bases 2, 3, 5 and 7; base 11 witnesses it
    assert all(strong_probable_prime(3_215_031_751, b) for b in (2, 3, 5, 7))
    assert not strong_probable_prime(3_215_031_751, 11)
    for composite in (561, 3_215_031_751, (2**31 - 1) * 1_000_000_007):
        assert not residue_ring(composite).is_field
    # the least strong pseudoprime to the first 12 prime bases: no
    # modulus from it on is decided
    assert PRIME_TEST_LIMIT == 318_665_857_834_031_151_167_461
    assert all(strong_probable_prime(PRIME_TEST_LIMIT, b) for b in PRIME_BASES)
    assert not residue_ring(PRIME_TEST_LIMIT - 2).is_field    # 137 divides it
    for modulus in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 2, 2**89 - 1):
        with pytest.raises(SpecParseError, match="cannot decide"):
            residue_ring(modulus).is_field


def test_integral_fractions_print_as_integers():
    assert RATIONALS.value(Fraction(4, 2)).format() == "2"
    assert RATIONALS.value(Fraction(-4, 2)).format() == "-2"
    assert frac_str(Fraction(4, 2)) == 2 and isinstance(frac_str(Fraction(4, 2)), int)
    assert frac_str(Fraction(-3, 2)) == "-3/2"
