"""The library's records: which compare by value, which hold their own
lists, and the checks their constructors make."""

from fractions import Fraction

import pytest

from pdfill import (
    INTEGERS,
    ChainComplex,
    Character,
    FolnerReport,
    GroupRingElement,
    GroupRingMatrix,
    InvalidCharacterError,
    NotACycleError,
    OneCycle,
    Presentation,
    Ring,
    SlimnessConstants,
    SpecParseError,
    SweepReport,
    build_ball_complex,
    free_group,
    make_group,
    parse_ring,
    residue_ring,
    slimness_constants,
)


def test_rings_compare_and_hash_by_kind_and_modulus():
    assert residue_ring(6) is not residue_ring(6)
    assert residue_ring(6) == residue_ring(6) and hash(residue_ring(6)) == hash(residue_ring(6))
    assert residue_ring(6) != residue_ring(7) and residue_ring(6) != "Z/6"
    assert Ring("Q") == parse_ring("Q") and Ring("Z") != Ring("Q")
    # values from separately parsed rings add, compare and hash alike
    a, b = parse_ring("Z/6").value(4), parse_ring("Z/6").value(5)
    assert a + b == parse_ring("Z/6").value(3)
    assert hash(a) == hash(parse_ring("Z/6").value(4))
    assert {a, b} == {parse_ring("Z/6").value(-2), parse_ring("Z/6").value(-1)}


def test_presentations_compare_and_hash_by_letters():
    p, q = Presentation(2, [[1, 2, -1, -2]]), Presentation(2, ((1, 2, -1, -2),))
    assert p == q and hash(p) == hash(q) and p.relators == ((1, 2, -1, -2),)
    assert p != Presentation(3, ((1, 2, -1, -2),)) and p != (2, ((1, 2, -1, -2),))


def test_characters_compare_and_hash_by_ring_and_values():
    ring = residue_ring(6)
    c = Character.parse("a:5", ring, 2)
    d = Character.parse("a:-1,b:1", residue_ring(6), 2)
    assert c == d and hash(c) == hash(d) and len({c, d}) == 1
    assert c != Character.trivial(ring, 2)
    assert c != Character.parse("a:-1", parse_ring("Z"), 2)
    # values given as a list or an iterator are stored as a tuple
    for given in (list(c.values), iter(c.values)):
        e = Character(ring, given)
        assert e == c and hash(e) == hash(c)
        assert e.value_of_word((1, 2, -1)) == c.value_of_word((1, 2, -1))


def test_group_ring_elements_read_their_terms_once():
    group = free_group(2)
    pairs = [(group.letter(1), INTEGERS.one), (group.identity(), INTEGERS.one)]
    listed = GroupRingElement(INTEGERS, group, pairs)
    assert listed.support_norm() == 2
    assert GroupRingElement(INTEGERS, group, (p for p in pairs)).terms == listed.terms


def test_slimness_constants_compare_and_hash_by_n_and_kappa():
    constants = slimness_constants(make_group("Sigma2").presentation, 2)
    assert constants == SlimnessConstants(8, 2) and hash(constants) == hash(SlimnessConstants(8, 2))
    assert constants != SlimnessConstants(8, 3) and constants != (8, 2)


def test_reports_built_without_lists_hold_their_own():
    sweeps = [SweepReport("Z^2", 1, 2, 1, 0, 0, 0, Fraction(0)) for _ in range(2)]
    sweeps[0].per_cycle.append({"word": "a"})
    assert sweeps[1].per_cycle == []
    folners = [
        FolnerReport("Z^2", "boxes:1", 1, 1, Fraction(1), Fraction(1), Fraction(1), "inconclusive")
        for _ in range(2)
    ]
    folners[0].series.append((1, Fraction(1)))
    assert folners[1].series == []


def one_by_one():
    return GroupRingMatrix.row([GroupRingElement.one(INTEGERS, free_group(2))])


CONSTRUCTOR_CHECKS = [
    (lambda: Presentation(0, ()), SpecParseError, "need at least one generator"),
    (lambda: Presentation(2, (5,)), SpecParseError, "relators must be sequences, got (5,)"),
    (lambda: Presentation(2, ((),)), SpecParseError, "relators must be nonempty"),
    (lambda: Presentation(2, ((1, "b"),)), SpecParseError,
     "letter 'b' is not an integer in (1, 'b')"),
    (lambda: Presentation(2, ((1, 3),)), SpecParseError, "letter 3 out of range in (1, 3)"),
    (lambda: Presentation(2, ((1, -1),)), SpecParseError,
     "relator (1, -1) is not freely reduced"),
    (lambda: Ring("R"), SpecParseError, "unknown ring kind 'R'"),
    (lambda: Ring("Zmod"), SpecParseError, "residue ring needs a modulus >= 2"),
    (lambda: Ring("Zmod", 1), SpecParseError, "residue ring needs a modulus >= 2"),
    (lambda: Ring("Z", 5), SpecParseError, "ring 'Z' takes no modulus"),
    (lambda: Character(INTEGERS, (parse_ring("Q").one,)), InvalidCharacterError,
     "character value from the wrong ring"),
    (lambda: Character(INTEGERS, (INTEGERS.value(2),)), InvalidCharacterError,
     "character value <Z:2> is not a unit"),
    (lambda: ChainComplex(INTEGERS, free_group(2), (1, 2), ()), SpecParseError,
     "need one differential per adjacent pair of levels"),
    (lambda: ChainComplex(INTEGERS, free_group(2), (1, 2), (one_by_one(),)), SpecParseError,
     "differential 1 has shape 1x1, expected 2x1"),
    (lambda: OneCycle(build_ball_complex(make_group("Z^2"), 1), {0: 1}), NotACycleError,
     "chain is not in the kernel of the boundary"),
]


@pytest.mark.parametrize(
    "make, error, message", CONSTRUCTOR_CHECKS, ids=[m for _, _, m in CONSTRUCTOR_CHECKS]
)
def test_constructor_checks_keep_their_errors(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message
