"""Property tests of the group-oracle laws on every builtin spec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfill import builtin_group_specs, make_group
from pdfill.words import invert_word

ORACLES = {spec: make_group(spec) for spec in builtin_group_specs()}

laws = settings(max_examples=60, deadline=None, derandomize=True)


def words(spec, max_size=10):
    """Words over the generators of one spec: 2i -> g(i+1), 2i+1 -> its inverse."""
    m = ORACLES[spec].generator_count
    letter = st.integers(0, 2 * m - 1).map(lambda k: (k // 2 + 1) * (-1) ** k)
    return st.lists(letter, max_size=max_size).map(tuple)


def relator_conjugates(presentation):
    out = []
    for rel in presentation.relators:
        for base in (rel, invert_word(rel)):
            out.extend(base[s:] + base[:s] for s in range(len(base)))
    return out


@pytest.mark.parametrize("spec", builtin_group_specs())
@laws
@given(data=st.data())
def test_multiply_is_associative(spec, data):
    oracle = ORACLES[spec]
    g, h, k = (oracle.evaluate(data.draw(words(spec))) for _ in range(3))
    assert oracle.multiply(oracle.multiply(g, h), k) == oracle.multiply(
        g, oracle.multiply(h, k)
    )


@pytest.mark.parametrize("spec", builtin_group_specs())
@laws
@given(data=st.data())
def test_invert_gives_two_sided_inverses(spec, data):
    oracle = ORACLES[spec]
    word = data.draw(words(spec))
    g = oracle.evaluate(word)
    assert oracle.is_identity(oracle.multiply(g, oracle.invert(g)))
    assert oracle.is_identity(oracle.multiply(oracle.invert(g), g))
    assert oracle.invert(g) == oracle.evaluate(invert_word(word))


@pytest.mark.parametrize("spec", builtin_group_specs())
@laws
@given(data=st.data())
def test_canonical_form_is_idempotent(spec, data):
    # the stored value is a fixed point: reading it back as a word and
    # evaluating again gives the same value
    oracle = ORACLES[spec]
    g = oracle.evaluate(data.draw(words(spec, max_size=14)))
    assert oracle.evaluate(oracle.as_word(g)) == g
    if hasattr(oracle, "canonical"):
        assert oracle.canonical(g) == g


@pytest.mark.parametrize("spec", builtin_group_specs())
@laws
@given(data=st.data())
def test_relator_insertion_leaves_the_element_unchanged(spec, data):
    oracle = ORACLES[spec]
    word = data.draw(words(spec))
    pos = data.draw(st.integers(0, len(word)))
    # a free group has no relator; inserting the empty word keeps the law
    rho = data.draw(st.sampled_from(relator_conjugates(oracle.presentation) or [()]))
    assert oracle.evaluate(word[:pos] + rho + word[pos:]) == oracle.evaluate(word)


@pytest.mark.parametrize("spec", builtin_group_specs())
@laws
@given(data=st.data())
def test_word_length_obeys_the_triangle_inequality(spec, data):
    oracle = ORACLES[spec]
    g, h = (oracle.evaluate(data.draw(words(spec))) for _ in range(2))
    assert oracle.word_length(oracle.multiply(g, h)) <= (
        oracle.word_length(g) + oracle.word_length(h)
    )
    assert oracle.word_length(oracle.invert(g)) == oracle.word_length(g)
