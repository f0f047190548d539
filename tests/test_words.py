"""Property tests of how words are written and read."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pdfill.words import word_from_string, word_to_string

properties = settings(max_examples=300, deadline=None, derandomize=True)


def words(max_generators):
    """Words over 1 to ``max_generators`` generators, with runs of one letter."""
    def over(m):
        letter = st.sampled_from([s for g in range(1, m + 1) for s in (g, -g)])
        run = st.tuples(letter, st.integers(1, 4)).map(lambda pair: (pair[0],) * pair[1])
        return st.lists(run, max_size=8).map(lambda runs: sum(runs, ()))

    return st.integers(1, max_generators).flatmap(over)


def run_length(word):
    """The rendering spelled out: the word's runs listed first, then named."""
    runs = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    parts = []
    for letter, count in runs:
        g = abs(letter)
        name = "abcdefghijklmnopqrstuvwxyz"[g - 1] if g <= 26 else f"g{g}"
        exponent = count if letter > 0 else -count
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
    return "*".join(parts) or "1"


@properties
@given(words(30))
def test_word_to_string_matches_the_run_length_rendering(word):
    assert word_to_string(word) == run_length(word)


@properties
@given(words(30))
def test_word_to_string_round_trips(word):
    assert word_from_string(word_to_string(word)) == word


def test_word_to_string_examples():
    assert word_to_string(()) == "1"
    assert word_to_string((1, 1, -2, 27, 27, -28, 1)) == "a^2*b^-1*g27^2*g28^-1*a"
