"""Words over a generating set.

A word is a tuple of nonzero ints: ``+i`` is the i-th generator (1-based),
``-i`` its inverse.  Generators print as letters ``a``, ``b``, ``c``, ...
"""

from __future__ import annotations

from itertools import groupby

from .errors import SpecParseError

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

Word = tuple  # tuple[int, ...]


def gen_name(index: int) -> str:
    if 1 <= index <= len(_LETTERS):
        return _LETTERS[index - 1]
    return f"g{index}"


def free_reduce(word) -> Word:
    out = []
    for letter in word:
        if letter == 0:
            raise SpecParseError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def join_reduced(u, v) -> Word:
    """The free reduction of u v, for freely reduced words u and v.

    Letters can cancel only across the seam, so only the seam is read.
    """
    if u and v and u[-1] == -v[0]:
        k, n = 1, min(len(u), len(v))
        while k < n and u[-1 - k] == -v[k]:
            k += 1
        return u[: len(u) - k] + v[k:]
    return u + v


def invert_word(word) -> Word:
    return tuple(-letter for letter in reversed(word))


def commutator_word(i: int, j: int) -> Word:
    return (i, j, -i, -j)


def letter_key(letter: int) -> int:
    # shortlex letter order: a < a^-1 < b < b^-1 < ...
    return 2 * abs(letter) + (1 if letter < 0 else 0)


def shortlex_key(word):
    return (len(word), tuple(map(letter_key, word)))


def word_to_string(word) -> str:
    if not word:
        return "1"
    parts = []
    for letter, run in groupby(word):
        exponent = len(list(run)) * (1 if letter > 0 else -1)
        name = gen_name(abs(letter))
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
    return "*".join(parts)


def word_from_string(text: str) -> Word:
    """Parse ``"a*b^-1"`` (or the compact ``"abA"`` form, capitals = inverses)."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        if not chunk:
            raise SpecParseError(f"empty factor in word {text!r}")
        if "^" in chunk:
            name, _, exp = chunk.partition("^")
            try:
                exponent = int(exp)
            except ValueError:
                raise SpecParseError(f"bad exponent in {chunk!r}") from None
            letters.extend(_letters_of(name, exponent, text))
        else:
            for ch in chunk:
                letters.extend(_letters_of(ch, 1, text))
    return tuple(letters)


def _letters_of(name: str, exponent: int, context: str):
    if name.isupper():
        name = name.lower()
        exponent = -exponent
    if name not in _LETTERS:
        raise SpecParseError(f"unknown generator {name!r} in {context!r}")
    index = _LETTERS.index(name) + 1
    if exponent == 0:
        return []
    sign = 1 if exponent > 0 else -1
    return [sign * index] * abs(exponent)
