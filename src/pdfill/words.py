"""Words over a generating set.

A word is a tuple of nonzero ints: ``+i`` is the i-th generator (1-based),
``-i`` its inverse.  Generators print as letters ``a``, ``b``, ``c``, ...,
and those past ``z`` as ``g27``, ``g28``, ...; both names read back.
"""

from __future__ import annotations

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
    """``"a^2*b^-1"``: each run of one letter as its generator's name, with
    the run's signed length as exponent unless that is 1; ``"1"`` when empty."""
    if not word:
        return "1"
    parts = []
    last, run = word[0], 0
    for letter in (*word, None):    # None ends the last run
        if letter == last:
            run += 1
            continue
        name = gen_name(last if last > 0 else -last)
        exponent = run if last > 0 else -run
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
        last, run = letter, 1
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
        name, caret, exp = chunk.partition("^")
        if caret:
            try:
                exponent = int(exp)
            except ValueError:
                raise SpecParseError(f"bad exponent in {chunk!r}") from None
            letters.extend(_letters_of(name, exponent, text))
        elif _generator_index(chunk):
            letters.extend(_letters_of(chunk, 1, text))
        else:
            for ch in chunk:
                letters.extend(_letters_of(ch, 1, text))
    return tuple(letters)


def _generator_index(name: str):
    """The index that ``gen_name`` prints as ``name``, or None."""
    if len(name) == 1:
        return _LETTERS.index(name) + 1 if name in _LETTERS else None
    digits = name[1:]
    if name[:1] == "g" and digits.isdecimal() and gen_name(int(digits)) == name:
        return int(digits)
    return None


def _letters_of(name: str, exponent: int, context: str):
    index = _generator_index(name)
    if index is None and len(name) == 1 and name.isupper():    # a capital is an inverse
        index = _generator_index(name.lower())
        exponent = -exponent
    if index is None:
        raise SpecParseError(f"unknown generator {name!r} in {context!r}")
    if exponent == 0:
        return []
    sign = 1 if exponent > 0 else -1
    return [sign * index] * abs(exponent)
