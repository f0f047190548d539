"""The group ring RG: finitely supported R-combinations of group elements.

Elements store a dict from canonical group elements to nonzero ring
values, so the support norm is just the number of stored terms.  Free
modules over RG are row vectors; a map of based free modules is a
``GroupRingMatrix`` acting by right multiplication, and composition reads
left to right: applying A then B is the product ``A @ B``.
"""

from __future__ import annotations

from .errors import (
    GroupMismatchError,
    InvalidCharacterError,
    RingMismatchError,
    SpecParseError,
    UnsupportedTwistError,
)
from .groups import GroupOracle, Presentation
from .rings import Ring, RingValue
from .words import word_from_string, word_to_string


def _add_terms(terms: dict, pairs) -> dict:
    """Add (element, coefficient) pairs into ``terms`` and return it.

    An element whose sum reaches zero is dropped.  Only sums are tested
    for zero, so every coefficient in ``pairs`` must be nonzero.
    """
    for element, coeff in pairs:
        if element in terms:
            coeff = terms[element] + coeff
            if coeff.is_zero():
                del terms[element]
                continue
        terms[element] = coeff
    return terms


class GroupRingElement:
    """A finitely supported function from group elements to ring values."""

    __slots__ = ("ring", "group", "terms")

    def __init__(self, ring: Ring, group: GroupOracle, terms=()):
        terms = tuple(terms)    # read once, so a generator is both checked and summed
        for _, coeff in terms:
            if not isinstance(coeff, RingValue):
                raise RingMismatchError(f"expected a ring value, got {coeff!r}")
            if coeff.ring != ring:
                raise RingMismatchError(
                    f"coefficient from {coeff.ring.name} in a {ring.name} group ring"
                )
        self.ring = ring
        self.group = group
        self.terms = _add_terms({}, ((g, c) for g, c in terms if not c.is_zero()))

    def _like(self, terms: dict) -> "GroupRingElement":
        """An element of this ring and group with the given nonzero terms."""
        result = GroupRingElement.__new__(GroupRingElement)
        result.ring = self.ring
        result.group = self.group
        result.terms = terms
        return result

    @classmethod
    def zero(cls, ring, group):
        return cls(ring, group)

    @classmethod
    def one(cls, ring, group):
        return cls(ring, group, [(group.identity(), ring.one)])

    @classmethod
    def monomial(cls, ring, group, element, coeff=None):
        return cls(ring, group, [(element, ring.one if coeff is None else coeff)])

    def _check(self, other: "GroupRingElement"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"mixed group-ring coefficients {self.ring.name} and {other.ring.name}"
            )
        if self.group is not other.group:
            raise GroupMismatchError("mixed group rings over different groups")

    def support_norm(self) -> int:
        """The number of group elements carrying a nonzero coefficient."""
        return len(self.terms)

    def support(self):
        return set(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return self._like(_add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._like({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution product; coefficients multiply in left-to-right order."""
        self._check(other)
        multiply = self.group.multiply
        products = [
            (multiply(g, h), c)
            for g, a in self.terms.items()
            for h, b in other.terms.items()
            if not (c := a * b).is_zero()
        ]
        return self._like(_add_terms({}, products))

    def scale(self, coeff: RingValue) -> "GroupRingElement":
        """coeff * self: each coefficient is multiplied on the left."""
        if coeff.ring != self.ring:
            raise RingMismatchError("scalar from the wrong ring")
        products = ((g, coeff * c) for g, c in self.terms.items())
        return self._like({g: c for g, c in products if not c.is_zero()})

    def involute(self) -> "GroupRingElement":
        """The star involution: each term (r, g) becomes (r*, g^-1)."""
        return GroupRingElement(
            self.ring,
            self.group,
            [(self.group.invert(g), c.star()) for g, c in self.terms.items()],
        )

    def twist(self, character: "Character") -> "GroupRingElement":
        """Rescale each term r*g to r*chi(g)*g.  Needs a commutative ring."""
        if not self.ring.commutative:
            raise UnsupportedTwistError(
                f"cannot twist over the noncommutative ring {self.ring.name}"
            )
        if character.ring != self.ring:
            raise RingMismatchError("character over the wrong ring")
        return GroupRingElement(
            self.ring,
            self.group,
            [
                (g, c * character.value_of(self.group, g))
                for g, c in self.terms.items()
            ],
        )

    def augmentation(self) -> RingValue:
        total = self.ring.zero
        for c in self.terms.values():
            total = total + c
        return total

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.ring == other.ring
            and self.group is other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.ring, id(self.group), frozenset(self.terms.items()))
        )

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: self.group.sort_key(item[0]))

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for g, c in self._sorted_terms():
            word = self.group.as_word(g)
            coeff = c.format()
            if not word:
                chunk = coeff
            elif coeff == "1":
                chunk = word_to_string(word)
            elif coeff == "-1":
                chunk = "-" + word_to_string(word)
            else:
                chunk = f"{coeff}*{word_to_string(word)}"
            parts.append(chunk)
        text = parts[0]
        for chunk in parts[1:]:
            if chunk.startswith("-"):
                text += " - " + chunk[1:]
            else:
                text += " + " + chunk
        return text

    def __repr__(self):
        return f"<RG {self.format()}>"


def parse_element(text: str, ring: Ring, group: GroupOracle) -> GroupRingElement:
    """Parse the textual form, e.g. ``"1 - a + 2*b^-1"``."""
    text = text.strip()
    if text in ("", "0"):
        return GroupRingElement.zero(ring, group)
    normalized = text.replace(" - ", " + -").replace(" + ", "\x00")
    terms = []
    for chunk in normalized.split("\x00"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = ring.one
        if chunk.startswith("-"):
            sign = -ring.one
            chunk = chunk[1:].strip()
        elif chunk.startswith("+"):
            chunk = chunk[1:].strip()
        if not chunk or chunk.endswith("*"):
            raise SpecParseError(f"empty term in {text!r}")
        # an optional leading coefficient, then a word: "2*1" is 2 on the identity
        head, _, tail = chunk.partition("*")
        try:
            coeff, word_part = ring.parse_value(head), tail
        except SpecParseError:
            coeff, word_part = ring.one, chunk
        terms.append((group.evaluate(word_from_string(word_part)), sign * coeff))
    return GroupRingElement(ring, group, terms)


class GroupRingMatrix:
    """A dense matrix over RG, a map of based free modules on row vectors."""

    __slots__ = ("ring", "group", "rows", "cols", "entries")

    def __init__(self, ring, group, entries, cols=None):
        """The shape is read off ``entries``; ``cols`` sizes a matrix with no rows."""
        self.ring = ring
        self.group = group
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else cols or 0
        for row in self.entries:
            if len(row) != self.cols:
                raise SpecParseError("ragged matrix")

    @classmethod
    def zero(cls, ring, group, rows, cols):
        entries = [
            [GroupRingElement.zero(ring, group) for _ in range(cols)]
            for _ in range(rows)
        ]
        return cls(ring, group, entries, cols)

    @classmethod
    def identity(cls, ring, group, size):
        matrix = cls.zero(ring, group, size, size)
        for i in range(size):
            matrix.entries[i][i] = GroupRingElement.one(ring, group)
        return matrix

    @classmethod
    def column(cls, elements):
        return cls.from_rows([[e] for e in elements])

    @classmethod
    def row(cls, elements):
        return cls.from_rows([list(elements)])

    @classmethod
    def from_rows(cls, rows):
        sample = rows[0][0]
        return cls(sample.ring, sample.group, rows)

    def support_norm(self) -> int:
        """Sum of the support norms of all entries."""
        return sum(e.support_norm() for row in self.entries for e in row)

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.group is not other.group or self.ring != other.ring:
            raise GroupMismatchError("matrix product across different group rings")
        if self.cols != other.rows:
            raise SpecParseError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = GroupRingMatrix.zero(self.ring, self.group, self.rows, other.cols)
        for i in range(self.rows):
            for t in range(self.cols):
                left = self.entries[i][t]
                if left.is_zero():
                    continue
                for j in range(other.cols):
                    right = other.entries[t][j]
                    if right.is_zero():
                        continue
                    out.entries[i][j] = out.entries[i][j] + left * right
        return out

    def _like(self, entries) -> "GroupRingMatrix":
        """A matrix over this ring and group with as many columns as this one."""
        return GroupRingMatrix(self.ring, self.group, entries, self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise SpecParseError("matrix sum shape mismatch")
        return self._like(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return self._like([[-e for e in row] for row in self.entries])

    def conjugate_transpose(self) -> "GroupRingMatrix":
        """Entrywise involution plus transpose; contravariant for products."""
        return GroupRingMatrix(
            self.ring,
            self.group,
            [[row[j].involute() for row in self.entries] for j in range(self.cols)],
            self.rows,
        )

    def twist(self, character: "Character") -> "GroupRingMatrix":
        return self._like([[e.twist(character) for e in row] for row in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def apply_to(self, vector) -> list:
        """Right-multiply a row vector (list of elements) by this matrix."""
        if len(vector) != self.rows:
            raise SpecParseError("vector length mismatch")
        out = [GroupRingElement.zero(self.ring, self.group) for _ in range(self.cols)]
        for i, x in enumerate(vector):
            if x.is_zero():
                continue
            for j in range(self.cols):
                if not self.entries[i][j].is_zero():
                    out[j] = out[j] + x * self.entries[i][j]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def format(self):
        return [[e.format() for e in row] for row in self.entries]

    def __repr__(self):
        return f"<RG matrix {self.rows}x{self.cols}>"


class Character:
    """A homomorphism from the group to the units of R, one value per
    generator.  Characters compare and hash by ring and values."""

    def __init__(self, ring: Ring, values):
        self.ring = ring
        self.values = values = tuple(values)    # hashable, and an iterator is read once
        for v in values:
            if v.ring != ring:
                raise InvalidCharacterError("character value from the wrong ring")
            if not v.is_unit():
                raise InvalidCharacterError(f"character value {v!r} is not a unit")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ring == other.ring and self.values == other.values

    def __hash__(self):
        return hash((self.ring, self.values))

    def __repr__(self):
        return f"Character(ring={self.ring!r}, values={self.values!r})"

    @classmethod
    def trivial(cls, ring: Ring, generator_count: int) -> "Character":
        return cls(ring, tuple(ring.one for _ in range(generator_count)))

    @classmethod
    def parse(cls, text: str, ring: Ring, generator_count: int) -> "Character":
        """Parse ``"a:-1,b:1"``; unmentioned generators default to 1, and
        naming a generator twice is an error."""
        values = [ring.one] * generator_count
        named = set()
        if text.strip():
            for chunk in text.split(","):
                name, _, literal = chunk.partition(":")
                word = word_from_string(name.strip())
                if len(word) != 1 or word[0] < 0:
                    raise InvalidCharacterError(f"bad generator name {name!r}")
                index = word[0]
                if index > generator_count:
                    raise InvalidCharacterError(f"generator {name!r} out of range")
                if index in named:
                    raise InvalidCharacterError(f"generator {name!r} named twice")
                named.add(index)
                values[index - 1] = ring.parse_value(literal.strip())
        return cls(ring, tuple(values))

    def value_of_word(self, word) -> RingValue:
        out = self.ring.one
        for letter in word:
            v = self.values[abs(letter) - 1]
            out = out * (v if letter > 0 else v.inverse())
        return out

    def value_of(self, group: GroupOracle, element) -> RingValue:
        return self.value_of_word(group.as_word(element))

    def is_valid_on(self, presentation: Presentation) -> bool:
        """True iff every relator evaluates to 1."""
        if presentation.generator_count != len(self.values):
            raise InvalidCharacterError("character arity does not match presentation")
        return all(
            self.value_of_word(rel) == self.ring.one for rel in presentation.relators
        )

    def inverse(self) -> "Character":
        return Character(self.ring, tuple(v.inverse() for v in self.values))

    def format(self) -> str:
        from .words import gen_name

        return ",".join(
            f"{gen_name(i + 1)}:{v.format()}" for i, v in enumerate(self.values)
        )
