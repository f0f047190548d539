"""Exact coefficient rings with involution.

Four rings are supported: the integers ``Z``, the rationals ``Q``, the
residue rings ``Z/m`` for m >= 2, and the integer quaternions ``H``.  The
first three are commutative and carry the identity involution; ``H``
carries quaternion conjugation and is the one genuinely noncommutative
ring in the family.

All arithmetic is exact: Python ints, ``Fraction`` and integer 4-tuples,
never floats.  Values are immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import RingMismatchError, SpecParseError

_QUATERNION_UNITS = frozenset(
    [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0),
        (0, 0, 0, 1), (0, 0, 0, -1),
    ]
)


@dataclass(frozen=True)
class Ring:
    """Descriptor for one of the supported coefficient rings.

    ``kind`` is one of ``"Z"``, ``"Q"``, ``"Zmod"``, ``"H"``; ``modulus``
    is set only for ``Zmod`` and must be at least 2, so every ring has at
    least two elements.
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zmod", "H"):
            raise SpecParseError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod":
            if self.modulus is None or self.modulus < 2:
                raise SpecParseError("residue ring needs a modulus >= 2")
        elif self.modulus is not None:
            raise SpecParseError(f"ring {self.kind!r} takes no modulus")

    @property
    def name(self) -> str:
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind

    @property
    def commutative(self) -> bool:
        return self.kind != "H"

    def value(self, raw) -> RingValue:
        """Wrap a raw payload, normalising it into canonical form."""
        if self.kind == "Z":
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise SpecParseError(f"integer ring got {raw!r}")
            return RingValue(self, raw)
        if self.kind == "Q":
            if isinstance(raw, Fraction):
                return RingValue(self, raw)
            if isinstance(raw, int):
                return RingValue(self, Fraction(raw))
            raise SpecParseError(f"rational ring got {raw!r}")
        if self.kind == "Zmod":
            if not isinstance(raw, int):
                raise SpecParseError(f"residue ring got {raw!r}")
            return RingValue(self, raw % self.modulus)
        # quaternions
        if isinstance(raw, int):
            raw = (raw, 0, 0, 0)
        raw = tuple(raw)
        if len(raw) != 4 or not all(isinstance(c, int) for c in raw):
            raise SpecParseError(f"quaternion ring got {raw!r}")
        return RingValue(self, raw)

    @property
    def zero(self) -> RingValue:
        return self.value(0)

    @property
    def one(self) -> RingValue:
        return self.value(1)

    def parse_value(self, text: str) -> RingValue:
        """Parse ``"5"``, ``"-3/2"`` or ``"(1,-1,0,0)"`` as appropriate."""
        text = text.strip()
        if self.kind == "H" and text.startswith("("):
            parts = text[1:-1].split(",") if text.endswith(")") else []
            if len(parts) != 4:
                raise SpecParseError(f"bad quaternion literal {text!r}")
            return self.value(tuple(_parse_int(p, text) for p in parts))
        num, slash, den = text.partition("/")
        if not slash:
            return self.value(_parse_int(num, text))
        if self.kind != "Q":
            raise SpecParseError(f"fraction literal {text!r} outside Q")
        denominator = _parse_int(den, text)
        if denominator == 0:
            raise SpecParseError(f"zero denominator in {text!r}")
        return self.value(Fraction(_parse_int(num, text), denominator))

    def sample(self, rng, nonzero: bool = False) -> RingValue:
        """Draw a small random value, for randomized property tests."""
        while True:
            if self.kind == "Z":
                v = self.value(rng.randint(-5, 5))
            elif self.kind == "Q":
                v = self.value(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
            elif self.kind == "Zmod":
                v = self.value(rng.randrange(self.modulus))
            else:
                v = self.value(tuple(rng.randint(-3, 3) for _ in range(4)))
            if not nonzero or not v.is_zero():
                return v


def _parse_int(part: str, text: str) -> int:
    part = part.strip()
    if not re.fullmatch(r"[+-]?\d+", part):
        raise SpecParseError(f"bad ring literal {text!r}")
    return int(part)


INTEGERS = Ring("Z")
RATIONALS = Ring("Q")
QUATERNIONS = Ring("H")


def residue_ring(modulus: int) -> Ring:
    return Ring("Zmod", modulus)


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec string: ``"Z"``, ``"Q"``, ``"Z/4"``, ``"H"``."""
    spec = spec.strip()
    if spec == "Z":
        return INTEGERS
    if spec == "Q":
        return RATIONALS
    if spec == "H":
        return QUATERNIONS
    m = re.fullmatch(r"Z/(\d+)", spec)
    if m:
        modulus = int(m.group(1))
        if modulus < 2:
            raise SpecParseError(f"modulus must be >= 2 in {spec!r}")
        return residue_ring(modulus)
    raise SpecParseError(f"unknown ring spec {spec!r}")


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


class RingValue:
    """An exact element of one of the supported rings.

    Supports ``+``, ``-``, ``*``, equality and hashing; ``star`` is the
    involution.  Mixing values from different rings raises
    ``RingMismatchError``.
    """

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        self.ring = ring
        self.payload = payload

    def _check(self, other: "RingValue"):
        if not isinstance(other, RingValue):
            raise RingMismatchError(f"expected a ring value, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError(
                f"mixed rings {self.ring.name} and {other.ring.name}"
            )

    def __add__(self, other):
        self._check(other)
        if self.ring.kind == "H":
            payload = tuple(a + b for a, b in zip(self.payload, other.payload))
        elif self.ring.kind == "Zmod":
            payload = (self.payload + other.payload) % self.ring.modulus
        else:
            payload = self.payload + other.payload
        return RingValue(self.ring, payload)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.ring.kind == "H":
            payload = tuple(-a for a in self.payload)
        elif self.ring.kind == "Zmod":
            payload = (-self.payload) % self.ring.modulus
        else:
            payload = -self.payload
        return RingValue(self.ring, payload)

    def __mul__(self, other):
        self._check(other)
        if self.ring.kind == "H":
            payload = _quat_mul(self.payload, other.payload)
        elif self.ring.kind == "Zmod":
            payload = (self.payload * other.payload) % self.ring.modulus
        else:
            payload = self.payload * other.payload
        return RingValue(self.ring, payload)

    def star(self) -> "RingValue":
        """The involution: identity on commutative rings, conjugation on H."""
        if self.ring.kind == "H":
            w, x, y, z = self.payload
            return RingValue(self.ring, (w, -x, -y, -z))
        return self

    def is_zero(self) -> bool:
        if self.ring.kind == "H":
            return self.payload == (0, 0, 0, 0)
        return self.payload == 0

    def is_unit(self) -> bool:
        if self.ring.kind == "Z":
            return self.payload in (1, -1)
        if self.ring.kind == "Q":
            return self.payload != 0
        if self.ring.kind == "Zmod":
            return self.payload != 0 and gcd(self.payload, self.ring.modulus) == 1
        return self.payload in _QUATERNION_UNITS

    def inverse(self) -> "RingValue":
        if not self.is_unit():
            raise SpecParseError(f"{self!r} is not a unit in {self.ring.name}")
        if self.ring.kind == "Z":
            return self
        if self.ring.kind == "Q":
            return RingValue(self.ring, 1 / self.payload)
        if self.ring.kind == "Zmod":
            return RingValue(self.ring, pow(self.payload, -1, self.ring.modulus))
        return self.star()

    def __eq__(self, other):
        return (
            isinstance(other, RingValue)
            and self.ring == other.ring
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.ring, self.payload))

    def format(self) -> str:
        if self.ring.kind == "Q":
            if self.payload.denominator == 1:
                return str(self.payload.numerator)
            return f"{self.payload.numerator}/{self.payload.denominator}"
        if self.ring.kind == "H":
            return "(" + ",".join(str(c) for c in self.payload) + ")"
        return str(self.payload)

    def __repr__(self):
        return f"<{self.ring.name}:{self.format()}>"


def frac_str(value) -> int | str:
    """Render an exact number for JSON: plain int, or ``"p/q"`` as a string."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"not an exact number: {value!r}")
