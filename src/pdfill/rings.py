"""Exact coefficient rings with involution.

Four rings are supported: the integers ``Z``, the rationals ``Q``, the
residue rings ``Z/m`` for m >= 2, and the integer quaternions ``H``.  The
first three are commutative and carry the identity involution; ``H``
carries quaternion conjugation and is the one genuinely noncommutative
ring in the family.

A value's payload is a number that carries its own arithmetic: an ``int``
in Z, a ``Fraction`` in Q, an ``int`` reduced mod m in Z/m, and a private
integer quaternion type in H.  So every ring shares one arithmetic: ``+``,
``-`` and ``*`` act on the payloads (in Z/m the result is reduced mod m),
the involution is the payload's ``conjugate()``, zero is the falsy
payload, and a value prints as ``str`` of its payload.  The rings differ
only in their units and inverses, and in ``Ring.is_field``: Q, or Z/p
with p prime, the rings homology is taken over.

All arithmetic is exact, never floats.  Values are immutable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import RingMismatchError, SpecParseError


def _is_integer(raw) -> bool:
    """An integer is an ``int`` that is not a ``bool``, in every ring."""
    return isinstance(raw, int) and not isinstance(raw, bool)


# Miller-Rabin with the first 12 primes as bases decides every n below
# PRIME_TEST_LIMIT, the least strong pseudoprime to all of them (Sorenson
# and Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 86,
# 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_TEST_LIMIT = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < ``PRIME_TEST_LIMIT``."""
    if n >= PRIME_TEST_LIMIT:
        raise SpecParseError(
            f"cannot decide whether {n} is prime: the test is exact below {PRIME_TEST_LIMIT}"
        )
    if n in PRIME_BASES:
        return True
    if any(n % p == 0 for p in PRIME_BASES):
        return False
    odd, twos = n - 1, 0    # n - 1 = odd * 2^twos
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in PRIME_BASES:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False    # base witnesses that n is composite
    return True


class Ring:
    """Descriptor for one of the supported coefficient rings.

    ``kind`` is one of ``"Z"``, ``"Q"``, ``"Zmod"``, ``"H"``; ``modulus``
    is set only for ``Zmod`` and must be at least 2, so every ring has at
    least two elements.  Rings compare and hash by kind and modulus.
    """

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in ("Z", "Q", "Zmod", "H"):
            raise SpecParseError(f"unknown ring kind {kind!r}")
        if kind == "Zmod":
            if modulus is None or modulus < 2:
                raise SpecParseError("residue ring needs a modulus >= 2")
        elif modulus is not None:
            raise SpecParseError(f"ring {kind!r} takes no modulus")
        self.kind = kind
        self.modulus = modulus

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"Ring(kind={self.kind!r}, modulus={self.modulus!r})"

    @property
    def name(self) -> str:
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind

    @property
    def commutative(self) -> bool:
        return self.kind != "H"

    @property
    def is_field(self) -> bool:
        """Whether every nonzero value is a unit: Q, or Z/p with p prime.

        Raises ``SpecParseError`` for a modulus the prime test cannot decide.
        """
        if self.kind == "Zmod":
            return _is_prime(self.modulus)
        return self.kind == "Q"

    def value(self, raw) -> RingValue:
        """Wrap a raw payload, normalising it into canonical form.

        Every ring takes an integer; Q also takes a ``Fraction``, and H a
        4-tuple of integers.
        """
        if self.kind == "Q" and isinstance(raw, Fraction):
            return RingValue(self, raw)
        if self.kind == "H" and isinstance(raw, (tuple, list)):
            if len(raw) != 4 or not all(_is_integer(c) for c in raw):
                raise SpecParseError(f"quaternion ring got {raw!r}")
            return RingValue(self, _Quaternion(*raw))
        if not _is_integer(raw):
            raise SpecParseError(f"ring {self.name} got {raw!r}")
        if self.kind == "Q":
            return RingValue(self, Fraction(raw))
        if self.kind == "H":
            return RingValue(self, _Quaternion(raw, 0, 0, 0))
        return self._make(raw)

    def _make(self, payload) -> RingValue:
        """Wrap a payload that arithmetic produced; in Z/m, reduce it mod m."""
        if self.modulus is not None:
            payload %= self.modulus
        return RingValue(self, payload)

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


class _Quaternion(NamedTuple):
    """The integer quaternion w + x i + y j + z k.

    It equals the 4-tuple (w, x, y, z), and is false only when zero.
    """

    w: int
    x: int
    y: int
    z: int

    def __add__(self, other):
        return _Quaternion(*(a + b for a, b in zip(self, other)))

    def __neg__(self):
        return _Quaternion(*(-a for a in self))

    def __mul__(self, other):
        w1, x1, y1, z1 = self
        w2, x2, y2, z2 = other
        return _Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self):
        return _Quaternion(self.w, -self.x, -self.y, -self.z)

    def __bool__(self):
        return any(self)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self) + ")"


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
        return self.ring._make(self.payload + other.payload)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.ring._make(-self.payload)

    def __mul__(self, other):
        self._check(other)
        return self.ring._make(self.payload * other.payload)

    def star(self) -> "RingValue":
        """The involution: identity on commutative rings, conjugation on H."""
        return RingValue(self.ring, self.payload.conjugate())

    def is_zero(self) -> bool:
        return not self.payload

    def is_unit(self) -> bool:
        if self.ring.kind == "Q":
            return not self.is_zero()
        if self.ring.kind == "Zmod":
            return gcd(self.payload, self.ring.modulus) == 1
        # in Z and H a value is a unit exactly when its norm is one
        return self * self.star() == self.ring.one

    def inverse(self) -> "RingValue":
        if not self.is_unit():
            raise SpecParseError(f"{self!r} is not a unit in {self.ring.name}")
        if self.ring.kind == "Q":
            return RingValue(self.ring, 1 / self.payload)
        if self.ring.kind == "Zmod":
            return RingValue(self.ring, pow(self.payload, -1, self.ring.modulus))
        # a unit of norm one is inverted by its conjugate
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
        return str(self.payload)

    def __repr__(self):
        return f"<{self.ring.name}:{self.format()}>"


def frac_str(value) -> int | str:
    """Render an exact number for JSON: plain int, or ``"p/q"`` as a string."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    raise TypeError(f"not an exact number: {value!r}")
