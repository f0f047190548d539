"""Finite free chain complexes over a group ring.

A complex stores the ranks of its levels and one matrix per differential,
with the double-boundary identity checked on construction.  The built-in
construction is the two-step complex of a presentation: level ranks
(1, generators, relators), first differential the column (1 - s_i),
second differential the Jacobian of free derivatives of the relators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, NotAFieldError, SpecParseError
from .group_ring import Character, GroupRingElement, GroupRingMatrix
from .groups import GroupOracle
from .rings import INTEGERS, Ring, RingValue


@dataclass
class ChainComplex:
    """ranks[k] is the rank of level k; differentials[k-1] maps level k to k-1."""

    ring: Ring
    group: GroupOracle
    ranks: tuple
    differentials: tuple

    def __post_init__(self):
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise SpecParseError("need one differential per adjacent pair of levels")
        for k, diff in enumerate(self.differentials, start=1):
            if diff.rows != self.ranks[k] or diff.cols != self.ranks[k - 1]:
                raise SpecParseError(
                    f"differential {k} has shape {diff.rows}x{diff.cols}, "
                    f"expected {self.ranks[k]}x{self.ranks[k - 1]}"
                )
        self.check_boundary_squares_to_zero()

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def differential(self, k: int) -> GroupRingMatrix:
        """The map from level k to level k-1."""
        return self.differentials[k - 1]

    def check_boundary_squares_to_zero(self):
        for k in range(2, self.top + 1):
            composite = self.differential(k) @ self.differential(k - 1)
            if not composite.is_zero():
                raise InvariantError(
                    f"double boundary is nonzero between levels {k} and {k - 2}"
                )

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))

    def dualize(self) -> "ChainComplex":
        """Reverse the complex, conjugate-transposing every differential."""
        ranks = tuple(reversed(self.ranks))
        differentials = tuple(
            self.differential(self.top - j + 1).conjugate_transpose()
            for j in range(1, self.top + 1)
        )
        return ChainComplex(self.ring, self.group, ranks, differentials)

    def twist(self, character: Character) -> "ChainComplex":
        differentials = tuple(d.twist(character) for d in self.differentials)
        return ChainComplex(self.ring, self.group, self.ranks, differentials)

    def homology_dimensions(self, field: Ring) -> list:
        """Dimensions of homology after augmenting all entries to the field.

        Augmentation sends every group element to 1, so entries become
        field scalars; ranks are computed by exact elimination.
        """
        matrices = [
            _augmented_matrix(self.differential(k), field)
            for k in range(1, self.top + 1)
        ]
        boundary_rank = [0] * (self.top + 2)
        for k, matrix in enumerate(matrices, start=1):
            boundary_rank[k] = _exact_rank(matrix)
        dims = []
        for k in range(self.top + 1):
            kernel_dim = self.ranks[k] - boundary_rank[k]
            dims.append(kernel_dim - boundary_rank[k + 1])
        return dims


def fox_derivatives_all(ring: Ring, group: GroupOracle, word) -> list:
    """All free derivatives of a word in one prefix walk, one per generator.

    Entry j - 1 is the derivative with respect to generator j.  Follows the
    product rule d(uv) = du + u.dv with d(s)/d(s) = 1 and
    d(s^-1)/d(s) = -s^-1, the prefixes evaluated in the group.
    """
    terms = [[] for _ in range(group.generator_count)]
    prefix = group.identity()
    one = ring.one
    for letter in word:
        if abs(letter) > group.generator_count:
            raise SpecParseError(f"letter {letter} out of range in {word!r}")
        if letter > 0:
            terms[letter - 1].append((prefix, one))
            prefix = group.multiply(prefix, group.letter(letter))
        else:
            prefix = group.multiply(prefix, group.letter(letter))
            terms[-letter - 1].append((prefix, -one))
    return [GroupRingElement(ring, group, t) for t in terms]


def fox_jacobian(ring: Ring, group: GroupOracle) -> GroupRingMatrix:
    """The relators-by-generators matrix of free derivatives."""
    presentation = group.presentation
    if presentation is None:
        raise SpecParseError(f"group {group.name} has no presentation")
    rows = [
        fox_derivatives_all(ring, group, relator)
        for relator in presentation.relators
    ]
    return GroupRingMatrix(ring, group, rows, presentation.generator_count)


def presentation_complex(group: GroupOracle, ring: Ring) -> ChainComplex:
    """Levels (1, generators, relators) with the standard differentials."""
    jacobian = fox_jacobian(ring, group)    # raises for a group with no presentation
    m = group.generator_count
    one = GroupRingElement.one(ring, group)
    column = GroupRingMatrix.column(
        [
            one - GroupRingElement.monomial(ring, group, group.generator(i))
            for i in range(1, m + 1)
        ]
    )
    return ChainComplex(
        ring,
        group,
        (1, m, len(group.presentation.relators)),
        (column, jacobian),
    )


def _augment_to_field(value: RingValue, field: Ring) -> RingValue:
    if value.ring not in (INTEGERS, field):
        raise NotAFieldError(
            f"cannot view {value.ring.name} coefficients inside the field {field.name}"
        )
    return field.value(value.payload)


def _augmented_matrix(matrix: GroupRingMatrix, field: Ring):
    if not field.is_field:
        raise NotAFieldError(f"{field.name} is not a supported field")
    return [
        [_augment_to_field(e.augmentation(), field) for e in row]
        for row in matrix.entries
    ]


def _exact_rank(rows) -> int:
    """Gaussian elimination on exact field values."""
    matrix = [list(row) for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next(
            (r for r in range(rank, len(matrix)) if not matrix[r][col].is_zero()),
            None,
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inverse = matrix[rank][col].inverse()
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col]
            if not factor.is_zero():
                scale = factor * inverse
                matrix[r] = [a - scale * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank
