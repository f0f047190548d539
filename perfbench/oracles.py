"""Reference computations the benchmark checks pdfill's outputs against.

Nothing here imports pdfill: each function computes its answer from a
different argument than the program uses, so a fault in the program does
not also sit in the reference.

* ``cannon_sphere_sizes``: sphere sizes of a closed orientable surface
  group from its rational growth series (Cannon 1984; Floyd-Plotnick 1987).
* ``SurfaceModel``: the genus-2 surface group as the side pairings of the
  regular hyperbolic octagon with angles pi/4, in SU(1,1).  Elements are
  told apart by where they move the octagon's centre, so the word problem
  needs no rewriting.
* ``plane_filling``: the filling of a closed lattice path in the plane is
  its winding-number function, because the plane is contractible.
* ``rooted_subtree_counts``: connected sets through a fixed vertex of a
  regular tree, from the generating function of rooted subtrees.
* ``solve_exact``: Gaussian elimination over Q.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def parse_word(text: str) -> tuple:
    """``"a^2*b^-1"`` as signed generator indices; ``"1"`` is the empty word."""
    if text == "1":
        return ()
    letters = []
    for factor in text.split("*"):
        name, _, exponent = factor.partition("^")
        power = int(exponent) if exponent else 1
        index = _LETTERS.index(name) + 1
        letters.extend([index if power > 0 else -index] * abs(power))
    return tuple(letters)


def parse_number(value) -> Fraction:
    """An exact number as the CLI prints it: an int or a ``"p/q"`` string."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    numerator, _, denominator = value.partition("/")
    return Fraction(int(numerator), int(denominator))


def cannon_sphere_sizes(genus: int, radius: int) -> list:
    """|S(0)|..|S(radius)| for <a1 b1 .. ag bg | [a1, b1] .. [ag, bg]>.

    Growth series: (1 + 2x + ... + 2x^(2g-1) + x^(2g)) divided by
    (1 - (4g-2)(x + ... + x^(2g-1)) + x^(2g)).
    """
    top = 2 * genus
    numerator = [1] + [2] * (top - 1) + [1]
    denominator = [1] + [-(4 * genus - 2)] * (top - 1) + [1]
    sizes = []
    for n in range(radius + 1):
        value = numerator[n] if n < len(numerator) else 0
        for k in range(1, min(n, top) + 1):
            value -= denominator[k] * sizes[n - k]
        sizes.append(value)
    return sizes


def rooted_subtree_counts(degree: int, size_max: int) -> list:
    """Connected n-sets through a fixed vertex of the degree-regular tree.

    A branch hanging below a non-root vertex has generating function
    B = x (1 + B)^(degree - 1); the root has degree branches, so the
    answer is the series x (1 + B)^degree.  Entry n - 1 is the count of
    size n, for n = 1..size_max.
    """

    def times(p, q):
        out = [0] * (size_max + 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q[: size_max + 1 - i]):
                    out[i + j] += a * b
        return out

    def power(p, k):
        out = [1] + [0] * size_max
        for _ in range(k):
            out = times(out, p)
        return out

    branch = [0] * (size_max + 1)
    for _ in range(size_max):
        one_plus = [1] + branch[1:]
        branch = [0] + power(one_plus, degree - 1)[:size_max]
    one_plus = [1] + branch[1:]
    rooted = [0] + power(one_plus, degree)[:size_max]
    return rooted[1:]


def plane_filling(word, radius: int, bound: int):
    """Edge support and filling of a closed word in <a, b | [a, b]> on the plane.

    Returns (cycle, filler_norm or None), the cycle as its nonzero signed
    edge coefficients keyed by (x, y, vertical).  The window is the radius
    ball |x| + |y| <= radius; its faces are the unit squares with all
    four corners inside.  The unique filling in the whole plane gives each
    square its winding number; the window fills the cycle exactly when
    every square of nonzero winding is a window face with
    |winding| <= bound, and then the filler's support is those squares.
    """
    x = y = 0
    horizontal: dict = {}   # (column x, height y) -> net crossings in +x
    edges: dict = {}
    for letter in word:
        dx, dy = {1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1)}[letter]
        nx, ny = x + dx, y + dy
        if abs(nx) + abs(ny) > radius:
            raise ValueError(f"path leaves the radius-{radius} window")
        key = (min(x, nx), min(y, ny), dx == 0)
        sign = 1 if dx + dy > 0 else -1
        edges[key] = edges.get(key, 0) + sign
        if dy == 0:
            horizontal[key[:2]] = horizontal.get(key[:2], 0) + sign
        x, y = nx, ny
    if (x, y) != (0, 0):
        raise ValueError("word is not closed")

    columns: dict = {}
    for (cx, cy), c in horizontal.items():
        if c:
            columns.setdefault(cx, []).append((cy, c))
    filler_norm = 0
    fillable = True
    for cx, crossings in columns.items():
        crossings.sort()
        winding = 0
        for (cy, c), (next_y, _) in zip(crossings, crossings[1:]):
            winding += c
            if not winding:
                continue
            for sy in range(cy, next_y):
                filler_norm += 1
                corners = ((cx, sy), (cx + 1, sy), (cx, sy + 1), (cx + 1, sy + 1))
                if abs(winding) > bound or any(
                    abs(px) + abs(py) > radius for px, py in corners
                ):
                    fillable = False
    cycle = {key: c for key, c in edges.items() if c}
    return cycle, (filler_norm if fillable else None)


def solve_exact(rows: list, unknowns: int):
    """Solve sum_j coeffs[j] x_j = rhs over Q by Gauss-Jordan elimination.

    ``rows`` holds one (coeffs dict, rhs) pair per equation.  Returns
    (rank, solution): solution is None when the system is inconsistent,
    and otherwise a solution with every free unknown at 0, the only one
    when rank == unknowns.
    """
    pending = [[{j: Fraction(c) for j, c in coeffs.items() if c}, Fraction(rhs)]
               for coeffs, rhs in rows]
    reduced = []     # (pivot column, row) pairs
    for col in range(unknowns):
        candidates = [row for row in pending if col in row[0]]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda row: len(row[0]))
        pending.remove(pivot)
        scale = pivot[0][col]
        pivot[0] = {j: c / scale for j, c in pivot[0].items()}
        pivot[1] /= scale
        for row in pending + [r for _, r in reduced]:
            factor = row[0].get(col)
            if factor is None:
                continue
            for j, c in pivot[0].items():
                value = row[0].get(j, 0) - factor * c
                if value:
                    row[0][j] = value
                else:
                    row[0].pop(j)
            row[1] -= factor * pivot[1]
        reduced.append((col, pivot))
    if any(rhs for coeffs, rhs in pending if not coeffs):
        return len(reduced), None
    solution = [Fraction(0)] * unknowns
    for col, (_, rhs) in reduced:
        solution[col] = rhs
    return len(reduced), solution


class SurfaceModel:
    """The ball of radius ``radius`` in the genus-2 surface group.

    Generators a, b, c, d are orientation-preserving side pairings of the
    regular octagon with interior angles pi/4, chosen so that
    a b a^-1 b^-1 c d c^-1 d^-1 is the identity.  An element is stored as
    the pair (alpha, beta) of its SU(1,1) matrix and told apart from the
    others by the image of the octagon's centre, whose hyperboloid
    coordinates are (|alpha|^2 + |beta|^2, 2 alpha beta).  Distinct images
    lie at least 2 sinh(h) > 4 apart there, so a lookup by rounded
    coordinates with a tolerance of 1/2 is exact.
    """

    MOVES = (1, -1, 2, -2, 3, -3, 4, -4)   # generator index first, then sign

    def __init__(self, radius: int):
        # centre-to-side distance h of the octagon: cosh h = cot(pi/8)
        h = math.acosh(1 + math.sqrt(2))
        shift = (complex(math.cosh(h)), complex(math.sinh(h)))

        def rotation(eighths):
            return (cmath.exp(0.5j * eighths * math.pi / 4), 0j)

        def pairing(onto, side):
            # rotate side ``side`` to angle pi, cross it, rotate to ``onto``
            return self._mul(self._mul(rotation(onto), shift), rotation(4 - side))

        generators = {1: pairing(0, 2), 2: pairing(3, 1), 3: pairing(4, 6), 4: pairing(7, 5)}
        self.letters = {}
        for index, g in generators.items():
            self.letters[index] = g
            self.letters[-index] = self._inv(g)
        self.radius = radius
        self.elements = []
        self.lengths = []
        self._grid: dict = {}
        self._add((1 + 0j, 0j), 0)
        sphere = [0]
        for r in range(1, radius + 1):
            nxt = []
            for i in sphere:
                for letter in self.MOVES:
                    g = self._mul(self.elements[i], self.letters[letter])
                    if self.find(g) is None:
                        nxt.append(self._add(g, r))
            sphere = nxt

    @staticmethod
    def _mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return (a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())

    @staticmethod
    def _inv(x):
        return (x[0].conjugate(), -x[1])

    @staticmethod
    def _point(g):
        return 2 * g[0] * g[1]

    def _add(self, g, length):
        p = self._point(g)
        self._grid.setdefault((round(p.real), round(p.imag)), []).append(len(self.elements))
        self.elements.append(g)
        self.lengths.append(length)
        return len(self.elements) - 1

    def find(self, g):
        """Index of g in the ball, or None when g lies outside it."""
        p = self._point(g)
        kx, ky = round(p.real), round(p.imag)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for i in self._grid.get((kx + dx, ky + dy), ()):
                    if abs(self._point(self.elements[i]) - p) < 0.5:
                        return i
        return None

    def sphere_sizes(self) -> list:
        sizes = [0] * (self.radius + 1)
        for length in self.lengths:
            sizes[length] += 1
        return sizes

    def evaluate(self, word):
        g = (1 + 0j, 0j)
        for letter in word:
            g = self._mul(g, self.letters[letter])
        return g

    def step(self, i, letter):
        """Index of elements[i] * letter, or None outside the ball."""
        return self.find(self._mul(self.elements[i], self.letters[letter]))

    def distance(self, g, h) -> int:
        """Word distance between two matrices; radius + 1 when beyond the ball."""
        i = self.find(self._mul(self._inv(g), h))
        return self.radius + 1 if i is None else self.lengths[i]

    def lex_geodesic(self, start, end) -> list:
        """A geodesic vertex path, the first distance-decreasing move in MOVES order."""
        path = [start]
        current = start
        remaining = self.distance(current, end)
        while remaining > 0:
            for letter in self.MOVES:
                candidate = self._mul(current, self.letters[letter])
                if self.distance(candidate, end) == remaining - 1:
                    current = candidate
                    break
            else:
                raise ValueError("no distance-decreasing move inside the model's ball")
            path.append(current)
            remaining -= 1
        return path

    def triangle_slimness(self, corners) -> int:
        """Least d such that each side lies within d of the other two sides."""
        a, b, c = corners
        sides = [self.lex_geodesic(a, b), self.lex_geodesic(b, c), self.lex_geodesic(c, a)]
        worst = 0
        for i in range(3):
            others = sides[(i + 1) % 3] + sides[(i + 2) % 3]
            for x in sides[i]:
                worst = max(worst, min(self.distance(x, y) for y in others))
        return worst
