"""Finitely generated groups behind a uniform oracle.

Every oracle keeps its elements in a canonical (hashable, totally ordered)
form, so equality is ``==`` and deduplication is dict membership:

* free groups: freely reduced words,
* free abelian groups: integer exponent vectors,
* the two flat one-relator groups (``Klein`` and ``T11b:2``): pairs (m, n)
  in the twisted-pair normal form a^m b^n with b a b^-1 = a^-1,
* hyperbolic surface-type one-relator presentations: the shortlex-least
  geodesic word, reached by a closure over half-relator swaps that
  restarts whenever a swap shortens the word,
* finite groups: the row index of an explicit multiplication table.

The closure alone solves the word problem on the presentations we
instantiate it on: one relator whose cyclic conjugates (and their
inverses) overlap in single letters only, of length at least 6.  There
every nontrivial word representing the identity contains more than half
of a relator conjugate (Dehn, 1912).  Swapping the first half of that
conjugate lets free reduction cancel a letter pair, so the closure finds
every such shortening, and the identity always ends at the empty word.
That the surviving words are geodesic is checked against Cannon's growth
series in the tests.
"""

from __future__ import annotations

import os
import re
from array import array
from functools import cached_property
from itertools import repeat

from .errors import BudgetError, GroupMismatchError, InvariantError, SpecParseError
from .words import (
    Word,
    commutator_word,
    free_reduce,
    invert_word,
    join_reduced,
    shortlex_key,
    word_from_string,
)

DEFAULT_BALL_BUDGET = 200_000
# DehnOracle's canonical memo is emptied at this size.  Only the products a
# ball cannot form by extension enter it, so queries (slim distances) fill it
CANONICAL_CACHE_LIMIT = 4 * DEFAULT_BALL_BUDGET
# the searches that outrun a ball (fill's closed walks, folner's grown
# sets and boxes) may do this much work per unit of budget
WORK_PER_BUDGET = 25


def current_budget() -> int:
    """The budget every search reads: ``PDFILL_BUDGET``, a positive
    integer, or ``DEFAULT_BALL_BUDGET`` when it is unset.

    It bounds the ball's elements, fill's distinct cycles and the word
    table's entries, and, ``WORK_PER_BUDGET`` times over, fill's walk
    visits, folner's grown sets and box elements, and the letters of a
    conjugate table.  Any other value raises ``SpecParseError``.
    """
    raw = os.environ.get("PDFILL_BUDGET")
    if raw is None:
        return DEFAULT_BALL_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise SpecParseError(f"PDFILL_BUDGET must be a positive integer, got {raw!r}")
    return value


class Presentation:
    """A finite presentation: generator count plus freely reduced relators.

    Relators are stored as a tuple of tuples, whatever sequences they are
    given as, so presentations compare and hash by their letters.
    """

    def __init__(self, generator_count: int, relators):
        if generator_count < 1:
            raise SpecParseError("need at least one generator")
        try:
            stored = tuple(map(tuple, relators))
        except TypeError:
            raise SpecParseError(f"relators must be sequences, got {relators!r}") from None
        for rel in stored:
            if not rel:
                raise SpecParseError("relators must be nonempty")
            for letter in rel:
                if not isinstance(letter, int):
                    raise SpecParseError(f"letter {letter!r} is not an integer in {rel!r}")
                if not 1 <= abs(letter) <= generator_count:
                    raise SpecParseError(f"letter {letter} out of range in {rel!r}")
            if free_reduce(rel) != rel:
                raise SpecParseError(f"relator {rel!r} is not freely reduced")
        self.generator_count = generator_count
        self.relators = stored

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generator_count, self.relators) == (other.generator_count, other.relators)

    def __hash__(self):
        return hash((self.generator_count, self.relators))

    def __repr__(self):
        return f"Presentation(generator_count={self.generator_count!r}, relators={self.relators!r})"

    @cached_property
    def conjugates(self) -> tuple:
        """(relator index, word) once for each cyclic conjugate of each
        relator and of its inverse: by relator, the relator before its
        inverse, each by shift.  A periodic relator repeats none.

        The table holds up to 2|r|^2 letters per relator r; past
        ``WORK_PER_BUDGET`` times the budget it raises ``BudgetError``
        before building.
        """
        letters = sum(2 * len(relator) ** 2 for relator in self.relators)
        budget = current_budget()
        if letters > WORK_PER_BUDGET * budget:
            raise BudgetError(
                f"conjugate table of {letters} letters exceeded {WORK_PER_BUDGET * budget} "
                f"({WORK_PER_BUDGET} letters per unit of budget {budget})"
            )
        return tuple(dict.fromkeys(
            (r, word[k:] + word[:k])
            for r, relator in enumerate(self.relators)
            for word in (relator, invert_word(relator))
            for k in range(len(relator))
        ))


class GroupOracle:
    """Multiply / invert / identity-test bundle for one group.

    Elements are canonical hashable values specific to the subclass; two
    elements are equal in the group iff their representations are ``==``.

    A subclass supplies ``identity``, ``multiply`` and ``invert``, and hands
    its generator images to ``_set_generators`` once ``invert`` works and
    before anything evaluates a word.  That fills ``letters``, the image of
    every signed letter keyed 1, -1, 2, -2, ..., the shortlex letter order
    (``words.letter_key``), which ``ball`` and the word table walk.  All
    else derives from these.  ``as_word`` and ``word_length`` read a
    breadth-first table; a subclass with a closed form may override them,
    together with ``sort_key`` and ``shortlex_spheres``.
    """

    name: str
    generator_count: int
    presentation: Presentation | None
    letters: dict
    _words: _WordTable

    def _set_generators(self, images):
        """Fill ``letters`` from the generator images, inverses by ``invert``,
        and start the word table, which grows only when read.  Set here, in
        construction, it adds no attribute later: one added after
        ``__init__`` takes CPython's instance dict off its fast path."""
        self.generator_count = len(images)
        self.letters = {}
        for index, image in enumerate(images, start=1):
            self.letters[index] = image
            self.letters[-index] = self.invert(image)
        self._words = _WordTable(self)

    def identity(self):
        raise NotImplementedError

    def generator(self, index: int):
        """The image of the index-th generator (1-based)."""
        return self.letter(index)

    def letter(self, letter: int):
        """The image of a signed letter: ``-i`` gives the inverse generator."""
        try:
            return self.letters[letter]
        except KeyError:
            raise SpecParseError(f"letter {letter} out of range") from None

    def multiply(self, g, h):
        raise NotImplementedError

    def invert(self, g):
        raise NotImplementedError

    def is_identity(self, g) -> bool:
        return g == self.identity()

    def as_word(self, g) -> Word:
        """The shortlex-least geodesic word evaluating to g.

        Letters are ordered 1, -1, 2, -2, ... (``words.letter_key``), so the
        word is freely reduced, has length ``word_length(g)``, and each of
        its prefixes is the shortlex-least geodesic word of its own element.
        """
        return self._words.word(g)

    def word_length(self, g) -> int:
        """Distance from the identity in the word metric of the generators."""
        return self._words.entry(g)[0]

    def evaluate(self, word) -> object:
        out = self.identity()
        for letter in word:
            out = self.multiply(out, self.letter(letter))
        return out

    def sort_key(self, g):
        return g

    # True when each element is its own ``as_word`` and ``sort_key`` is
    # shortlex, so ``ball`` grows each sphere already in key order
    shortlex_spheres = False

    def distance(self, g, h) -> int:
        return self.word_length(self.multiply(self.invert(g), h))

    def __repr__(self):
        return f"<group {self.name}>"


class _WordTable:
    """Each element's distance and the last letter of its shortlex-least
    geodesic word (0 for the identity), grown breadth-first one whole
    sphere at a time on demand.

    Spheres are read in shortlex order and letters as 1, -1, 2, -2, ...,
    so an element is first reached by its shortlex-least word and the next
    sphere comes out in shortlex order too.  Past ``current_budget()``
    entries, a lookup that needs another sphere raises ``BudgetError``;
    the table stays whole.
    """

    def __init__(self, oracle: GroupOracle):
        self.oracle = oracle
        self.entries = {oracle.identity(): (0, 0)}
        self.frontier = [oracle.identity()]
        self.radius = 0

    def entry(self, g) -> tuple:
        """g's (distance, last letter)."""
        entries = self.entries
        while g not in entries:
            if not self.frontier:
                raise GroupMismatchError("element not generated by the chosen generators")
            if len(entries) > (budget := current_budget()):
                raise BudgetError(
                    f"word table of {self.oracle.name} exceeded budget "
                    f"{budget} at radius {self.radius}",
                    attained_radius=self.radius,
                )
            self.radius += 1
            nxt = []
            multiply = self.oracle.multiply
            steps = self.oracle.letters.items()
            for h in self.frontier:
                for s, image in steps:
                    product = multiply(h, image)
                    if product not in entries:
                        entries[product] = (self.radius, s)
                        nxt.append(product)
            self.frontier = nxt
        return entries[g]

    def word(self, g) -> Word:
        """g's word, read back one last letter at a time."""
        letters = []
        while letter := self.entry(g)[1]:
            letters.append(letter)
            g = self.oracle.multiply(g, self.oracle.letters[-letter])
        return tuple(reversed(letters))


class _HalfAutomaton(dict):
    """Reads a word letter by letter and stops where it completes a half.

    The halves are words of one length, ``half``.  A state is the longest
    suffix of the word read so far that is a proper prefix of a half;
    states are numbered as they are first reached, 0 being the empty
    suffix, and ``suffixes[q]`` spells state q.  So a word holds a half
    exactly when some letter completes one (Aho and Corasick, 1975): the
    half's first ``half - 1`` letters are then the state before it.  With
    no halves there is one state, which every letter keeps.

    The automaton maps each state to its row, built the first time the
    state is read.  A row has one entry per signed letter, read by the
    letter itself (a list of 2m + 1, so -s falls at 2m + 1 - s): the next
    state, or -1 when the letter completes a half.  ``fails[q]`` is the
    state of the longest proper suffix of state q that starts a half; a
    letter that does not extend q to a prefix of a half goes where it goes
    from there.  There are at most 1 + (number of halves) × (half - 1)
    states, and the budget bounds the conjugate table the halves come
    from, but a full table has 2m entries a state, about 64 g^3 on
    Sigma_g, so only the states words reach get rows.  For the same
    reason no set of prefixes is kept: it would hold about (number of
    halves) × half^2 / 2 letters.  ``spans[q]`` is the range of the
    sorted halves that start with state q's suffix instead.
    """

    def __init__(self, halves, generator_count):
        super().__init__()
        self.half = len(next(iter(halves), ()))
        self.width = 2 * generator_count + 1
        self.sorted_halves = sorted(halves)
        self.suffixes = [()]
        self.fails = [0]
        self.spans = [(0, len(self.sorted_halves))]

    def __missing__(self, state) -> list:
        # fail states are shorter: build the chain's unbuilt rows shortest
        # first, with no recursion as deep as a half
        chain = [state]
        while chain[-1] and self.fails[chain[-1]] not in self:
            chain.append(self.fails[chain[-1]])
        for q in reversed(chain):
            row = self[q] = self._row(q)
        return row

    def _row(self, state) -> list:
        suffix = self.suffixes[state]
        depth = len(suffix)
        # a letter that extends no prefix of a half goes where it goes from
        # the fail state, which is shorter than a half, so completes none
        row = self[self.fails[state]].copy() if suffix else [0] * self.width
        # the sorted halves that start with the suffix: those that share
        # the next letter lie together, and each run is one letter's child
        halves = self.sorted_halves
        start, stop = self.spans[state]
        while start < stop:
            s = halves[start][depth]
            end = start + 1
            while end < stop and halves[end][depth] == s:
                end += 1
            if depth + 1 == self.half:
                row[s] = -1
            else:
                self.fails.append(row[s])    # the fail state's entry, 0 from state 0
                row[s] = len(self.suffixes)
                self.suffixes.append(suffix + (s,))
                self.spans.append((start, end))
            start = end
        return row


class _WordElementOracle(GroupOracle):
    """Elements are their own shortlex-least geodesic words (free and Dehn).

    ``automaton`` reads the halves, the first halves of the relator
    conjugates, all of one length, the only subwords a half-swap rewrites:
    one table lookup per letter.  A free group has none, so ``ball``
    extends its words with no product.  Since the words are prefix-closed,
    ``ball`` keeps no element index for these oracles: a product is found
    by reading its word through the steps.  A Dehn oracle also keeps
    ``halves``, (keys, half), for the words it reads one at a time.  Each
    subclass sets ``automaton`` in ``__init__``, before any word is read:
    an attribute added later, as a ``cached_property`` adds it, takes
    CPython's instance dict off its fast path, and every attribute read on
    the oracle after it is slower.
    """

    shortlex_spheres = True
    automaton: _HalfAutomaton

    def identity(self):
        return ()

    def as_word(self, g):
        return g

    def word_length(self, g):
        return len(g)

    def sort_key(self, g):
        return shortlex_key(g)


class FreeGroupOracle(_WordElementOracle):
    def __init__(self, rank: int):
        if rank < 1:
            raise SpecParseError("free group rank must be >= 1")
        self.name = f"F{rank}"
        self.presentation = Presentation(rank, ())
        self.automaton = _HalfAutomaton(frozenset(), rank)
        self._set_generators([(i,) for i in range(1, rank + 1)])

    def multiply(self, g, h):
        return join_reduced(g, h)

    def invert(self, g):
        return invert_word(g)


class FreeAbelianOracle(GroupOracle):
    def __init__(self, rank: int, name: str | None = None):
        if rank < 1:
            raise SpecParseError("free abelian rank must be >= 1")
        self.name = name or f"Z^{rank}"
        relators = tuple(
            commutator_word(i, j)
            for i in range(1, rank + 1)
            for j in range(i + 1, rank + 1)
        )
        self.presentation = Presentation(rank, relators)
        self._set_generators(
            [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        )

    def identity(self):
        return (0,) * self.generator_count

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def invert(self, g):
        return tuple(-a for a in g)

    def as_word(self, g):
        letters = []
        for index, exponent in enumerate(g, start=1):
            sign = 1 if exponent > 0 else -1
            letters.extend([sign * index] * abs(exponent))
        return tuple(letters)

    def word_length(self, g):
        return sum(abs(a) for a in g)


class TwistedPairOracle(GroupOracle):
    """The group with normal form a^m b^n and b a b^-1 = a^-1.

    Elements are pairs (m, n) with product
    ``(m1, n1) (m2, n2) = (m1 + (-1)^n1 m2, n1 + n2)``.  Generators of the
    hosted presentation are given as explicit pairs, so the same model
    serves both the ``a b a b^-1`` and the ``a^2 b^2`` presentations of
    the flat non-orientable group.  Words come from the breadth-first
    table, which is right for any images.
    """

    def __init__(self, name, presentation, generator_images):
        self.name = name
        self.presentation = presentation
        self._set_generators(tuple(generator_images))
        for rel in presentation.relators:
            if not self.is_identity(self.evaluate(rel)):
                raise SpecParseError(f"generator images break relator {rel!r}")

    def identity(self):
        return (0, 0)

    def multiply(self, g, h):
        m1, n1 = g
        m2, n2 = h
        sign = 1 if n1 % 2 == 0 else -1
        return (m1 + sign * m2, n1 + n2)

    def invert(self, g):
        m, n = g
        sign = 1 if n % 2 == 0 else -1
        return (-sign * m, -n)


class KleinOracle(TwistedPairOracle):
    """The twisted pair on its normal-form generators a = (1, 0), b = (0, 1),
    presented as <a, b | a b a b^-1>.  There the shortlex-least geodesic
    word of (m, n) is a^m b^n."""

    def __init__(self):
        presentation = Presentation(2, (word_from_string("a*b*a*b^-1"),))
        super().__init__("Klein", presentation, [(1, 0), (0, 1)])

    def as_word(self, g):
        m, n = g
        return (1 if m > 0 else -1,) * abs(m) + (2 if n > 0 else -2,) * abs(n)

    def word_length(self, g):
        return abs(g[0]) + abs(g[1])


class DehnOracle(_WordElementOracle):
    """Word problem and canonical form by one half-swap closure.

    Elements are geodesic words in shortlex-least form.  A half-swap
    replaces the first half of a relator conjugate r with the inverse of
    its second half.  The closure walks all swaps of the freely reduced
    word; a swap that comes out shorter restarts it from that word, and a
    closure with none yields its shortlex-least member.  No separate
    shortening pass is needed: when a word holds r[:h+k] with h = |r|/2 and
    k >= 1, swapping r[:h] puts r[h]^-1 next to r[h], and free reduction
    cancels them.
    """

    def __init__(self, name, presentation):
        self.name = name
        self.presentation = presentation
        if len(presentation.relators) != 1:
            raise SpecParseError("Dehn oracle needs exactly one relator")
        (rel,) = presentation.relators
        if len(rel) < 6 or len(rel) % 2:
            raise SpecParseError(
                f"Dehn oracle needs even relator length >= 6, got {rel!r}"
            )
        # probe table: a subword of half the relator's length pins down the
        # conjugates it can start, so swap scans are dict lookups.  It maps
        # to what each swap puts in its place, the inverse of the second
        # half, reduced already: free reduction ends at the same word
        # whichever cancellations it makes first
        half = len(rel) // 2
        self._swap_probe: dict = {}
        for _, rot in presentation.conjugates:
            self._swap_probe.setdefault(rot[:half], []).append(
                free_reduce(invert_word(rot[half:]))
            )
        # a word's windows are looked up in halves, which reads no row of
        # the automaton: on a surface relator each state fails to its own
        # suffix, so one word of n letters would build about n × half rows
        self.halves = (self._swap_probe.keys(), half)
        self.automaton = _HalfAutomaton(self.halves[0], presentation.generator_count)
        self._canonical_cache: dict = {}
        self._set_generators(
            [(i,) for i in range(1, presentation.generator_count + 1)]
        )

    def multiply(self, g, h):
        # both factors are canonical, so freely reduced: only the seam cancels
        word = join_reduced(g, h)
        result = self._canonical_cache.get(word)
        return self._canonical_miss(word) if result is None else result

    def invert(self, g):
        return self.canonical(invert_word(g))

    def canonical(self, word) -> Word:
        word = free_reduce(word)
        result = self._canonical_cache.get(word)
        return self._canonical_miss(word) if result is None else result

    def _canonical_miss(self, word) -> Word:
        """The canonical form of a freely reduced word the cache lacks.

        A word with none of ``halves`` among its subwords of that length
        admits no swap, so it is its own closure and its own canonical form;
        only a word holding one runs the closure.  ``ball`` forms most such
        words by extension and never comes here.  Every cache entry is made
        here, after the size check, so the cache never holds more than the
        limit plus one closure and its input.
        """
        cache = self._canonical_cache
        if len(cache) >= CANONICAL_CACHE_LIMIT:
            cache.clear()    # a pure memo: no answer changes
        keys, half = self.halves
        for start in range(len(word) - half + 1):
            if word[start:start + half] in keys:
                break
        else:
            cache[word] = word
            return word
        current = word
        while True:
            seen, shorter = self._swap_closure(current)
            if shorter is None:
                break
            current = shorter
            if (result := cache.get(current)) is not None:
                cache[word] = result
                return result
        if len(seen) == 1:
            result = current
        else:
            result = min(seen, key=shortlex_key)
            cache.update(dict.fromkeys(seen, result))
        cache[current] = cache[word] = result
        return result

    def _swap_closure(self, start_word):
        """All words reached by half-swaps, or a strictly shorter one.

        Returns (seen, None) when every swap keeps the length, and
        (None, shorter) as soon as one swap shortens the word.  Words are
        scanned by start position, and only where a half fits.  Every word
        here is freely reduced, so a swap cancels only at its two seams.
        """
        probe = self._swap_probe
        half = self.halves[1]
        seen = {start_word}
        queue = [start_word]
        while queue:
            current = queue.pop()
            n = len(current)
            for start in range(n - half + 1):
                end = start + half
                for tail in probe.get(current[start:end], ()):
                    swapped = join_reduced(
                        join_reduced(current[:start], tail), current[end:]
                    )
                    if len(swapped) < n:
                        return None, swapped
                    if swapped not in seen:
                        seen.add(swapped)
                        queue.append(swapped)
        return seen, None


class FiniteTableOracle(GroupOracle):
    """A finite group given by its full multiplication table."""

    def __init__(self, table, generators=None, name: str | None = None):
        order = len(table)
        for row in table:
            if len(row) != order or sorted(row) != list(range(order)):
                raise SpecParseError("multiplication table rows must be permutations")
        identity = None
        for e in range(order):
            if all(table[e][x] == x and table[x][e] == x for x in range(order)):
                identity = e
                break
        if identity is None:
            raise SpecParseError("table has no identity element")
        inverses = [None] * order
        for g in range(order):
            for h in range(order):
                if table[g][h] == identity:
                    inverses[g] = h
            if inverses[g] is None or table[inverses[g]][g] != identity:
                raise SpecParseError("table has a non-invertible element")
        for g in range(order):
            for h in range(order):
                for k in range(order):
                    if table[table[g][h]][k] != table[g][table[h][k]]:
                        raise SpecParseError("table is not associative")
        if generators is None:
            generators = [g for g in range(order) if g != identity]
        generators = list(generators)
        for g in generators:
            if g not in range(order):
                raise SpecParseError(f"generator {g!r} is not an element of the table")
        self._table = [tuple(row) for row in table]
        self._identity = identity
        self._inverses = inverses
        self.name = name or f"table{order}"
        self.presentation = None
        self._set_generators(generators)

    def identity(self):
        return self._identity

    def multiply(self, g, h):
        return self._table[g][h]

    def invert(self, g):
        return self._inverses[g]


class Ball(list):
    """The (element, distance) pairs of ``ball``, with its step table as ``steps``."""


def ball(oracle: GroupOracle, radius: int) -> Ball:
    """All elements of word length <= radius, as (element, distance) pairs.

    The pairs come by distance and, within a sphere, in the order of the
    oracle's canonical key, so the output is deterministic and the
    identity comes first.  Raises ``BudgetError`` naming the last
    completed radius if the ball outgrows ``current_budget()``, which
    reads ``PDFILL_BUDGET`` as the command line does.

    ``steps`` holds one integer array per signed letter, keyed 1, -1, 2,
    -2, ...: ``steps[s][i]`` is the index of g_i s, or -1 when g_i s lies
    outside the ball.  One rule grows it.  Sphere r is grown by walking
    sphere r - 1 element by element and letter by letter, and each step
    g s is formed once, from whichever end the walk reaches first: it is
    found then and written both ways, as ``steps[s]`` at g and
    ``steps[-s]`` at g s.  A step already written is skipped; its far end
    is found already.  A new element takes the next index and is checked
    against the budget at once.  With even relators, letter ->
    1 extends to G -> Z/2, so no step stays in a sphere, and the outer
    sphere's steps inside the ball are all written from the sphere inside
    it.  Without a presentation or with an odd relator, one more pass of
    the walk over the outer sphere writes the rest and forms no element.

    Oracles with ``shortlex_spheres`` (free and Dehn groups) grow each
    sphere already in key order.  There an element's canonical form is
    its shortlex-least geodesic word w s, and w is then the canonical form
    of the element one step in.  Any other product g t reaching the same
    element spells a word no smaller, so g comes after w in its sphere, or
    g = w and t comes after s.  Spheres are walked in order and letters as
    1, -1, 2, -2, ..., the shortlex letter order, so each element is first
    reached as w s and the new sphere comes out in shortlex order.  So
    these balls keep no element index: a product that spells g s is new,
    and any other was formed already, from its own prefix.  Its word, read
    from the identity through ``steps``, ends at its index, as every step
    below sphere r is written.  Only g s itself could leave them, at its
    last letter, so a word that does is no canonical form and raises
    ``InvariantError``.  Other oracles index each sphere in a dict in
    order of discovery, and the whole ball is sorted once at the end.

    There most steps need no product.  The step that cancels the last
    letter of g's word was written when g was formed from its prefix.  A
    word is clean when it holds none of the oracle's halves, and each
    clean element keeps the state its word leaves the oracle's
    ``automaton`` in.  A clean g times any other letter s is clean and its
    own canonical form when s leads that state to another, not -1: then
    g s is a new element after one table lookup.  The remaining steps call
    ``multiply``, and the elements they form are not clean.
    """
    if radius < 0:
        raise SpecParseError("radius must be >= 0")
    budget = current_budget()
    multiply = oracle.multiply
    out = Ball([(oracle.identity(), 0)])
    steps = out.steps = {s: array("i", [-1]) for s in oracle.letters}
    extensions = [
        (s, (s,), image, steps[s], steps[-s]) for s, image in oracle.letters.items()
    ]
    index = {oracle.identity(): 0}    # not grown when shortlex
    count = 1    # the elements formed
    shortlex = oracle.shortlex_spheres
    rows = oracle.automaton if shortlex else None
    # per element: its automaton state, -1 when it is not clean or no word
    states = [0 if shortlex else -1]
    presentation = oracle.presentation
    odd = presentation is None or any(len(rel) % 2 for rel in presentation.relators)
    start = 0
    for r in range(1, radius + 1 + odd):
        first = len(out)    # sphere r - 1 is out[start:first]
        # room for a new element per unwritten step of sphere r - 1: each
        # element but the identity was formed by a step written both ways
        room = (first - start) * (len(extensions) - 1) + 1
        for step in steps.values():
            step.extend(array("i", [-1]) * room)
        grow = r <= radius    # the odd pass forms no element
        # k == count: h is new, or outside the ball on the odd pass
        lookup = None if shortlex else index.setdefault if grow else index.get
        nxt = []
        for i, (g, _) in enumerate(out[start:], start):
            if (state := states[i]) >= 0:
                row = rows[state]
            for s, suffix, image, step, back in extensions:
                if step[i] >= 0:
                    continue
                if state >= 0 and (next_state := row[s]) >= 0:
                    h, k = g + suffix, count
                elif lookup is not None:
                    h, next_state = multiply(g, image), -1
                    k = lookup(h, count)
                elif (h := multiply(g, image)) == g + suffix:
                    # not clean: a product is never read, and a canonical
                    # word may hold a half that a swap of its length keeps
                    k, next_state = count, -1
                else:
                    k = 0
                    for letter in h:
                        if (k := steps[letter][k]) < 0:
                            raise InvariantError(f"{h!r} is not the canonical word of its element")
                if k == count:
                    if not grow:
                        continue
                    count += 1
                    nxt.append(h)
                    states.append(next_state)
                    if k >= budget:
                        raise BudgetError(
                            f"ball of {oracle.name} exceeded budget {budget} "
                            f"at radius {r} (previous radius {r - 1} complete)",
                            attained_radius=r - 1,
                        )
                step[i], back[k] = k, i
        out.extend(zip(nxt, repeat(r)))
        for step in steps.values():
            del step[len(out):]
        start = first
    if not shortlex:
        sort_key = oracle.sort_key
        order = sorted(range(len(out)), key=lambda i: (out[i][1], sort_key(out[i][0])))
        moved = array("i", [-1]) * (len(out) + 1)    # moved[-1] stays -1
        for k, i in enumerate(order):
            moved[i] = k
        out[:] = [out[i] for i in order]
        for step in steps.values():
            step[:] = array("i", [moved[step[i]] for i in order])
    return out


def surface_relator(genus: int) -> Word:
    word = []
    for i in range(genus):
        word.extend(commutator_word(2 * i + 1, 2 * i + 2))
    return tuple(word)


def nonorientable_relator(genus: int) -> Word:
    word = []
    for i in range(1, genus + 1):
        word.extend([i, i])
    return tuple(word)


def free_group(rank: int) -> GroupOracle:
    return FreeGroupOracle(rank)


def free_abelian(rank: int) -> GroupOracle:
    return FreeAbelianOracle(rank)


def surface_group(genus: int) -> GroupOracle:
    """Closed orientable surface group; genus >= 2 (use Z^2 or Klein when flat)."""
    if genus < 2:
        raise SpecParseError(
            "surface(genus) needs genus >= 2; use free_abelian(2) or "
            "klein_bottle() for the flat cases"
        )
    presentation = Presentation(2 * genus, (surface_relator(genus),))
    return DehnOracle(f"Sigma{genus}", presentation)


def klein_bottle() -> GroupOracle:
    return KleinOracle()


def orientable_type(genus: int) -> GroupOracle:
    """<g1..g2n | prod [g(2i-1), g(2i)]> for n >= 1."""
    if genus < 1:
        raise SpecParseError("orientable type needs genus >= 1")
    if genus == 1:
        return FreeAbelianOracle(2, name="T11a:1")
    presentation = Presentation(2 * genus, (surface_relator(genus),))
    return DehnOracle(f"T11a:{genus}", presentation)


def nonorientable_type(genus: int) -> GroupOracle:
    """<g1..gn | g1^2 ... gn^2> for n >= 2."""
    if genus < 2:
        raise SpecParseError("non-orientable type needs genus >= 2")
    presentation = Presentation(genus, (nonorientable_relator(genus),))
    if genus == 2:
        # flat case: embed into the twisted-pair model via g1 = ab, g2 = b^-1
        return TwistedPairOracle("T11b:2", presentation, [(1, 1), (0, -1)])
    return DehnOracle(f"T11b:{genus}", presentation)


def finite_table(table, generators=None, name=None) -> GroupOracle:
    return FiniteTableOracle(table, generators, name)


def cyclic_table(order: int):
    return [[(i + j) % order for j in range(order)] for i in range(order)]


_GROUP_PATTERNS = (
    (re.compile(r"F(\d+)"), lambda m: free_group(int(m.group(1)))),
    (re.compile(r"Z\^(\d+)"), lambda m: free_abelian(int(m.group(1)))),
    (re.compile(r"Sigma(\d+)"), lambda m: surface_group(int(m.group(1)))),
    (re.compile(r"Klein"), lambda m: klein_bottle()),
    (re.compile(r"T11a:(\d+)"), lambda m: orientable_type(int(m.group(1)))),
    (re.compile(r"T11b:(\d+)"), lambda m: nonorientable_type(int(m.group(1)))),
)


def make_group(spec: str) -> GroupOracle:
    """Parse a group spec string: F2, Z^2, Sigma2, Klein, T11a:3, T11b:2."""
    spec = spec.strip()
    for pattern, builder in _GROUP_PATTERNS:
        m = pattern.fullmatch(spec)
        if m:
            return builder(m)
    raise SpecParseError(f"unknown group spec {spec!r}")


def builtin_group_specs():
    """The group specs exercised across the test-suite and the CLI docs."""
    return ["F2", "Z^2", "Sigma2", "Klein", "T11a:1", "T11a:2", "T11a:3",
            "T11b:2", "T11b:3", "T11b:4"]
