"""Closed walks of a window by brute force: the reference for ``_closed_cycles``.

Every non-backtracking word up to the cap is listed, its letters tried in
the order 1, -1, 2, -2, ... and each word before its extensions, and its
path is followed through the group oracle's ``multiply`` and looked up in
the window's vertex list.  A word whose path leaves the window is no walk
in it, and neither is any extension of it.  Each closed word's chain is
summed again from the center, letter by letter.  Nothing is pruned by
distance, and the window's step arrays and tracer are never read.
"""

from __future__ import annotations


def reference_closed_walks(complex_, cap):
    """[(word, chain)]: the first closed walk of each distinct nonzero chain.

    A chain is {edge id: nonzero coefficient}; a letter s > 0 from vertex
    u adds +1 on the edge u*m + s - 1, and s^-1 into vertex t adds -1 on
    the edge t*m + s - 1, for m generators.
    """
    group = complex_.group
    m = group.generator_count
    index = {g: i for i, g in enumerate(complex_.vertices)}
    center = index[group.identity()]
    letters = [s for g in range(1, m + 1) for s in (g, -g)]
    found = {}

    def chain(word, path):
        coefficients = {}
        for s, u, t in zip(word, path, path[1:]):
            e, c = (u * m + s - 1, 1) if s > 0 else (t * m - s - 1, -1)
            coefficients[e] = coefficients.get(e, 0) + c
        return {e: c for e, c in coefficients.items() if c}

    def extend(word, element, path):
        if word and path[-1] == center:
            coefficients = chain(word, path)
            key = tuple(sorted(coefficients.items()))
            if key and key not in found:
                found[key] = (word, coefficients)
        if len(word) == cap:
            return
        for s in letters:
            if word and s == -word[-1]:
                continue
            product = group.multiply(element, group.letter(s))
            if product in index:
                extend(word + (s,), product, path + (index[product],))

    extend((), group.identity(), (center,))
    return list(found.values())
