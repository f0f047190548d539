"""Whole-level branch and bound: the reference for ``fill``.

The library solves a chain by back-substitution through the collapse
order of a level of cells and searches only the core.  This module keeps
the older solver, which searches every cell of the level (every face of
a window), so that the two can be compared on the same chains.  It
shares no search code with the library, and lists and sorts every value
in [-bound, bound] for each ranked cell.
"""

from __future__ import annotations

import math

from pdfill.errors import NoFillingError


def reference_filling(cells, chain, bound):
    """(minimal-support filler, search nodes) over every cell of the level.

    Depth-first branch and bound over face coefficients in [-bound, bound].
    A residual edge with the fewest unassigned incident faces is chosen;
    one of those faces must be nonzero, and branching on which face is the
    first nonzero one partitions the space.  Faces are tried best-first by
    the smallest residual support any allowed value leaves, then by index.
    The lower bound is ceil(residual support / max face length).
    """
    if not chain:
        return {}, 0
    n_faces = len(cells.boundaries)
    max_len = max(cells.longest, 1)
    edge_faces = cells.cofaces
    face_boundaries = cells.boundaries

    residual = dict(chain)
    assigned = [None] * n_faces
    best: dict = {"support": math.inf, "filler": None}
    nodes = 0
    values = [v for k in range(1, bound + 1) for v in (k, -k)]

    def apply(face, value):
        for e, c in face_boundaries[face].items():
            new = residual.get(e, 0) - value * c
            if new:
                residual[e] = new
            else:
                residual.pop(e, None)

    def support_after(face, value):
        support = len(residual)
        for e, c in face_boundaries[face].items():
            old = residual.get(e, 0)
            new = old - value * c
            if old and not new:
                support -= 1
            elif not old and new:
                support += 1
        return support

    def choose_edge():
        best_edge, best_free = None, None
        for e in residual:
            free = sum(1 for f in edge_faces.get(e, ()) if assigned[f] is None)
            if best_free is None or free < best_free or (
                free == best_free and e < best_edge
            ):
                best_edge, best_free = e, free
                if free == 0:
                    break
        return best_edge, best_free

    def ranked(face):
        order = sorted(
            (support_after(face, v), v < 0, abs(v), v) for v in values
        )
        return order[0][0], face, [v for *_, v in order]

    def recurse(nonzero_count):
        nonlocal nodes
        nodes += 1
        if not residual:
            if nonzero_count < best["support"]:
                best["support"] = nonzero_count
                best["filler"] = {f: v for f, v in enumerate(assigned) if v}
            return
        if nonzero_count + math.ceil(len(residual) / max_len) >= best["support"]:
            return
        edge, free = choose_edge()
        if free == 0:
            return
        candidates = sorted(
            ranked(f) for f in edge_faces[edge] if assigned[f] is None
        )
        for pos, (_, face, ordered) in enumerate(candidates):
            for _, earlier, _ in candidates[:pos]:
                assigned[earlier] = 0
            for value in ordered:
                assigned[face] = value
                apply(face, value)
                recurse(nonzero_count + 1)
                apply(face, -value)
                assigned[face] = None
            for _, earlier, _ in candidates[:pos]:
                assigned[earlier] = None

    recurse(0)
    if best["filler"] is None:
        raise NoFillingError("no filling in the window at this bound")
    return best["filler"], nodes
