"""Output checks, one per workload, against the references in oracles.py.

A check takes the parsed stdout of one command, the facts the probe read
from the program's own window (fill-surface only) and the command's
arguments, and returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

from oracles import (
    SurfaceModel,
    cannon_sphere_sizes,
    parse_number,
    parse_word,
    plane_filling,
    rooted_subtree_counts,
    solve_exact,
)

SURFACE_RELATOR = (1, 2, -1, -2, 3, 4, -3, -4)
MAX_PROBLEMS = 5


def option(argv, name):
    return argv[argv.index(name) + 1]


class Problems(list):
    def expect(self, what, got, want):
        if got != want and len(self) < MAX_PROBLEMS:
            self.append(f"{what}: got {got!r}, expected {want!r}")


def _expect_fields(problems, payload, **fields):
    for key, want in fields.items():
        problems.expect(key, payload.get(key), want)


def _expect_entry(problems, entry, filler_norm):
    """Compare one per-cycle entry with the reference filler norm (None: unfilled)."""
    word = entry["word"]
    if filler_norm is None:
        problems.expect(f"{word} status", entry.get("status"), "unfilled")
        return None
    problems.expect(f"{word} status", entry.get("status"), "filled")
    problems.expect(f"{word} filler_norm", entry.get("filler_norm"), filler_norm)
    problems.expect(f"{word} optimal", entry.get("optimal"), True)
    ratio = Fraction(filler_norm, entry["cycle_norm"])
    if "ratio" in entry:
        problems.expect(f"{word} ratio", parse_number(entry["ratio"]), ratio)
    return ratio


def _expect_sweep(problems, payload, ratios):
    per_cycle = payload["per_cycle"]
    filled = sum(1 for r in ratios if r is not None)
    problems.expect("corpus_size", payload.get("corpus_size"), len(per_cycle))
    problems.expect("filled", payload.get("filled"), filled)
    problems.expect("unfilled", payload.get("unfilled"), len(per_cycle) - filled)
    reference = max((r for r in ratios if r is not None), default=Fraction(0))
    problems.expect("max_ratio", parse_number(payload["max_ratio"]), reference)


def _word_of(problems, entry, cap):
    word = parse_word(entry["word"])
    problems.expect(f"{entry['word']} word_length", entry.get("word_length"), len(word))
    if len(word) > cap or any(a == -b for a, b in zip(word, word[1:])):
        problems.expect(f"{entry['word']} is a reduced word within the cap", False, True)
    return word


def check_fill_plane(payload, facts, argv):
    """Z^2: winding numbers give the unique filling of each cycle."""
    problems = Problems()
    radius, cap, bound = int(option(argv, "--radius")), int(option(argv, "--max-word")), 1
    _expect_fields(problems, payload, group="Z^2", radius=radius, max_word=cap, coeff_bound=bound)
    seen = set()
    ratios = []
    for entry in payload["per_cycle"]:
        word = _word_of(problems, entry, cap)
        try:
            cycle, filler_norm = plane_filling(word, radius, bound)
        except ValueError as err:
            problems.expect(f"{entry['word']} is a closed path in the window", str(err), None)
            continue
        key = frozenset(cycle.items())
        if key in seen or not cycle:
            problems.expect(f"{entry['word']} is a new nonzero cycle", False, True)
        seen.add(key)
        problems.expect(f"{entry['word']} cycle_norm", entry.get("cycle_norm"), len(cycle))
        ratios.append(_expect_entry(problems, entry, filler_norm))
    _expect_sweep(problems, payload, ratios)
    return problems


def _model_faces(model):
    """The window's faces: base vertex -> signed edge steps of the relator read there."""
    faces = {}
    for base in range(len(model.elements)):
        traced = _trace(model, base, SURFACE_RELATOR)
        if traced is not None and traced[1] == base:
            faces[base] = traced[0]
    return faces


def _trace(model, start, word):
    """(signed edge steps, end vertex) of a word read from ``start``, or None."""
    steps = []
    current = start
    for letter in word:
        nxt = model.step(current, letter)
        if nxt is None:
            return None
        # edges are (source, generator); a negative letter walks one backwards
        steps.append(((current, letter), 1) if letter > 0 else ((nxt, -letter), -1))
        current = nxt
    return steps, current


def _chain(steps):
    out: dict = {}
    for edge, sign in steps:
        out[edge] = out.get(edge, 0) + sign
    return {edge: c for edge, c in out.items() if c}


def check_fill_surface(payload, facts, argv):
    """Sigma2: exact solve of d2^T x = c on the octagon model's window."""
    problems = Problems()
    radius, cap, bound = int(option(argv, "--radius")), int(option(argv, "--max-word")), 1
    _expect_fields(problems, payload, group="Sigma2", radius=radius, max_word=cap, coeff_bound=bound)
    cannon = cannon_sphere_sizes(2, radius)
    model = SurfaceModel(radius)
    problems.expect("reference model sphere sizes", model.sphere_sizes(), cannon)
    problems.expect("window sphere sizes", facts.get("sphere_sizes"), cannon)
    problems.expect("window vertices", facts.get("vertices"), sum(cannon))

    faces = _model_faces(model)
    problems.expect("window faces", facts.get("faces"), len(faces))
    bases = sorted(faces)
    face_rows: dict = {}    # edge -> {face: coefficient}, the rows of d2^T
    for f, base in enumerate(bases):
        for edge, c in _chain(faces[base]).items():
            face_rows.setdefault(edge, {})[f] = c
    ratios = []
    for entry in payload["per_cycle"]:
        word = _word_of(problems, entry, cap)
        traced = _trace(model, 0, word)
        if traced is None or traced[1] != 0:
            problems.expect(f"{entry['word']} is a closed path in the window", False, True)
            continue
        cycle = _chain(traced[0])
        problems.expect(f"{entry['word']} cycle_norm", entry.get("cycle_norm"), len(cycle))
        rows = [(coeffs, cycle.get(edge, 0)) for edge, coeffs in face_rows.items()]
        rows += [({}, c) for edge, c in cycle.items() if edge not in face_rows]
        rank, solution = solve_exact(rows, len(bases))
        problems.expect("rank of d2 (contractible window: injective)", rank, len(bases))
        filler = None
        if solution is not None and all(
            x.denominator == 1 and abs(x) <= bound for x in solution
        ):
            filler = {bases[f]: int(x) for f, x in enumerate(solution) if x}
        ratios.append(_expect_entry(problems, entry, None if filler is None else len(filler)))
        program = facts.get("fillers", {}).get(entry["word"])
        if filler is not None:
            found = {}
            for base_word, relator, coeff in program or ():
                base = model.find(model.evaluate(parse_word(base_word)))
                found[(base, relator)] = coeff
            problems.expect(
                f"{entry['word']} filler",
                found,
                {(base, 0): coeff for base, coeff in filler.items()},
            )
    _expect_sweep(problems, payload, ratios)
    # every short null-homotopic word of the surface bounds one octagon
    problems.expect("max_ratio is 1/8", parse_number(payload["max_ratio"]), Fraction(1, 8))
    return problems


def check_slim_surface(payload, facts, argv):
    """Sigma2, corners on the half-radius sphere: re-measure the witness triangle."""
    problems = Problems()
    radius, limit = int(option(argv, "--radius")), int(option(argv, "--samples"))
    _expect_fields(problems, payload, group="Sigma2", radius=radius)
    corners = cannon_sphere_sizes(2, radius // 2)[-1]
    triples = math.comb(corners, 3)
    problems.expect("triangles_examined", payload.get("triangles_examined"), min(triples, limit))
    problems.expect("sampled", payload.get("sampled"), triples > limit)
    model = SurfaceModel(radius + 1)
    problems.expect(
        "reference model sphere sizes", model.sphere_sizes(), cannon_sphere_sizes(2, radius + 1)
    )
    witness = payload.get("witness") or []
    problems.expect("witness corners", len(witness), 3)
    if len(witness) == 3:
        matrices = []
        for text in witness:
            g = model.evaluate(parse_word(text))
            index = model.find(g)
            problems.expect(
                f"|{text}|", None if index is None else model.lengths[index], radius // 2
            )
            matrices.append(g)
        problems.expect("witness slimness = delta_hat", model.triangle_slimness(matrices),
                        payload.get("delta_hat"))
    return problems


def check_folner_tree(payload, facts, argv):
    """F2, connected sets: rooted subtree counts and ratios ceil((n+1)/2)/n."""
    problems = Problems()
    size_max = int(option(argv, "--family").partition("connected:")[2])
    _expect_fields(problems, payload, group="F2", family=f"connected:{size_max}")
    problems.expect("sets_examined", payload.get("sets_examined"),
                    sum(rooted_subtree_counts(4, size_max)))
    series = [(n, Fraction((n + 2) // 2, n)) for n in range(1, size_max + 1)]
    problems.expect(
        "series", [(n, parse_number(r)) for n, r in payload.get("series", [])], series
    )
    best_size, best = min(series, key=lambda item: (item[1], item[0]))
    problems.expect("best_set_size", payload.get("best_set_size"), best_size)
    problems.expect("best_ratio", parse_number(payload["best_ratio"]), best)
    problems.expect("epsilon_hat", parse_number(payload["epsilon_hat"]), best)
    problems.expect("kappa_hat", parse_number(payload["kappa_hat"]), 1 / best)
    problems.expect("verdict", payload.get("verdict"), "ratio-bounded-below")
    return problems
