import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from boundary_matrices import boundary1, boundary2, cycle_vector
from reference_filling import reference_filling
from reference_walks import reference_closed_walks
from step_tables import counting_multiply, edge_list, edge_ranks, step_items

from pdfill import (
    build_ball_complex,
    free_abelian,
    free_group,
    isoperimetric_sweep,
    make_group,
    minimal_filling,
    surface_group,
    transfer_constant,
    word_cycle,
)
from pdfill.errors import (
    BudgetError,
    InvariantError,
    NoFillingError,
    NotACycleError,
    OutOfWindowError,
    SpecParseError,
)
from pdfill import filling
from pdfill.filling import (
    Cells,
    OneCycle,
    _closed_cycles,
    _is_cycle,
    _verify_filler,
    fill,
    letter_automorphisms,
)
from pdfill.groups import (
    WORK_PER_BUDGET,
    Presentation,
    TwistedPairOracle,
    builtin_group_specs,
)
from pdfill.rings import frac_str
from pdfill.words import invert_word, word_from_string, word_to_string


def square_word(n):
    return (1,) * n + (2,) * n + (-1,) * n + (-2,) * n


def brute_force_min_support(complex_, cycle):
    """Smallest support of a face vector with entries in {-1, 0, 1} whose
    boundary is the cycle: plain enumeration by support size."""
    target = cycle_vector(cycle)
    dense = boundary2(complex_).toarray()
    n_faces = complex_.face_count
    for size in range(n_faces + 1):
        for support in combinations(range(n_faces), size):
            rows = dense[list(support)]
            for signs in product((1, -1), repeat=size):
                if np.array_equal(np.array(signs, dtype=np.int64) @ rows, target):
                    return size
    return None


def test_build_examples():
    f2 = build_ball_complex(free_group(2), 2)
    assert f2.vertex_count == 17 and f2.face_count == 0
    z2 = build_ball_complex(free_abelian(2), 2)
    # unit squares with all four corners inside the ball of radius 2
    assert z2.face_count == 4
    assert (boundary2(z2) @ boundary1(z2)).count_nonzero() == 0
    s2 = build_ball_complex(surface_group(2), 1)
    assert s2.vertex_count == 9 and s2.face_count == 0


def walked_face_boundaries(complex_):
    """Faces and their edge coefficients, found by reading every relator from
    every vertex with the group's own multiplication."""
    group = complex_.group
    m = group.generator_count
    vertex_index = {g: i for i, g in enumerate(complex_.vertices)}
    edges, ranks = edge_list(complex_), edge_ranks(complex_)
    faces, boundaries = [], []
    for start, base in enumerate(complex_.vertices):
        for r, relator in enumerate(group.presentation.relators):
            g, coefficients = base, {}
            for letter in relator:
                h = group.multiply(g, group.letter(letter))
                if h not in vertex_index:
                    break
                gen = abs(letter)
                s, t = (g, h) if letter > 0 else (h, g)
                e = vertex_index[s] * m + gen - 1
                assert edges[ranks[e]] == (vertex_index[s], gen, vertex_index[t])
                coefficients[e] = coefficients.get(e, 0) + (1 if letter > 0 else -1)
                g = h
            else:
                assert g == base
                faces.append((start, r))
                boundaries.append({e: c for e, c in coefficients.items() if c})
    return faces, boundaries


@pytest.mark.parametrize(
    "spec, radius", [("Z^2", 4), ("Sigma2", 3), ("Sigma2", 4), ("Klein", 4), ("T11b:3", 3)]
)
def test_face_boundaries_match_relator_walks(spec, radius):
    complex_ = build_ball_complex(make_group(spec), radius)
    faces, boundaries = walked_face_boundaries(complex_)
    assert faces == complex_.faces
    assert boundaries == complex_.cells.boundaries


def test_window_forms_each_product_once():
    # 3,193 elements inside the outer sphere, times 8 letters, make 25,544
    # steps; building the step table apart from the ball took 114,700
    # products here.  Only the steps the ball cannot take by extension
    # call multiply: 112 letters that end a clean word in a half-relator,
    # and 6 letters of each of the 8 elements they form in sphere 4.  Each
    # of those has two steps into sphere 3, both written from there: one
    # cancels its last letter and one was a product (168 when that second
    # step was formed again from sphere 4)
    s2 = surface_group(2)
    calls = counting_multiply(s2)
    complex_ = build_ball_complex(s2, 5)
    assert complex_.vertex_count == 22289
    assert sum(1 for d in complex_.distances if d < 5) == 3193
    assert calls[0] == 112 + 8 * 6 == 160


def test_boundary_matrices_shape_and_composition():
    # Sigma2 radius 3 holds no face; radius 4 is the smallest window with one
    for spec, radius in (("Z^2", 3), ("Sigma2", 3), ("Klein", 3), ("Sigma2", 4)):
        x = build_ball_complex(make_group(spec), radius)
        d1, d2 = boundary1(x), boundary2(x)
        assert d1.shape == (x.edge_count, x.vertex_count)
        assert d2.shape == (x.face_count, x.edge_count)
        assert d1.dtype == d2.dtype == np.int64
        assert (d2 @ d1).count_nonzero() == 0
        # entry by entry against dense arrays read off the edge and face
        # lists; boundary1 goes in row blocks to keep the dense copies small
        edges, ranks = edge_list(x), edge_ranks(x)
        for lo in range(0, x.edge_count, 512):
            block = edges[lo:lo + 512]
            expected = np.zeros((len(block), x.vertex_count), dtype=np.int64)
            for row, (s, _, t) in enumerate(block):
                expected[row, t] += 1
                expected[row, s] -= 1
            assert np.array_equal(d1[lo:lo + len(block)].toarray(), expected)
        expected = np.zeros((x.face_count, x.edge_count), dtype=np.int64)
        for f, boundary in enumerate(x.cells.boundaries):
            for e, c in boundary.items():
                expected[f, ranks[e]] = c
        assert np.array_equal(d2.toarray(), expected)
        # the net-boundary routine accepts every face and rejects a face
        # with one coefficient flipped
        for boundary in x.cells.boundaries:
            assert _is_cycle(x, boundary)
            e = next(iter(boundary))
            assert not _is_cycle(x, {**boundary, e: -boundary[e]})
    assert x.face_count == 8   # the Sigma2 radius-4 window


def test_build_rejects_face_boundaries_that_are_not_cycles(monkeypatch):
    # flip one coefficient of every traced face: the d1 o d2 check must trip
    real_trace = filling._trace

    def flipped_trace(steps, m, start, word, chain):
        end = real_trace(steps, m, start, word, chain)
        if end is not None:
            first = next(iter(chain))
            chain[first] = -chain[first]
        return end

    monkeypatch.setattr(filling, "_trace", flipped_trace)
    with pytest.raises(InvariantError, match="d1 o d2"):
        build_ball_complex(free_abelian(2), 2)


def test_word_cycle_examples():
    z2 = build_ball_complex(free_abelian(2), 3)
    square = word_cycle(z2, (1, 2, -1, -2))
    assert square.support_norm() == 4
    # a chain with no zero is kept as given; one with a zero is copied without it
    chain = square.coefficients
    assert OneCycle(z2, chain).coefficients is chain
    spare = next(e for e in range(len(chain) + 1) if e not in chain)
    padded = {**chain, spare: 0}
    assert OneCycle(z2, padded).coefficients == chain
    assert padded[spare] == 0
    cancel = word_cycle(z2, (1, -1))
    assert cancel.support_norm() == 0
    s2 = build_ball_complex(surface_group(2), 4)
    relator = word_cycle(s2, s2.group.presentation.relators[0])
    assert relator.support_norm() == 8
    with pytest.raises(NotACycleError):
        word_cycle(z2, (1,))
    with pytest.raises(NotACycleError):
        OneCycle(z2, {0: 1})
    # both steps from (3, 0) leave the window, so neither id is an edge;
    # read as edges into one outside vertex they would net to zero
    v = z2.vertices.index((3, 0))
    with pytest.raises(NotACycleError):
        OneCycle(z2, {2 * v: 1, 2 * v + 1: -1})
    for word in ((3, -3), (-3, 3), (0,)):
        with pytest.raises(SpecParseError):
            word_cycle(z2, word)
    with pytest.raises(OutOfWindowError):
        word_cycle(z2, (1, 1, 1, 1, -1, -1, -1, -1))


def test_an_id_outside_the_window_names_no_edge():
    # the radius-2 window of Z^2 has 13 vertices and 26 edge ids, 0 to 25
    z2 = build_ball_complex(free_abelian(2), 2)
    past_the_end = z2.vertex_count * z2.group.generator_count
    for edge in (10**6, past_the_end, -1):
        assert not _is_cycle(z2, {edge: 1})
        with pytest.raises(NotACycleError):
            OneCycle(z2, {edge: 1})


def test_minimal_filling_zero_cycle():
    z2 = build_ball_complex(free_abelian(2), 2)
    result = minimal_filling(z2, word_cycle(z2, (1, -1)))
    assert result.filler_norm == 0 and result.ratio == 0


def test_minimal_filling_rejects_a_cycle_of_another_window():
    # each window numbers its edges its own way, so a cycle is read only
    # in the window it was traced in
    z2 = free_abelian(2)
    small = build_ball_complex(z2, 3)
    square = word_cycle(small, (1, 2, -1, -2))
    with pytest.raises(SpecParseError, match="another window"):
        minimal_filling(build_ball_complex(z2, 6), square)
    assert minimal_filling(small, square).filler_norm == 1


@pytest.mark.parametrize("n,radius", [(1, 2), (2, 4), (3, 6)])
def test_minimal_filling_squares(n, radius):
    z2 = build_ball_complex(free_abelian(2), radius)
    result = minimal_filling(z2, word_cycle(z2, square_word(n)))
    assert result.filler_norm == n * n
    assert result.ratio == Fraction(n, 4)


@pytest.mark.parametrize("n", [1, 2])
def test_minimal_filling_brute_force_cross_check(n):
    z2 = build_ball_complex(free_abelian(2), 2 * n)
    cycle = word_cycle(z2, square_word(n))
    result = minimal_filling(z2, cycle)
    assert result.filler_norm == brute_force_min_support(z2, cycle) == n * n


def test_verify_filler_rejects_a_wrong_boundary():
    z2 = build_ball_complex(free_abelian(2), 4)
    cycle = word_cycle(z2, square_word(2))
    filler = minimal_filling(z2, cycle).filler
    _verify_filler(z2.cells, cycle.coefficients, filler)
    face = min(filler)
    for wrong in ({**filler, face: -filler[face]}, {f: c for f, c in filler.items() if f != face}):
        with pytest.raises(InvariantError):
            _verify_filler(z2.cells, cycle.coefficients, wrong)


def test_relator_cycle_fills_with_one_face():
    s2 = build_ball_complex(surface_group(2), 4)
    cycle = word_cycle(s2, s2.group.presentation.relators[0])
    result = minimal_filling(s2, cycle)
    assert result.filler_norm == 1
    assert result.ratio == Fraction(1, 8)


def test_filling_lower_bound_invariant():
    z2 = build_ball_complex(free_abelian(2), 4)
    for word in (square_word(1), square_word(2), (1, 1, 2, -1, -1, -2)):
        cycle = word_cycle(z2, word)
        result = minimal_filling(z2, cycle)
        assert result.filler_norm >= -(-cycle.support_norm() // z2.cells.longest)


def test_filling_monotone_in_coefficient_bound():
    z2 = build_ball_complex(free_abelian(2), 4)
    for word in (square_word(2), (1, 2, -1, -2) * 2):
        cycle = word_cycle(z2, word)
        norms = {}
        for bound in (1, 2):
            try:
                norms[bound] = minimal_filling(z2, cycle, coefficient_bound=bound).filler_norm
            except NoFillingError:
                norms[bound] = None
        if norms[1] is not None and norms[2] is not None:
            assert norms[2] <= norms[1]


def test_doubled_square_needs_coefficient_two():
    z2 = build_ball_complex(free_abelian(2), 3)
    doubled = word_cycle(z2, (1, 2, -1, -2) * 2)
    assert doubled.support_norm() == 4
    with pytest.raises(NoFillingError):
        minimal_filling(z2, doubled, coefficient_bound=1)
    result = minimal_filling(z2, doubled, coefficient_bound=2)
    assert result.filler_norm == 1 and result.ratio == Fraction(1, 4)


def test_relator_path_out_of_small_window():
    s1 = build_ball_complex(surface_group(2), 1)
    assert s1.face_count == 0
    with pytest.raises(OutOfWindowError):
        word_cycle(s1, s1.group.presentation.relators[0])


def plane_word(text):
    """The letters of a word in a, b printed as a^2*b^-1*..."""
    word = []
    for part in text.split("*"):
        name, _, power = part.partition("^")
        power = int(power) if power else 1
        letter = "ab".index(name) + 1
        word.extend([letter if power > 0 else -letter] * abs(power))
    return tuple(word)


def winding_numbers(word):
    """{unit square (x, y): winding number of the lattice path around its
    centre}, counted by the horizontal steps crossing the upward ray from
    the centre: a leftward step above it counts +1, a rightward one -1."""
    x = y = 0
    winding: dict = {}
    for letter in word:
        if abs(letter) == 1:
            column = x if letter == 1 else x - 1
            for below in range(-len(word), y):
                winding[(column, below)] = winding.get((column, below), 0) - letter
            x += letter
        else:
            y += 1 if letter == 2 else -1
    assert (x, y) == (0, 0)
    return {square: w for square, w in winding.items() if w}


def test_exact_on_the_radius_12_plane_window():
    z2 = build_ball_complex(free_abelian(2), 12)
    assert z2.face_count == 264
    for n in range(1, 7):
        result = minimal_filling(z2, word_cycle(z2, square_word(n)))
        assert result.filler_norm == n * n
    word = plane_word("a^2*b^2*a^-1*b^-1*a^-1*b*a^-1*b^-2*a")
    assert minimal_filling(z2, word_cycle(z2, word)).filler_norm == 5


def test_sweep_matches_winding_numbers_above_64_faces():
    # The filling in the plane is unique: each square's coefficient is the
    # winding number around it.  A closed word of length <= 8 has a bounding
    # box of half-perimeter <= 4 around the origin, so every square it
    # encloses is a face of the radius-8 window.
    z2 = free_abelian(2)
    complex_ = build_ball_complex(z2, 8)
    assert complex_.face_count == 112
    report = isoperimetric_sweep(z2, 8, 8)
    assert report.corpus_size > 0 and report.unfilled > 0
    for entry in report.per_cycle:
        winding = winding_numbers(plane_word(entry["word"]))
        if max(abs(w) for w in winding.values()) > 1:
            assert entry["status"] == "unfilled"
        else:
            assert entry["status"] == "filled"
            assert entry["filler_norm"] == len(winding)
            assert entry["optimal"] is True


def test_doubled_square_tries_every_coefficient_of_a_face():
    # the unit square traced twice is twice one face.  At bound 1 the face
    # cannot take 2, so the filling is the square minus the boundary of a
    # unit cube: the square plus the cube's other five faces.  Trying only
    # the first-ranked coefficient of each face finds 10 faces instead.
    z3 = build_ball_complex(free_abelian(3), 3)
    assert z3.face_count == 60
    cycle = word_cycle(z3, word_from_string("a*b^-1*a^-1*b*a*b^-1*a^-1*b"))
    assert sorted(cycle.coefficients.values()) == [-2, -2, 2, 2]
    once = minimal_filling(z3, cycle, coefficient_bound=1)
    assert once.filler_norm == 6
    edges, ranks = edge_list(z3), edge_ranks(z3)
    corners = {
        z3.vertices[v]
        for f in once.filler
        for e in z3.cells.boundaries[f]
        for v in (edges[ranks[e]][0], edges[ranks[e]][2])
    }
    spans = [sorted({corner[k] for corner in corners}) for k in range(3)]
    assert len(corners) == 8 and all(hi - lo == 1 for lo, hi in spans)
    twice = minimal_filling(z3, cycle, coefficient_bound=2)
    assert twice.filler_norm == 1
    assert list(twice.filler.values()) in ([2], [-2])


def test_doubled_square_on_the_radius_4_window():
    # the larger Z^3 window has more cubes to go round, but the minimal
    # fillings keep their norms: 6 faces at bound 1, one face twice at 2
    z3 = build_ball_complex(free_abelian(3), 4)
    cycle = word_cycle(z3, word_from_string("a*b^-1*a^-1*b*a*b^-1*a^-1*b"))
    assert minimal_filling(z3, cycle, coefficient_bound=1).filler_norm == 6
    assert minimal_filling(z3, cycle, coefficient_bound=2).filler_norm == 1


@pytest.mark.parametrize("radius, faces, rank", [(3, 60, 52), (4, 168, 136)])
def test_z3_two_cycles_have_the_pinned_dimension(radius, faces, rank):
    # the 2-cycles of the window (the kernel of its face boundary map)
    # have dimension 8 at radius 3 and 32 at radius 4, one per unit cube
    x = build_ball_complex(free_abelian(3), radius)
    d2 = boundary2(x).toarray()
    assert d2.shape[0] == faces
    assert np.linalg.matrix_rank(d2) == rank


def test_exact_search_node_bound(monkeypatch):
    # plane windows collapse completely and never search; a unit square of
    # Z^3 lies on the core of the radius-3 window
    z3 = build_ball_complex(free_abelian(3), 3)
    cycle = word_cycle(z3, square_word(1))
    assert minimal_filling(z3, cycle).nodes_explored > 5
    monkeypatch.setattr(filling, "MAX_SEARCH_NODES", 5)
    with pytest.raises(BudgetError, match="5 nodes"):
        minimal_filling(z3, cycle)


def test_a_large_coefficient_bound_costs_nodes_not_memory(monkeypatch):
    # the face that fills the square takes 1 first; each other value of
    # the 2*10**6 in [-10**6, 10**6] is one node, and the values are not
    # listed, so the node bound stops the search before memory grows
    z3 = build_ball_complex(free_abelian(3), 3)
    cycle = word_cycle(z3, square_word(1))
    monkeypatch.setattr(filling, "MAX_SEARCH_NODES", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="1000 nodes"):
            minimal_filling(z3, cycle, coefficient_bound=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


# every builtin one-relator spec on a window that has faces; T11a:3 has none
# up to radius 4, and its radius-5 window is too large for a unit test
ONE_RELATOR_WINDOWS = [
    ("Z^2", 8), ("Sigma2", 4), ("Klein", 8), ("T11a:1", 8), ("T11a:2", 4),
    ("T11b:2", 8), ("T11b:3", 5), ("T11b:4", 4),
]


@pytest.mark.parametrize("spec, radius", ONE_RELATOR_WINDOWS + [("Z^3", 3), ("Z^3", 4)])
def test_collapse_order_retires_faces_through_free_edges(spec, radius):
    # each retired face's edge is used by no face retired later and by no
    # core face, and every face is retired once or kept in the core
    x = build_ball_complex(make_group(spec), radius)
    retired = [face for face, _, _ in x.cells.collapse_order]
    assert sorted(retired + x.cells.core) == list(range(x.face_count))
    for step, (face, edge, coefficient) in enumerate(x.cells.collapse_order):
        assert x.cells.boundaries[face][edge] == coefficient
        for later in retired[step + 1:] + x.cells.core:
            assert edge not in x.cells.boundaries[later]
    # no edge of the core is free: the collapse ran to the end
    for edge in {e for f in x.cells.core for e in x.cells.boundaries[f]}:
        assert sum(1 for f in x.cells.core if edge in x.cells.boundaries[f]) != 1


@pytest.mark.parametrize("spec, radius", ONE_RELATOR_WINDOWS + [("Z^3", 3), ("Z^3", 4)])
def test_longest_face_boundary_is_the_longest_relator(spec, radius):
    # the core search's lower bound divides by the longest boundary
    x = build_ball_complex(make_group(spec), radius)
    assert x.cells.longest == max(len(r) for r in x.group.presentation.relators)


@pytest.mark.parametrize("spec, radius", ONE_RELATOR_WINDOWS)
def test_one_relator_windows_collapse_completely(spec, radius):
    x = build_ball_complex(make_group(spec), radius)
    assert x.face_count > 0
    assert x.cells.core == []


@pytest.mark.parametrize("radius, faces, core", [(3, 60, 36), (4, 168, 132)])
def test_z3_windows_keep_a_core(radius, faces, core):
    x = build_ball_complex(free_abelian(3), radius)
    assert (x.face_count, len(x.cells.core)) == (faces, core)


def cubical_boundary(cube):
    """The boundary of an elementary cube, a tuple of intervals (lo, hi)
    with hi - lo in {0, 1}: over its unit directions in turn, with signs
    +1, -1, +1, ..., the face at hi minus the face at lo."""
    boundary, sign = {}, 1
    for k, (lo, hi) in enumerate(cube):
        if lo < hi:
            boundary[cube[:k] + ((hi, hi),) + cube[k + 1:]] = sign
            boundary[cube[:k] + ((lo, lo),) + cube[k + 1:]] = -sign
            sign = -sign
    return boundary


def unit_cube_levels():
    """The unit cube's squares over its edges, its edges over its
    vertices, and its boundary over the squares, all ids numbered."""
    cube = ((0, 1),) * 3
    squares = sorted(cubical_boundary(cube))
    edges = sorted({e for square in squares for e in cubical_boundary(square)})
    vertices = sorted({v for edge in edges for v in cubical_boundary(edge)})

    def level(cells, lower):
        index = {c: i for i, c in enumerate(lower)}
        return [{index[b]: c for b, c in cubical_boundary(cell).items()} for cell in cells]

    return level(squares, edges), level(edges, vertices), level([cube], squares)[0]


def test_unit_cube_levels_have_zero_boundary_of_boundary():
    square_edges, edge_vertices, cube_squares = unit_cube_levels()
    assert (len(square_edges), len(edge_vertices), len(cube_squares)) == (6, 12, 6)
    for upper, lower in (([cube_squares], square_edges), (square_edges, edge_vertices)):
        for boundary in upper:
            net: dict = {}
            for cell, c in boundary.items():
                for below, b in lower[cell].items():
                    net[below] = net.get(below, 0) + c * b
            assert not any(net.values())


def test_fill_fills_a_cube_boundary_with_the_cube():
    # one level up from faces over edges: the six squares of one cube
    # fill with that cube, by back-substitution through a free square
    cube = unit_cube_levels()[2]
    cells = Cells([cube])
    assert cells.core == [] and len(cells.collapse_order) == 1
    assert fill(cells, cube, 1) == ({0: 1}, 0)
    with pytest.raises(NoFillingError):
        fill(cells, {s: 2 * c for s, c in cube.items()}, 1)


def test_fill_searches_two_cubes_on_one_boundary():
    # cubes A and B share all six squares, so no square is free and both
    # stay in the core: 2·dA needs both at bound 1 and A twice at bound 2,
    # the doubled square one dimension up
    cube = unit_cube_levels()[2]
    cells = Cells([cube, dict(cube)])
    assert cells.core == [0, 1] and cells.collapse_order == []
    assert cells.longest == 6
    filler, nodes = fill(cells, cube, 1)
    assert filler == {0: 1} and nodes > 0
    doubled = {s: 2 * c for s, c in cube.items()}
    assert fill(cells, doubled, 1)[0] == {0: 1, 1: 1}
    assert fill(cells, doubled, 2)[0] == {0: 2}


def random_core_level(rng):
    """Six cells over eight lower cells with coefficients in {±1, ±2}, every
    lower cell used by no cell or by two or more, so nothing collapses."""
    while True:
        cells = Cells([
            {e: rng.choice((-2, -1, 1, 2)) for e in rng.sample(range(8), rng.randint(2, 4))}
            for _ in range(6)
        ])
        if not cells.collapse_order:
            return cells


def test_a_pruned_tail_of_values_is_counted_not_drawn(monkeypatch):
    # the unit square of the Z^3 window fills at value 1 in 1 + 6*bound
    # nodes, as when every value was a node of its own: past the values
    # that cancel an entry, each cell's first value that cancels nothing
    # is pruned, and the rest are counted without being drawn
    z3 = build_ball_complex(free_abelian(3), 3)
    cycle = word_cycle(z3, square_word(1))
    drawn = []
    real = filling._value_order

    def counting(cancels, bound):
        for value in real(cancels, bound):
            drawn.append(value not in cancels)
            yield value

    monkeypatch.setattr(filling, "_value_order", counting)
    monkeypatch.setattr(filling, "MAX_SEARCH_NODES", 10**7)
    for bound in (1, 2, 10**6):
        drawn.clear()
        result = minimal_filling(z3, cycle, bound)
        assert result.filler == {0: 1} and result.nodes_explored == 1 + 6 * bound
        assert len(drawn) == 6 and sum(drawn) == 3    # one value per tail


def test_fill_searches_a_core_as_the_reference_does():
    # with nothing collapsed the library searches the cells the reference
    # does, so filler and node count must agree.  Coefficients of 2 leave
    # entries no allowed value cancels and cells whose entries want
    # different values, where the order of faces and values shows; on the
    # Z^3 windows every order gives the same nodes
    rng = random.Random(7)
    for _ in range(300):
        cells = random_core_level(rng)
        chain: dict = {}
        for cell in rng.sample(range(6), 3):
            value = rng.choice((-2, -1, 1, 2))
            for e, c in cells.boundaries[cell].items():
                chain[e] = chain.get(e, 0) + value * c
        chain = {e: c for e, c in chain.items() if c}
        bound = rng.choice((1, 2, 3))
        found = []
        for solver in (fill, reference_filling):
            try:
                found.append(solver(cells, chain, bound))
            except NoFillingError:
                found.append(None)
        assert found[0] == found[1]


@pytest.mark.parametrize("spec, radius", [("Z^2", 4), ("Sigma2", 4), ("Klein", 3), ("Z^3", 2)])
def test_edge_ids_decode_to_steps_inside_the_ball(spec, radius):
    # the edge leaving vertex v by generator g of m has the id v*m + g - 1
    x = build_ball_complex(make_group(spec), radius)
    m = x.group.generator_count
    steps = step_items(x.steps)
    ids = {e for boundary in x.cells.boundaries for e in boundary}
    assert ids
    for e in ids:
        v, g = divmod(e, m)
        assert g + 1 in steps[v]
    assert x.edge_count == sum(1 for step in steps for g in step if g > 0)


def test_word_cycle_reads_the_edge_id_rule():
    # the unit square a b a^-1 b^-1 crosses a and b forwards from the
    # identity and from a, then b and a backwards into b and the identity
    z2 = build_ball_complex(free_abelian(2), 2)
    index = {g: i for i, g in enumerate(z2.vertices)}
    a, b = index[(1, 0)], index[(0, 1)]
    assert word_cycle(z2, (1, 2, -1, -2)).coefficients == {
        0: 1, 2 * a + 1: 1, 2 * b: -1, 1: -1,
    }
    assert (z2.vertex_count, z2.edge_count, z2.face_count) == (13, 16, 4)


# sha256 of (boundaries, collapse_order, core) of the cells, as built when the
# window kept a dict of steps per vertex and a dict of dense edge ids; the
# test hashes each edge by its rank, which is that dense id
WINDOW_DIGESTS = {
    ("Sigma2", 5): "1918080fe2c9d4fee4a43d45eec7f69656b0876ea019b264fb9f3e37839a6638",
    ("Z^3", 3): "9ac6b18e88b1f811a79901e2c1b49c5c532cf80bbf5a5c47b5f7a6e0f2aa473b",
}


@pytest.mark.parametrize("spec, radius", sorted(WINDOW_DIGESTS))
def test_window_matches_pinned_digest(spec, radius):
    x = build_ball_complex(make_group(spec), radius)
    ranks = edge_ranks(x)
    boundaries = [{ranks[e]: c for e, c in b.items()} for b in x.cells.boundaries]
    order = [(face, ranks[e], c) for face, e, c in x.cells.collapse_order]
    text = repr((boundaries, order, x.cells.core))
    assert hashlib.sha256(text.encode()).hexdigest() == WINDOW_DIGESTS[spec, radius]


def test_surface_sweep_traced_peak():
    # Sigma2 radius 5: the 22,289-vertex window with step dicts per vertex
    # and a tuple-keyed edge dict peaked at 16 MB; its step arrays at about
    # 7.2.  Z^3 radius 3, cap 8: 3,496 cycles, kept as a OneCycle each
    # beside the walk search's dedupe dict, peaked at 5.8 MB; the dict
    # alone, from chain key to first walk, at 4.0
    for group, radius, cap, limit in (
        (surface_group(2), 5, 8, 11_000_000),
        (free_abelian(3), 3, 8, 5_000_000),
    ):
        tracemalloc.start()
        try:
            isoperimetric_sweep(group, radius, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, group.name


def closed_cycles(x, cap):
    """(first walk, OneCycle) of each distinct cycle the walk search finds."""
    return [(word, OneCycle(x, dict(key))) for key, word in _closed_cycles(x, cap).items()]


def test_closed_walks_stop_past_the_budget(monkeypatch):
    x = build_ball_complex(free_abelian(2), 6)
    monkeypatch.setenv("PDFILL_BUDGET", "1978")
    assert len(_closed_cycles(x, 10)) == 1978
    monkeypatch.setenv("PDFILL_BUDGET", "1977")
    with pytest.raises(BudgetError, match="exceeded budget 1977"):
        _closed_cycles(x, 10)


def test_closed_walks_stop_past_the_visit_bound(monkeypatch):
    # on the radius-2 window, cap 16 closes 492 distinct cycles in 24,729
    # visits: the budget that just admits the visits passes, one less stops
    x = build_ball_complex(free_abelian(2), 2)
    budget = math.ceil(24_729 / WORK_PER_BUDGET)
    monkeypatch.setenv("PDFILL_BUDGET", str(budget))
    assert len(_closed_cycles(x, 16)) == 492
    smaller = WORK_PER_BUDGET * (budget - 1)
    monkeypatch.setenv("PDFILL_BUDGET", str(budget - 1))
    with pytest.raises(BudgetError, match=f"exceeded {smaller} visits"):
        _closed_cycles(x, 16)


@pytest.mark.parametrize(
    "spec, radius, cap",
    [
        ("Z^2", 3, 8), ("Klein", 3, 8), ("Z^3", 2, 6), ("T11b:3", 3, 6), ("Sigma2", 4, 8),
        ("Z^2", 4, 10), ("Z^3", 3, 8),
    ],
)
def test_closed_walks_match_the_brute_force_listing(spec, radius, cap):
    # the search keeps the chain of the walk at its last closure, and a
    # closure first steps back over the steps backed out of since, then
    # adds the steps walked since; the brute force sums every closed word
    # from the center.  In the Z^2 r4 and Z^3 r3 windows the search backs
    # out over several summed steps before its next closure.  Sigma2
    # closes no walk shorter than its relator, 8 letters, which needs the
    # radius-4 window
    x = build_ball_complex(make_group(spec), radius)
    expected = reference_closed_walks(x, cap)
    assert expected
    assert [(word, cycle.coefficients) for word, cycle in closed_cycles(x, cap)] == expected


def sweep_against_reference(spec, radius, cap, bound):
    """(fillers, reference fillers) of every cycle in the sweep's corpus,
    None for a cycle with no filling."""
    x = build_ball_complex(make_group(spec), radius)
    corpus = closed_cycles(x, cap)
    assert corpus
    ours, theirs = [], []
    for _, cycle in corpus:
        try:
            ours.append(minimal_filling(x, cycle, bound).filler)
        except NoFillingError:
            ours.append(None)
        try:
            theirs.append(reference_filling(x.cells, cycle.coefficients, bound)[0])
        except NoFillingError:
            theirs.append(None)
    return ours, theirs


@pytest.mark.parametrize("bound", [1, 2])
def test_z3_filler_norms_match_the_whole_window_search(bound):
    ours, theirs = sweep_against_reference("Z^3", 3, 8, bound)
    assert len(ours) == 3496
    norms = [None if f is None else len(f) for f in ours]
    assert norms == [None if f is None else len(f) for f in theirs]


@pytest.mark.parametrize("bound, nodes", [(1, 43_016), (2, 81_776)])
def test_z3_core_search_visits_the_pinned_nodes(bound, nodes):
    # every cycle of the corpus fills; the totals pin the order in which
    # the core search takes edges, faces and values
    x = build_ball_complex(free_abelian(3), 3)
    corpus = closed_cycles(x, 8)
    assert len(corpus) == 3496
    assert sum(minimal_filling(x, cycle, bound).nodes_explored for _, cycle in corpus) == nodes


@pytest.mark.parametrize(
    "spec, radius, cap",
    [("Z^2", 6, 10), ("Klein", 6, 10), ("Sigma2", 4, 8), ("T11b:2", 6, 8)],
)
def test_collapsed_fillers_match_the_whole_window_search(spec, radius, cap):
    # the core is empty, so the filling is unique and must agree face for face
    ours, theirs = sweep_against_reference(spec, radius, cap, 1)
    assert ours == theirs


def test_exact_search_matches_brute_force_on_sweep_corpus():
    # every distinct cycle of closed words up to length 6 in a small window
    z2 = build_ball_complex(free_abelian(2), 3)
    corpus = closed_cycles(z2, 6)
    assert corpus
    for _, cycle in corpus:
        result = minimal_filling(z2, cycle)
        assert result.filler_norm == brute_force_min_support(z2, cycle)


def test_sweep_free_group_empty_corpus():
    report = isoperimetric_sweep(free_group(2), 3, 6)
    assert report.corpus_size == 0
    assert report.max_ratio == 0


def test_sweep_square_ladder():
    z2 = free_abelian(2)
    ratios = [isoperimetric_sweep(z2, 6, cap).max_ratio for cap in (4, 8, 12)]
    assert ratios == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert ratios == sorted(ratios)


def test_sweep_deterministic_order():
    z2 = free_abelian(2)
    first = isoperimetric_sweep(z2, 4, 8)
    second = isoperimetric_sweep(z2, 4, 8)
    assert first.to_json_dict() == second.to_json_dict()


# signed generator permutations that map the relators onto themselves,
# identity included: the square's and the cube's symmetries on Z^2, Z^3
# and Z^4, and fewer on the one-relator groups, whose single relator must
# be read again up to rotation and inversion
AUTOMORPHISM_COUNTS = {
    "Z^2": 8, "Klein": 4, "Sigma2": 4, "T11b:2": 4, "T11b:3": 6,
    "T11a:3": 6, "Z^3": 48, "Z^4": 384,
}


@pytest.mark.parametrize("spec", sorted(AUTOMORPHISM_COUNTS))
def test_letter_automorphism_counts(spec):
    presentation = make_group(spec).presentation
    found = list(letter_automorphisms(presentation))
    assert len(found) == AUTOMORPHISM_COUNTS[spec]
    identity = {s: s for g in range(1, presentation.generator_count + 1) for s in (g, -g)}
    assert identity in found


def blind_automorphisms(presentation):
    """Every signed permutation of the generators under which each relator
    reads as a cyclic conjugate of a relator or of its inverse."""
    m = presentation.generator_count
    conjugates = {
        word[k:] + word[:k]
        for relator in presentation.relators
        for word in (relator, invert_word(relator))
        for k in range(len(relator))
    }
    found = []
    for images in permutations(range(1, m + 1)):
        for signs in product((1, -1), repeat=m):
            sigma = {}
            for g, h, sign in zip(range(1, m + 1), images, signs):
                sigma[g], sigma[-g] = sign * h, -sign * h
            if all(tuple(sigma[x] for x in rel) in conjugates for rel in presentation.relators):
                found.append(sigma)
    return found


@pytest.mark.parametrize(
    "spec",
    [s for s in builtin_group_specs() + ["Z^3", "Z^4"] if make_group(s).generator_count <= 4],
)
def test_letter_automorphisms_match_a_blind_filter(spec):
    # the relator-driven search against all m!·2^m signed permutations;
    # a generator in no relator (F2 has none) is fixed by the search only
    presentation = make_group(spec).presentation
    listed = list(letter_automorphisms(presentation))
    ours = {tuple(sorted(s.items())) for s in listed}
    assert len(ours) == len(listed)
    if not presentation.relators:
        assert len(ours) == 1
        return
    assert ours == {tuple(sorted(s.items())) for s in blind_automorphisms(presentation)}


def test_list_relators_are_stored_as_tuples():
    # a relator given as a list left the presentation unhashable, and the
    # automorphism search and the sweep raised TypeError on it
    listed = Presentation(2, ([1, 2, 1, -2],))
    tupled = Presentation(2, ((1, 2, 1, -2),))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert list(letter_automorphisms(listed)) == list(letter_automorphisms(tupled))
    twisted = TwistedPairOracle("Klein", listed, [(1, 0), (0, 1)])
    # reports are plain records: compare every field
    report = isoperimetric_sweep(twisted, 5, 8)
    assert vars(report) == vars(isoperimetric_sweep(make_group("Klein"), 5, 8))


def solve_every_cycle(spec, radius, cap, bound):
    """The sweep's per-cycle entries, with minimal_filling called on every
    distinct cycle rather than once per orbit."""
    x = build_ball_complex(make_group(spec), radius)
    entries = []
    for word, cycle in closed_cycles(x, cap):
        entry = {
            "word": word_to_string(word),
            "word_length": len(word),
            "cycle_norm": cycle.support_norm(),
        }
        try:
            result = minimal_filling(x, cycle, bound)
        except NoFillingError as err:
            entry.update(status="unfilled", reason=str(err))
        else:
            entry.update(
                status="filled",
                filler_norm=result.filler_norm,
                ratio=frac_str(result.ratio),
                optimal=True,
            )
        entries.append(entry)
    return entries


@pytest.mark.parametrize(
    "spec, radius, cap, bound",
    [
        ("Z^3", 3, 8, 1), ("Z^3", 3, 8, 2),
        ("Z^4", 3, 6, 1), ("Klein", 6, 10, 1), ("T11b:3", 5, 10, 1),
    ],
)
def test_orbit_verdicts_match_solving_every_cycle(spec, radius, cap, bound):
    report = isoperimetric_sweep(make_group(spec), radius, cap, bound)
    assert report.per_cycle == solve_every_cycle(spec, radius, cap, bound)


def test_a_swap_that_is_no_automorphism_changes_the_klein_sweep(monkeypatch):
    # a <-> b reads Klein's a b a b^-1 as b a b a^-1, which is no cyclic
    # conjugate of the relator or its inverse; handing its images the
    # verdicts of their preimages must show, as wrong entries or as an
    # image whose norm differs
    real = filling.letter_automorphisms
    swap = {1: 2, -1: -2, 2: 1, -2: -1}
    monkeypatch.setattr(filling, "letter_automorphisms", lambda p: [*real(p), swap])
    try:
        per_cycle = isoperimetric_sweep(make_group("Klein"), 6, 10).per_cycle
    except InvariantError:
        return
    assert per_cycle != solve_every_cycle("Klein", 6, 10, 1)


@pytest.mark.parametrize("n, radius, cap, corpus", [(8, 1, 4, 0), (8, 2, 4, 224), (6, 2, 4, 120)])
def test_sweep_draws_at_most_one_automorphism_per_cycle(monkeypatch, n, radius, cap, corpus):
    # Z^n has n!·2^n letter automorphisms (10,321,920 on Z^8); the sweep
    # draws them lazily, at most one per cycle of its corpus, and none from
    # a window with no cycle
    drawn = []
    real = filling.letter_automorphisms

    def counting(presentation):
        for sigma in real(presentation):
            drawn.append(sigma)
            yield sigma

    monkeypatch.setattr(filling, "letter_automorphisms", counting)
    report = isoperimetric_sweep(free_abelian(n), radius, cap)
    assert report.corpus_size == corpus
    assert len(drawn) <= corpus
    assert report.per_cycle == solve_every_cycle(f"Z^{n}", radius, cap, 1)


def test_plane_sweep_solves_each_orbit_about_once(monkeypatch):
    # fill Z^2 Z --radius 6 --max-word 10: the square's 8 symmetries group
    # the 1,978 cycles into 252 orbits.  A cycle is solved unless its first
    # walk is the image of a solved cycle's first walk, and an image cycle
    # is often first reached by another walk, so 66 orbits are solved twice
    # or more: 318 solves in all
    calls = []
    real = filling.minimal_filling

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(filling, "minimal_filling", counting)
    report = isoperimetric_sweep(free_abelian(2), 6, 10)
    assert (report.corpus_size, len(calls)) == (1978, 318)


def test_transfer_constant_examples():
    assert transfer_constant(2, 3, 1, 4) == 10
    assert transfer_constant(0, 99, 7, 4) == 4
    assert transfer_constant(1, 1, 1, 0) == 1
    assert transfer_constant(Fraction(1, 2), 3, 2, 1) == 4
    with pytest.raises(SpecParseError):
        transfer_constant(-1, 1, 1, 1)
