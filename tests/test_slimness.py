import pytest

from pdfill import (
    free_abelian,
    free_group,
    lex_geodesic,
    make_group,
    slimness_constants,
    slimness_sweep,
    surface_group,
    triangle_slimness,
)
from pdfill.errors import SpecParseError
from pdfill.groups import Presentation
from pdfill.slimness import SlimnessConstants, all_geodesics


def test_lex_geodesic_trivial_and_tree():
    f2 = free_group(2)
    a = f2.letter(1)
    assert lex_geodesic(f2, a, a) == [a]
    u = f2.evaluate((1, 2))
    path = lex_geodesic(f2, f2.identity(), u)
    assert path == [(), (1,), (1, 2)]
    assert len(all_geodesics(f2, f2.identity(), u)) == 1


def test_lex_geodesic_plane_tie_break():
    z2 = free_abelian(2)
    path = lex_geodesic(z2, (0, 0), (1, 1))
    # the first generator moves first on ties
    assert path == [(0, 0), (1, 0), (1, 1)]
    assert len(all_geodesics(z2, (0, 0), (1, 1))) == 2


def test_triangle_slimness_degenerate():
    f2 = free_group(2)
    a, b = f2.letter(1), f2.letter(2)
    assert triangle_slimness(f2, (a, b, f2.identity())) == 0


def test_sweep_free_group_is_zero_at_all_radii():
    f2 = free_group(2)
    for radius in range(7):
        report = slimness_sweep(f2, radius)
        assert report.delta_hat == 0
        if report.all_geodesic_delta_hat is not None:
            assert report.geodesic_choice_agrees


def test_sweep_plane_grows_with_radius():
    z2 = free_abelian(2)
    deltas = {r: slimness_sweep(z2, r).delta_hat for r in (2, 4, 6)}
    assert deltas[2] < deltas[4] < deltas[6]


def test_sweep_plane_cross_check_agrees():
    z2 = free_abelian(2)
    for radius in (2, 4):
        report = slimness_sweep(z2, radius, cross_check=True)
        assert report.geodesic_choice_agrees


def test_sweep_surface_stabilizes():
    s2 = surface_group(2)
    assert slimness_sweep(s2, 2).delta_hat == slimness_sweep(s2, 3).delta_hat


def test_sweep_monotone_in_radius():
    z2 = free_abelian(2)
    deltas = [slimness_sweep(z2, r).delta_hat for r in range(7)]
    assert deltas == sorted(deltas)
    for r, delta in enumerate(deltas):
        assert delta <= 2 * r


def test_sweep_witness_reproducible():
    z2 = free_abelian(2)
    report = slimness_sweep(z2, 4)
    assert report.witness is not None
    corners = tuple(z2.evaluate(_parse(w)) for w in report.witness)
    assert triangle_slimness(z2, corners) == report.delta_hat


def _parse(text):
    from pdfill.words import word_from_string

    return word_from_string(text)


def test_sweep_sampling_deterministic():
    z2 = free_abelian(2)
    first = slimness_sweep(z2, 8, sample=40, seed=3)
    second = slimness_sweep(z2, 8, sample=40, seed=3)
    assert first.to_json_dict() == second.to_json_dict()
    assert first.sampled and first.triangles_examined == 40


def test_constants_examples():
    s2 = surface_group(2)
    c = slimness_constants(s2.presentation, 1)
    assert (c.N, c.k, c.m) == (8, 65, 8)
    assert c.contradiction_threshold == 390
    k = make_group("Klein")
    c = slimness_constants(k.presentation, 1)
    assert (c.N, c.k, c.m) == (4, 17, 4)
    c = slimness_constants(s2.presentation, 2)
    assert (c.k, c.m) == (129, 16)


def test_constants_validation():
    s2 = surface_group(2)
    with pytest.raises(SpecParseError):
        slimness_constants(s2.presentation, 0)
    with pytest.raises(SpecParseError):
        slimness_constants(Presentation(2, ()), 1)
    with pytest.raises(SpecParseError):
        SlimnessConstants(N=8, kappa=1, k=64, m=8)
