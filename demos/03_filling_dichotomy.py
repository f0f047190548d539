"""Minimal-support fillings on Cayley windows: flat versus hyperbolic.

In the plane, the boundary of the side-n square (a word of length 4n)
needs n^2 faces, so the filler-to-cycle ratio n/4 grows without bound.
On the genus-2 surface window every null-homotopic word up to the
relator length fills with a single face: the ratio stays at 1/8.  This
is the computational face of the dichotomy between amenable and
hyperbolic behaviour.
"""

from pdfill import build_ball_complex, isoperimetric_sweep, make_group, minimal_filling, word_cycle


def main():
    z2 = make_group("Z^2")
    window = build_ball_complex(z2, 6)
    print(f"plane window, radius 6: {window.vertex_count} vertices, "
          f"{window.edge_count} edges, {window.face_count} faces")

    print()
    print("== squares in the plane ==")
    for n in (1, 2, 3):
        word = (1,) * n + (2,) * n + (-1,) * n + (-2,) * n
        result = minimal_filling(window, word_cycle(window, word))
        print(f"side-{n} square: boundary norm {result.cycle_norm:2d}, "
              f"minimal filler {result.filler_norm:2d} faces, ratio {result.ratio}")

    print()
    print("== sweeping all closed words ==")
    for cap in (4, 8, 12):
        report = isoperimetric_sweep(z2, 6, cap)
        print(f"plane, words up to {cap:2d}: {report.corpus_size:5d} cycles, "
              f"worst ratio {report.max_ratio}")

    sigma = make_group("Sigma2")
    report = isoperimetric_sweep(sigma, 5, 8)
    print(f"genus-2 surface, words up to 8: {report.corpus_size} cycles, "
          f"worst ratio {report.max_ratio}")
    print("(every octagonal cycle bounds one face; nothing grows)")


if __name__ == "__main__":
    main()
