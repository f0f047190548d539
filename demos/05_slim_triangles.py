"""Slim-triangle estimation on Cayley windows.

Geodesic triangles in a tree are 0-slim; in the flat plane the slimness
defect grows linearly with the window; on the genus-2 surface it
stabilises.  The derived corridor constants N, k = kappa N^2 + 1 and
m = kappa N quantify how a filling bound forces slim triangles.
"""

from pdfill import make_group, slimness_constants, slimness_sweep


def main():
    print("== worst triangle slimness per window radius ==")
    for spec in ("F2", "Z^2", "Sigma2"):
        group = make_group(spec)
        deltas = []
        for radius in (2, 3, 4, 5, 6):
            report = slimness_sweep(group, radius)
            deltas.append(report.delta_hat)
        print(f"{spec:7s} radii 2..6 -> {deltas}")

    print()
    report = slimness_sweep(make_group("Z^2"), 4)
    print("plane, radius 4: chosen-geodesic delta =", report.delta_hat,
          "; all-geodesic delta =", report.all_geodesic_delta_hat,
          "; agree =", report.geodesic_choice_agrees)
    print("witness corners:", report.witness)

    print()
    print("== corridor constants ==")
    for spec, kappa in (("Sigma2", 1), ("Sigma2", 2), ("Klein", 1)):
        constants = slimness_constants(make_group(spec).presentation, kappa)
        print(f"{spec} at kappa={kappa}: N={constants.N}, k={constants.k}, m={constants.m}, "
              f"defect threshold 6k={constants.contradiction_threshold}")


if __name__ == "__main__":
    main()
