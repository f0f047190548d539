"""Chain complexes of group presentations, their duals and twists.

Builds the two-step free complex of each built-in presentation (free
derivatives give the top differential), reverses it through the star
involution, and twists the flat Klein-bottle case by its orientation
character.  Euler characteristics and field homology close the loop:
the alternating sum of homology dimensions always returns the Euler
characteristic.
"""

from pdfill import INTEGERS, RATIONALS, Character, make_group
from pdfill.complexes import fox_derivatives_all, presentation_complex


def main():
    print("== free derivatives ==")
    f2 = make_group("F2")
    word = (1, 2, -1, -2)   # a b a^-1 b^-1
    derivatives = fox_derivatives_all(INTEGERS, f2, word)
    for name, derivative in zip("ab", derivatives):
        print(f"d(aba^-1b^-1)/d{name} =", derivative.format())

    print()
    print("== presentation complexes ==")
    for spec in ("F2", "Z^2", "Sigma2", "Klein", "T11b:3"):
        group = make_group(spec)
        complex_ = presentation_complex(group, INTEGERS)
        dims = complex_.homology_dimensions(RATIONALS)
        print(
            f"{spec:7s} ranks {complex_.ranks}  euler {complex_.euler_characteristic():3d}"
            f"  homology over Q {dims}"
        )

    print()
    print("== duals ==")
    sigma = presentation_complex(make_group("Sigma2"), INTEGERS)
    dual = sigma.dualize()
    print("genus-2 dual ranks:", dual.ranks)
    print("double dual equals the original:", dual.dualize().differentials == sigma.differentials)

    print()
    print("== the orientation twist of the Klein bottle ==")
    klein = make_group("Klein")
    complex_ = presentation_complex(klein, INTEGERS)
    rho = Character.parse("a:-1,b:1", INTEGERS, 2)
    print("character a -> -1, b -> 1 kills the relator:", rho.is_valid_on(klein.presentation))
    twisted = complex_.twist(rho)
    print("twisted first differential:", [row[0].format() for row in twisted.differential(1).entries])
    print("(the 1 - a entry became 1 + a; the double boundary still vanishes)")


if __name__ == "__main__":
    main()
