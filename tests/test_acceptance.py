"""Acceptance suite: one test per criterion, each printing a PASS line.

Every numeric check is exact (integers and fractions); every criterion
also enforces its wall-clock limit.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from boundary_matrices import boundary2, cycle_vector
from click.testing import CliRunner

from pdfill import (
    INTEGERS,
    QUATERNIONS,
    RATIONALS,
    Character,
    GroupRingElement,
    GroupRingMatrix,
    boundary_differential,
    build_ball_complex,
    folner_boundary,
    folner_sweep,
    free_abelian,
    free_group,
    isoperimetric_sweep,
    make_group,
    minimal_filling,
    residue_ring,
    slimness_constants,
    slimness_sweep,
    surface_group,
    transfer_constant,
    word_cycle,
)
from pdfill.cli import main as cli_main
from pdfill.complexes import fox_derivatives_all, presentation_complex
from pdfill.groups import ball

GROUP_SPECS = [
    "F2", "Z^2", "Sigma2", "Klein",
    "T11a:1", "T11a:2", "T11a:3",
    "T11b:2", "T11b:3", "T11b:4",
]
RINGS = [INTEGERS, RATIONALS, residue_ring(2), residue_ring(5)]


class Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False

    def check(self):
        assert self.elapsed < self.limit, (
            f"criterion exceeded its time limit: {self.elapsed:.1f}s >= {self.limit}s"
        )


def report(number, label, timer):
    timer.check()
    print(f"criterion {number:2d} PASS ({timer.elapsed:6.2f}s < {timer.limit}s): {label}")


@pytest.fixture(scope="module")
def groups():
    return {spec: make_group(spec) for spec in GROUP_SPECS}


def random_words(group, count, max_len, seed):
    rng = random.Random(seed)
    letters = [i for i in range(1, group.generator_count + 1)]
    letters += [-i for i in letters]
    return [
        tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


def test_criterion_01_chain_complex_soundness(groups):
    with Timer(5) as t:
        for spec in GROUP_SPECS:
            group = groups[spec]
            for ring in RINGS:
                complex_ = presentation_complex(group, ring)  # checks dd = 0
                complex_.dualize()                            # re-checks
                trivial = Character.trivial(ring, group.generator_count)
                complex_.twist(trivial)                       # re-checks
                complex_.dualize().twist(trivial)             # re-checks
    report(1, "double boundary vanishes for all built-ins over Z, Q, Z/2, Z/5", t)


def test_criterion_02_fox_identity(groups):
    with Timer(10) as t:
        for spec in GROUP_SPECS:
            group = groups[spec]
            one = GroupRingElement.one(INTEGERS, group)
            for word in random_words(group, 1000, 20, seed=20):
                derivatives = fox_derivatives_all(INTEGERS, group, word)
                total = GroupRingElement.zero(INTEGERS, group)
                for j, derivative in enumerate(derivatives, start=1):
                    s = GroupRingElement.monomial(INTEGERS, group, group.generator(j))
                    total = total + derivative * (s - one)
                w = GroupRingElement.monomial(INTEGERS, group, group.evaluate(word))
                assert total == w - one
    report(2, "w - 1 = sum (dw/ds)(s - 1) on 1000 words per presentation", t)


def test_criterion_03_involution_laws():
    with Timer(5) as t:
        rng = random.Random(30)
        f2 = free_group(2)
        letters = [1, -1, 2, -2]

        def element(ring):
            picks = []
            for _ in range(rng.randint(0, 4)):
                word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                picks.append((f2.evaluate(word), ring.sample(rng)))
            return GroupRingElement(INTEGERS, f2, picks) if ring is INTEGERS else \
                GroupRingElement(ring, f2, picks)

        for trial in range(1000):
            ring = QUATERNIONS if trial % 2 else INTEGERS
            x, y = element(ring), element(ring)
            assert x.involute().involute() == x
            assert (x * y).involute() == y.involute() * x.involute()

        for trial in range(40):
            ring = QUATERNIONS if trial % 2 else INTEGERS
            a = GroupRingMatrix(ring, f2, [[element(ring) for _ in range(3)] for _ in range(3)])
            b = GroupRingMatrix(ring, f2, [[element(ring) for _ in range(3)] for _ in range(3)])
            assert a.conjugate_transpose().conjugate_transpose() == a
            assert (a @ b).conjugate_transpose() == (
                b.conjugate_transpose() @ a.conjugate_transpose()
            )
    report(3, "star and dagger are involutive antihomomorphisms (with quaternions)", t)


def test_criterion_04_twist_formula(groups):
    with Timer(1) as t:
        klein = groups["Klein"]
        one = GroupRingElement.one(INTEGERS, klein)
        a = GroupRingElement.monomial(INTEGERS, klein, klein.generator(1))
        b = GroupRingElement.monomial(INTEGERS, klein, klein.generator(2))
        column = GroupRingMatrix.column([one - a, one - b])
        rho = Character.parse("a:-1,b:1", INTEGERS, 2)
        assert rho.is_valid_on(klein.presentation)
        assert column.twist(rho) == GroupRingMatrix.column([one + a, one - b])

        trivial = Character.trivial(INTEGERS, 2)
        rng = random.Random(40)
        letters = [1, -1, 2, -2]
        for _ in range(200):
            picks = []
            for _ in range(rng.randint(0, 5)):
                word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
                picks.append((klein.evaluate(word), INTEGERS.sample(rng)))
            x = GroupRingElement(INTEGERS, klein, picks)
            assert x.twist(trivial) == x
            assert x.twist(rho).twist(rho.inverse()) == x
    report(4, "orientation twist sends (1-a, 1-b) to (1+a, 1-b) exactly", t)


def test_criterion_05_filling_exactness():
    with Timer(60) as t:
        z2 = free_abelian(2)

        def square(n):
            return (1,) * n + (2,) * n + (-1,) * n + (-2,) * n

        window = build_ball_complex(z2, 6)
        for n in (1, 2, 3):
            result = minimal_filling(window, word_cycle(window, square(n)))
            assert result.filler_norm == n * n

        # independent brute force over all {-1, 0, 1} face vectors
        for n in (1, 2):
            small = build_ball_complex(z2, 2 * n)
            cycle = word_cycle(small, square(n))
            target = cycle_vector(cycle)
            dense = boundary2(small).toarray()
            minimum = None
            for size in range(small.face_count + 1):
                for support in combinations(range(small.face_count), size):
                    rows = dense[list(support)]
                    for signs in product((1, -1), repeat=size):
                        if np.array_equal(np.array(signs, dtype=np.int64) @ rows, target):
                            minimum = size
                            break
                    if minimum is not None:
                        break
                if minimum is not None:
                    break
            assert minimum == n * n
    report(5, "side-n squares fill with exactly n^2 faces (brute-force checked)", t)


def test_criterion_06_dichotomy_exhibit():
    with Timer(120) as t:
        z2 = free_abelian(2)
        ratios = [isoperimetric_sweep(z2, 6, cap).max_ratio for cap in (4, 8, 12)]
        assert ratios == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        assert ratios[0] < ratios[1] < ratios[2]

        sigma = surface_group(2)
        report_sigma = isoperimetric_sweep(sigma, 5, 8)
        assert report_sigma.corpus_size > 0
        assert report_sigma.max_ratio <= Fraction(1, 8)
    report(6, "plane ratios climb 1/4, 1/2, 3/4; surface corpus stays at 1/8", t)


def test_criterion_07_folner(groups):
    with Timer(120) as t:
        z2 = free_abelian(2)
        for n in range(2, 21):
            box = {(i, j) for i in range(n) for j in range(n)}
            assert len(folner_boundary(z2, box)) == 2 * n - 1

        rng = random.Random(70)
        for spec in ("F2", "Z^2", "Sigma2", "Klein"):
            group = groups[spec]
            elements = [g for g, _ in ball(group, 2)]
            for ring in (INTEGERS, residue_ring(2)):
                for _ in range(1000):
                    support = rng.sample(elements, rng.randint(0, 10))
                    d = GroupRingElement(
                        ring, group,
                        [(g, ring.sample(rng, nonzero=True)) for g in support],
                    )
                    entries = boundary_differential(d)
                    covered = set()
                    for entry in entries:
                        covered |= entry.support()
                    assert folner_boundary(group, d.support()) <= covered

        sweep = folner_sweep(free_group(2), "connected:10")
        assert sweep.sets_examined == 3138807   # rooted subtree count, sizes 1..10
        assert sweep.epsilon_hat > 0
        assert sweep.kappa_hat * sweep.epsilon_hat == 1
        assert sweep.verdict == "ratio-bounded-below"
    report(7, "box boundaries are 2n-1; support inclusion holds; tree ratio bounded below", t)


def test_criterion_08_hyperbolicity_probes(groups):
    with Timer(300) as t:
        f2 = groups["F2"]
        for radius in range(7):
            assert slimness_sweep(f2, radius).delta_hat == 0
        z2 = groups["Z^2"]
        assert slimness_sweep(z2, 2).delta_hat < slimness_sweep(z2, 4).delta_hat
        sigma = groups["Sigma2"]
        assert slimness_sweep(sigma, 2).delta_hat == slimness_sweep(sigma, 3).delta_hat
    report(8, "tree stays 0-slim up to radius 6; plane grows; surface stabilises", t)


def test_criterion_09_corridor_constants(groups):
    with Timer(1) as t:
        constants = slimness_constants(groups["Sigma2"].presentation, 1)
        assert (constants.N, constants.k, constants.m) == (8, 65, 8)
        assert constants.k == 1 * constants.N**2 + 1
        assert constants.m == 1 * constants.N
    report(9, "N = 8, k = 65, m = 8 for the genus-2 presentation at kappa = 1", t)


def test_criterion_10_euler_and_homology(groups):
    with Timer(5) as t:
        klein = presentation_complex(groups["Klein"], INTEGERS)
        assert klein.euler_characteristic() == 0
        assert klein.homology_dimensions(RATIONALS)[1] >= 1
        sigma = presentation_complex(groups["Sigma2"], INTEGERS)
        assert sigma.euler_characteristic() == -2
        assert sigma.homology_dimensions(RATIONALS)[1] == 4
        for spec in GROUP_SPECS:
            complex_ = presentation_complex(groups[spec], INTEGERS)
            for field in (RATIONALS, residue_ring(2)):
                dims = complex_.homology_dimensions(field)
                alternating = sum((-1) ** k * d for k, d in enumerate(dims))
                assert alternating == complex_.euler_characteristic()
    report(10, "chi = 0 with positive first homology for Klein; chi = -2, dim 4 for Sigma2", t)


def test_criterion_11_transfer_between_resolutions():
    with Timer(30) as t:
        assert transfer_constant(2, 3, 1, 4) == 10

        z2 = free_abelian(2)
        ring = INTEGERS
        standard = presentation_complex(z2, ring)
        d1, d2 = standard.differential(1), standard.differential(2)
        zero = GroupRingElement.zero(ring, z2)
        one = GroupRingElement.one(ring, z2)
        permute = GroupRingMatrix(ring, z2, [[zero, one], [one, zero]])

        # basis-permuted copy and the explicit chain maps between the two
        d1_perm = permute @ d1
        d2_perm = d2 @ permute
        from pdfill.complexes import ChainComplex

        permuted = ChainComplex(ring, z2, (1, 2, 1), (d1_perm, d2_perm))
        identity1 = GroupRingMatrix.identity(ring, z2, 1)
        # forward: standard -> permuted, backward: permuted -> standard
        forward = (identity1, permute, identity1)
        backward = (identity1, permute, identity1)
        assert forward[2] @ permuted.differential(2) == d2 @ forward[1]
        assert forward[1] @ permuted.differential(1) == d1 @ forward[0]
        assert backward[2] @ standard.differential(2) == d2_perm @ backward[1]
        # the round trip is the identity on the nose, so the homotopy is zero
        homotopy_norm = 0
        norm_x = forward[2].support_norm()
        norm_z = backward[1].support_norm()

        rng = random.Random(110)
        elements = [g for g, _ in ball(z2, 3)]
        samples = []
        while len(samples) < 100:
            picks = [
                (g, ring.value(rng.choice([-2, -1, 1, 2])))
                for g in rng.sample(elements, rng.randint(1, 6))
            ]
            chain = GroupRingElement(ring, z2, picks)
            if not chain.is_zero():
                samples.append(chain)

        records = []
        for chain in samples:
            gamma = permuted.differential(2).apply_to([chain])
            gamma_norm = sum(e.support_norm() for e in gamma)
            pulled = backward[1].apply_to(gamma)
            filler = chain   # fills the pulled-back boundary in the standard copy
            check = standard.differential(2).apply_to([filler])
            assert check == pulled
            pulled_norm = sum(e.support_norm() for e in pulled)
            records.append((filler.support_norm(), pulled_norm, gamma_norm))

        kappa_hat = max(
            Fraction(filler_norm, pulled_norm)
            for filler_norm, pulled_norm, _ in records
            if pulled_norm
        )
        bound_factor = kappa_hat * norm_x * norm_z + homotopy_norm
        for filler_norm, _, gamma_norm in records:
            pushed_norm = filler_norm   # forward map on top chains is the identity
            assert pushed_norm <= bound_factor * gamma_norm
    report(11, "transfer bound kappa|X||Z| + |H| holds across the permuted resolution", t)


CLI_COMMANDS = [
    ["complex", "Sigma2", "Z", "--euler", "--homology", "Q"],
    ["complex", "Klein", "Z", "--dualize", "--twist", "a:-1,b:1"],
    ["complex", "F2", "Z", "--dualize"],
    ["fill", "Z^2", "Z", "--radius", "4", "--max-word", "8"],
    ["fill", "Sigma2", "Z", "--radius", "4", "--max-word", "8"],
    ["folner", "Z^2", "--family", "boxes:20"],
    ["folner", "F2", "--family", "connected:8"],
    ["folner", "Klein", "--family", "balls:5"],
    ["slim", "F2", "--radius", "5", "--seed", "0"],
    ["slim", "Z^2", "--radius", "4", "--seed", "0"],
    ["constants", "Sigma2", "--kappa", "1"],
    ["transfer", "--kappa", "2", "--norm-x", "3", "--norm-z", "1", "--norm-h", "4"],
]


def test_criterion_12_cli_determinism():
    with Timer(60) as t:
        runner = CliRunner()
        for args in CLI_COMMANDS:
            first = runner.invoke(cli_main, args, catch_exceptions=False)
            second = runner.invoke(cli_main, args, catch_exceptions=False)
            assert first.exit_code == 0, args
            assert second.exit_code == 0
            assert first.output == second.output, args
        payload = json.loads(
            runner.invoke(cli_main, CLI_COMMANDS[-2], catch_exceptions=False).output
        )
        assert (payload["N"], payload["k"], payload["m"]) == (8, 65, 8)
    report(12, "every command is byte-identical across reruns with a fixed seed", t)
