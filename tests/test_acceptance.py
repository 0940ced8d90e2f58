"""Acceptance gate: ten exact-arithmetic criteria, one test per criterion.

Every comparison is an integer (or integer-tuple) equality; there are no
tolerances anywhere.  Each test prints a single summary line

    criterion NN PASS|FAIL (elapsed): title

so ``pytest -v -rA tests/test_acceptance.py`` reads as a checklist.  The
suite is slower than the unit tests (a few minutes): it runs the heavy
configurations (degree 5, all Specht pairs through degree 6) that the
unit tests deliberately keep small.
"""

import math
import random
import time
from contextlib import contextmanager

from pilattice.lattices import (
    AbelianInvariants,
    SubmoduleLattice,
    smith_normal_form,
)
from pilattice.multilinear import (
    MultilinearPoly,
    decompose,
    monomial_order,
    proper_basis,
    recompose,
)
from pilattice.pitheory import (
    cyclic_invariants,
    drensky_outcomes,
    ordinary_codim,
    proper_codim,
    proper_quotient_character,
    verify_field_props,
    verify_psi_outcomes,
    verify_specht_torsionfree,
    verify_young,
)
from pilattice.rings import cyclic_ring, grassmann, ut2
from pilattice.specht import (
    TabloidVector,
    compositions,
    hook_number,
    partitions,
    psi,
    specht_character,
    tabloid_module_basis,
)

SEED = 20260813


@contextmanager
def criterion(num: int, title: str):
    """Collect problem strings; print the one-line verdict either way."""
    start = time.perf_counter()
    problems: list[str] = []
    try:
        yield problems
    except BaseException:
        print(f"criterion {num:2d} FAIL ({time.perf_counter() - start:6.1f}s): {title}")
        raise
    verdict = "FAIL" if problems else "PASS"
    print(f"criterion {num:2d} {verdict} ({time.perf_counter() - start:6.1f}s): {title}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def collect_failures(problems: list[str], outcomes) -> None:
    problems.extend(
        f"{oc.subject} n={oc.n}: expected {oc.expected!r}, got {oc.computed!r}"
        f" ({oc.witness})"
        for oc in outcomes
        if not oc.passed
    )


def test_criterion_01_triangular_codimension_table():
    with criterion(1, "ut2 value groups follow the closed formula, n=2..5") as problems:
        for ell, m in ((2, 2), (3, 3), (4, 2), (0, 0)):
            model = ut2(ell, m)
            for n in range(2, 6):
                count = (n - 2) * 2 ** (n - 1) + 1
                expected = cyclic_invariants(ell).direct_sum(
                    cyclic_invariants(m).power(count)
                )
                got = ordinary_codim(model, n).ordinary
                if got != expected:
                    problems.append(f"ut2({ell},{m}) n={n}: {got} != {expected}")
        counts = [ordinary_codim(ut2(2, 2), n).ordinary.codim(2) for n in range(2, 6)]
        if counts != [2, 6, 18, 50]:
            problems.append(f"ut2(2,2) cyclic factor counts {counts} != [2, 6, 18, 50]")


def test_criterion_02_exterior_codimension_table():
    with criterion(2, "grassmann value groups are (l)^(2^(n-1)), stable in K") as problems:
        for ell in (3, 5, 0):
            for n in range(2, 5):
                expected = cyclic_invariants(ell).power(2 ** (n - 1))
                at_k = ordinary_codim(grassmann(ell, n + 1), n).ordinary
                at_k1 = ordinary_codim(grassmann(ell, n + 2), n).ordinary
                if at_k != expected:
                    problems.append(f"grassmann({ell},{n + 1}) n={n}: {at_k} != {expected}")
                if at_k1 != at_k:
                    problems.append(
                        f"grassmann ell={ell} n={n}: K={n + 1} gives {at_k}"
                        f" but K={n + 2} gives {at_k1}"
                    )


def test_criterion_03_proper_ordinary_binomial_identity():
    with criterion(3, "c_n = sum_j C(n,j) gamma_j for all models, n<=5, every q") as problems:
        models = [
            ut2(2, 2), ut2(4, 2), ut2(0, 0),
            grassmann(3, 5), grassmann(0, 5),
            cyclic_ring(4), cyclic_ring(6), cyclic_ring(0),
        ]
        for model in models:
            gammas = {j: proper_codim(model, j) for j in range(6)}
            for n in range(1, 6):
                expected = AbelianInvariants((), 0)
                for j in range(n + 1):
                    expected = expected.direct_sum(gammas[j].power(math.comb(n, j)))
                got = ordinary_codim(model, n).ordinary
                if got != expected or got.per_q() != expected.per_q():
                    problems.append(
                        f"{model.label} n={n}: ordinary {got},"
                        f" binomial sum of proper {expected}"
                    )


def test_criterion_04_specht_lattices_torsion_free():
    with criterion(4, "every pair lattice is a direct summand, n<=6") as problems:
        collect_failures(problems, verify_specht_torsionfree(6))


def test_criterion_05_psi_image_and_kernel():
    with criterion(5, "row-merge image/kernel identities on all pairs, n<=6") as problems:
        collect_failures(problems, verify_psi_outcomes(6))


def test_criterion_06_youngs_rule():
    with criterion(6, "induced filtrations interlace, m in {0,2,3}, n<=6") as problems:
        collect_failures(problems, verify_young(6, (0, 2, 3)))


def test_criterion_07_value_group_filtration():
    with criterion(7, "proper-degree filtration factors, ut2/grassmann, n<=4") as problems:
        for model in (ut2(2, 2), grassmann(3, 4)):
            for n in range(2, 5):
                collect_failures(problems, drensky_outcomes(model, n))


def test_criterion_08_proper_quotient_identifications():
    with criterion(8, "proper groups are hook Specht quotients, n<=5") as problems:
        for ell, m in ((2, 2), (3, 3), (4, 2), (0, 0)):
            model = ut2(ell, m)
            for n in range(2, 6):
                lam = (n - 1, 1)
                rank = hook_number(lam)
                if m == 0:
                    expected = AbelianInvariants((), rank)
                    chi_expected = specht_character(lam)
                else:
                    expected = cyclic_invariants(m).power(rank)
                    chi_expected = tuple(0 for _ in partitions(n))
                got = proper_codim(model, n)
                chi = proper_quotient_character(model, n)
                if got != expected:
                    problems.append(f"{model.label} n={n}: {got} != {expected}")
                if chi != chi_expected:
                    problems.append(
                        f"{model.label} n={n}: character {chi} != {chi_expected}"
                    )
        for ell in (3, 5, 0):
            for t in range(2, 6):
                model = grassmann(ell, t + 1)
                if t % 2:
                    expected = AbelianInvariants((), 0)
                    chi_expected = tuple(0 for _ in partitions(t))
                elif ell == 0:
                    expected = cyclic_invariants(0)
                    chi_expected = specht_character((1,) * t)
                else:
                    expected = cyclic_invariants(ell)
                    chi_expected = tuple(0 for _ in partitions(t))
                got = proper_codim(model, t)
                chi = proper_quotient_character(model, t)
                if got != expected:
                    problems.append(f"{model.label} degree {t}: {got} != {expected}")
                if chi != chi_expected:
                    problems.append(
                        f"{model.label} degree {t}: character {chi} != {chi_expected}"
                    )


def test_criterion_09_field_coefficient_surrogates():
    with criterion(9, "rational/mod-p ranks match the invariant counts, n<=4") as problems:
        for model in (ut2(0, 0), ut2(2, 2), ut2(3, 3)):
            collect_failures(problems, verify_field_props(model, 4))


def _random_poly(rng: random.Random, n: int) -> MultilinearPoly:
    words = monomial_order(n)
    support = rng.sample(words, rng.randint(1, min(4, len(words))))
    nonzero = [c for c in range(-9, 10) if c]
    return MultilinearPoly(
        {w: rng.choice(nonzero) for w in support}, range(1, n + 1)
    )


def _psi_triples() -> list[tuple[tuple[int, ...], int, int]]:
    """All (shape, row, kept) triples on which the row merge is defined."""
    triples = []
    for n in range(3, 6):
        for mu in compositions(n):
            basis = tabloid_module_basis(mu)
            probe = TabloidVector(mu, {basis[0]: 1})
            for i in range(1, len(mu)):
                for v in range(n + 1):
                    try:
                        psi(i, v, probe)
                    except ValueError:
                        continue
                    triples.append((mu, i, v))
    return triples


def test_criterion_10_property_suites():
    rng = random.Random(SEED)
    with criterion(10, "randomized structure suites with a fixed seed") as problems:
        # decompose/recompose round-trip on 200 random polynomials
        for case in range(200):
            n = rng.randint(1, 5)
            f = _random_poly(rng, n)
            g = recompose(decompose(f), n)
            if g.terms != f.terms:
                problems.append(f"round-trip case {case} (n={n}) changed the polynomial")

        # proper ranks follow the derangement numbers
        ranks = [proper_basis(n).lattice.rank for n in range(1, 6)]
        if ranks != [0, 1, 2, 9, 44]:
            problems.append(f"proper ranks {ranks} != [0, 1, 2, 9, 44]")

        # the row merge commutes with the symmetric group action
        triples = _psi_triples()
        for case in range(100):
            mu, i, v = rng.choice(triples)
            n = sum(mu)
            basis = tabloid_module_basis(mu)
            x = TabloidVector(
                mu,
                {
                    tab: rng.randint(-5, 5)
                    for tab in rng.sample(basis, min(3, len(basis)))
                },
            )
            word = list(range(1, n + 1))
            rng.shuffle(word)
            word = tuple(word)
            if psi(i, v, x.act(word)).coeffs != psi(i, v, x).act(word).coeffs:
                problems.append(f"row merge not equivariant at {(mu, i, v)}, {word}")

        # renaming maps the proper lattice into itself
        for case in range(100):
            n = rng.randint(2, 5)
            basis = proper_basis(n)
            terms: dict = {}
            pick = rng.randint(1, min(3, len(basis.elements)))
            for idx in rng.sample(range(len(basis.elements)), pick):
                c = rng.choice([-3, -2, -1, 1, 2, 3])
                for w, a in basis.elements[idx].expand().terms.items():
                    terms[w] = terms.get(w, 0) + c * a
            f = MultilinearPoly(terms, range(1, n + 1))
            word = list(range(1, n + 1))
            rng.shuffle(word)
            if not basis.contains(f.act(tuple(word))):
                problems.append(f"renaming left the proper lattice at n={n}, {word}")

        # normal-form invariants on random integer matrices
        for case in range(40):
            height, width = rng.randint(1, 5), rng.randint(1, 5)
            matrix = [
                [rng.randint(-9, 9) for _ in range(width)] for _ in range(height)
            ]
            canonical = SubmoduleLattice.from_rows(width, matrix).rows
            if SubmoduleLattice.from_rows(width, canonical).rows != canonical:
                problems.append(f"triangular form not idempotent on {matrix}")
            original = SubmoduleLattice.from_rows(width, matrix)
            reduced = SubmoduleLattice.from_rows(width, canonical)
            if not (
                original.contains_lattice(reduced)
                and reduced.contains_lattice(original)
            ):
                problems.append(f"triangular form changed the row span of {matrix}")
            factors = smith_normal_form(matrix, width)
            if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
                problems.append(f"invariant factors {factors} break divisibility")
            shuffled = [row[:] for row in matrix]
            rng.shuffle(shuffled)
            if height > 1:
                src, dst = rng.sample(range(height), 2)
                scale = rng.randint(-3, 3)
                shuffled[dst] = [
                    a + scale * b for a, b in zip(shuffled[dst], shuffled[src])
                ]
            if smith_normal_form(shuffled, width) != factors:
                problems.append(f"invariant factors changed under row moves: {matrix}")
