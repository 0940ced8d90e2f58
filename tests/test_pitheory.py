"""Evaluation functionals, codimension groups, identity lattices, and the
registered verification claims on the built-in ring families."""

import itertools
from functools import lru_cache

import pytest

from pilattice import pitheory
from pilattice.lattices import AbelianInvariants, evaluation_kernel, image_invariants
from pilattice.multilinear import (
    MultilinearPoly, bracket_poly, monomial_order, proper_basis,
)
from pilattice.pitheory import (
    BudgetExceeded,
    CLAIMS,
    GRASSMANN_N_MAX,
    GENERAL_N_MAX,
    consequence_lattice,
    cyclic_invariants,
    degree_bound,
    drensky_filtration,
    grassmann_crossing_identity,
    grassmann_identity_basis,
    identities_in_kernel,
    identities_vanish,
    kernel_lattice,
    monomial_row_action,
    multilinear_consequences,
    ordinary_codim,
    proper_codim,
    proper_quotient_character,
    proper_quotient_pair,
    proper_row_action,
    run_claim,
    unit_subgroup_invariants,
    ut2_identity_basis,
    verify_field_props,
    verify_grassmann,
    verify_proper_ordinary,
    verify_specht_torsionfree,
    verify_ut2,
    verify_young,
)
from pilattice.rings import (
    RingModel, cyclic_ring, direct_sum, evaluate, grassmann, tuple_count, ut2,
)
from pilattice.specht import specht_character


def square_zero_ring():
    """Rank-2 model with ab = 0 shifted into a second coordinate; no unit."""
    return RingModel(
        label="square-zero",
        moduli=(4, 4),
        table={(0, 0): ((1, 1),)},
        generators=((1, 0), (0, 1)),
    )


def assert_all_passed(outcomes):
    failed = [o for o in outcomes if not o.passed]
    assert not failed, failed[:3]


# ---------------------------------------------------------------------------
# codimension groups: frozen values
# ---------------------------------------------------------------------------

def test_cyclic_invariants_frozen():
    assert cyclic_invariants(0) == AbelianInvariants((), 1)
    assert cyclic_invariants(1) == AbelianInvariants((), 0)
    assert cyclic_invariants(5) == AbelianInvariants((5,), 0)
    assert unit_subgroup_invariants(ut2(4, 2)) == AbelianInvariants((4,), 0)


def test_cyclic_ring_codim():
    # commutative: all monomial values coincide, one cyclic summand
    assert ordinary_codim(cyclic_ring(6), 3).ordinary == AbelianInvariants((6,), 0)
    assert ordinary_codim(cyclic_ring(0), 2).ordinary == AbelianInvariants((), 1)
    assert proper_codim(cyclic_ring(6), 3) == AbelianInvariants((), 0)


def test_ut2_codim_formula_frozen():
    model = ut2(2, 2)
    # (n-2)*2^(n-1) + 1 corner copies plus one diagonal copy, all mod 2
    for n, count in [(2, 1), (3, 5), (4, 17)]:
        inv = ordinary_codim(model, n).ordinary
        assert inv == AbelianInvariants((2,) * (count + 1), 0)


def test_ut2_integral_codim():
    inv = ordinary_codim(ut2(0, 0), 2).ordinary
    assert inv == AbelianInvariants((), 2)


def test_grassmann_codim_frozen():
    inv = ordinary_codim(grassmann(3, 4), 3).ordinary
    assert inv == AbelianInvariants((3, 3, 3, 3), 0)


def test_proper_codim_low_degrees():
    model = ut2(2, 2)
    assert proper_codim(model, 0) == AbelianInvariants((2,), 0)
    assert proper_codim(model, 1) == AbelianInvariants((), 0)
    assert proper_codim(model, 2) == AbelianInvariants((2,), 0)
    assert proper_codim(model, 3) == AbelianInvariants((2, 2), 0)


def test_grassmann_proper_alternates():
    assert proper_codim(grassmann(3, 4), 3) == AbelianInvariants((), 0)
    assert proper_codim(grassmann(3, 5), 4) == AbelianInvariants((3,), 0)


def test_proper_character_matches_hook_specht():
    chi = proper_quotient_character(ut2(0, 0), 3)
    assert chi == specht_character((2, 1)) == (-1, 0, 2)
    # torsion case: rational character of a finite group is zero
    assert proper_quotient_character(ut2(2, 2), 3) == (0, 0, 0)


def test_codim_report_shape():
    report = ordinary_codim(ut2(2, 2), 2, include_proper=True)
    assert report.ring_label == "ut2(2,2)" and report.n == 2
    doc = report.to_json()
    assert set(doc) == {"ring", "n", "ordinary", "proper", "per_q"}
    assert doc["per_q"]["ordinary"] == {"2": 2}
    assert "timing_ms" in report.to_json(timings=True)


# ---------------------------------------------------------------------------
# proper functionals
# ---------------------------------------------------------------------------

def test_one_evaluation_per_model_and_degree(monkeypatch):
    # the proper rows are read off the ordinary ones: fresh caches, one walk
    calls = []
    evaluate_all = pitheory.evaluation_functionals
    monkeypatch.setattr(
        pitheory, "evaluation_functionals",
        lambda *args: calls.append(args) or evaluate_all(*args),
    )
    for name in ("_rows", "_invariants", "_kernel"):
        fresh = lru_cache(maxsize=None)(getattr(pitheory, name).__wrapped__)
        monkeypatch.setattr(pitheory, name, fresh)
    model = ut2(2, 2)
    ordinary_codim(model, 4, include_proper=True)
    proper_quotient_pair(model, 4)
    assert calls == [(model, 4)]


def proper_rows_by_substitution(model, n):
    """Proper functionals straight from the definition: every basis
    element evaluated on every generator tuple, one row per coordinate."""
    polys = [e.expand() for e in proper_basis(n).elements]
    gens = model.generator_elements()
    rows = []
    for tup in itertools.product(gens, repeat=n):
        values = [evaluate(f, tup).coords for f in polys]
        for k, m in enumerate(model.moduli):
            rows.append(([v[k] for v in values], m))
    return rows, len(polys)


@pytest.mark.parametrize(
    "model",
    [
        ut2(2, 2), ut2(0, 0), cyclic_ring(6), grassmann(3, 3),
        direct_sum(ut2(2, 2), cyclic_ring(3)),
    ],
    ids=lambda model: model.label,
)
def test_proper_functionals_match_substitution(model):
    for n in (2, 3, 4):
        rows, columns = proper_rows_by_substitution(model, n)
        assert image_invariants(rows, columns) == proper_codim(model, n)
        kernel = evaluation_kernel(rows, columns)
        assert kernel.rows == pitheory._kernel(model, n, True).rows


# ---------------------------------------------------------------------------
# degree bounds and budgets
# ---------------------------------------------------------------------------

def test_degree_bounds():
    assert degree_bound(ut2(2, 2)) == GENERAL_N_MAX == 5
    assert degree_bound(grassmann(3, 4)) == GRASSMANN_N_MAX == 4
    with pytest.raises(ValueError, match="exceeds"):
        ordinary_codim(ut2(2, 2), 6)
    with pytest.raises(ValueError, match="exceeds"):
        ordinary_codim(grassmann(3, 4), 5)
    with pytest.raises(ValueError, match="exceeds"):
        ordinary_codim(ut2(2, 2), 5, n_bound=4)
    # an explicit bound opens degrees the default would refuse
    assert kernel_lattice(ut2(2, 2), 3, n_bound=3).ambient == 6
    # multilinear degrees start at 1 (proper_codim answers n = 0 itself)
    for n in (0, -1):
        with pytest.raises(ValueError, match="below 1"):
            kernel_lattice(ut2(2, 2), n)
        with pytest.raises(ValueError, match="below 1"):
            ordinary_codim(cyclic_ring(4), n)


def test_budget_exceeded_carries_context():
    with pytest.raises(BudgetExceeded) as exc:
        ordinary_codim(ut2(2, 2), 4, row_budget=10)
    err = exc.value
    assert err.label == "ut2(2,2)" and err.n == 4
    assert err.needed > err.budget == 10
    assert "row budget" in str(err)


def test_budget_threshold_is_exact_whatever_is_cached():
    # tuple_count * rank rows pass and one less raises, on the monomial and
    # on the proper side, before and after the rows are cached
    entries = (
        ordinary_codim, kernel_lattice,
        proper_codim, proper_quotient_pair, proper_quotient_character,
    )
    for model in (ut2(6, 3), grassmann(5, 3), direct_sum(cyclic_ring(2), ut2(3, 3))):
        needed = tuple_count(model, 3) * model.rank
        for entry in entries:
            for budget in (needed - 1, needed, None, needed - 1):
                if budget == needed - 1:
                    with pytest.raises(BudgetExceeded) as exc:
                        entry(model, 3, row_budget=budget)
                    assert (exc.value.needed, exc.value.budget) == (needed, budget)
                else:
                    entry(model, 3, row_budget=budget)


def test_claims_check_the_budget_of_every_evaluation():
    # the largest evaluation each claim makes: identity degree 4 for ut2.codim,
    # the top degree for the others
    cases = [
        ("ut2.codim", {"subjects": [(2, 2)], "n_max": 3}, 3**4 * 3),
        ("drensky", {"models": [ut2(2, 2)], "n_max": 3}, 3**3 * 3),
        ("proper-ordinary", {"models": [cyclic_ring(4)], "n_max": 3}, 1),
        ("field-props", {"models": [ut2(3, 3)], "n_max": 3}, 3**3 * 3),
    ]
    for claim, config, needed in cases:
        with pytest.raises(BudgetExceeded):
            run_claim(claim, dict(config, row_budget=needed - 1))
        assert_all_passed(run_claim(claim, dict(config, row_budget=needed)))


# ---------------------------------------------------------------------------
# identity lattices
# ---------------------------------------------------------------------------

def test_identity_bases_vanish_and_sit_in_kernel():
    model = ut2(2, 2)
    basis = ut2_identity_basis(2, 2)
    assert identities_vanish(model, basis)
    assert identities_in_kernel(model, basis)
    probe = grassmann(3, 5)
    gbasis = grassmann_identity_basis(3)
    assert identities_vanish(probe, gbasis + [grassmann_crossing_identity()])
    assert identities_in_kernel(probe, gbasis)


def test_identity_basis_scalars_dropped_when_zero():
    assert len(ut2_identity_basis(0, 0)) == 1
    assert len(ut2_identity_basis(2, 2)) == 3
    assert len(grassmann_identity_basis(0)) == 1
    assert len(grassmann_identity_basis(3)) == 2


def test_consequences_of_a_bracket():
    closure = consequence_lattice([bracket_poly((1, 2))], 2)
    assert closure.rank == 1
    assert closure.contains(bracket_poly((2, 1)).to_vector(2))
    # 12 one-variable multiples of [x_i,x_j] plus 12 word substitutions
    count = sum(1 for _ in multilinear_consequences(bracket_poly((1, 2)), 3))
    assert count == 24


def test_consequence_closure_equals_kernel_ut2():
    model = ut2(2, 2)
    closure = consequence_lattice(ut2_identity_basis(2, 2), 3)
    kern = kernel_lattice(model, 3)
    assert closure.contains_lattice(kern) and kern.contains_lattice(closure)


def test_consequences_require_normalized_variables():
    poly = MultilinearPoly.monomial((2, 3))
    with pytest.raises(ValueError):
        list(multilinear_consequences(poly, 3))


def test_kernel_is_renaming_stable():
    model = ut2(2, 2)
    kern = kernel_lattice(model, 3)
    act = monomial_row_action(3)
    for word in monomial_order(3):
        for row in kern.rows:
            assert kern.contains(act(word, row))


def test_proper_kernel_is_renaming_stable():
    outer, inner = proper_quotient_pair(ut2(2, 2), 4)
    assert outer.rank == 9
    act = proper_row_action(4)
    for word in monomial_order(4):
        for row in inner.rows:
            assert inner.contains(act(word, row))


# ---------------------------------------------------------------------------
# structure theorems as outcome lists
# ---------------------------------------------------------------------------

def test_proper_ordinary_bridge():
    assert_all_passed(verify_proper_ordinary(cyclic_ring(4)))
    assert_all_passed(verify_proper_ordinary(ut2(2, 2), 4))
    with pytest.raises(ValueError, match="unital"):
        verify_proper_ordinary(square_zero_ring())


def test_drensky_filtration_frozen():
    report = drensky_filtration(ut2(2, 2), 3)
    assert report.consistent
    assert report.head_invariants == AbelianInvariants((2,), 0)
    by_t = {f.t: f for f in report.factors}
    assert by_t[2].invariants == AbelianInvariants((2, 2, 2), 0)
    assert by_t[3].invariants == AbelianInvariants((2, 2), 0)
    assert by_t[2].character == by_t[2].expected_character
    doc = report.to_json()
    assert doc["ring"] == "ut2(2,2)" and doc["n"] == 3
    assert [f["t"] for f in doc["factors"]] == [2, 3]


def test_drensky_validation():
    with pytest.raises(ValueError, match="unital"):
        drensky_filtration(square_zero_ring(), 3)
    with pytest.raises(ValueError, match="n >= 2"):
        drensky_filtration(ut2(2, 2), 1)


def test_verify_ut2_small():
    assert_all_passed(verify_ut2(2, 2, 3))


def test_verify_ut2_integral_small():
    assert_all_passed(verify_ut2(0, 0, 3))


def test_verify_grassmann_small():
    assert_all_passed(verify_grassmann(3, 3, proper_n_max=3))


def test_verify_field_props():
    assert_all_passed(verify_field_props(ut2(3, 3), 3))
    assert_all_passed(verify_field_props(ut2(0, 0), 3))
    with pytest.raises(ValueError, match="mixed"):
        verify_field_props(ut2(4, 2))
    with pytest.raises(ValueError, match="prime"):
        verify_field_props(ut2(4, 4))


def test_verify_specht_claims_small():
    assert_all_passed(verify_specht_torsionfree(4))
    assert_all_passed(verify_young(4, (0, 2)))


# ---------------------------------------------------------------------------
# claim registry
# ---------------------------------------------------------------------------

def test_claim_registry_names():
    assert set(CLAIMS) == {
        "ut2.codim",
        "grassmann.codim",
        "proper-ordinary",
        "young",
        "drensky",
        "specht.torsionfree",
        "field-props",
    }


def test_run_claim_with_config():
    outcomes = run_claim("ut2.codim", {"subjects": [(2, 2)], "n_max": 3})
    assert_all_passed(outcomes)
    subjects = {o.subject for o in outcomes}
    assert "ut2(2,2)" in subjects


def test_run_claim_unknown():
    with pytest.raises(KeyError, match="unknown claim"):
        run_claim("nonsense")


def test_outcome_json_shape():
    (outcome,) = run_claim("young", {"n_max": 2, "moduli": (2,)})
    doc = outcome.to_json()
    assert set(doc) == {
        "claim", "subject", "n", "passed", "expected", "computed", "witness",
    }
    assert doc["passed"] is True and doc["witness"] == ""
