"""Evaluation functionals, codimension groups, identity lattices, and the
registered verification claims on the built-in ring families."""

import hashlib
import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from pilattice import pitheory, specht
from pilattice.lattices import (
    AbelianInvariants, LatticeBuilder, SubmoduleLattice, evaluation_kernel,
    image_invariants,
)
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
    identities_vanish,
    kernel_lattice,
    ordinary_codim,
    proper_codim,
    proper_quotient_character,
    proper_quotient_pair,
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
    RingModel, cyclic_ring, direct_sum, evaluate, generator_tuples, grassmann,
    tuple_count, ut2,
)
from pilattice.specht import (
    conjugacy_class_reps, specht_character, tabloid_action_map,
)
import dense_reference
from dense_reference import permute_row, proper_rows
from test_lattices import assert_torsion_counts, brute_image


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


@lru_cache(maxsize=None)
def proper_coordinate_action(t, word):
    """Reference action on the proper coordinates: row i is proper basis
    element i, expanded, renamed by the word and solved back onto the
    basis."""
    basis = proper_basis(t)
    return tuple(
        tuple(basis.coordinates(e.expand().act(word))) for e in basis.elements
    )


def proper_coordinate_trace(lattice, t, word):
    """Trace of the reference action on a lattice of proper coordinates."""
    matrix = proper_coordinate_action(t, word)
    trace = 0
    for i, row in enumerate(lattice.rows):
        image = [sum(c * m[k] for c, m in zip(row, matrix)) for k in range(len(matrix))]
        coords = lattice.coordinates_of(image)
        assert coords is not None, "renaming left the lattice"
        trace += coords[i]
    return trace


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_proper_character_matches_the_proper_coordinate_trace(t):
    """The character, taken on the proper lattice in the monomial columns,
    against the trace on the proper coordinates of ``proper_quotient_pair``."""
    models = [
        ut2(0, 0), ut2(2, 2), ut2(4, 2), cyclic_ring(0), cyclic_ring(6),
        grassmann(0, t + 1), grassmann(3, t + 1),
        direct_sum(ut2(0, 0), cyclic_ring(0)),
    ]
    for model in models:
        outer, inner = proper_quotient_pair(model, t)
        expected = tuple(
            proper_coordinate_trace(outer, t, word)
            - proper_coordinate_trace(inner, t, word)
            for _, word in conjugacy_class_reps(t)
        )
        assert proper_quotient_character(model, t) == expected, model.label


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


def test_codim_and_kernel_fold_once_per_degree(monkeypatch):
    """The ordinary value group is read off the identity lattice, Z^{n!}/K:
    a codim report with its proper group, then the kernel, folds the
    ordinary functionals once (``evaluation_kernel``) and the proper ones
    once (``image_invariants``) at each degree."""
    calls = []
    for name in ("evaluation_kernel", "image_invariants"):
        fold = getattr(pitheory, name)
        monkeypatch.setattr(
            pitheory, name,
            lambda rows, c, name=name, fold=fold: calls.append((name, c)) or fold(rows, c),
        )
    for name in ("_invariants", "_kernel"):
        fresh = lru_cache(maxsize=None)(getattr(pitheory, name).__wrapped__)
        monkeypatch.setattr(pitheory, name, fresh)
    model = ut2(2, 2)
    for n in range(2, 6):
        calls.clear()
        ordinary_codim(model, n, include_proper=True)
        kernel_lattice(model, n)
        assert sorted(calls) == [
            ("evaluation_kernel", math.factorial(n)),
            ("image_invariants", len(proper_basis(n).elements)),
        ]


TORSION_SESSION_KINDS = [cyclic_ring(0), cyclic_ring(5), ut2(0, 0), ut2(3, 3), ut2(6, 3)]


@pytest.mark.parametrize("model", TORSION_SESSION_KINDS, ids=lambda model: model.label)
def test_ordinary_value_group_is_the_image(model):
    """Z^{n!}/K, the codim route, against the image of the ordinary
    functionals (the dense heads-only fold modulo the moduli lattice), for
    each kind of model of the torsion session."""
    for n in range(1, 6):
        rows = pitheory._rows(model, n, False)
        moduli, image, _ = dense_reference.evaluation_fold(rows, math.factorial(n), 0)
        assert ordinary_codim(model, n).ordinary == image.quotient_invariants(moduli)


def test_walk_builds_only_the_transposition_maps(monkeypatch):
    """Every position map of the n = 5 walk is composed from the maps of
    the four adjacent transpositions, the only maps built from the row
    words; caches are fresh, and the rows are the cached walk's."""
    built = []
    build = specht._transposition_maps.__wrapped__

    def counting(mu):
        maps = build(mu)
        built.extend(maps)
        return maps

    monkeypatch.setattr(specht, "_transposition_maps", lru_cache(maxsize=None)(counting))
    fresh = lru_cache(maxsize=None)(specht.tabloid_action_map.__wrapped__)
    monkeypatch.setattr(pitheory, "tabloid_action_map", fresh)
    model = ut2(2, 2)
    rows = pitheory.evaluation_functionals(model, 5)
    assert fresh.cache_info().currsize > 4
    assert 0 < len(built) <= 4
    assert tuple(rows) == pitheory._rows(model, 5, False)


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


def repeated_generator_ring():
    """ut2(0, 0) with e11 declared twice, so multisets repeat a generator."""
    base = ut2(0, 0)
    return RingModel(
        label="ut2-twin-e11",
        moduli=base.moduli,
        table=base.table,
        generators=(base.generators[0],) + base.generators,
        unit=base.unit,
    )


def twin_e22_ring():
    """ut2(2, 2) with e22 declared before e11 and again after it.
    Multisets that differ only in which copy of e22 they hold give the same
    rows, but can differ in their runs of repeated generators (one copy
    twice, or each copy once), and so in the position maps their tuples
    can have.  At n = 4, a group key without the runs calls a group
    complete before every map of its tuples is built."""
    base = ut2(2, 2)
    return RingModel(
        label="ut2-twin-e22",
        moduli=base.moduli,
        table=base.table,
        generators=(base.generators[1],) + base.generators,
        unit=base.unit,
    )


def nilpotent_ring():
    """Generators e0..e3 whose only nonzero products are e0e3 = f1,
    e1e2 = f2 and e2e3 = e3e2 = f3.  The multisets {0, 3} and {1, 2} give
    the same rows, so at n = 2 the tuple (2, 1) must emit (0, 1) before
    (2, 3) emits (1, 1): skipping every ordering of {1, 2} because its
    sorted tuple repeats the rows of {0, 3} would swap them."""
    return RingModel(
        label="nilpotent",
        moduli=(0,) * 7,
        table={(0, 3): ((4, 1),), (1, 2): ((5, 1),), (2, 3): ((6, 1),), (3, 2): ((6, 1),)},
        generators=tuple(tuple(int(i == k) for i in range(7)) for k in range(4)),
        basis_names=("e0", "e1", "e2", "e3", "f1", "f2", "f3"),
    )


ORDINARY_ORACLE_MODELS = [
    ut2(2, 2), cyclic_ring(6), grassmann(3, 3),
    direct_sum(grassmann(3, 3), ut2(0, 0)), repeated_generator_ring(),
    twin_e22_ring(), nilpotent_ring(),
]


def ordinary_rows_by_substitution(model, n):
    """Ordinary functionals straight from the definition: every monomial
    evaluated on every generator tuple, one row per coordinate."""
    polys = [MultilinearPoly.monomial(w) for w in monomial_order(n)]
    gens = model.generator_elements()
    rows = []
    for tup in itertools.product(gens, repeat=n):
        values = [evaluate(f, tup).coords for f in polys]
        for k, m in enumerate(model.moduli):
            rows.append(([v[k] for v in values], m))
    return rows, len(polys)


def full_walk_functionals(model, n):
    """Ring products on every tuple, rows normalised and deduplicated in
    visiting order: the reference for the orbit walk's exact output."""
    gens = [{k: c for k, c in enumerate(g) if c} for g in model.generators]
    out, seen = [], set()
    for tup in generator_tuples(model, n):
        values = []
        for word in monomial_order(n):
            value = gens[tup[word[0] - 1]]
            for v in word[1:]:
                value = model.mul_sparse(value, gens[tup[v - 1]])
            values.append(value)
        for k in sorted(set().union(*values)):
            row = [val.get(k, 0) for val in values]
            lead = next(x for x in row if x)
            entry = (tuple(-x if lead < 0 else x for x in row), model.moduli[k])
            if entry not in seen:
                seen.add(entry)
                out.append(entry)
    return out


@pytest.mark.parametrize("model", ORDINARY_ORACLE_MODELS, ids=lambda model: model.label)
def test_ordinary_functionals_match_substitution(model):
    for n in (1, 2, 3, 4):
        rows, columns = ordinary_rows_by_substitution(model, n)
        assert image_invariants(rows, columns) == pitheory._invariants(model, n, False)
        kernel = evaluation_kernel(rows, columns)
        assert kernel.rows == pitheory._kernel(model, n, False).rows


@pytest.mark.parametrize("model", ORDINARY_ORACLE_MODELS, ids=lambda model: model.label)
def test_orbit_walk_keeps_the_full_walk_order(model):
    for n in (1, 2, 3, 4):
        assert pitheory.evaluation_functionals(model, n) == full_walk_functionals(model, n)


@pytest.mark.parametrize(
    "model",
    [*ORDINARY_ORACLE_MODELS, ut2(0, 0), ut2(9, 3)],
    ids=lambda model: model.label,
)
def test_proper_rows_match_the_dense_projection(model):
    for n in (1, 2, 3, 4, 5):
        expected = proper_rows(pitheory._rows(model, n, False), proper_basis(n).matrix)
        assert pitheory._rows(model, n, True) == expected


GRASSMANN_3_6_N4_DIGEST = "aba54933136953a8009a80e7f90a1f4cd7ff8d0221f2ac498ae6a0a3ae11f5cb"


def counted_walk(monkeypatch, model, n):
    """``evaluation_functionals(model, n)`` with its ring products and its
    ``tabloid_action_map`` lookups counted."""
    products, maps = [], []
    mul = RingModel.mul_sparse
    monkeypatch.setattr(
        RingModel, "mul_sparse", lambda self, a, b: products.append(1) or mul(self, a, b)
    )
    action = pitheory.tabloid_action_map
    monkeypatch.setattr(
        pitheory, "tabloid_action_map", lambda mu, word: maps.append(word) or action(mu, word)
    )
    return pitheory.evaluation_functionals(model, n), len(products), len(maps)


def test_orbit_walk_builds_each_row_pattern_once(monkeypatch):
    """grassmann(3, 6) at n = 4 walks 15,625 tuples.  Prefix products are
    shared between representatives, and the rows of a tuple are built only
    when its position map is new to its group: 25,345 products and 629
    built tuples, against 51,300 and 15,625 when every tuple's rows were
    built from a per-representative prefix stack.  The list is pinned by a
    digest of the one the full walk gives."""
    model = grassmann(3, 6)
    assert tuple_count(model, 4) == 15_625
    rows, products, maps = counted_walk(monkeypatch, model, 4)
    assert products <= 30_000
    assert maps <= 1_000
    assert len(rows) == 24
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == GRASSMANN_3_6_N4_DIGEST


def test_orbit_walk_makes_one_product_per_step(monkeypatch):
    """The 4,096 prefixes of length 3 of grassmann(3, 6) have 121 distinct
    products.  With one product per (distinct product, generator) step,
    n = 4 makes 1,202 products, against 25,345 with a memo of the prefixes
    alone; the list keeps the full walk's digest."""
    rows, products, maps = counted_walk(monkeypatch, grassmann(3, 6), 4)
    assert products <= 1_300
    assert maps <= 1_000
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == GRASSMANN_3_6_N4_DIGEST


@st.composite
def ut2_models(draw):
    ell = draw(st.integers(0, 12))
    if ell:
        m = draw(st.sampled_from([d for d in range(1, ell + 1) if ell % d == 0]))
    else:
        m = draw(st.integers(0, 6))
    return ut2(ell, m)


summand_models = st.one_of(
    st.integers(0, 12).map(cyclic_ring),
    ut2_models(),
    st.builds(grassmann, st.sampled_from((0, 1, 3, 5, 9)), st.integers(0, 3)),
)


@st.composite
def small_sums(draw):
    """A direct sum of one to three summands and a degree n <= 3, lowered
    until the full walk makes at most 30,000 words (about 0.3 s)."""
    model = direct_sum(*draw(st.lists(summand_models, min_size=1, max_size=3)))
    n = draw(st.integers(1, 3))
    while n > 1 and tuple_count(model, n) * math.factorial(n) > 30_000:
        n -= 1
    return model, n


@settings(deadline=None, max_examples=100)
@given(small_sums())
def test_orbit_walk_matches_full_walk_on_random_sums(case):
    model, n = case
    assert pitheory.evaluation_functionals(model, n) == full_walk_functionals(model, n)


@st.composite
def nilpotent_tables(draw):
    """Rings with A^3 = 0: generators e_0..e_{g-1} over Z, 4 <= g <= 6,
    whose ordered pairs multiply to 0 (in half the draws) or to +-f for one
    of at most four targets f, each with its own modulus, and every product
    with a target is 0.  Every triple product vanishes, so the table is
    associative and only n = 2 has nonzero rows; unused targets are
    dropped, so the generators generate.  Distinct multisets often share
    their value pattern and are met in either order, as in
    ``nilpotent_ring``.  Which pairs are met first depends on the order of
    the generators, so the table comes once per rotation of their labels:
    a walk that skips a whole representative whose pattern it has seen
    fails on about one table in ten."""
    g = draw(st.sampled_from((4, 5, 6)))
    entries = [None] * 8 + [(f, c) for f in range(4) for c in (1, -1)]
    products = draw(st.lists(st.sampled_from(entries), min_size=g * g, max_size=g * g))
    pairs = {divmod(p, g): value for p, value in enumerate(products) if value}
    targets = sorted({f for f, _ in pairs.values()})
    moduli = (0,) * g + tuple(draw(st.lists(
        st.sampled_from((0, 2, 3, 4, 5, 7)), min_size=len(targets), max_size=len(targets)
    )))
    rank = len(moduli)
    return [
        RingModel(
            label=f"nilpotent-table-{shift}",
            moduli=moduli,
            table={
                ((i + shift) % g, (j + shift) % g): ((g + targets.index(f), c),)
                for (i, j), (f, c) in pairs.items()
            },
            generators=tuple(tuple(int(i == k) for i in range(rank)) for k in range(g)),
        )
        for shift in range(g)
    ]


@settings(deadline=None, max_examples=300)
@given(nilpotent_tables())
def test_orbit_walk_matches_full_walk_on_nilpotent_tables(models):
    for model in models:
        assert pitheory.evaluation_functionals(model, 2) == full_walk_functionals(model, 2)


BRUTE_FORCE_MODELS = [
    cyclic_ring(2), cyclic_ring(4), cyclic_ring(6), ut2(2, 2), ut2(4, 2),
    direct_sum(ut2(2, 2), cyclic_ring(3)), grassmann(3, 1),
]


@pytest.mark.parametrize("model", BRUTE_FORCE_MODELS, ids=lambda model: model.label)
def test_model_invariants_and_kernel_match_brute_force(model):
    """Finite models of order at most 2^6 at n <= 3 against enumeration:
    the value group generated by the monomial columns of the substituted
    functionals, by its d-torsion counts, and the identities among the
    vectors in [-2, 2]^(n!), by which ones every substitution kills."""
    for n in (1, 2, 3):
        rows, columns = ordinary_rows_by_substitution(model, n)
        # repeated and zero rows change neither the group nor the kernel
        rows = [
            (vec, m)
            for vec, m in dict.fromkeys((tuple(c % m for c in vec), m) for vec, m in rows)
            if any(vec)
        ]
        moduli = [m for _, m in rows]
        group = brute_image([[vec[j] for vec, _ in rows] for j in range(columns)], moduli)
        inv = pitheory._invariants(model, n, False)
        assert inv.free_rank == 0
        assert_torsion_counts(group, moduli, inv)

        def killed(v):
            return all(sum(a * b for a, b in zip(vec, v)) % m == 0 for vec, m in rows)

        kernel = pitheory._kernel(model, n, False)
        assert all(killed(v) for v in kernel.rows)
        for v in itertools.product(range(-2, 3), repeat=columns):
            if killed(v):
                assert kernel.contains(v)


# ---------------------------------------------------------------------------
# degree bounds and budgets
# ---------------------------------------------------------------------------

def test_degree_bounds():
    # the family caps are default ranges only
    assert degree_bound(ut2(2, 2)) == GENERAL_N_MAX == 5
    assert degree_bound(grassmann(3, 4)) == GRASSMANN_N_MAX == 4
    # past them, the paper's formula: (6 - 2) * 2^5 + 1 copies of Z/2, plus Z/2
    assert ordinary_codim(ut2(2, 2), 6).ordinary == AbelianInvariants((2,) * 130, 0)
    # multilinear degrees start at 1 (proper_codim answers n = 0 itself)
    for n in (0, -1):
        with pytest.raises(ValueError, match="below 1"):
            kernel_lattice(ut2(2, 2), n)
        with pytest.raises(ValueError, match="below 1"):
            ordinary_codim(cyclic_ring(4), n)
    entries = (
        ordinary_codim, proper_codim, kernel_lattice,
        proper_quotient_pair, proper_quotient_character, drensky_filtration,
    )
    for entry in entries:
        with pytest.raises(ValueError, match="below 1"):
            entry(ut2(2, 2), -1)
        with pytest.raises(ValueError, match="exceeds the supported bound 7"):
            entry(ut2(2, 2), 8)
    # below degree 2 proper_codim evaluates nothing, so no budget applies
    assert proper_codim(ut2(2, 2), 0, row_budget=0) == AbelianInvariants((2,), 0)
    assert proper_codim(ut2(2, 2), 1, row_budget=0) == AbelianInvariants((), 0)


def test_budget_exceeded_carries_context():
    with pytest.raises(BudgetExceeded) as exc:
        ordinary_codim(ut2(2, 2), 4, row_budget=10)
    err = exc.value
    assert err.label == "ut2(2,2)" and err.n == 4
    assert err.needed > err.budget == 10
    assert "row budget" in str(err)


def test_budget_threshold_is_exact_whatever_is_cached():
    # tuple_count * rank rows pass and one less raises, on the monomial and
    # on the proper side, before and after the rows are cached; the
    # filtration is charged degrees 2 and 3, and degree 3 is the larger
    entries = (
        ordinary_codim, kernel_lattice,
        proper_codim, proper_quotient_pair, proper_quotient_character,
        drensky_filtration,
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


def test_claims_guard_every_model_before_any_evaluation(monkeypatch):
    def untouchable(*args, **kwargs):
        raise AssertionError("an evaluation ran before the guard")

    monkeypatch.setattr(pitheory, "_invariants", untouchable)
    # the three ut2 models fit in 1000 rows; grassmann(3,5) does not
    with pytest.raises(BudgetExceeded) as exc:
        run_claim("proper-ordinary", {"row_budget": 1000})
    assert (exc.value.label, exc.value.n) == ("grassmann(3,5)", 1)


def test_grassmann_claim_caps_its_proper_degrees_before_any_evaluation(monkeypatch):
    def untouchable(*args, **kwargs):
        raise AssertionError("an evaluation ran before the guard")

    monkeypatch.setattr(pitheory, "_invariants", untouchable)
    config = {"subjects": [3], "n_max": 2}
    # a generous row budget must not let degree-8 work start, nor build a model
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pitheory, "grassmann", untouchable)
        with pytest.raises(ValueError, match="degree 8 exceeds the supported bound 7"):
            run_claim("grassmann.codim", dict(config, proper_n_max=8, row_budget=10**12))
    # degree 6 is honoured, but grassmann(3,7) at n = 6 is charged past the
    # default budget (a budget of 10**12 would let it run)
    with pytest.raises(BudgetExceeded) as exc:
        run_claim("grassmann.codim", dict(config, proper_n_max=GENERAL_N_MAX + 1))
    assert (exc.value.label, exc.value.n) == ("grassmann(3,7)", 6)
    monkeypatch.undo()
    # below 2 no proper degree is selected
    outcomes = verify_grassmann(3, 2, proper_n_max=1)
    assert_all_passed(outcomes)
    assert not [o for o in outcomes if o.subject.endswith("proper")]


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
    assert all(kernel_lattice(model, f.degree).contains(f.to_vector(f.degree)) for f in basis)
    probe = grassmann(3, 5)
    gbasis = grassmann_identity_basis(3)
    assert identities_vanish(probe, gbasis + [grassmann_crossing_identity()])
    assert all(kernel_lattice(probe, f.degree).contains(f.to_vector(f.degree)) for f in gbasis)


def test_identity_basis_scalars_dropped_when_zero():
    assert len(ut2_identity_basis(0, 0)) == 1
    assert len(ut2_identity_basis(2, 2)) == 3
    assert len(grassmann_identity_basis(0)) == 1
    assert len(grassmann_identity_basis(3)) == 2


def _ordered_splits(elems, blocks):
    """All ways to arrange elems into ``blocks`` nonempty ordered words."""
    if blocks == 0:
        if not elems:
            yield ()
        return
    for perm in itertools.permutations(elems):
        for cuts in itertools.combinations(range(1, len(elems)), blocks - 1):
            marks = (0,) + cuts + (len(elems),)
            yield tuple(perm[marks[i]: marks[i + 1]] for i in range(blocks))


def all_consequences(f, n):
    """Reference enumerator: every a * f(u_1, ..., u_d) * b with monomials
    u_i, a, b covering the variables 1..n exactly once."""
    allvars = tuple(range(1, n + 1))
    for s_size in range(f.degree, n + 1):
        for subset in itertools.combinations(allvars, s_size):
            rest = tuple(x for x in allvars if x not in subset)
            for blocks in _ordered_splits(subset, f.degree):
                inst = MultilinearPoly(
                    {
                        tuple(itertools.chain.from_iterable(blocks[v - 1] for v in w)): c
                        for w, c in f.terms.items()
                    },
                    subset,
                )
                for k in range(len(rest) + 1):
                    for a_set in itertools.combinations(rest, k):
                        b_set = tuple(x for x in rest if x not in a_set)
                        for a_word in itertools.permutations(a_set):
                            for b_word in itertools.permutations(b_set):
                                yield (
                                    MultilinearPoly.monomial(a_word)
                                    * inst
                                    * MultilinearPoly.monomial(b_word)
                                )


def random_identity(rng, n):
    """A random identity of degree 1..n on the variables 1..degree."""
    d = rng.randint(1, n)
    words = rng.sample(list(monomial_order(d)), rng.randint(1, math.factorial(d)))
    return MultilinearPoly(
        {w: rng.choice([1, 2, 3, 4, 6, 9]) * rng.choice([1, -1]) for w in words},
        range(1, d + 1),
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_consequence_lattice_matches_all_consequences(n):
    rng = random.Random(n)
    cases = [
        ut2_identity_basis(2, 2),
        ut2_identity_basis(0, 0),
        grassmann_identity_basis(3),
        [grassmann_crossing_identity()],
        [2 * MultilinearPoly.one()],
        *([random_identity(rng, n)] for _ in range(10)),
    ]
    for ids in cases:
        rows = [g.to_vector(n) for f in ids for g in all_consequences(f, n)]
        expected = SubmoduleLattice.from_rows(math.factorial(n), rows)
        assert consequence_lattice(ids, n) == expected, ids


def test_consequences_of_a_bracket():
    closure = consequence_lattice([bracket_poly((1, 2))], 2)
    assert closure.rank == 1
    assert closure.contains(bracket_poly((2, 1)).to_vector(2))
    # 12 one-variable multiples of [x_i,x_j] plus 12 word substitutions
    count = sum(1 for _ in all_consequences(bracket_poly((1, 2)), 3))
    assert count == 24


def test_consequence_closure_equals_kernel_ut2():
    model = ut2(2, 2)
    closure = consequence_lattice(ut2_identity_basis(2, 2), 3)
    kern = kernel_lattice(model, 3)
    assert closure.contains_lattice(kern) and kern.contains_lattice(closure)


def track_peak_bits(monkeypatch):
    """Patch ``LatticeBuilder.add`` to track the bit length of the largest
    entry that any builder stores, over every add; returns a one-element
    list holding it.  A stored row is never changed in place, so only the
    rows that are new objects since the last add are read."""
    add, stored, peak = LatticeBuilder.add, {}, [0]

    def tracking_add(self, row):
        added = add(self, row)
        seen = stored.setdefault(id(self), {})
        for j, r in self.echelon.items():
            if seen.get(j) is not r:
                seen[j] = r
                peak[0] = max(peak[0], *(abs(x).bit_length() for x in r.values()))
        return added

    monkeypatch.setattr(LatticeBuilder, "add", tracking_add)
    return peak


def test_torsion_spin_keeps_builder_entries_small(monkeypatch):
    """The consequence spin of the ut2(4,2) basis at n = 5: the Hermite
    form's entries take 3 bits, and the builder's stay near that because
    every row is stored reduced against the later pivots (stored raw, a row
    that opens a new pivot let them reach 48 bits)."""
    peak = track_peak_bits(monkeypatch)
    consequence_lattice(ut2_identity_basis(4, 2), 5)
    assert 0 < peak[0] <= 8


def test_consequence_closure_equals_kernel_ut2_at_degree_6(monkeypatch):
    """The paper's ut2 basis spans the whole identity lattice of ut2(2,2)
    at n = 6, and its spin keeps the builder's entries small (stored raw,
    new rows let them reach 17,035 bits)."""
    kern = kernel_lattice(ut2(2, 2), 6)
    peak = track_peak_bits(monkeypatch)
    assert consequence_lattice(ut2_identity_basis(2, 2), 6) == kern
    assert 0 < peak[0] <= 8


def test_consequences_require_normalized_variables():
    poly = MultilinearPoly.monomial((2, 3))
    with pytest.raises(ValueError):
        consequence_lattice([poly], 3)


def test_kernel_is_renaming_stable():
    model = ut2(2, 2)
    kern = kernel_lattice(model, 3)
    for word in monomial_order(3):
        action = tabloid_action_map((1, 1, 1), word)
        for row in kern.rows:
            assert kern.contains(permute_row(action, row))


def test_proper_kernel_is_renaming_stable():
    """Each identity row c, carried to the monomial columns as c B, renamed
    there and solved back onto the proper basis, stays an identity row."""
    outer, inner = proper_quotient_pair(ut2(2, 2), 4)
    assert outer.rank == 9
    basis = proper_basis(4)
    carried = [
        [sum(c * b.get(k, 0) for c, b in zip(row, basis.matrix)) for k in range(24)]
        for row in inner.rows
    ]
    for word in monomial_order(4):
        action = tabloid_action_map((1,) * 4, word)
        for vec in carried:
            renamed = MultilinearPoly.from_vector(permute_row(action, vec), 4)
            coords = basis.coordinates(renamed)
            assert coords is not None and inner.contains(coords)


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


def test_run_claim_uses_the_given_config():
    assert run_claim("young", {"n_max": 0}) == []
    assert run_claim("young", {"moduli": ()}) == []
    assert run_claim("young", {"n_max": 2, "moduli": None}) == run_claim(
        "young", {"n_max": 2}
    )


def test_verify_degree_caps_fail_before_any_work(monkeypatch):
    def untouchable(*args, **kwargs):
        raise AssertionError("the degree cap was checked after the work began")

    for name in (
        "induce_mod", "specht_lattice", "verify_psi_lemma",
        "identities_vanish", "_invariants", "tuple_count", "drensky_outcomes",
    ):
        monkeypatch.setattr(pitheory, name, untouchable)
    # one degree rule for every claim: no family cap rejects below 8
    for claim in CLAIMS:
        with pytest.raises(ValueError, match="degree 8 exceeds the supported bound 7"):
            run_claim(claim, {"n_max": 8})


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
