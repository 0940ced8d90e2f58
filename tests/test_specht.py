"""Tabloids, polytabloids, filtrations, and symmetric-group characters.

Independent oracles: standard tableaux are counted by brute-force filling
(no hook formula), and characters are checked against first orthogonality
with class sizes from the cycle-index formula.
"""

import itertools
import math
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from pilattice import lattices, specht
from pilattice.specht import (
    ZERO_PAIR,
    PartitionPair,
    _psi_index_images,
    _psi_row,
    canonical_tableau,
    class_representative,
    conjugacy_class_reps,
    conjugate,
    cycle_type,
    find_c,
    hook_number,
    induce_mod,
    op_A,
    op_R,
    pair,
    partitions,
    polytabloid,
    psi,
    specht_character,
    specht_lattice,
    specht_series,
    tabloid_action_map,
    tabloid_module_basis,
    TabloidVector,
    valid_pairs,
    verify_psi_lemma,
    young_expected,
)
from pilattice.lattices import AbelianInvariants, SubmoduleLattice
from pilattice.multilinear import MultilinearPoly, monomial_order

from dense_reference import built_action_map, permute_row


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def count_standard_tableaux(lam):
    """Standard tableaux of shape lam by direct recursive filling."""
    n = sum(lam)

    @lru_cache(maxsize=None)
    def rec(state):
        if sum(state) == n:
            return 1
        total = 0
        for i, filled in enumerate(state):
            if filled < lam[i] and (i == 0 or state[i - 1] > filled):
                total += rec(state[:i] + (filled + 1,) + state[i + 1 :])
        return total

    return rec((0,) * len(lam))


def class_size(rho):
    """Size of the conjugacy class with cycle type rho."""
    n = sum(rho)
    z = 1
    for length in set(rho):
        m = rho.count(length)
        z *= length**m * math.factorial(m)
    return math.factorial(n) // z


# ---------------------------------------------------------------------------
# partitions and hooks
# ---------------------------------------------------------------------------

def test_partitions_frozen():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)
    assert len(partitions(5)) == 7
    assert len(partitions(6)) == 11


def test_conjugate_frozen():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()
    for lam in partitions(5):
        assert conjugate(conjugate(lam)) == lam


def test_hook_number_frozen():
    assert hook_number((2, 1)) == 2
    assert hook_number((3, 2)) == 5
    assert hook_number((2, 2)) == 2
    assert hook_number((5,)) == 1
    assert hook_number((1, 1, 1, 1)) == 1


def test_hook_number_matches_bruteforce():
    for n in range(1, 7):
        for lam in partitions(n):
            assert hook_number(lam) == count_standard_tableaux(lam), lam


def test_hook_squares_sum_to_factorial():
    for n in (3, 4, 5):
        assert sum(hook_number(lam) ** 2 for lam in partitions(n)) == math.factorial(n)


# ---------------------------------------------------------------------------
# tabloids and polytabloids
# ---------------------------------------------------------------------------

def test_tabloid_basis_frozen():
    assert tabloid_module_basis((2, 1)) == (
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((2, 3), (1,)),
    )
    assert len(tabloid_module_basis((2, 2))) == 6
    assert len(tabloid_module_basis((1, 1, 1))) == 6
    with pytest.raises(ValueError):
        tabloid_module_basis((8,))


def test_polytabloid_frozen():
    p = pair((1, 1), (1, 1))
    e = polytabloid(p, ((1,), (2,)))
    assert e.coeffs == {((1,), (2,)): 1, ((2,), (1,)): -1}
    p = pair((2, 1), (2, 1))
    e = polytabloid(p, ((1, 2), (3,)))
    assert e.coeffs == {((1, 2), (3,)): 1, ((2, 3), (1,)): -1}
    with pytest.raises(ValueError):
        polytabloid(p, ((1, 2), (2,)))


def test_specht_rank_is_standard_tableau_count():
    for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]:
        assert specht_lattice(pair(lam, lam)).rank == count_standard_tableaux(lam)


def test_specht_lattice_matches_all_polytabloids():
    # the reference folds the polytabloids of all n! tableaux, no spinning
    pairs = [p for n in range(1, 6) for p in valid_pairs(n)]
    assert len(pairs) == 85
    for p in pairs:
        base = canonical_tableau(p.mu)
        rows = [
            polytabloid(p, tuple(tuple(word[x - 1] for x in row) for row in base))
            .to_row()
            for word in itertools.permutations(range(1, p.n + 1))
        ]
        assert specht_lattice(p) == SubmoduleLattice.from_rows(len(rows[0]), rows)


def test_specht_spins_skip_repeated_images(monkeypatch):
    """Over every pair with n <= 6 the spins hand the builder at most 12,387
    rows; folding every image, as before repeats were skipped, took 51,700."""
    calls = []
    add = lattices.LatticeBuilder.add

    def counting_add(self, row):
        calls.append(None)
        return add(self, row)

    monkeypatch.setattr(lattices.LatticeBuilder, "add", counting_add)
    pairs = [p for n in range(1, 7) for p in valid_pairs(n)]
    assert len(pairs) == 211
    for p in pairs:
        specht.specht_lattice.__wrapped__(p)
    assert len(calls) <= 12_387


@given(st.permutations(list(range(1, 5))))
def test_tabloid_action_map_matches_vector_action(word):
    word = tuple(word)
    mu = (2, 2)
    x = TabloidVector(mu, {((1, 2), (3, 4)): 2, ((1, 4), (2, 3)): -1})
    direct = x.act(word).to_row()
    mapped = permute_row(tabloid_action_map(mu, word), x.to_row())
    assert direct == mapped


@pytest.mark.parametrize("n", range(1, 7))
def test_singleton_tabloids_are_the_monomial_columns(n):
    words = [tuple(row for (row,) in tab) for tab in tabloid_module_basis((1,) * n)]
    assert words == list(monomial_order(n))


@settings(deadline=None)
@given(st.data())
def test_singleton_tabloid_action_renames_monomials(data):
    """On M(1^n) the tabloid action is the renaming of variables, with
    ``MultilinearPoly.act`` as the reference."""
    n = data.draw(st.integers(1, 5))
    word = tuple(data.draw(st.permutations(range(1, n + 1))))
    coeffs = st.lists(st.integers(-3, 3), min_size=math.factorial(n),
                      max_size=math.factorial(n))
    f = MultilinearPoly.from_vector(data.draw(coeffs), n)
    mapped = permute_row(tabloid_action_map((1,) * n, word), f.to_vector(n))
    assert mapped == f.act(word).to_vector(n)


@pytest.mark.parametrize(
    "mu", [*((1,) * n for n in range(1, 7)), (2, 1, 2), (3, 2, 1), (2, 2, 2)], ids=str
)
def test_composed_action_maps_equal_the_built_ones(mu):
    """Every word's map, composed from the adjacent transpositions' maps
    (uncached here), against the map built from the row words."""
    compose = tabloid_action_map.__wrapped__
    for word in itertools.permutations(range(1, sum(mu) + 1)):
        assert compose(mu, word) == built_action_map(mu, word)


@pytest.mark.parametrize(
    "mu, word",
    [((1, 1, 1), (1, 1, 2)), ((1, 1, 1), (2, 2, 1)), ((1, 1, 1), (1, 2)),
     ((1, 1, 1), (1, 2, 3, 4)), ((2, 1), (0, 1, 2)), ((2, 1), (1, 2, 4))],
)
def test_tabloid_action_map_rejects_words_that_are_not_permutations(mu, word):
    with pytest.raises(ValueError, match="permutation"):
        tabloid_action_map(mu, word)


def test_cached_action_maps_share_their_index_ints():
    """A cached map at n = 7 holds one pointer per tabloid, about 40 KiB:
    its entries are the shape's shared index ints, not 5,040 new ones
    (about 230 KiB a map here when each map made its own)."""
    mu = (1,) * 7
    words = [w for w in itertools.permutations(range(1, 8)) if w[0] == 7][:4]
    tabloid_action_map(mu, words[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        maps = [tabloid_action_map(mu, w) for w in words[1:]]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(len(m) == 5040 for m in maps)
    assert grown <= 3 * (5040 * 8 + 4096)


def test_frozen_lattice_holds_its_sparse_echelon():
    """S((1,1); 1^6) has width 720 and rank 360, and its Hermite rows two
    nonzeros each: the frozen form holds their dicts, about 104 KiB, where
    dense rows took about 2 MiB (5.8 KiB a row).  The maps are cached by
    the first build, so the rebuild holds only the lattice."""
    p = PartitionPair((1, 1), (1,) * 6)
    first = specht_lattice(p)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        latt = specht_lattice.__wrapped__(p)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (latt.ambient, latt.rank) == (720, 360) and latt == first
    assert grown <= 360 * 512


# ---------------------------------------------------------------------------
# psi maps and pair operators
# ---------------------------------------------------------------------------

def test_psi_frozen():
    x = TabloidVector((1, 1), {((1,), (2,)): 1})
    assert psi(1, 0, x).coeffs == {((1, 2),): 1}
    x = TabloidVector((1, 2), {((1,), (2, 3)): 1})
    assert psi(1, 1, x).coeffs == {((1, 3), (2,)): 1, ((1, 2), (3,)): 1}


psi_cases = st.sampled_from([((2, 2), 1, 1), ((2, 2), 1, 0), ((2, 1, 1), 2, 1)])


@given(
    psi_cases,
    st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    st.permutations(list(range(1, 5))),
)
def test_psi_is_equivariant_and_linear(case, row, word):
    mu, i, v = case
    basis = tabloid_module_basis(mu)
    x = TabloidVector(mu, dict(zip(basis, row)))
    word = tuple(word)
    assert psi(i, v, x.act(word)).coeffs == psi(i, v, x).act(word).coeffs
    y = TabloidVector(mu, {basis[0]: 3})
    assert psi(i, v, x + y).coeffs == (psi(i, v, x) + psi(i, v, y)).coeffs


psi_row_cases = st.sampled_from(
    [((2, 2), 1, 1), ((2, 2), 1, 0), ((2, 1, 1), 2, 1), ((1, 2, 2), 2, 1), ((3, 2), 1, 2)]
)


@settings(deadline=None)
@given(psi_row_cases, st.data())
def test_psi_row_matches_dense_product(case, data):
    """``_psi_row`` visits only the nonzero source entries; on zero, sparse
    and dense rows, given as dicts of their nonzero entries, it must equal
    the row times the dense 0/1 matrix of ``_psi_index_images``."""
    mu, i, v = case
    images = _psi_index_images(mu, i, v)
    width = len(tabloid_module_basis(specht._psi_shape(mu, i, v)))
    matrix = [[targets.count(t) for t in range(width)] for targets in images]
    dim = len(images)
    row = data.draw(
        st.one_of(
            st.just([0] * dim),
            st.lists(st.sampled_from((0,) * 6 + (-2, -1, 1, 3)), min_size=dim, max_size=dim),
            st.lists(st.integers(-4, 4), min_size=dim, max_size=dim),
        )
    )
    dense = [sum(c * m[t] for c, m in zip(row, matrix)) for t in range(width)]
    out = _psi_row(images, {c: x for c, x in enumerate(row) if x})
    assert [out.get(t, 0) for t in range(width)] == dense


def test_find_c_frozen():
    assert find_c(pair((2, 1), (2, 2))) == 2
    assert find_c(pair((2, 2), (2, 2))) is None
    assert find_c(pair((2, 1, 1), (2, 1, 2))) == 3


def test_pair_operators_frozen():
    assert op_A(2, pair((2, 1), (2, 2))) == pair((2, 2), (2, 2))
    assert op_A(3, pair((2, 1, 1), (2, 1, 2))) == ZERO_PAIR
    assert op_R(2, pair((1,), (1, 1))) == pair((2,), (2,))
    rp = op_R(3, pair((2, 1), (2, 1, 2)))
    assert (rp.lam, rp.mu) == ((2, 1), (2, 3))
    with pytest.raises(ValueError):
        op_A(2, pair((2, 2), (2, 2)))   # lambda already equals mu


def test_pair_validation():
    with pytest.raises(ValueError):
        pair((3, 1), (2, 2))            # lambda does not fit
    with pytest.raises(ValueError):
        pair((2, 1), (3, 2))            # first parts differ
    with pytest.raises(ValueError):
        pair((1, 2), (1, 2))            # not a partition


@pytest.mark.parametrize(
    "p",
    [
        pair((2, 1), (2, 2)),
        pair((1,), (1, 2)),
        pair((1, 1), (1, 2)),
        pair((2, 2), (2, 2, 1)),
    ],
    ids=str,
)
def test_psi_image_and_kernel_match_operators(p):
    assert verify_psi_lemma(p) == (True, True)


def test_psi_lemma_rejects_equal_pair():
    with pytest.raises(ValueError):
        verify_psi_lemma(pair((2, 1), (2, 1)))


# ---------------------------------------------------------------------------
# filtrations and the interlacing rule
# ---------------------------------------------------------------------------

def test_young_expected_frozen():
    assert young_expected((1,), 3) == ((3,), (2, 1))
    assert young_expected((2, 2), 5) == ((3, 2), (2, 2, 1))
    assert young_expected((2, 1), 4) == ((3, 1), (2, 2), (2, 1, 1))
    with pytest.raises(ValueError):
        young_expected((2, 1), 3)


@pytest.mark.parametrize(
    "lam,n", [((1,), 3), ((1,), 4), ((2,), 4), ((2, 1), 4), ((1, 1), 4), ((2, 1), 5)]
)
def test_induced_series_follows_interlacing(lam, n):
    report = specht_series(pair(lam, lam + (n - sum(lam),)))
    assert report.factor_labels == young_expected(lam, n)
    assert report.torsion_free()
    ranks = [latt.rank for latt in report.chain]
    assert ranks[-1] == 0
    assert all(a > b for a, b in zip(ranks, ranks[1:]))
    for f in report.factors:
        assert f.lattice_rank == hook_number(f.label)
        assert f.invariants == AbelianInvariants((), hook_number(f.label))


@pytest.mark.parametrize(
    "p",
    [pair((2, 1), (2, 2)), pair((2, 2), (2, 2, 1)), pair((1, 1), (1, 2))],
    ids=str,
)
def test_pair_series_factors_are_free(p):
    report = specht_series(p)
    assert report.torsion_free()
    assert sum(f.lattice_rank for f in report.factors) == specht_lattice(p).rank


@pytest.mark.parametrize("m", [2, 3, 4])
def test_induce_mod_scales_free_factors(m):
    report = induce_mod((2, 1), 4, m)
    assert report.modulus == m
    assert report.factor_labels == young_expected((2, 1), 4)
    for f in report.factors:
        h = hook_number(f.label)
        assert f.invariants == AbelianInvariants((m,) * h, 0)


def test_induce_mod_validation():
    with pytest.raises(ValueError):
        induce_mod((2, 1), 3, 0)
    with pytest.raises(ValueError):
        induce_mod((1,), 3, -1)


def test_filtration_report_json_shape():
    report = induce_mod((1,), 3, 2)
    doc = report.to_json()
    assert doc["lambda"] == [1] and doc["mu"] == [1, 2]
    assert doc["modulus"] == 2
    assert doc["chain_ranks"][0] > 0 and doc["chain_ranks"][-1] >= 0
    assert [f["factor_label"] for f in doc["factors"]] == [[3], [2, 1]]
    assert doc["factors"][0]["invariants"] == {"torsion": [2], "free_rank": 0}


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_cycle_type_roundtrip():
    for n in range(1, 7):
        for rho in partitions(n):
            assert cycle_type(class_representative(rho)) == rho


def test_specht_character_frozen():
    assert specht_character((2,)) == (1, 1)
    assert specht_character((1, 1)) == (-1, 1)
    # reflection representation of S_3, classes ordered (3), (2,1), (1^3)
    assert specht_character((2, 1)) == (-1, 0, 2)


def test_character_degree_and_sign():
    for lam in partitions(4):
        chi = specht_character(lam)
        assert chi[-1] == hook_number(lam)      # identity class is last
        conj = specht_character(conjugate(lam))
        for value, dual, (rho, _) in zip(chi, conj, conjugacy_class_reps(4)):
            sign = (-1) ** (4 - len(rho))
            assert dual == sign * value


def test_character_orthogonality():
    n = 4
    reps = conjugacy_class_reps(n)
    chars = {lam: specht_character(lam) for lam in partitions(n)}
    for la, lb in itertools.combinations_with_replacement(partitions(n), 2):
        dot = sum(
            class_size(rho) * a * b
            for (rho, _), a, b in zip(reps, chars[la], chars[lb])
        )
        assert dot == (math.factorial(n) if la == lb else 0)
