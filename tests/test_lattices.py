"""Integer lattice arithmetic against an independent elimination oracle.

The oracle below does plain textbook reduction (repeated minimum-absolute-
value pivoting on a dense copy) with none of the library's incremental
folding, so agreement on random inputs is meaningful.
"""

import itertools
import math
import random
from bisect import bisect_left
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from pilattice import lattices, pitheory
from pilattice.lattices import (
    AbelianInvariants,
    LatticeBuilder,
    SubmoduleLattice,
    _clean_rows,
    cokernel_invariants,
    evaluation_kernel,
    field_rank,
    image_invariants,
    json_restore_int,
    json_sanitize,
    orbit_span,
    preimage,
    smith_normal_form,
    split_hnf,
    xgcd,
)
from pilattice.rings import cyclic_ring
from pilattice.specht import (
    adjacent_transpositions,
    class_representative,
    conjugacy_class_reps,
    partitions,
    tabloid_action_map,
    tabloid_module_basis,
)

import dense_reference
from dense_reference import intersect, permute_row


# ---------------------------------------------------------------------------
# oracle: naive elimination
# ---------------------------------------------------------------------------

def oracle_hnf(rows, ambient):
    """Row Hermite form by repeated min-abs pivoting and full back-reduction;
    returns a tuple of nonzero rows with increasing pivot columns."""
    mat = [list(r) for r in rows if any(r)]
    done = []
    for col in range(ambient):
        live = [r for r in mat if r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            for r in live[1:]:
                q = r[col] // p[col]
                for j in range(ambient):
                    r[j] -= q * p[j]
            mat = [r for r in mat if any(r)]
            live = [r for r in mat if r[col]]
        if live:
            p = live[0]
            if p[col] < 0:
                for j in range(ambient):
                    p[j] = -p[j]
            for r in done:
                q = r[col] // p[col]
                if q:
                    for j in range(ambient):
                        r[j] -= q * p[j]
            done.append(p)
            mat.remove(p)
            mat = [r for r in mat if any(r)]
    return tuple(tuple(r) for r in done)


def oracle_snf(rows, ambient):
    """Invariant factors by two-sided elimination on a dense copy."""
    mat = [list(r) for r in rows]
    out = []
    while mat and any(any(r) for r in mat):
        i0, j0 = min(
            ((i, j) for i, r in enumerate(mat) for j, v in enumerate(r) if v),
            key=lambda ij: abs(mat[ij[0]][ij[1]]),
        )
        mat[0], mat[i0] = mat[i0], mat[0]
        for r in mat:
            r[0], r[j0] = r[j0], r[0]
        dirty = True
        while dirty:
            dirty = False
            for r in mat[1:]:
                if r[0]:
                    q = r[0] // mat[0][0]
                    for j in range(len(r)):
                        r[j] -= q * mat[0][j]
                    if r[0]:
                        mat[0], r[:] = r[:], mat[0]
                        dirty = True
            for j in range(1, len(mat[0])):
                if mat[0][j]:
                    q = mat[0][j] // mat[0][0]
                    for r in mat:
                        r[j] -= q * r[0]
                    if mat[0][j]:
                        for r in mat:
                            r[0], r[j] = r[j], r[0]
                        dirty = True
            if not dirty:
                # the pivot must divide every remaining entry
                p = mat[0][0]
                for r in mat[1:]:
                    if any(v % p for v in r):
                        for j in range(len(r)):
                            mat[0][j] += r[j]
                        dirty = True
                        break
        out.append(abs(mat[0][0]))
        mat = [r[1:] for r in mat[1:]]
    return out


def brute_image(gens, moduli):
    """The subgroup of prod Z/m generated by ``gens`` (all moduli finite),
    by direct closure."""
    seen = {tuple(0 for _ in moduli)}
    frontier = list(seen)
    reduced = [tuple(x % m for x, m in zip(g, moduli)) for g in gens]
    while frontier:
        base = frontier.pop()
        for g in reduced:
            nxt = tuple((a + b) % m for a, b, m in zip(base, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def assert_torsion_counts(group, moduli, inv):
    """The d-torsion counts of the enumerated ``group`` in prod Z/m, for
    every d dividing its exponent, against the invariants ``inv``: they pin
    the group down, not just its order."""
    exponent = math.lcm(*(m // math.gcd(x, m) for g in group for x, m in zip(g, moduli)))
    for d in range(1, exponent + 1):
        if exponent % d == 0:
            killed = sum(all(d * x % m == 0 for x, m in zip(g, moduli)) for g in group)
            assert killed == math.prod(math.gcd(d, t) for t in inv.torsion)


def subgroup_functionals(gens, moduli):
    """Functionals describing Z^len(gens) -> prod Z/m_i, e_k -> gens[k].

    Coordinate i of the target is one functional (vector of i-th coords,
    modulus m_i) -- the shape ``image_invariants`` consumes.
    """
    return [(tuple(g[i] for g in gens), m) for i, m in enumerate(moduli)]


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_hnf_frozen():
    from_rows = SubmoduleLattice.from_rows
    assert from_rows(2, [[2, 4], [1, 3]]).rows == ((1, 1), (0, 2))
    assert from_rows(2, [[0, 0], [0, 0]]).rows == ()
    assert from_rows(2, [[4, 6]]).rows == ((4, 6),)
    assert from_rows(2, [[2, 0], [0, 3], [1, 1]]).rows == ((1, 0), (0, 1))
    assert from_rows(2, [[-3, 0], [0, -5]]).rows == ((3, 0), (0, 5))
    assert from_rows(3, []).rows == ()


def test_snf_frozen():
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_normal_form([[2, 0], [0, 2]], 2) == [2, 2]
    assert smith_normal_form([[6]], 1) == [6]
    assert smith_normal_form([], 3) == []
    assert smith_normal_form([[2, 1, 0], [0, 3, 1], [0, 0, 4]], 3) == [1, 1, 24]


def test_snf_splits_unit_pivot_rows_with_tails():
    """The first Hermite rows (1, 0, -1) and (1, 1, 1) have unit pivots and
    entries right of them; each is a diagonal 1, and the other rows alone
    give the rest of the diagonal."""
    rows = [[1, 2, 3], [0, 2, 4]]
    assert SubmoduleLattice.from_rows(3, rows).rows == ((1, 0, -1), (0, 2, 4))
    assert smith_normal_form(rows, 3) == [1, 2]
    rows = [[1, 1, 1], [0, 4, 2], [0, 0, 6]]
    assert SubmoduleLattice.from_rows(3, rows).rows[0] == (1, 1, 1)
    assert smith_normal_form(rows, 3) == [1, 2, 12]
    assert smith_normal_form([{0: 1, 2: 5}, {1: 3, 2: 1}], 3) == [1, 1]


def test_cokernel_frozen():
    inv = cokernel_invariants([[2, 0], [0, 3]], 2)
    assert inv.torsion == (6,) and inv.free_rank == 0
    inv = cokernel_invariants([[2, 0]], 2)
    assert inv.torsion == (2,) and inv.free_rank == 1
    assert str(AbelianInvariants((), 0)) == "0"
    assert str(AbelianInvariants((2, 6), 1)) == "Z x Z/2 x Z/6"


def test_invariant_chain_validation():
    with pytest.raises(ValueError):
        AbelianInvariants((3, 2), 0)
    with pytest.raises(ValueError):
        AbelianInvariants((1,), 0)
    with pytest.raises(ValueError):
        AbelianInvariants((), -1)


def test_from_diagonal_drops_units():
    inv = AbelianInvariants.from_diagonal([1, 1, 6], 5)
    assert inv == AbelianInvariants((6,), 2)


def test_codim_counts():
    inv = AbelianInvariants((2, 4), 1)
    assert inv.codim(0) == 1
    assert inv.codim(2) == 1
    assert inv.codim(4) == 1
    assert inv.codim(3) == 0
    assert inv.per_q() == {0: 1, 2: 1, 4: 1}
    assert AbelianInvariants((6, 6), 0).per_q() == {2: 2, 3: 2}
    with pytest.raises(ValueError):
        inv.codim(6)


def test_elementary_divisors_roundtrip():
    inv = AbelianInvariants((2, 12), 0)
    assert inv.elementary_divisors() == (2, 3, 4)
    assert inv.order() == 24
    assert AbelianInvariants((), 2).order() is None


def test_image_invariants_frozen():
    # identity functionals into (Z/2)^2: the whole group
    rows = [((1, 0), 2), ((0, 1), 2)]
    assert image_invariants(rows, 2) == AbelianInvariants((2, 2), 0)
    # zero map: trivial image
    assert image_invariants([((0, 0), 2)], 2) == AbelianInvariants((), 0)
    # mixed free and torsion target coordinates
    inv = image_invariants([((1, 1), 0), ((0, 2), 4)], 2)
    assert inv.free_rank == 1 and inv.torsion == (2,)
    # x -> (x mod 2, x mod 3) generates all of Z/6
    assert image_invariants([((1,), 2), ((1,), 3)], 1).order() == 6
    # Z/4 x Z/6 as one divisibility chain, smallest factor first
    assert image_invariants([((1, 0), 4), ((0, 1), 6)], 2) == AbelianInvariants((2, 12), 0)
    # one all-ones functional mod 6 on 120 columns (cyclic(6) at n = 5)
    assert image_invariants([((1,) * 120, 6)], 120) == AbelianInvariants((6,), 0)
    # dependent free functionals next to a torsion one
    rows = [((1, 1), 0), ((2, 2), 0), ((1, 0), 4)]
    assert image_invariants(rows, 2) == AbelianInvariants((4,), 1)
    # mixed moduli on three columns
    rows = [((1, 0, 2), 4), ((0, 2, 2), 6), ((1, 1, 1), 0)]
    assert image_invariants(rows, 3) == AbelianInvariants((12,), 1)
    with pytest.raises(ValueError):
        image_invariants([((1,), -2)], 1)


def test_field_rank_frozen():
    rows = [[2, 0], [0, 2]]
    assert field_rank(rows, 2, 0) == 2
    assert field_rank(rows, 2, 2) == 0
    assert field_rank(rows, 2, 3) == 2
    assert field_rank([[1, 1], [1, 1]], 2) == 1
    assert field_rank([], 2, 5) == 0
    with pytest.raises(ValueError):
        field_rank(rows, 2, 4)


def test_field_rank_reads_rows_as_the_builder_does():
    """Over Q and over F_q alike, a row longer or shorter than ``columns``
    is an error, and a {column: value} row is read by its values; mod 2,
    (0, 0, 1) once read as a zero row of width 2, and mod 3 {0: 3, 1: 3}
    as the row of its columns (0, 1)."""
    for q in (0, 2, 3):
        for row in ([0, 0, 1], [1], {2: 1}):
            with pytest.raises(ValueError):
                field_rank([[1, 0], row], 2, q)
    assert field_rank([{0: 3, 1: 3}], 2, 3) == 0
    assert field_rank([{0: 3, 1: 3}, {1: 2}], 2, 0) == 2
    assert field_rank([{0: 3, 1: 3}, {1: 2}], 2, 5) == 2


def test_evaluation_kernel_frozen():
    # x+y mod 2 and x-y over Z: need x = y, and then x+y is always even
    ker = evaluation_kernel([((1, 1), 2), ((1, -1), 0)], 2)
    assert ker.rows == ((1, 1),)
    # 2x mod 4 and y over Z: even first coordinate, zero second
    ker = evaluation_kernel([((2, 0), 4), ((0, 1), 0)], 2)
    assert ker.rows == ((2, 0),)
    ker = evaluation_kernel([((1, 1), 0), ((2, 2), 0), ((1, 0), 4)], 2)
    assert ker.rows == ((4, -4),)
    ker = evaluation_kernel([((1, 0, 2), 4), ((0, 2, 2), 6), ((1, 1, 1), 0)], 3)
    assert ker.rows == ((6, 1, -7), (0, 2, -2))


def test_split_hnf_preimage():
    rows = [[2, 0, 1], [0, 3, 0]]
    unit = [[1, 0], [0, 1]]
    whole, image, _ = split_hnf(zip(rows, unit), 3, 2)
    assert preimage(whole, [4, 3, 2], 3) == [2, 1]
    assert preimage(whole, [1, 0, 0], 3) is None
    assert image.rank == 2


def test_preimage_takes_sparse_rows():
    rows = [[2, 0, 1], [0, 3, 0]]
    unit = [[1, 0], [0, 1]]
    whole, _, _ = split_hnf(zip(rows, unit), 3, 2)
    assert preimage(whole, {0: 4, 1: 3, 2: 2}, 3) == [2, 1]
    assert preimage(whole, {1: 3}, 3) == [0, 1]
    assert preimage(whole, {0: 1}, 3) is None
    assert preimage(whole, {}, 3) == [0, 0]
    assert preimage(whole, [4, 3, 2], 3) == [2, 1]
    row = {0: 4, 1: 3, 2: 2}
    preimage(whole, row, 3)
    assert row == {0: 4, 1: 3, 2: 2}
    with pytest.raises(TypeError):
        preimage(whole, {0: 4})
    with pytest.raises(ValueError):
        preimage(whole, {3: 1}, 3)
    with pytest.raises(ValueError):
        preimage(whole, [4, 3], 3)


def test_split_hnf_relations():
    rows = [[1, 2], [2, 4]]
    _, _, relations = split_hnf(zip(rows, [[1, 0], [0, 1]]), 2, 2)
    (rel,) = relations.rows
    assert any(rel)
    assert [sum(c * row[j] for c, row in zip(rel, rows)) for j in range(2)] == [0, 0]


def test_intersect_and_sum():
    a = SubmoduleLattice.from_rows(2, [[2, 0], [0, 3]])
    b = SubmoduleLattice.from_rows(2, [[3, 0], [0, 2]])
    assert intersect(a, b).rows == ((6, 0), (0, 6))
    assert a.sum_with(b).rows == ((1, 0), (0, 1))


def test_json_sanitize_large_ints():
    big = 2**60
    doc = json_sanitize({"x": [big, -big, 7], "flag": True})
    assert doc == {"x": [str(big), str(-big), 7], "flag": True}
    assert json_restore_int(doc) == {"x": [big, -big, 7], "flag": True}
    assert json_restore_int({"label": "ut2(2,2)", "n": 3}) == {
        "label": "ut2(2,2)",
        "n": 3,
    }


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_matrix = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=0,
        max_size=5,
    ).map(lambda rows: (rows, cols))
)

# valid invariant-factor chains: cumulative products with unit entries dropped
invariant_chain = st.lists(st.integers(1, 6), max_size=3).map(
    lambda ms: tuple(d for d in itertools.accumulate(ms, int.__mul__) if d > 1)
)

pair_rows = st.lists(
    st.lists(st.integers(-6, 6), min_size=2, max_size=2), max_size=4
)


@given(small_matrix)
def test_hnf_matches_oracle(data):
    rows, cols = data
    assert SubmoduleLattice.from_rows(cols, rows).rows == oracle_hnf(rows, cols)


@given(small_matrix)
def test_hnf_idempotent_and_spans_same_lattice(data):
    rows, cols = data
    latt = SubmoduleLattice.from_rows(cols, rows)
    h = latt.rows
    assert SubmoduleLattice.from_rows(cols, h).rows == h
    for r in rows:
        assert latt.contains(r)
    builder = LatticeBuilder(cols, rows)
    for r in h:
        assert builder.contains(r)


@given(small_matrix)
def test_snf_matches_oracle(data):
    rows, cols = data
    ours = smith_normal_form(rows, cols)
    assert ours == oracle_snf(rows, cols)
    for a, b in zip(ours, ours[1:]):
        assert b % a == 0


@given(small_matrix, st.sampled_from([2, 3, 5, 7]))
def test_field_rank_matches_the_dense_elimination(data, q):
    rows, cols = data
    assert field_rank(rows, cols, q) == dense_reference.field_rank(rows, cols, q)


@given(small_matrix)
def test_saturated_iff_unit_invariant_factors(data):
    rows, cols = data
    latt = SubmoduleLattice.from_rows(cols, rows)
    divisors = smith_normal_form(rows, cols)
    assert latt.is_saturated() == all(d == 1 for d in divisors)


@given(small_matrix)
def test_kernel_basis_spans_right_kernel(data):
    rows, cols = data
    ker = evaluation_kernel([(r, 0) for r in rows], cols).rows
    for v in ker:
        assert len(v) == cols
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    rank = LatticeBuilder(cols, rows).rank()
    assert len(ker) == cols - rank
    if ker:
        assert SubmoduleLattice.from_rows(cols, ker).is_saturated()


@given(small_matrix)
def test_coordinates_reconstruct(data):
    rows, cols = data
    latt = SubmoduleLattice.from_rows(cols, rows)
    for r in rows:
        coords = latt.coordinates_of(r)
        assert coords is not None
        rebuilt = [0] * cols
        for c, basis_row in zip(coords, latt.rows):
            for j in range(cols):
                rebuilt[j] += c * basis_row[j]
        assert rebuilt == list(r)


@given(small_matrix)
def test_quotient_by_scaled_self(data):
    rows, cols = data
    latt = SubmoduleLattice.from_rows(cols, rows)
    if latt.rank == 0:
        return
    scaled = SubmoduleLattice.from_rows(
        cols, [[3 * x for x in row] for row in latt.rows]
    )
    inv = latt.quotient_invariants(scaled)
    assert inv == AbelianInvariants((3,) * latt.rank, 0)


def _rows_of(cols):
    return st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=4
    )


lattice_pair = st.integers(1, 3).flatmap(
    lambda cols: st.tuples(_rows_of(cols), _rows_of(cols), st.just(cols))
)


@settings(deadline=None)
@given(lattice_pair)
def test_intersect_matches_brute_force(data):
    rows_a, rows_b, cols = data
    a = SubmoduleLattice.from_rows(cols, rows_a)
    b = SubmoduleLattice.from_rows(cols, rows_b)
    both = intersect(a, b)
    for row in both.rows:
        assert a.contains(row) and b.contains(row)
    for v in itertools.product(range(-12, 13), repeat=cols):
        if a.contains(v) and b.contains(v):
            assert both.contains(v)


@given(invariant_chain, invariant_chain, st.integers(0, 2), st.integers(0, 2))
def test_direct_sum_regroups(ta, tb, fa, fb):
    a = AbelianInvariants(ta, fa)
    b = AbelianInvariants(tb, fb)
    s = a.direct_sum(b)
    assert s == b.direct_sum(a)
    assert s.free_rank == fa + fb
    assert sorted(s.elementary_divisors()) == sorted(
        a.elementary_divisors() + b.elementary_divisors()
    )
    if not fa and not fb:
        assert s.order() == a.order() * b.order()
    assert a.power(3) == a.direct_sum(a, a)


@given(pair_rows)
def test_image_order_matches_bruteforce(gens):
    moduli = (4, 6)
    inv = image_invariants(subgroup_functionals(gens, moduli), len(gens))
    assert inv.order() == len(brute_image(gens, moduli))


# target moduli: free (0), prime, prime-power and mixed torsion
pair_moduli = st.tuples(*[st.sampled_from((0, 2, 3, 4, 6, 8, 9, 12, 30))] * 2)


@given(pair_rows, pair_moduli)
def test_kernel_index_equals_image_order(gens, moduli):
    functionals = subgroup_functionals(gens, moduli)
    ker = evaluation_kernel(functionals, len(gens))
    for v in ker.rows:
        for vec, m in functionals:
            val = sum(a * b for a, b in zip(v, vec))
            assert val % m == 0 if m else val == 0
    inv = cokernel_invariants([list(r) for r in ker.rows], len(gens))
    # the image read off the Smith diagonal is Z^columns / kernel
    assert image_invariants(functionals, len(gens)) == inv
    if all(moduli):
        assert inv.order() == len(brute_image(gens, moduli))


@given(pair_rows)
def test_kernel_membership_with_free_functional(gens):
    functionals = subgroup_functionals(gens, (6, 0))
    ker = evaluation_kernel(functionals, len(gens))
    for v in ker.rows:
        for vec, m in functionals:
            val = sum(a * b for a, b in zip(v, vec))
            assert val % m == 0 if m else val == 0


evaluation_map = st.integers(1, 3).flatmap(
    lambda cols: st.tuples(
        st.lists(
            st.tuples(
                st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                st.sampled_from((0, 2, 3, 4, 6, 8, 9, 12)),
            ),
            min_size=1,
            max_size=3,
        ),
        st.just(cols),
    )
)


@settings(deadline=None)
@given(evaluation_map)
def test_evaluation_map_matches_brute_force(data):
    """The value group and the kernel against enumeration: with every
    modulus finite, the d-torsion counts of the generated subgroup for every
    d dividing its exponent (which pin the group down, not just its order);
    for any moduli, every small vector that satisfies the functionals."""
    functionals, cols = data

    def satisfies(v):
        values = (sum(a * b for a, b in zip(vec, v)) for vec, _ in functionals)
        return all(x % m == 0 if m else x == 0 for x, (_, m) in zip(values, functionals))

    ker = evaluation_kernel(functionals, cols)
    assert all(satisfies(v) for v in ker.rows)
    for v in itertools.product(range(-12, 13), repeat=cols):
        if satisfies(v):
            assert ker.contains(v)
    moduli = [m for _, m in functionals]
    if not all(moduli):
        return
    inv = image_invariants(functionals, cols)
    assert inv.free_rank == 0
    group = brute_image([[vec[j] for vec, _ in functionals] for j in range(cols)], moduli)
    assert_torsion_counts(group, moduli, inv)


@settings(deadline=None)
@given(evaluation_map, st.randoms(use_true_random=False))
def test_evaluation_fold_is_order_independent(data, rng):
    """The pairs of the evaluation fold folded last-first, forward and
    shuffled (moduli rows included) give the same image and relations, and
    the relations are ``evaluation_kernel``: the fold order is chosen for
    cost only."""
    functionals, cols = data
    cleaned = _clean_rows(functionals)
    r = len(cleaned)
    columns = [
        ([v[j] for v, _ in cleaned], [int(i == j) for i in range(cols)]) for j in range(cols)
    ]
    moduli = [
        ([m * (i == k) for i in range(r)], [0] * cols) for k, (_, m) in enumerate(cleaned) if m
    ]
    shuffled = columns + moduli
    rng.shuffle(shuffled)
    expected = split_hnf(columns[::-1] + moduli, r, cols)[1:]
    assert expected[1] == evaluation_kernel(functionals, cols)
    for pairs in (columns + moduli, shuffled):
        assert split_hnf(pairs, r, cols)[1:] == expected


fold_inputs = st.integers(1, 24).flatmap(
    lambda cols: st.tuples(
        st.lists(
            st.tuples(
                st.lists(st.just(0) | st.integers(-9, 9), min_size=cols, max_size=cols),
                st.sampled_from((0, 2, 3, 4, 6, 7)),
            ),
            max_size=12,
        ),
        st.just(cols),
    )
)


@settings(deadline=None)
@given(fold_inputs)
def test_evaluation_fold_matches_dense_inputs(data):
    """Sparse heads and unit tails fold to the relations of the dense
    columns with unit tails, and the value group is the image of the dense
    heads-only fold modulo the moduli lattice."""
    functionals, cols = data
    _, _, relations = dense_reference.evaluation_fold(functionals, cols, cols)
    assert evaluation_kernel(functionals, cols) == relations
    moduli, image, _ = dense_reference.evaluation_fold(functionals, cols, 0)
    assert image_invariants(functionals, cols) == image.quotient_invariants(moduli)


@settings(deadline=None)
@given(fold_inputs)
def test_image_is_the_cokernel_of_the_kernel(data):
    """Z^columns / kernel is the image: the value group read off the
    kernel's Hermite rows, as the codim reports and ``image_invariants``
    read it, against the dense heads-only image fold modulo the moduli
    lattice, on mixed moduli with Z among them."""
    functionals, cols = data
    moduli, image, _ = dense_reference.evaluation_fold(functionals, cols, 0)
    expected = image.quotient_invariants(moduli)
    kernel = evaluation_kernel(functionals, cols)
    assert cokernel_invariants([*kernel.echelon.values()], cols) == expected
    assert image_invariants(functionals, cols) == expected


def test_evaluation_fold_rejects_rows_of_another_length():
    for vec in ([1], [1, 0, 0]):
        with pytest.raises(ValueError):
            image_invariants([([1, 1], 2), (vec, 2)], 2)


def test_evaluation_kernel_makes_few_hermite_updates(monkeypatch):
    """A work guard free of wall-clock time: the kernel of cyclic(6) at
    n = 5 (one functional, 120 columns) must leave the Hermite form little
    to back-reduce.  A first-to-last column fold leaves a dense triangle of
    relations and makes 7,140 row updates here."""
    original = lattices._hermite
    updates = 0

    def counting(ambient, echelon):
        nonlocal updates
        pivots = sorted(echelon)
        work = densified([echelon[j] for j in pivots], ambient)
        for i, j in enumerate(pivots):
            for k in range(i):
                q = work[k][j] // work[i][j]
                if q:
                    work[k] = [a - q * b for a, b in zip(work[k], work[i])]
                    updates += 1
        return original(ambient, echelon)

    monkeypatch.setattr(lattices, "_hermite", counting)
    kernel = evaluation_kernel(pitheory._rows(cyclic_ring(6), 5, False), 120)
    assert kernel.rank == 120
    assert updates <= 120


def full_orbit_fold(n, seeds, stable=()):
    """Reference closure: the oracle Hermite form of ``stable`` and of
    sigma . seed for every seed and every sigma in S_n, acting by renaming
    on the n! monomial columns."""
    words = list(itertools.permutations(range(1, n + 1)))
    maps = [tabloid_action_map((1,) * n, w) for w in words]
    images = [permute_row(m, s) for s in seeds for m in maps]
    return oracle_hnf([*stable, *images], math.factorial(n))


@settings(deadline=None)
@given(st.data())
def test_orbit_span_matches_full_orbit_fold(data):
    n = data.draw(st.integers(2, 4))
    dim = math.factorial(n)
    vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    seeds = data.draw(st.lists(vector, min_size=1, max_size=3))
    stable = full_orbit_fold(n, [data.draw(vector)])
    maps = [tabloid_action_map((1,) * n, w) for w in adjacent_transpositions(n)]
    assert orbit_span(dim, seeds, maps).rows == full_orbit_fold(n, seeds)
    assert orbit_span(dim, seeds, maps, stable).rows == full_orbit_fold(n, seeds, stable)


def test_builder_entries_stay_small():
    """Folding the full S_4-orbits of dense vectors keeps the echelon
    entries near the Hermite form's size, since every row, new or
    xgcd-combined, is stored reduced against the later pivots."""
    rng = random.Random(0)
    builder = LatticeBuilder(24)
    for _ in range(5):
        seed = [rng.randint(-3, 3) for _ in range(24)]
        for w in itertools.permutations(range(1, 5)):
            builder.add(permute_row(tabloid_action_map((1,) * 4, w), seed))
    assert max(abs(c).bit_length() for r in builder.rows for c in r.values()) <= 64


# ---------------------------------------------------------------------------
# reference kernel: the builder's fold on dense rows
# ---------------------------------------------------------------------------

class DenseBuilder:
    """The echelon fold on dense rows, as it was before ``LatticeBuilder``
    read only nonzero entries: the leading entry is searched from column 0
    and every step runs over the whole row, so the sparse kernel must match
    it exactly.  Each step first reduces the row against every pivot, so a
    row is stored reduced and a pivot entry never divides the remainder."""

    def __init__(self, ambient):
        self.ambient, self.rows, self.pivots = ambient, [], []

    def reduce(self, row):
        v = list(row)
        for r, j in zip(self.rows, self.pivots):
            q = v[j] // r[j]
            if q:
                v = [a - q * b for a, b in zip(v, r)]
        return v

    def add(self, row):
        v = list(row)
        changed = False
        i = 0
        while True:
            v = self.reduce(v)
            j = next((c for c in range(self.ambient) if v[c]), None)
            if j is None:
                return changed
            while i < len(self.pivots) and self.pivots[i] < j:
                i += 1
            if i < len(self.pivots) and self.pivots[i] == j:
                r = self.rows[i]
                a, b = r[j], v[j]
                g, x, y = xgcd(a, b)
                self.rows[i] = self.reduce([x * rc + y * vc for rc, vc in zip(r, v)])
                v = [(a // g) * vc - (b // g) * rc for rc, vc in zip(r, v)]
                changed = True
            else:
                if v[j] < 0:
                    v = [-c for c in v]
                self.rows.insert(i, v)
                self.pivots.insert(i, j)
                return True


def densified(rows, ambient):
    """The builder's {column: value} rows as dense lists."""
    return [[r.get(c, 0) for c in range(ambient)] for r in rows]


def assert_sparse_echelon(form):
    """A builder's or a frozen lattice's echelon: the pivots strictly
    increase, and each row keeps only nonzero entries, its pivot the least
    key."""
    pivots = list(form.pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert all(all(r.values()) and min(r) == j for j, r in form.echelon.items())


def dense_hermite(rows, pivots):
    """Back-reduction of echelon rows over every column."""
    rows = [list(r) for r in rows]
    for i, j in enumerate(pivots):
        for k in range(i):
            q = rows[k][j] // rows[i][j]
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[i])]
    return tuple(map(tuple, rows))


def builder_rows(ambient):
    """Zero, sparse and dense rows, as lists or tuples; entries 2, 3, 4, 6
    make pivots that do not divide each other (the xgcd branch)."""
    sparse = st.sampled_from((0,) * 8 + (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))
    row = st.one_of(
        st.just([0] * ambient),
        st.lists(sparse, min_size=ambient, max_size=ambient),
        st.lists(st.integers(-6, 6), min_size=ambient, max_size=ambient),
    )
    return st.lists(st.one_of(row, row.map(tuple)), max_size=12)


@settings(deadline=None)
@given(st.integers(1, 9).flatmap(lambda a: st.tuples(st.just(a), builder_rows(a))))
def test_builder_matches_dense_reference(data):
    ambient, rows = data
    builder, ref = LatticeBuilder(ambient), DenseBuilder(ambient)
    for row in rows:
        assert builder.add(row) == ref.add(row)
        assert (densified(builder.rows, ambient), builder.pivots) == (ref.rows, ref.pivots)
        assert_sparse_echelon(builder)
        assert densified([builder.reduce(row)], ambient) == [ref.reduce(row)]
    latt = builder.snapshot()
    assert latt.rows == dense_hermite(ref.rows, ref.pivots)
    assert_sparse_echelon(latt)
    ref.rows, ref.pivots = latt.rows, latt.pivots
    for row in rows:
        assert densified([latt.reduce(row)], ambient) == [ref.reduce(row)]


@settings(deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda a: st.tuples(st.just(a), builder_rows(a), st.integers(0, a))
    )
)
def test_split_hnf_matches_dense_reference(data):
    ambient, rows, head = data
    check_split_hnf(ambient, rows, head, [(r[:head], r[head:]) for r in rows])


def check_split_hnf(ambient, rows, head, pairs):
    """``split_hnf`` of ``pairs``, the dense ``rows`` cut at ``head`` in any
    form, against the dense fold of ``rows``."""
    tail = ambient - head
    whole, image, relations = split_hnf(pairs, head, tail)
    ref = DenseBuilder(ambient)
    for row in rows:
        ref.add(row)
    k = bisect_left(ref.pivots, head)
    assert (densified(whole.rows, ambient), whole.pivots) == (ref.rows[:k], ref.pivots[:k])
    assert_sparse_echelon(whole)
    assert_sparse_echelon(image)
    assert_sparse_echelon(relations)
    assert image.rows == dense_hermite([r[:head] for r in ref.rows[:k]], ref.pivots[:k])
    assert relations.rows == dense_hermite(
        [r[head:] for r in ref.rows[k:]], [j - head for j in ref.pivots[k:]]
    )
    del ref.rows[k:], ref.pivots[k:]
    for u in [*image.rows, *(r[:head] for r in rows)]:
        v = ref.reduce([*u, *[0] * tail])
        expected = None if any(v[:head]) else [-c for c in v[head:]]
        assert preimage(whole, u, head) == expected
        assert preimage(whole, {c: x for c, x in enumerate(u) if x}, head) == expected


@st.composite
def wide_sparse_rows(draw):
    """Rows of width 200..720 with about 2% nonzeros, as {column: value}
    dicts: columns come from a small pool so that rows meet at pivots,
    entries 2, 3, 4, 6 make pivots that do not divide each other, and some
    rows repeat an earlier row up to sign."""
    ambient = draw(st.integers(200, 720))
    k = ambient // 50
    pool = draw(st.lists(st.integers(0, ambient - 1), min_size=2 * k, max_size=2 * k, unique=True))
    entry = st.sampled_from((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            sign = draw(st.sampled_from((1, -1)))
            rows.append({c: sign * x for c, x in draw(st.sampled_from(rows)).items()})
        else:
            columns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=k, unique=True))
            rows.append({c: draw(entry) for c in columns})
    return ambient, rows, draw(st.sampled_from(pool))


@settings(deadline=None, max_examples=40)
@given(wide_sparse_rows(), st.booleans())
def test_wide_sparse_rows_match_dense_reference(data, as_dicts):
    """Wide, sparse rows, handed over as dicts or dense, fold step for step
    as in the dense reference; so do their snapshot and ``split_hnf``."""
    ambient, rows, head = data
    dense = densified(rows, ambient)
    builder, ref = LatticeBuilder(ambient), DenseBuilder(ambient)
    for row, d in zip(rows, dense):
        assert builder.add(row if as_dicts else d) == ref.add(d)
        assert (densified(builder.rows, ambient), builder.pivots) == (ref.rows, ref.pivots)
        assert_sparse_echelon(builder)
        assert densified([builder.reduce(row)], ambient) == [ref.reduce(d)]
    latt = builder.snapshot()
    assert latt.rows == dense_hermite(ref.rows, ref.pivots)
    assert_sparse_echelon(latt)
    if as_dicts:
        pairs = [
            ({c: x for c, x in r.items() if c < head},
             {c - head: x for c, x in r.items() if c >= head})
            for r in rows
        ]
    else:
        pairs = [(d[:head], d[head:]) for d in dense]
    check_split_hnf(ambient, dense, head, pairs)


def test_add_rejects_columns_outside_the_ambient():
    """A dict row must keep to columns 0..ambient-1, as a dense row must
    have length ambient; so must each part of a ``split_hnf`` pair."""
    builder = LatticeBuilder(3)
    for row in ({3: 1}, {-1: 1}, {0: 1, 5: 0}, [1, 0], [1, 0, 0, 0]):
        with pytest.raises(ValueError):
            builder.add(row)
    assert builder.rank() == 0
    with pytest.raises(ValueError):
        split_hnf([({2: 1}, {0: 1})], 2, 2)
    with pytest.raises(ValueError):
        split_hnf([([1, 0, 0], [1])], 2, 2)


def spun_rows(ambient, seeds, maps):
    """Every row a spin folds when no image is skipped, in order, with the
    images scattered by ``permute_row`` into a reference builder: each as
    (row, what ``add`` returned, the rows and pivots after it)."""
    builder, work, out = DenseBuilder(ambient), deque(seeds), []
    while work:
        row = list(work.popleft())
        added = builder.add(row)
        out.append((row, added, [list(r) for r in builder.rows], list(builder.pivots)))
        if added:
            work.extend(permute_row(m, row) for m in maps)
    return out


def repeats_earlier(rows, i):
    """True when rows[i] equals some earlier row up to sign."""
    return any(r == rows[i] or [-c for c in r] == rows[i] for r in rows[:i])


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_span_under_non_involutions(n, monkeypatch):
    """The n-cycle (2, 3, ..., n, 1) is no involution, so an image that used
    a map where its inverse belongs would fold other rows than
    ``permute_row``'s; the lattice must still be the full orbit fold.  The
    spin skips each image that repeats an earlier queued row up to sign,
    and otherwise folds what the reference folds, through the same states."""
    dim = math.factorial(n)
    words = [(*range(2, n + 1), 1), (2, 1, *range(3, n + 1))]
    maps = [tabloid_action_map((1,) * n, w) for w in words]
    rng = random.Random(n)
    seeds = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(2)]
    assert orbit_span(dim, seeds, maps).rows == full_orbit_fold(n, seeds)
    calls = []
    add = LatticeBuilder.add

    def recording_add(self, row):
        added = add(self, row)
        dense_row = [row.get(c, 0) for c in range(dim)]
        calls.append((dense_row, added, densified(self.rows, dim), list(self.pivots)))
        return added

    monkeypatch.setattr(LatticeBuilder, "add", recording_add)
    orbit_span(dim, seeds, maps)
    reference = spun_rows(dim, seeds, maps)
    assert [c for c in calls if c[1]] == [c for c in reference if c[1]]
    rows = [c[0] for c in reference]
    kept = [c for i, c in enumerate(reference) if not repeats_earlier(rows, i)]
    assert calls == kept
    assert len(calls) < len(reference)


# ---------------------------------------------------------------------------
# reference solve: ``coordinates_of`` before it kept to row supports
# ---------------------------------------------------------------------------

def dense_coordinates_of(latt, row):
    """Coordinates by elimination over every column."""
    v = list(row)
    coords = []
    for i, p in enumerate(latt.pivots):
        q, rem = divmod(v[p], latt.rows[i][p])
        if rem:
            return None
        coords.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, latt.rows[i])]
    return coords if not any(v) else None


@settings(deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda a: st.tuples(
            st.just(a),
            builder_rows(a),
            st.lists(st.lists(st.integers(-3, 3), min_size=12, max_size=12), max_size=4),
            st.lists(st.integers(0, 8), max_size=4),
        )
    )
)
def test_coordinates_match_dense_reference(data):
    """Members, members plus a unit at a pivot (a remainder where the pivot
    exceeds 1) or off the pivots (a nonzero remainder), and the fold's own
    rows get the dense reference's coordinates, or None where it has none,
    handed over dense or as {column: value} dicts."""
    ambient, rows, combos, columns = data
    latt = SubmoduleLattice.from_rows(ambient, rows)
    members = [
        [sum(c * r[j] for c, r in zip(combo, latt.rows)) for j in range(ambient)]
        for combo in combos
    ]
    shifted = [
        [x + (j == col % ambient) for j, x in enumerate(m)]
        for m in members or [[0] * ambient]
        for col in columns
    ]
    for row in [*members, *shifted, *rows]:
        expected = dense_coordinates_of(latt, row)
        assert latt.coordinates_of(row) == expected
        assert latt.coordinates_of({c: x for c, x in enumerate(row) if x}) == expected
        assert latt.contains({c: x for c, x in enumerate(row) if x}) == (expected is not None)
    for m in members:
        assert latt.coordinates_of(m) is not None


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_action_trace_matches_dense_reference(data):
    """On S_n-stable lattices in M(mu), n = 3, 4, the trace of each class
    representative is the sum over the rows of the dense reference's
    coordinate of the row's image at that row."""
    n = data.draw(st.sampled_from((3, 4)))
    mu = data.draw(st.sampled_from(partitions(n)))
    dim = len(tabloid_module_basis(mu))
    dense = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    sparse = st.lists(st.sampled_from((0,) * 6 + (-1, 1, 2)), min_size=dim, max_size=dim)
    seeds = data.draw(st.lists(st.one_of(dense, sparse), min_size=1, max_size=2))
    maps = [tabloid_action_map(mu, w) for w in adjacent_transpositions(n)]
    latt = orbit_span(dim, seeds, maps)
    for _, word in conjugacy_class_reps(n):
        m = tabloid_action_map(mu, word)
        expected = sum(
            dense_coordinates_of(latt, permute_row(m, row))[i] for i, row in enumerate(latt.rows)
        )
        assert latt.action_trace(m) == expected


@pytest.mark.parametrize("n", [3, 4])
def test_action_trace_rejects_a_map_that_moves_the_lattice(n):
    """The n-cycle moves the first (1^n)-tabloid, so it does not preserve
    the line through it."""
    dim = math.factorial(n)
    line = SubmoduleLattice.from_rows(dim, [[1] + [0] * (dim - 1)])
    with pytest.raises(ValueError):
        line.action_trace(tabloid_action_map((1,) * n, class_representative((n,))))


@settings(deadline=None)
@given(st.integers(0, 8))
def test_direct_constructors_give_the_canonical_form(k):
    """``full`` and ``zero`` write their echelon without a fold; each must
    be the Hermite form that a fold gives, a sparse echelon, with ``rows``
    its dense form."""
    unit_rows = [[int(i == j) for i in range(k)] for j in range(k)]
    for direct, folded in [
        (SubmoduleLattice.full(k), SubmoduleLattice.from_rows(k, unit_rows)),
        (SubmoduleLattice.zero(k), SubmoduleLattice.from_rows(k, [])),
    ]:
        assert direct == folded
        for latt in (direct, folded):
            assert_sparse_echelon(latt)
            assert latt.rows == tuple(map(tuple, densified(latt.echelon.values(), latt.ambient)))


def unimodular(size, ops):
    """The identity matrix of the given size after the row operations
    (i, j, c): add c times row j to row i (i != j), or negate row i."""
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for i, j, c in ops:
        i, j = i % size, j % size
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


@given(
    small_matrix,
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)), max_size=8),
)
def test_lattice_equality_is_basis_free(data, ops):
    """Hermite forms are canonical: ``==`` on ``SubmoduleLattice`` does not
    see the basis it was built from, and agrees with two-way containment."""
    rows, cols = data
    if not rows:
        return
    u = unimodular(len(rows), ops)
    moved = [[sum(c * r[j] for c, r in zip(ur, rows)) for j in range(cols)] for ur in u]
    latt = SubmoduleLattice.from_rows(cols, rows)
    assert latt == SubmoduleLattice.from_rows(cols, moved)
    scaled = SubmoduleLattice.from_rows(cols, [[2 * x for x in rows[0]], *rows[1:]])
    other = SubmoduleLattice.from_rows(cols, moved[1:])
    for a, b in itertools.product((latt, scaled, other), repeat=2):
        assert (a == b) == (a.contains_lattice(b) and b.contains_lattice(a))
