"""Integer lattice arithmetic against an independent elimination oracle.

The oracle below does plain textbook reduction (repeated minimum-absolute-
value pivoting on a dense copy) with none of the library's incremental
folding, so agreement on random inputs is meaningful.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from pilattice.lattices import (
    AbelianInvariants,
    LatticeBuilder,
    SubmoduleLattice,
    TransformBuilder,
    cokernel_invariants,
    evaluation_kernel,
    field_rank,
    hnf,
    image_invariants,
    json_restore_int,
    json_sanitize,
    kernel_basis,
    lattice_quotient_invariants,
    smith_normal_form,
)


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


def brute_image_order(gens, moduli):
    """Order of the subgroup of prod Z/m generated by ``gens`` (all moduli
    finite), by direct closure."""
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
    return len(seen)


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
    assert hnf([[2, 4], [1, 3]]) == ((1, 1), (0, 2))
    assert hnf([[0, 0], [0, 0]]) == ()
    assert hnf([[4, 6]]) == ((4, 6),)
    assert hnf([[2, 0], [0, 3], [1, 1]], 2) == ((1, 0), (0, 1))
    assert hnf([[-3, 0], [0, -5]], 2) == ((3, 0), (0, 5))


def test_hnf_requires_ambient_for_empty_input():
    with pytest.raises(ValueError):
        hnf([])
    assert hnf([], 3) == ()


def test_snf_frozen():
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_normal_form([[2, 0], [0, 2]], 2) == [2, 2]
    assert smith_normal_form([[6]], 1) == [6]
    assert smith_normal_form([], 3) == []
    assert smith_normal_form([[2, 1, 0], [0, 3, 1], [0, 0, 4]], 3) == [1, 1, 24]


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


def test_evaluation_kernel_frozen():
    # x+y mod 2 and x-y over Z: need x = y, and then x+y is always even
    ker = evaluation_kernel([((1, 1), 2), ((1, -1), 0)], 2)
    assert ker.rows == ((1, 1),)
    # 2x mod 4 and y over Z: even first coordinate, zero second
    ker = evaluation_kernel([((2, 0), 4), ((0, 1), 0)], 2)
    assert ker.rows == ((2, 0),)


def test_transform_builder_solves():
    tb = TransformBuilder(3)
    tb.add([2, 0, 1])
    tb.add([0, 3, 0])
    assert tb.solve([4, 3, 2]) == {0: 2, 1: 1}
    assert tb.solve([1, 0, 0]) is None
    assert tb.image().rank == 2


def test_transform_builder_kernel():
    tb = TransformBuilder(2)
    rows = [[1, 2], [2, 4]]
    for r in rows:
        tb.add(r)
    (combo,) = tb.kernel_rows
    assert combo
    vec = [0, 0]
    for idx, c in combo.items():
        vec = [a + c * b for a, b in zip(vec, rows[idx])]
    assert vec == [0, 0]


def test_intersect_and_sum():
    a = SubmoduleLattice.from_rows(2, [[2, 0], [0, 3]])
    b = SubmoduleLattice.from_rows(2, [[3, 0], [0, 2]])
    assert a.intersect(b).rows == ((6, 0), (0, 6))
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
    assert hnf(rows, cols) == oracle_hnf(rows, cols)


@given(small_matrix)
def test_hnf_idempotent_and_spans_same_lattice(data):
    rows, cols = data
    h = hnf(rows, cols)
    assert hnf(h, cols) == h
    latt = SubmoduleLattice.from_rows(cols, rows)
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


@given(small_matrix)
def test_saturated_iff_unit_invariant_factors(data):
    rows, cols = data
    latt = SubmoduleLattice.from_rows(cols, rows)
    divisors = smith_normal_form(rows, cols)
    assert latt.is_saturated() == all(d == 1 for d in divisors)


@given(small_matrix)
def test_kernel_basis_spans_right_kernel(data):
    rows, cols = data
    ker = kernel_basis(rows, cols)
    for v in ker:
        assert len(v) == cols
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    rank = LatticeBuilder(cols, rows).rank()
    assert len(ker) == cols - rank


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
    inv = lattice_quotient_invariants(latt, scaled)
    assert inv == AbelianInvariants((3,) * latt.rank, 0)


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
    assert inv.order() == brute_image_order(gens, moduli)


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
        assert inv.order() == brute_image_order(gens, moduli)


@given(pair_rows)
def test_kernel_membership_with_free_functional(gens):
    functionals = subgroup_functionals(gens, (6, 0))
    ker = evaluation_kernel(functionals, len(gens))
    for v in ker.rows:
        for vec, m in functionals:
            val = sum(a * b for a, b in zip(v, vec))
            assert val % m == 0 if m else val == 0
