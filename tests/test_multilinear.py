"""Monomial words, commutator expansion, and the proper sublattice."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pilattice.lattices import SubmoduleLattice
from pilattice.multilinear import (
    CommutatorWord,
    MultilinearPoly,
    _blockwise_partitions,
    _candidate_brackets,
    bracket_poly,
    commutator,
    compose,
    decompose,
    identity_word,
    inverse,
    monomial_order,
    proper_basis,
    recompose,
)

from dense_reference import proper_basis_rows

# derangement numbers: rank of the proper sublattice in degrees 1..5
PROPER_RANKS = {1: 0, 2: 1, 3: 2, 4: 9, 5: 44}


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


def poly_strategy(n):
    return st.dictionaries(
        keys=perm_strategy(n),
        values=st.integers(-5, 5),
        max_size=6,
    ).map(lambda terms: MultilinearPoly(terms, range(1, n + 1)))


# ---------------------------------------------------------------------------
# words and permutation algebra
# ---------------------------------------------------------------------------

def test_monomial_order_is_lex():
    order = monomial_order(3)
    assert len(order) == 6
    assert order[0] == (1, 2, 3)
    assert order[-1] == (3, 2, 1)
    assert list(order) == sorted(order)


def test_compose_and_inverse_frozen():
    assert compose((2, 1, 3), (3, 1, 2)) == (3, 2, 1)
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert identity_word(4) == (1, 2, 3, 4)


@given(perm_strategy(4), perm_strategy(4))
def test_compose_inverse_laws(sigma, tau):
    assert compose(sigma, inverse(sigma)) == identity_word(4)
    assert compose(inverse(sigma), sigma) == identity_word(4)
    assert inverse(compose(sigma, tau)) == compose(inverse(tau), inverse(sigma))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_validation():
    with pytest.raises(ValueError):
        MultilinearPoly({(1, 1): 1})
    with pytest.raises(ValueError):
        MultilinearPoly({(1, 2): 1, (1, 3): 1})
    with pytest.raises(ValueError):
        MultilinearPoly.monomial((1, 2)) + MultilinearPoly.monomial((1, 3))
    with pytest.raises(ValueError):
        MultilinearPoly.monomial((1, 2)) * MultilinearPoly.monomial((2,))


def test_poly_arithmetic_frozen():
    p = MultilinearPoly.monomial((1, 2)) - MultilinearPoly.monomial((2, 1))
    assert p.terms == {(1, 2): 1, (2, 1): -1}
    assert (3 * p).terms == {(1, 2): 3, (2, 1): -3}
    assert (p - p).is_zero()
    q = MultilinearPoly.monomial((3,))
    assert (p * q).terms == {(1, 2, 3): 1, (2, 1, 3): -1}
    assert p.degree == 2 and (p * q).degree == 3


def test_equal_polynomials_hash_equal():
    """The zero polynomial equals itself on any variable set, so its hash
    must not depend on the variables."""
    a, b = MultilinearPoly.zero(range(1, 3)), MultilinearPoly.zero(range(1, 4))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_vector_roundtrip_frozen():
    p = MultilinearPoly({(1, 2, 3): 2, (3, 2, 1): -1}, range(1, 4))
    vec = p.to_vector(3)
    assert vec == [2, 0, 0, 0, 0, -1]
    assert MultilinearPoly.from_vector(vec, 3) == p


@given(st.lists(st.integers(-9, 9), min_size=24, max_size=24))
def test_vector_roundtrip_random(vec):
    p = MultilinearPoly.from_vector(vec, 4)
    assert p.to_vector(4) == vec


def test_act_renames():
    p = MultilinearPoly.monomial((1, 2))
    swapped = p.act((2, 1))
    assert swapped.terms == {(2, 1): 1}
    with pytest.raises(ValueError):
        p.act((1, 1))


@given(poly_strategy(4), perm_strategy(4), perm_strategy(4))
def test_act_is_a_right_composition_action(p, sigma, tau):
    assert p.act(compose(sigma, tau)) == p.act(tau).act(sigma)
    assert p.act(identity_word(4)) == p


@given(poly_strategy(3), poly_strategy(3), perm_strategy(3))
def test_act_is_linear(p, q, sigma):
    assert (p + q).act(sigma) == p.act(sigma) + q.act(sigma)
    assert (-p).act(sigma) == -(p.act(sigma))


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def test_bracket_frozen():
    assert bracket_poly((2, 1)).terms == {(2, 1): 1, (1, 2): -1}
    assert bracket_poly((3, 1, 2)).terms == {
        (3, 1, 2): 1,
        (1, 3, 2): -1,
        (2, 3, 1): -1,
        (2, 1, 3): 1,
    }
    with pytest.raises(ValueError):
        bracket_poly((1,))
    with pytest.raises(ValueError):
        bracket_poly((1, 1))


def test_jacobi_identity():
    total = (
        bracket_poly((1, 2, 3))
        + bracket_poly((2, 3, 1))
        + bracket_poly((3, 1, 2))
    )
    assert total.is_zero()


def test_commutator_antisymmetry():
    a = MultilinearPoly.monomial((1,))
    b = MultilinearPoly.monomial((2,))
    assert commutator(a, b) == -commutator(b, a)


def test_bracket_closed_form_matches_the_commutator_recursion():
    """[a1, ..., ak] from its closed form against [[a1, a2], ..., ak]
    multiplied out, for every bracket on 1..k with k <= 6."""
    for k in range(2, 7):
        for word in itertools.permutations(range(1, k + 1)):
            poly = MultilinearPoly.monomial(word[:1])
            for a in word[1:]:
                poly = commutator(poly, MultilinearPoly.monomial((a,)))
            assert bracket_poly(word) == poly


@given(perm_strategy(4))
def test_bracket_expansion_signs(sigma):
    # every left-normed bracket expands with +-1 coefficients, 2^(k-1) terms
    poly = bracket_poly(sigma)
    assert len(poly.terms) == 8
    assert set(poly.terms.values()) <= {1, -1}
    # the defining word itself always appears with coefficient +1
    assert poly.terms[sigma] == 1


# ---------------------------------------------------------------------------
# the proper sublattice
# ---------------------------------------------------------------------------

def test_proper_ranks_follow_derangements():
    for n, rank in PROPER_RANKS.items():
        basis = proper_basis(n)
        assert len(basis.elements) == rank
        assert basis.lattice.rank == rank
        assert len(basis.matrix) == rank


# sha256 of repr(proper_basis_rows(n)), the reference rows, and of
# repr(proper_basis(n).lattice.rows)
PROPER_BASIS_DIGESTS = {
    1: ("2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    2: ("7db6fcc83d6b0580678349c33b5f0c4b46e6bfa23849e6650ce8dd9d38e2049d",
        "ea9829744ef8369404bcf91ca3bdd7a88548b55c7b68e226169022c400d41930"),
    3: ("0b0c01bd79f88829bfbcca7ce533a6a25a6236fe2a5002cf7ed014dc500dfba1",
        "50ad1ec1f59cb928e8857605faa47ba29c4207360617123fd497f9e3be0dc9b3"),
    4: ("ebbe3543f8fb22ddbe116e3f18a8bec6ce34a009a97c4c004f6af5c87883d275",
        "a8b016c2cdeb4a61cc795bc778799ff4240831a7578c50d8c5a91f7a13c6c7de"),
    5: ("78a7bfbf642b13f24486a16894affd7717ea4d661d6a3317ea72f693e960544a",
        "94aef6a435582b13d236cfc380a1ec081973bdb378d3a3c07ab9da84d0bdd62a"),
    6: ("a64da4615d3f8c14da90748cc3a458f5b0c1e5698d3c2c1ca06ae4ef1169c943",
        "26eebc1bdaececa8d9c358b394c966c535d38260ddeded1363e0b01b3836b84f"),
}


@pytest.mark.parametrize("n", sorted(PROPER_BASIS_DIGESTS))
def test_proper_basis_digests(n):
    """The reference rows and the Hermite form of the proper lattice,
    pinned as the commutator recursion gave them before the closed form
    replaced it."""
    digests = tuple(
        hashlib.sha256(repr(x).encode()).hexdigest()
        for x in (proper_basis_rows(n), proper_basis(n).lattice.rows)
    )
    assert digests == PROPER_BASIS_DIGESTS[n]


# sha256 of repr(proper_basis(n).matrix), the unitriangular {column: value} rows
PROPER_MATRIX_DIGESTS = {
    1: "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    2: "3e7bed4cff9da8e3d78fef927996795fe237c61881670ce0a55e44a674c21a7b",
    3: "fdca84609eb4cc13dc17aaef91181f204abcf13405d5be3e73dfaa482f7399d8",
    4: "809481eafc41be303d0b990dfa5c3860d18da15645d342f76b3c49fb4f43d1df",
    5: "bc508bb0186e199133e2b68f1d74dafaa8cc31037dc70704bb76b3f1fa68fcb5",
    6: "a4dcc4faadbfda8d7abdcf349103400049f945dec6edb61a93ae896ab557e6f2",
}


@pytest.mark.parametrize("n", sorted(PROPER_MATRIX_DIGESTS))
def test_proper_matrix_digests(n):
    digest = hashlib.sha256(repr(proper_basis(n).matrix).encode()).hexdigest()
    assert digest == PROPER_MATRIX_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_proper_lattice_matches_the_reference_rows(n):
    expected = SubmoduleLattice.from_rows(len(monomial_order(n)), proper_basis_rows(n))
    assert proper_basis(n).lattice == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_proper_basis_is_unitriangular(n):
    """Each element's row is its expansion, led by its own word with
    coefficient 1; the blocks lead with their minima, which are the
    left-to-right minima of that word; and no two rows share a lead."""
    basis = proper_basis(n)
    order = monomial_order(n)
    leads = set()
    for elem, row in zip(basis.elements, basis.matrix):
        assert row == {c: x for c, x in enumerate(elem.expand().to_vector(n)) if x}
        lead = min(row)
        word = order[lead]
        assert row[lead] == 1 and word == sum(elem.brackets, ())
        minima = [x for i, x in enumerate(word) if x == min(word[: i + 1])]
        assert minima == [br[0] for br in elem.brackets] == [min(br) for br in elem.brackets]
        leads.add(lead)
    assert len(leads) == len(basis.elements) == len(basis.matrix)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_bracket_product_has_proper_coordinates(n):
    """Each product of first-two-descending brackets, blocks ordered by
    minimum, is an integer combination of the basis: the span check the
    basis made over the whole component before it was checked per block."""
    basis = proper_basis(n)
    for part in _blockwise_partitions(identity_word(n)):
        for combo in itertools.product(*map(_candidate_brackets, part)):
            poly = CommutatorWord((), combo).expand()
            coords = basis.coordinates(poly)
            assert coords is not None
            total: dict = {}
            for c, row in zip(coords, basis.matrix):
                for k, x in row.items():
                    total[k] = total.get(k, 0) + c * x
            assert {k: x for k, x in total.items() if x} == {
                k: x for k, x in enumerate(poly.to_vector(n)) if x
            }


def test_proper_basis_is_saturated():
    for n in (2, 3, 4):
        assert proper_basis(n).lattice.is_saturated()


def test_proper_membership_frozen():
    basis = proper_basis(4)
    inside = bracket_poly((2, 1)) * bracket_poly((4, 3))
    assert basis.contains(inside)
    coords = basis.coordinates(inside)
    assert coords is not None and any(coords)
    outside = MultilinearPoly.monomial((1, 2, 3, 4))
    assert not basis.contains(outside)
    assert basis.coordinates(outside) is None


def test_proper_coordinates_reconstruct():
    rng = random.Random(7)
    for n in (2, 3, 4, 5, 6):
        basis = proper_basis(n)
        expansions = [elem.expand() for elem in basis.elements]
        for _ in range(25):
            coeffs = [rng.randint(-4, 4) for _ in basis.elements]
            terms: dict = {}
            for c, poly in zip(coeffs, expansions):
                for w, x in poly.terms.items():
                    terms[w] = terms.get(w, 0) + c * x
            total = MultilinearPoly(terms, range(1, n + 1))
            assert basis.coordinates(total) == coeffs


@given(perm_strategy(4))
def test_proper_lattice_is_renaming_stable(sigma):
    basis = proper_basis(4)
    for elem in basis.elements[:4]:
        moved = elem.expand().act(sigma)
        assert basis.contains(moved)


def test_commutator_word_validation():
    with pytest.raises(ValueError):
        CommutatorWord((2, 1), ())
    with pytest.raises(ValueError):
        CommutatorWord((1,), ((1, 2),))
    with pytest.raises(ValueError):
        CommutatorWord((), ((1,),))
    w = CommutatorWord((1, 3), ((4, 2),))
    assert w.degree == 4
    assert w.variables == frozenset({1, 2, 3, 4})
    assert str(w) == "x1x3[x4,x2]"


# ---------------------------------------------------------------------------
# decomposition into prefix * proper
# ---------------------------------------------------------------------------

def test_decompose_worked_example():
    comps = decompose(MultilinearPoly.monomial((2, 1)))
    assert [c.prefix for c in comps] == [(), (1, 2)]
    assert comps[0].proper.terms == {(2, 1): 1, (1, 2): -1}
    assert comps[1].proper.terms == {(): 1}
    assert recompose(comps, 2) == MultilinearPoly.monomial((2, 1))


def test_decompose_proper_input_is_one_component():
    p = bracket_poly((3, 1, 2))
    comps = decompose(p)
    assert len(comps) == 1
    assert comps[0].prefix == ()
    assert comps[0].proper == p


@settings(deadline=None)
@given(poly_strategy(4))
def test_decompose_recompose_roundtrip(p):
    comps = decompose(p)
    assert recompose(comps, 4) == p
    for comp in comps:
        if comp.proper.degree:
            assert proper_basis(comp.proper.degree).contains(comp.proper)


@settings(deadline=None, max_examples=25)
@given(poly_strategy(5))
def test_decompose_recompose_degree5(p):
    assert recompose(decompose(p), 5) == p
