"""Structure-constant ring models: arithmetic, validation, serialization."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from pilattice.multilinear import bracket_poly
from pilattice.pitheory import ordinary_codim
from pilattice.lattices import AbelianInvariants, LatticeBuilder
from pilattice.rings import (
    RingModel,
    commutator_element,
    cyclic_ring,
    direct_sum,
    evaluate,
    generator_tuples,
    grassmann,
    tuple_count,
    ut2,
)
from dense_reference import disjoint_mask_tuples

coords3 = st.tuples(*[st.integers(-9, 9)] * 3)
coords8 = st.tuples(*[st.integers(-9, 9)] * 8)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def test_cyclic_frozen():
    r = cyclic_ring(6)
    assert r.rank == 1
    assert r.characteristic() == 6
    assert r.is_commutative()
    x = r.element((4,))
    assert (x * x).coords == (4,)       # 16 mod 6
    assert (x + x).coords == (2,)
    assert r.one * x == x
    assert cyclic_ring(0).characteristic() == 0
    with pytest.raises(ValueError):
        cyclic_ring(-1)


def test_ut2_frozen():
    r = ut2(2, 2)
    e11, e22, e12 = (r.basis_element(k) for k in range(3))
    assert e11 * e12 == e12
    assert e12 * e22 == e12
    assert (e12 * e11).is_zero()
    assert (e22 * e12).is_zero()
    assert (e11 * e22).is_zero()
    assert commutator_element(e11, e12) == e12
    assert not r.is_commutative()
    assert r.characteristic() == 2
    assert r.one == e11 + e22


def test_ut2_modulus_constraints():
    assert ut2(4, 2).characteristic() == 4
    assert ut2(0, 0).moduli == (0, 0, 0)
    assert ut2(0, 5).moduli == (0, 0, 5)
    with pytest.raises(ValueError):
        ut2(4, 3)          # 3 does not divide 4
    with pytest.raises(ValueError):
        ut2(2, 0)          # finite diagonal forces a finite corner
    with pytest.raises(ValueError):
        ut2(-1, 1)


def test_grassmann_frozen():
    r = grassmann(3, 2)
    assert r.rank == 4
    assert r.characteristic() == 3
    one, e1, e2, e12 = (r.basis_element(k) for k in range(4))
    assert e1 * e2 == e12
    assert e2 * e1 == -e12
    assert (e1 * e1).is_zero()
    assert (e1 * e2 + e2 * e1).is_zero()
    assert r.one == one
    assert not r.is_commutative()
    assert r.basis_names == ("1", "e1", "e2", "e12")


def test_grassmann_constraints():
    with pytest.raises(ValueError):
        grassmann(2, 3)    # even coefficient modulus
    with pytest.raises(ValueError):
        grassmann(3, 13)   # too many generators
    assert grassmann(0, 1).characteristic() == 0


def test_direct_sum_frozen():
    r = direct_sum(cyclic_ring(2), cyclic_ring(3))
    assert r.rank == 2
    assert r.moduli == (2, 3)
    assert r.characteristic() == 6
    assert r.is_commutative()
    a = r.element((1, 0))
    b = r.element((0, 1))
    assert (a * b).is_zero()        # orthogonal idempotent components
    assert a * a == a and b * b == b
    assert direct_sum(cyclic_ring(5)) is cyclic_ring(5)
    with pytest.raises(ValueError):
        direct_sum()


def test_direct_sum_keeps_noncommutativity():
    r = direct_sum(cyclic_ring(2), ut2(2, 2))
    assert not r.is_commutative()
    assert r.characteristic() == 2
    assert r.label == "sum(cyclic(2),ut2(2,2))"


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_rejects_nonassociative_table():
    with pytest.raises(ValueError, match="associative"):
        RingModel(
            label="bad",
            moduli=(0, 0),
            table={(0, 0): ((1, 1),), (0, 1): ((0, 1),)},
            generators=((1, 0), (0, 1)),
        )


@pytest.mark.parametrize("rank", [64, 65])
def test_rejects_nonassociative_table_at_any_rank(rank):
    # (e0 e0) e0 = e1 e0 = e2, while e0 (e0 e0) = e0 e1 = 0
    with pytest.raises(ValueError, match="associative"):
        RingModel(
            label="bad",
            moduli=(0,) * rank,
            table={(0, 0): ((1, 1),), (1, 0): ((2, 1),)},
            generators=((1,) + (0,) * (rank - 1),),
        )


def test_rejects_torsion_incompatible_table():
    # a 2-torsion element squaring to an infinite-order one: 0 = (2a)a = 2a^2
    with pytest.raises(ValueError, match="not well defined"):
        RingModel(
            label="bad",
            moduli=(2, 0),
            table={(0, 0): ((1, 1),)},
            generators=((1, 0), (0, 1)),
        )


def test_rejects_fake_unit():
    with pytest.raises(ValueError, match="identity"):
        RingModel(
            label="bad",
            moduli=(2,),
            table={},
            generators=((1,),),
            unit=(1,),
        )


def test_rejects_nongenerating_set():
    with pytest.raises(ValueError, match="generate"):
        RingModel(
            label="bad",
            moduli=(0,),
            table={(0, 0): ((0, 1),)},
            generators=((2,),),
        )


def test_rejects_support_masks_of_wrong_length():
    # one mask for two generators used to pass and then fail evaluation
    with pytest.raises(ValueError, match="support masks"):
        RingModel(
            label="short-masks",
            moduli=(0, 0),
            table={},
            generators=((1, 0), (0, 1)),
            support_masks=(1,),
        )


def test_rejects_support_masks_that_hide_nonzero_products():
    # Z x Z on two idempotents: overlapping masks would prune every tuple
    # with a repeated generator and read the degree-2 group as 0
    idempotents = dict(
        label="ZxZ",
        moduli=(0, 0),
        table={(0, 0): ((0, 1),), (1, 1): ((1, 1),)},
        generators=((1, 0), (0, 1)),
    )
    with pytest.raises(ValueError, match="overlapping support masks"):
        RingModel(**idempotents, support_masks=(1, 1))
    assert ordinary_codim(RingModel(**idempotents), 2).ordinary == AbelianInvariants((), 1)


def separated_words(support_masks=None):
    """Words a, b, ab, ba, aba multiplied by concatenation, other words 0."""
    words = ("a", "b", "ab", "ba", "aba")
    index = {w: i for i, w in enumerate(words)}
    table = {
        (index[u], index[v]): ((index[u + v], 1),)
        for u in words for v in words if u + v in index
    }
    return RingModel(
        label="aba",
        moduli=(0,) * 5,
        table=table,
        generators=((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
        support_masks=support_masks,
    )


def test_rejects_support_masks_that_hide_a_separated_product():
    # a*a = 0, yet a*b*a != 0: a tuple with a twice still has nonzero words
    with pytest.raises(ValueError, match="overlapping support masks"):
        separated_words(support_masks=(1, 0))


def test_support_mask_check_reports_the_first_offending_pair():
    # e0 * e2 = e2 * e0 = f, every other product 0, and every mask 1: of
    # generator 0's partners, 0 and 1 meet no right factor and are passed
    # over, and the pairs (0, 2) and (2, 0) both offend; the first is named
    with pytest.raises(ValueError) as info:
        RingModel(
            label="two-offending-pairs",
            moduli=(0,) * 4,
            table={(0, 2): ((3, 1),), (2, 0): ((3, 1),)},
            generators=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
            support_masks=(1, 1, 1),
        )
    assert str(info.value) == (
        "generators 0 and 2 have overlapping support masks but a word "
        "through both is nonzero"
    )


def test_support_masks_are_part_of_the_identity():
    g = grassmann(3, 2)
    fields = dict(
        label=g.label, moduli=g.moduli, table=g.table,
        generators=g.generators, unit=g.unit,
    )
    masked = RingModel(**fields, support_masks=g.support_masks)
    unmasked = RingModel(**fields)
    assert masked == g and unmasked != masked
    assert ordinary_codim(unmasked, 3).ordinary == ordinary_codim(masked, 3).ordinary


def exterior_z2(generators):
    """The integral exterior algebra on basis 1, e1, e2, e12."""
    return RingModel(
        label="exterior-z2",
        moduli=(0, 0, 0, 0),
        table={
            (0, 0): ((0, 1),), (0, 1): ((1, 1),), (0, 2): ((2, 1),),
            (0, 3): ((3, 1),), (1, 0): ((1, 1),), (2, 0): ((2, 1),),
            (3, 0): ((3, 1),), (1, 2): ((3, 1),), (2, 1): ((3, -1),),
        },
        generators=generators,
        unit=(1, 0, 0, 0),
    )


def test_generation_closes_under_products():
    # e12 is not a generator, so only the product e1 * e2 reaches it
    model = exterior_z2(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    doc = model.to_json()
    rebuilt = RingModel.from_json(doc)
    assert rebuilt == model and rebuilt.to_json() == doc
    with pytest.raises(ValueError, match="generate"):
        exterior_z2(((1, 0, 0, 0), (0, 1, 0, 0)))


def test_validating_grassmann_makes_few_products(monkeypatch):
    """A work guard free of wall-clock time: grassmann(3,6) has rank 64 and
    729 nonzero basis products, and validation multiplies only where a
    product can be nonzero.  A rank^3 associativity walk, an unrestricted
    mask check and an unconditional generation closure make 279,811
    products here."""
    model = grassmann(3, 6)
    original = RingModel.mul_sparse
    calls = 0

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return original(self, a, b)

    monkeypatch.setattr(RingModel, "mul_sparse", counting)
    model.validate()
    assert calls <= 25_000


ERROR_KINDS = ("not well defined", "associative", "support masks", "identity", "generate")


def reference_error(moduli, table, generators, unit=None, support_masks=None):
    """The error kind ``RingModel`` must raise, or None: every check on every
    basis triple, generator pair and product, with dense arithmetic and no
    restriction to the support of the table."""
    rank = len(moduli)

    def red(vec):
        return tuple(v % m if m else v for v, m in zip(vec, moduli))

    tbl = {}
    for (i, j), entries in table.items():
        cleaned = [(k, c) for k, c in entries if (c % moduli[k] if moduli[k] else c)]
        if cleaned:
            tbl[(i, j)] = cleaned

    def mul(a, b):
        out = [0] * rank
        for (i, j), entries in tbl.items():
            for k, c in entries:
                out[k] += a[i] * b[j] * c
        return red(out)

    basis = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    zero = (0,) * rank
    for (i, j), entries in tbl.items():
        for k, c in entries:
            for source in (i, j):
                if red([moduli[source] * c * x for x in basis[k]]) != zero:
                    return "not well defined"
    for ei, ej, ek in itertools.product(basis, repeat=3):
        if mul(mul(ei, ej), ek) != mul(ei, mul(ej, ek)):
            return "associative"
    gens = [red(g) for g in generators]
    if support_masks is not None:
        if len(support_masks) != len(gens):
            return "support masks"
        for (a, ga), (b, gb) in itertools.product(enumerate(gens), repeat=2):
            if support_masks[a] & support_masks[b] and any(
                mul(left, gb) != zero for left in [ga] + [mul(ga, e) for e in basis]
            ):
                return "support masks"
    if unit is not None:
        one = red(unit)
        if any(mul(one, e) != red(e) or mul(e, one) != red(e) for e in basis):
            return "identity"
    builder = LatticeBuilder(rank)
    for k, m in enumerate(moduli):
        if m:
            builder.add(tuple(m * v for v in basis[k]))
    for g in gens:
        builder.add(g)
    closed = False
    while not closed:
        rows = [tuple(r.get(c, 0) for c in range(rank)) for r in builder.rows]
        closed = not any([builder.add(mul(a, b)) for a in rows for b in rows])
    if builder.rank() != rank or any(
        r[j] != 1 for r, j in zip(builder.rows, builder.pivots)
    ):
        return "generate"
    return None


VALID_SEEDS = [
    cyclic_ring(0), cyclic_ring(2), cyclic_ring(4), ut2(0, 0), ut2(4, 2),
    ut2(3, 3), grassmann(3, 2), grassmann(0, 2), grassmann(0, 1),
    direct_sum(cyclic_ring(3), cyclic_ring(0)),
    direct_sum(ut2(2, 2), cyclic_ring(2)),
    exterior_z2(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))),
    separated_words(),
]


@st.composite
def model_arguments(draw):
    """Keyword arguments for ``RingModel``: a random table, or a valid model
    with at most one corrupted entry, with optional unit, support masks and
    generators that need not be basis vectors."""
    if draw(st.booleans()):
        seed = draw(st.sampled_from(VALID_SEEDS))
        moduli, rank = list(seed.moduli), seed.rank
        table = {key: list(entries) for key, entries in seed.table.items()}
        unit, own = seed.unit, [seed.generators]
        if draw(st.booleans()):
            key = (draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1)))
            entry = (draw(st.integers(0, rank - 1)), draw(st.integers(-3, 3)))
            table[key] = table.get(key, [])[:draw(st.integers(0, 1))] + [entry]
    else:
        rank = draw(st.integers(1, 5))
        moduli = draw(st.lists(st.sampled_from((0, 2, 3, 4)), min_size=rank, max_size=rank))
        index = st.integers(0, rank - 1)
        table = draw(st.dictionaries(
            st.tuples(index, index),
            st.lists(st.tuples(index, st.integers(-3, 3)), min_size=1, max_size=2),
            max_size=rank * rank,
        ))
        unit, own = None, []
    coords = st.tuples(*[st.integers(-2, 2)] * rank)
    basis = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    generators = draw(st.one_of(
        st.sampled_from(own + [basis]),
        st.lists(st.sampled_from(basis), min_size=1, max_size=rank),
        st.lists(coords, min_size=1, max_size=rank + 1),
    ))
    if unit is None or not draw(st.booleans()):
        unit = draw(st.one_of(st.none(), coords))
    masks = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 3), min_size=len(generators), max_size=len(generators)),
        st.lists(st.integers(0, 3), max_size=rank + 1),
    ))
    return dict(moduli=moduli, table=table, generators=generators, unit=unit,
                support_masks=masks)


@settings(max_examples=400, deadline=None)
@given(model_arguments())
def test_validation_matches_unrestricted_reference(args):
    expected = reference_error(**args)
    try:
        RingModel(label="probe", **args)
        got = None
    except ValueError as exc:
        got = next(kind for kind in ERROR_KINDS if kind in str(exc))
    assert got == expected


def test_element_model_mismatch():
    with pytest.raises(ValueError):
        cyclic_ring(2).element((1,)) * cyclic_ring(3).element((1,))


# ---------------------------------------------------------------------------
# substitution tuples
# ---------------------------------------------------------------------------

def test_generator_tuples_dense_families():
    assert sum(1 for _ in generator_tuples(cyclic_ring(4), 3)) == 1
    assert sum(1 for _ in generator_tuples(ut2(2, 2), 3)) == 27


def test_generator_tuples_prune_overlapping_supports():
    # tuples of pairwise-disjoint subsets of k elements: (n+1)^k
    assert sum(1 for _ in generator_tuples(grassmann(3, 3), 2)) == 27
    assert sum(1 for _ in generator_tuples(grassmann(3, 2), 3)) == 16
    for tup in generator_tuples(grassmann(3, 3), 3):
        masks = [grassmann(3, 3).support_masks[i] for i in tup]
        assert masks[0] & masks[1] == 0
        assert (masks[0] | masks[1]) & masks[2] == 0


def test_tuple_count_matches_enumeration():
    models = [grassmann(3, k) for k in range(6)] + [
        ut2(2, 2),
        cyclic_ring(5),
        direct_sum(ut2(2, 2), cyclic_ring(3)),
        direct_sum(grassmann(3, 2), cyclic_ring(5)),
    ]
    for model in models:
        for n in range(5):
            assert tuple_count(model, n) == sum(1 for _ in generator_tuples(model, n))


@settings(max_examples=200, deadline=None)
@example(masks=[0, 3, 0, 1, 1], n=4)
@example(masks=[5], n=0)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=5), st.integers(0, 4))
def test_masked_walk_matches_filtered_product(masks, n):
    # zero multiplication, so any masks are valid; small masks repeat often
    rank = len(masks)
    model = RingModel(
        label="masked",
        moduli=(0,) * rank,
        table={},
        generators=[tuple(int(i == k) for i in range(rank)) for k in range(rank)],
        support_masks=masks,
    )
    expected = disjoint_mask_tuples(masks, n)
    assert list(generator_tuples(model, n)) == expected
    assert tuple_count(model, n) == len(expected)


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def test_evaluate_matches_direct_commutator():
    r = ut2(4, 2)
    a = r.element((1, 2, 1))
    b = r.element((0, 1, 1))
    assert evaluate(bracket_poly((1, 2)), [a, b]) == commutator_element(a, b)


def test_evaluate_rejects_elements_of_different_models():
    """Substitution raises, as the product does, when the elements come
    from different models: ut2 with other moduli, or a cyclic ring."""
    a = ut2(2, 2).basis_element(0)
    for b in (ut2(0, 0).basis_element(2), cyclic_ring(5).one):
        with pytest.raises(ValueError, match="different ring models"):
            a * b
        with pytest.raises(ValueError, match="different ring models"):
            evaluate(bracket_poly((1, 2)), [a, b])


@given(coords3, coords3, coords3)
def test_evaluate_triple_bracket_ut2(ca, cb, cc):
    r = ut2(4, 2)
    a, b, c = r.element(ca), r.element(cb), r.element(cc)
    direct = commutator_element(commutator_element(a, b), c)
    assert evaluate(bracket_poly((1, 2, 3)), [a, b, c]) == direct


# ---------------------------------------------------------------------------
# ring axioms on random elements
# ---------------------------------------------------------------------------

@given(coords3, coords3, coords3)
def test_ut2_axioms(ca, cb, cc):
    r = ut2(4, 2)
    a, b, c = r.element(ca), r.element(cb), r.element(cc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert r.one * a == a and a * r.one == a
    assert 2 * (a + b) == 2 * a + 2 * b


@given(coords8, coords8)
def test_grassmann_axioms(ca, cb):
    r = grassmann(3, 3)
    a, b = r.element(ca), r.element(cb)
    assert (a * b) * a == a * (b * a)
    assert a * (a + b) == a * a + a * b
    assert r.one * a == a and a * r.one == a


@given(st.integers(0, 3), st.integers(0, 3))
def test_grassmann_generators_anticommute(i, j):
    r = grassmann(3, 3)
    gens = [r.basis_element(1 << k) for k in range(3)]
    gi, gj = gens[i % 3], gens[j % 3]
    assert (gi * gj + gj * gi).is_zero()
    assert (gi * gi).is_zero()


def cancelling_ring():
    """e0*e0 = 2*e1 with both coordinates mod 4: products cancel to zero."""
    return RingModel(
        label="cancelling",
        moduli=(4, 4),
        table={(0, 0): ((1, 2),)},
        generators=((1, 0), (0, 1)),
    )


def naive_product(model, a, b):
    out = [0] * model.rank
    for (i, j), entries in model.table.items():
        for k, c in entries:
            out[k] += a.get(i, 0) * b.get(j, 0) * c
    reduced = [v % m if m else v for v, m in zip(out, model.moduli)]
    return {k: v for k, v in enumerate(reduced) if v}


PRODUCT_MODELS = [
    ut2(4, 2),
    grassmann(3, 3),
    cyclic_ring(4),
    direct_sum(ut2(2, 2), cyclic_ring(3)),
    cancelling_ring(),
]


@given(st.data())
def test_mul_sparse_matches_naive_product(data):
    model = data.draw(st.sampled_from(PRODUCT_MODELS))
    sparse = st.dictionaries(
        st.integers(0, model.rank - 1), st.integers(-9, 9), max_size=model.rank
    )
    a, b = data.draw(sparse), data.draw(sparse)
    assert model.mul_sparse(a, b) == naive_product(model, a, b)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def masked_custom_copy(model):
    """``model`` rebuilt as a custom model that keeps its support masks."""
    return RingModel(
        label=f"custom-{model.label}", moduli=model.moduli, table=model.table,
        generators=model.generators, unit=model.unit,
        support_masks=model.support_masks,
    )


@pytest.mark.parametrize(
    "model",
    [
        cyclic_ring(6),
        ut2(2, 2),
        ut2(0, 0),
        grassmann(3, 3),
        direct_sum(cyclic_ring(2), grassmann(3, 2)),
        masked_custom_copy(grassmann(3, 2)),
    ],
    ids=lambda m: m.label,
)
def test_json_roundtrip(model):
    doc = model.to_json()
    rebuilt = RingModel.from_json(doc)
    assert rebuilt == model
    assert rebuilt.to_json() == doc


def test_json_loads_grassmann_doc_without_masks():
    # a doc written before the masks were stored, and unmasked docs unchanged
    doc = grassmann(3, 3).to_json()
    assert doc.pop("support_masks") == list(grassmann(3, 3).support_masks)
    assert RingModel.from_json(doc) == grassmann(3, 3)
    assert "support_masks" not in cyclic_ring(6).to_json()


def test_json_rejects_tampered_known_family():
    doc = cyclic_ring(4).to_json()
    doc["table"] = [{"i": 0, "j": 0, "entries": [[0, 3]]}]
    with pytest.raises(ValueError, match="do not match"):
        RingModel.from_json(doc)


def test_json_custom_model_roundtrip():
    model = RingModel(
        label="square-zero",
        moduli=(4, 4),
        table={(0, 0): ((1, 1),)},
        generators=((1, 0), (0, 1)),
        family="custom",
    )
    rebuilt = RingModel.from_json(model.to_json())
    assert rebuilt == model
    assert rebuilt.mul_sparse({0: 1}, {0: 1}) == {1: 1}
