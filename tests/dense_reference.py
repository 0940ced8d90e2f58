"""Dense reference routines shared by the tests."""

import itertools

from pilattice.lattices import SubmoduleLattice, _clean_rows, split_hnf
from pilattice.multilinear import CommutatorWord, _blockwise_partitions, identity_word
from pilattice.specht import _row_words


def intersect(a, b):
    """The intersection of two lattices of one ambient: the tails x of the
    relations between the rows [x | x] of ``a`` and [y | 0] of ``b``, where
    x + y = 0."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    pairs = [*((r, r) for r in a.echelon.values()), *((r, {}) for r in b.echelon.values())]
    return split_hnf(pairs, a.ambient, a.ambient)[2]


def permute_row(action_map, row):
    """The row with coordinate i moved to coordinate ``action_map[i]``: the
    dense reference for the action maps of ``specht.tabloid_action_map``."""
    out = [0] * len(row)
    for i, c in enumerate(row):
        if c:
            out[action_map[i]] = c
    return out


def built_action_map(mu, word):
    """The map of ``specht.tabloid_action_map`` built straight from the row
    words: in the image of a row word, entry y lies in the row that held
    the x with word[x - 1] = y.  The reference for the composed maps."""
    back = sorted(range(len(word)), key=word.__getitem__)
    words, index = _row_words(mu)
    return tuple([index[tuple(map(w.__getitem__, back))] for w in words])


def disjoint_mask_tuples(masks, n):
    """Every length-n tuple of generator indices, in ``itertools.product``
    order, whose masks are pairwise disjoint: the reference for the masked
    walk of ``rings.generator_tuples``."""
    return [
        tup
        for tup in itertools.product(range(len(masks)), repeat=n)
        if all(not masks[a] & masks[b] for a, b in itertools.combinations(tup, 2))
    ]


def proper_basis_rows(n):
    """The dense rows of the proper basis as ``proper_basis`` chose it
    before its basis was unitriangular: in each block, the minimum second
    after any other element, the rest in any order, and the blocks
    ordered by minimum.  The reference for its lattice."""
    rows = []
    for part in _blockwise_partitions(identity_word(n)):
        per_block = [
            [(first, block[0]) + perm
             for first in block[1:]
             for perm in itertools.permutations([x for x in block[1:] if x != first])]
            for block in part
        ]
        for combo in itertools.product(*per_block):
            rows.append(tuple(CommutatorWord((), combo).expand().to_vector(n)))
    return tuple(rows)


def proper_rows(ordinary_rows, basis):
    """Each ordinary functional restricted to the proper basis, given by
    its {column: value} rows, one sum over a basis element's nonzero
    coefficients per entry: the dense reference for the projection of
    ``pitheory._rows(model, n, True)``."""
    basis = [list(b.items()) for b in basis]
    return tuple(
        (tuple(sum(c * row[i] for i, c in b) for b in basis), m)
        for row, m in ordinary_rows
    )


def evaluation_fold(rows, columns, tail):
    """``lattices._evaluation_fold`` with every head column and unit tail
    handed to ``split_hnf`` as a dense list: the reference for its sparse
    inputs."""
    functionals = _clean_rows(rows)
    r = len(functionals)
    moduli = {k: {k: m} for k, (_, m) in enumerate(functionals) if m}
    order = range(columns - 1, -1, -1)
    heads = ([v[j] for v, _ in functionals] for j in order)
    units = ([int(i == j) for i in range(tail)] for j in order)
    pairs = [*zip(heads, units), *((d, {}) for d in moduli.values())]
    _, image, relations = split_hnf(pairs, r, tail)
    return SubmoduleLattice(r, moduli), image, relations
