"""Dense reference routines shared by the tests."""

import itertools


def permute_row(action_map, row):
    """The row with coordinate i moved to coordinate ``action_map[i]``: the
    dense reference for the action maps of ``specht.tabloid_action_map``."""
    out = [0] * len(row)
    for i, c in enumerate(row):
        if c:
            out[action_map[i]] = c
    return out


def disjoint_mask_tuples(masks, n):
    """Every length-n tuple of generator indices, in ``itertools.product``
    order, whose masks are pairwise disjoint: the reference for the masked
    walk of ``rings.generator_tuples``."""
    return [
        tup
        for tup in itertools.product(range(len(masks)), repeat=n)
        if all(not masks[a] & masks[b] for a, b in itertools.combinations(tup, 2))
    ]
