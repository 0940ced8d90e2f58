"""Dense reference routines shared by the tests."""


def permute_row(action_map, row):
    """The row with coordinate i moved to coordinate ``action_map[i]``: the
    dense reference for the action maps of ``specht.tabloid_action_map``."""
    out = [0] * len(row)
    for i, c in enumerate(row):
        if c:
            out[action_map[i]] = c
    return out
