"""Expected answers for every benchmark op, computed from closed formulas.

Nothing here imports pilattice: each answer comes from the paper's
formulas (ut2, Grassmann, cyclic, Young/Pieri with hook lengths), so a
wrong answer from the program under test cannot be copied into its own
expectation.  Every ``check_*`` function returns a list of mismatch
strings; an empty list means the op's output is correct.
"""

from __future__ import annotations

import math

# A finitely generated abelian group is compared in one canonical form:
# (free rank, sorted prime-power elementary divisors).
Group = tuple[int, tuple[int, ...]]


def _prime_powers(d: int) -> list[int]:
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            out.append(q)
        p += 1
    if d > 1:
        out.append(d)
    return out


def group(orders) -> Group:
    """The direct sum of cyclic groups Z/d for d in ``orders`` (d = 0 is Z)."""
    free = 0
    divisors: list[int] = []
    for d in orders:
        if d < 0:
            raise ValueError(f"negative cyclic order {d}")
        if d == 0:
            free += 1
        else:
            divisors.extend(_prime_powers(d))
    return free, tuple(sorted(divisors))


def group_of_doc(doc: dict) -> Group:
    """Canonical form of a report's ``{"free_rank": r, "torsion": [...]}``."""
    return group([0] * doc["free_rank"] + [int(d) for d in doc["torsion"]])


def group_order(g: Group) -> int | None:
    """Order of a finite group, None for an infinite one."""
    free, divisors = g
    return None if free else math.prod(divisors)


def show(g: Group) -> str:
    free, divisors = g
    parts = [f"Z/{d}" for d in divisors] + ["Z"] * free
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# codimension formulas
# ---------------------------------------------------------------------------

def expected_codim(family: str, params, n: int) -> tuple[Group, Group]:
    """(ordinary, proper) value groups of a ring model in degree n >= 2."""
    if n < 2:
        raise ValueError("formulas are stated for n >= 2")
    if family == "ut2":
        ell, m = params
        k = (n - 2) * 2 ** (n - 1) + 1
        return group([ell] + [m] * k), group([m] * (n - 1))
    if family == "grassmann":
        ell, _k = params
        return (
            group([ell] * 2 ** (n - 1)),
            group([ell] if n % 2 == 0 else []),
        )
    if family == "cyclic":
        (m,) = params
        return group([m]), group([])
    raise ValueError(f"no closed formula for family {family!r}")


def check_group(where: str, doc: dict, want: Group) -> list[str]:
    try:
        got = group_of_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: malformed invariants {doc!r} ({exc})"]
    if got != want:
        return [f"{where}: got {show(got)}, expected {show(want)}"]
    return []


def check_codim_report(doc: dict, family: str, params, degrees) -> list[str]:
    """A ``pilattice codim --proper`` JSON report, one entry per degree."""
    errors = []
    reports = {r.get("n"): r for r in doc.get("reports", [])}
    if sorted(reports) != sorted(degrees):
        return [f"degrees {sorted(reports)} reported, expected {sorted(degrees)}"]
    for n in degrees:
        ordinary, proper = expected_codim(family, params, n)
        rep = reports[n]
        errors += check_group(f"n={n} ordinary", rep.get("ordinary") or {}, ordinary)
        errors += check_group(f"n={n} proper", rep.get("proper") or {}, proper)
    return errors


def check_session_model(result: dict, family: str, params, degrees) -> list[str]:
    """One model of a library session: ``ordinary_codim(..., include_proper=True)``
    and ``kernel_lattice`` at each degree.

    The kernel is the relation lattice of the value group inside Z^{n!}:
    its rank is n! minus the free rank, and when the group is finite the
    product of its Hermite pivots is the group order."""
    errors = []
    per_n = result.get("degrees", {})
    for n in degrees:
        row = per_n.get(str(n))
        if row is None:
            errors.append(f"n={n}: no result")
            continue
        ordinary, proper = expected_codim(family, params, n)
        errors += check_group(f"n={n} ordinary", row["ordinary"], ordinary)
        errors += check_group(f"n={n} proper", row["proper"], proper)
        want_rank = math.factorial(n) - ordinary[0]
        if row["kernel_rank"] != want_rank:
            errors.append(
                f"n={n} kernel: rank {row['kernel_rank']}, expected {want_rank}"
            )
        order = group_order(ordinary)
        if order is not None and int(row["kernel_pivot_product"]) != order:
            errors.append(
                f"n={n} kernel: pivot product {row['kernel_pivot_product']}, "
                f"expected the group order {order}"
            )
    return errors


# ---------------------------------------------------------------------------
# Young's rule
# ---------------------------------------------------------------------------

def partitions(n: int) -> list[tuple[int, ...]]:
    out = []

    def rec(remaining: int, cap: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, acc + (part,))

    rec(n, n, ())
    return out


def hook_number(shape) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    shape = tuple(shape)
    conj = [sum(1 for r in shape if r > j) for j in range(shape[0] if shape else 0)]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


def pieri_shapes(lam, n: int) -> list[tuple[int, ...]]:
    """Shapes nu of n with nu / lam a horizontal strip (Pieri's rule)."""
    lam = tuple(lam)
    out = []
    for nu in partitions(n):
        if len(nu) > len(lam) + 1:
            continue
        lp = lam + (0,) * (len(nu) - len(lam))
        contains = all(a >= b for a, b in zip(nu, lp)) and len(nu) >= len(lam)
        strip = all(nu[i + 1] <= lp[i] for i in range(len(nu) - 1))
        if contains and strip:
            out.append(nu)
    return out


def check_filtrate(doc: dict, lam, n: int, m: int) -> list[str]:
    """A ``pilattice specht filtrate`` report: one factor per Pieri shape,
    each shape once, with hook-number rank; mod m > 0 each factor is
    (Z/m)^rank and has lattice rank 0, for m = 0 it is Z^rank."""
    rep = doc.get("report") or {}
    factors = rep.get("factors") or []
    labels = [tuple(f["factor_label"]) for f in factors]
    want = sorted(pieri_shapes(lam, n), reverse=True)
    if sorted(labels, reverse=True) != want or len(set(labels)) != len(labels):
        return [f"factor labels {labels}, expected each of {want} once"]
    errors = []
    for f in factors:
        shape = tuple(f["factor_label"])
        f_rank = hook_number(shape)
        inv = group([m] * f_rank)
        errors += check_group(f"factor {shape}", f["invariants"], inv)
        lattice_rank = f_rank if m == 0 else 0
        if f["rank"] != lattice_rank:
            errors.append(f"factor {shape}: rank {f['rank']}, expected {lattice_rank}")
    induced = hook_number(lam) * math.comb(n, sum(lam))
    if rep.get("chain_ranks", [None])[0] != induced:
        errors.append(
            f"induced lattice rank {rep.get('chain_ranks')}, expected {induced} first"
        )
    return errors


def check_verify(doc: dict) -> list[str]:
    """A ``pilattice verify`` report: passed, with checks run and none failed."""
    counts = doc.get("counts") or {}
    if doc.get("passed") is not True or counts.get("failed") != 0 or not counts.get("total"):
        return [f"claim {doc.get('config', {}).get('claim')} did not pass: {counts}"]
    return []
