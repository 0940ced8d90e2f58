"""Codimension data of ring models, and the structure theory tying the
ordinary counts to proper polynomials and Specht factors.

The degree-n component of the free ring maps into the model once per
substitution tuple of generators; the quotient by the common kernel of
those maps is a finitely generated abelian group whose invariants are
the ordinary codimension data of the model.  Restricting to the proper
sublattice (products of left-normed commutators) gives the proper data.
Everything here is exact integer arithmetic: every verification outcome
is an equality of integers, abelian-group invariants, or characters.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .lattices import (
    AbelianInvariants,
    SubmoduleLattice,
    _prime_power_base,
    cokernel_invariants,
    evaluation_kernel,
    field_rank,
    image_invariants,
    json_sanitize,
    orbit_span,
)
from .multilinear import (
    MultilinearPoly,
    bracket_poly,
    compose,
    inverse,
    monomial_order,
    proper_basis,
)
from .rings import (
    RingModel,
    cyclic_ring,
    evaluate,
    generator_tuples,
    grassmann,
    tuple_count,
    ut2,
)
from .specht import (
    _transposition_maps,
    check_tabloid_degree,
    conjugacy_class_reps,
    cycle_type,
    find_c,
    hook_number,
    induce_mod,
    pair,
    partitions,
    rational_character,
    specht_character,
    specht_lattice,
    tabloid_action_map,
    valid_pairs,
    verify_psi_lemma,
    young_expected,
)

GENERAL_N_MAX = 5
GRASSMANN_N_MAX = 4
DRENSKY_N_MAX = 4
DEFAULT_ROW_BUDGET = 5_000_000

Row = tuple[int, ...]
Functional = tuple[Row, int]


class BudgetExceeded(RuntimeError):
    """An evaluation would process more candidate rows than allowed."""

    def __init__(self, label: str, n: int, needed: int, budget: int):
        super().__init__(
            f"{label} at n={n} needs {needed} evaluation rows, more than "
            f"the budget of {budget}; raise the row budget to proceed"
        )
        self.label, self.n, self.needed, self.budget = label, n, needed, budget


def degree_bound(model: RingModel) -> int:
    """The default ``n_max`` of ``verify_proper_ordinary``: 4 for exterior
    models, 5 for the others.  A default range only; ``_guard`` accepts
    every degree up to ``specht.MAX_DEGREE``."""
    return GRASSMANN_N_MAX if model.family == "grassmann" else GENERAL_N_MAX


def _check_degrees(degrees: Iterable[int]) -> None:
    """The one degree rule: 1 <= n <= ``specht.MAX_DEGREE`` for every n,
    the highest degree out of range named first.  No model lifts the
    ceiling, since the row budget does not count the n! columns."""
    degrees = sorted(degrees)
    if degrees:
        check_tabloid_degree(degrees[-1])
        if degrees[0] < 1:
            raise ValueError(
                f"degree n={degrees[0]} is below 1; multilinear degrees start at 1"
            )


def _guard(
    evaluations: Iterable[tuple[RingModel, int]], row_budget: int | None = None
) -> None:
    """The front door of every request, run before any evaluation or cache
    lookup, so the outcome never depends on what an earlier call computed.

    Every degree of the (model, n) ``evaluations`` must pass
    ``_check_degrees``; nothing else rejects a degree.  Only then is each
    (model, n) charged one candidate row per ring coordinate of every
    generator tuple, in order, against the row budget."""
    evaluations = list(evaluations)
    _check_degrees(n for _, n in evaluations)
    budget = DEFAULT_ROW_BUDGET if row_budget is None else row_budget
    for model, n in evaluations:
        needed = tuple_count(model, n) * model.rank
        if needed > budget:
            raise BudgetExceeded(model.label, n, needed, budget)


# ---------------------------------------------------------------------------
# evaluation functionals
# ---------------------------------------------------------------------------

def evaluation_functionals(model: RingModel, n: int) -> list[Functional]:
    """Linear functionals describing all degree-n substitutions.

    Columns index the n! monomials in ``monomial_order(n)``, which are the
    (1^n)-tabloids of ``specht.tabloid_module_basis`` in the same order.
    Every generator tuple contributes one functional per ring coordinate it
    touches, valued in Z/(modulus of that coordinate).  Rows are
    deduplicated up to sign, which changes neither the subgroup they
    generate nor their common kernel.

    Ring products are made once per multiset of generators: if the sorted
    tuple ``rep`` satisfies ``tup[i] = rep[pos[i] - 1]``, the monomial w
    takes on ``tup`` the value that pos∘w takes on ``rep``, so the rows of
    ``tup`` are those of ``rep`` with columns moved by
    ``tabloid_action_map((1,) * n, pos)``.  They depend only on ``pos`` and
    the pattern of ``rep``, the set of its sign-normalised rows, so tuples
    whose representatives share the pattern and the runs of repeated
    generators (which fix the possible ``pos``) are grouped, and the rows
    of each (group, pos) are built once: at any later tuple they are all
    repeats, and a group that has met every ``pos`` skips its tuples.  A
    group records each ``pos`` by its inverse, the stable argsort of the
    tuple, and ``pos`` itself is formed only for a tuple whose rows are
    built.  Its map is composed from the maps of the n - 1 adjacent
    transpositions, the only ones built from the tabloids.

    Each distinct product is numbered once, and ``mul_sparse`` runs once
    per (product number, generator) step; a memo of the ordered generator
    prefixes shorter than n maps each prefix to its number, so any word
    costs one prefix lookup and one step lookup.  On grassmann(3, 6) at
    n = 4 that is 1,202 products.  Every memo is freed with the call.
    """
    gens = [{k: c for k, c in enumerate(g) if c} for g in model.generators]
    mul = model.mul_sparse
    moduli = model.moduli
    out: list[Functional] = []
    seen_rows: set[Functional] = set()
    # the distinct products, each numbered by its place in ``values``: the
    # 4,096 prefixes of length 3 of grassmann(3, 6) have 121 of them
    values: list[dict[int, int]] = []
    numbers: dict[frozenset[tuple[int, int]], int] = {}
    # (product number, generator) -> the number of their product
    steps: dict[tuple[int, int], int] = {}

    def number(value: dict[int, int]) -> int:
        key = frozenset(value.items())
        k = numbers.get(key)
        if k is None:
            k = numbers[key] = len(values)
            values.append(value)
        return k

    # ordered generator prefix shorter than n -> the number of its product;
    # the empty prefix is -1, whose step by a generator is that generator
    prefixes: dict[Row, int] = {(): -1}
    steps.update(((-1, i), number(g)) for i, g in enumerate(gens))
    # representative -> (its sign-normalised rows in coordinate order, the
    # argsorts built in its group, how many its runs allow)
    reps: dict[Row, tuple[list[Functional], set[Row], int]] = {}
    groups: dict[tuple[frozenset[Functional], Row], set[Row]] = {}

    def product(word: Row) -> int:
        head = word[:-1]
        k = prefixes.get(head)
        if k is None:
            k = prefixes[head] = product(head)
        step = (k, word[-1])
        num = steps.get(step)
        if num is None:
            left = values[k]
            num = steps[step] = number(mul(left, gens[word[-1]]) if left else {})
        return num

    for tup in generator_tuples(model, n):
        rep = tuple(sorted(tup))
        entry = reps.get(rep)
        if entry is None:
            # the orderings rep∘w for the words w of monomial_order(n), in order
            products = [values[product(word)] for word in itertools.permutations(rep)]
            rows = [
                (_signed([val.get(k, 0) for val in products]), moduli[k])
                for k in sorted(set().union(*products))
            ]
            runs = tuple(len(list(run)) for _, run in itertools.groupby(rep))
            done = groups.setdefault((frozenset(rows), runs), set())
            total = math.factorial(n) // math.prod(map(math.factorial, runs))
            entry = reps[rep] = (rows, done, total)
        rows, done, total = entry
        if len(done) == total:
            continue
        order = tuple(sorted(range(n), key=tup.__getitem__))
        if order in done:
            continue
        done.add(order)
        ranks = [0] * n
        for r, i in enumerate(order, 1):
            ranks[i] = r
        columns = tabloid_action_map((1,) * n, tuple(ranks))
        for row, m in rows:
            functional = (_signed([row[j] for j in columns]), m)
            if functional not in seen_rows:
                seen_rows.add(functional)
                out.append(functional)
    return out


def _signed(row: Sequence[int]) -> Row:
    """The row up to sign: its first nonzero entry positive."""
    for x in row:
        if x:
            return tuple(row) if x > 0 else tuple([-y for y in row])
    return tuple(row)


def _columns(n: int, proper: bool) -> int:
    return len(proper_basis(n).elements) if proper else len(monomial_order(n))


# The caches below are keyed only on what determines the answer: the
# model, the degree, and the column basis (n! monomials, or the proper
# basis when ``proper``).  They check nothing: callers run ``_guard``.

@lru_cache(maxsize=None)
def _rows(model: RingModel, n: int, proper: bool) -> tuple[Functional, ...]:
    if not proper:
        return tuple(evaluation_functionals(model, n))
    # a proper functional is an ordinary one restricted to the proper
    # basis; the table sends each monomial column to the (proper index,
    # coefficient) pairs it feeds, so a row adds only its nonzero entries.
    # Zero and repeated rows are left to the lattice layer
    basis = proper_basis(n).matrix
    table: list[list[tuple[int, int]]] = [[] for _ in range(_columns(n, False))]
    for k, b in enumerate(basis):
        for i, c in b.items():
            table[i].append((k, c))
    out = []
    for row, m in _rows(model, n, False):
        acc = [0] * len(basis)
        for i in itertools.compress(range(len(row)), row):
            for k, c in table[i]:
                acc[k] += c * row[i]
        out.append((tuple(acc), m))
    return tuple(out)


@lru_cache(maxsize=None)
def _invariants(model: RingModel, n: int, proper: bool) -> AbelianInvariants:
    """The degree-n value group Z^columns/K for the identity lattice K.
    The ordinary one is read off the Hermite rows of ``_kernel``, so one
    fold serves the codim report and ``kernel_lattice``; the proper one off
    the kernel that ``image_invariants`` folds from the proper functionals."""
    if proper:
        return image_invariants(_rows(model, n, True), _columns(n, True))
    return cokernel_invariants([*_kernel(model, n, False).echelon.values()], _columns(n, False))


@lru_cache(maxsize=None)
def _kernel(model: RingModel, n: int, proper: bool) -> SubmoduleLattice:
    """The degree-n identity lattice, in the monomial or proper columns."""
    return evaluation_kernel(_rows(model, n, proper), _columns(n, proper))


def unit_subgroup_invariants(model: RingModel) -> AbelianInvariants:
    """Invariants of the additive subgroup generated by the unit."""
    return cyclic_invariants(model.characteristic())


def cyclic_invariants(m: int) -> AbelianInvariants:
    """Invariants of Z/m (Z itself for m = 0, trivial for m = 1)."""
    if m == 0:
        return AbelianInvariants((), 1)
    if m == 1:
        return AbelianInvariants((), 0)
    return AbelianInvariants((m,), 0)


# ---------------------------------------------------------------------------
# codimension reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodimReport:
    """Ordinary and (optionally) proper codimension data at one degree."""

    ring_label: str
    n: int
    ordinary: AbelianInvariants
    proper: AbelianInvariants | None = None
    timing_ms: int | None = None

    def per_q(self) -> dict[str, dict[int, int] | None]:
        return {
            "ordinary": self.ordinary.per_q(),
            "proper": self.proper.per_q() if self.proper is not None else None,
        }

    def to_json(self, *, timings: bool = False) -> dict:
        doc = {
            "ring": self.ring_label,
            "n": self.n,
            "ordinary": self.ordinary.to_json(),
            "proper": self.proper.to_json() if self.proper is not None else None,
            "per_q": {
                kind: (
                    {str(q): count for q, count in sorted(qs.items())}
                    if qs is not None
                    else None
                )
                for kind, qs in self.per_q().items()
            },
        }
        if timings:
            doc["timing_ms"] = self.timing_ms
        return json_sanitize(doc)


def ordinary_codim(
    model: RingModel,
    n: int,
    *,
    include_proper: bool = False,
    row_budget: int | None = None,
) -> CodimReport:
    """Invariants of the group of degree-n values of the model (the
    degree-n component of the free ring modulo the model's identities).
    Any degree 1 <= n <= ``specht.MAX_DEGREE`` is accepted; the row
    budget decides whether it runs."""
    _guard([(model, n)], row_budget)
    t0 = time.perf_counter()
    inv = _invariants(model, n, False)
    prop = _proper_invariants(model, n) if include_proper else None
    ms = int((time.perf_counter() - t0) * 1000)
    return CodimReport(model.label, n, inv, prop, ms)


def proper_codim(
    model: RingModel,
    n: int,
    *,
    row_budget: int | None = None,
) -> AbelianInvariants:
    """Invariants of the group of degree-n proper values: the unit
    subgroup in degree 0, zero in degree 1, and for n >= 2 the image of
    the commutator-product lattice under all substitutions."""
    if n not in (0, 1):
        _guard([(model, n)], row_budget)
    return _proper_invariants(model, n)


def _proper_invariants(model: RingModel, n: int) -> AbelianInvariants:
    if n == 0:
        return unit_subgroup_invariants(model)
    if n == 1:
        return AbelianInvariants((), 0)
    return _invariants(model, n, True)


def kernel_lattice(
    model: RingModel,
    n: int,
    *,
    row_budget: int | None = None,
) -> SubmoduleLattice:
    """The degree-n identity lattice of the model inside Z^{n!}."""
    _guard([(model, n)], row_budget)
    return _kernel(model, n, False)


def proper_quotient_pair(
    model: RingModel,
    n: int,
    *,
    row_budget: int | None = None,
) -> tuple[SubmoduleLattice, SubmoduleLattice]:
    """(everything, identities) in the coordinates of the proper basis;
    the quotient is the degree-n proper value group.  The map c -> c B,
    with B = ``proper_basis(n).matrix``, carries both S_n-equivariantly
    into the monomial columns, where ``tabloid_action_map((1,) * n, word)``
    acts."""
    _guard([(model, n)], row_budget)
    return SubmoduleLattice.full(_columns(n, True)), _kernel(model, n, True)


# ---------------------------------------------------------------------------
# the character of the proper value group
# ---------------------------------------------------------------------------

def proper_quotient_character(
    model: RingModel,
    t: int,
    *,
    row_budget: int | None = None,
) -> tuple[int, ...]:
    """Rational character of the degree-t proper value group, one value
    per cycle type in ``partitions(t)`` order."""
    if t == 1:
        return tuple(0 for _ in partitions(1))
    _guard([(model, t)], row_budget)
    return _proper_character(model, t)


@lru_cache(maxsize=None)
def _proper_character(model: RingModel, t: int) -> tuple[int, ...]:
    # c -> c B is an S_t-equivariant isomorphism of the proper coordinates
    # onto the proper lattice P, so P / (kernel B) has the same character
    basis = proper_basis(t)
    carried = []
    for c in _kernel(model, t, True).echelon.values():
        row: dict[int, int] = {}
        for k, x in c.items():
            for i, b in basis.matrix[k].items():
                row[i] = row.get(i, 0) + x * b
        carried.append(row)
    kernel = SubmoduleLattice.from_rows(basis.lattice.ambient, carried)
    return rational_character(basis.lattice, kernel, (1,) * t)


# ---------------------------------------------------------------------------
# verification outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationOutcome:
    """One exact check: ``passed`` iff ``expected == computed``."""

    claim: str
    subject: str
    n: int | None
    passed: bool
    expected: object
    computed: object
    witness: str = ""

    def to_json(self) -> dict:
        return json_sanitize(
            {
                "claim": self.claim,
                "subject": self.subject,
                "n": self.n,
                "passed": self.passed,
                "expected": self.expected,
                "computed": self.computed,
                "witness": self.witness,
            }
        )


def _outcome(claim, subject, n, expected, computed, witness="") -> VerificationOutcome:
    passed = expected == computed
    return VerificationOutcome(
        claim, subject, n, passed, expected, computed, "" if passed else witness
    )


# ---------------------------------------------------------------------------
# the binomial bridge between ordinary and proper codimensions
# ---------------------------------------------------------------------------

def verify_proper_ordinary(
    model: RingModel,
    n_max: int | None = None,
    *,
    row_budget: int | None = None,
) -> list[VerificationOutcome]:
    """Check that the degree-n value group is the direct sum of
    binomial(n, j) copies of the degree-j proper value group over
    j = 0..n; unital models only.  ``n_max`` defaults to
    ``degree_bound(model)``; any value up to ``specht.MAX_DEGREE`` (7) is
    honoured, and a higher one is rejected before any work."""
    n_max = degree_bound(model) if n_max is None else n_max
    return _proper_ordinary([model], n_max, row_budget)


def _proper_ordinary(
    models: Sequence[RingModel], n_max: int, row_budget: int | None
) -> list[VerificationOutcome]:
    if any(model.unit is None for model in models):
        raise ValueError("the ordinary/proper bridge needs a unital model")
    degrees = range(1, n_max + 1)
    _guard([(model, n) for model in models for n in degrees], row_budget)
    out = []
    for model in models:
        gammas = [_proper_invariants(model, j) for j in range(n_max + 1)]
        for n in degrees:
            expected = AbelianInvariants((), 0)
            for j in range(n + 1):
                expected = expected.direct_sum(gammas[j].power(math.comb(n, j)))
            out.append(
                _outcome(
                    "proper-ordinary",
                    model.label,
                    n,
                    str(expected),
                    str(_invariants(model, n, False)),
                    "binomial sum of proper groups misses the value group",
                )
            )
    return out


# ---------------------------------------------------------------------------
# identities and their consequence closure
# ---------------------------------------------------------------------------

def _placed(n: int, f: MultilinearPoly, k: int, lengths: Sequence[int]) -> list[int]:
    """Row of x_1...x_k * f(u_1, ..., u_d) * x_{k+s+1}...x_n, where u_i is
    the product of the next ``lengths[i]`` variables after the prefix and
    s = sum(lengths)."""
    cuts = (0, *itertools.accumulate(lengths, initial=k), n)
    blocks = [tuple(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:])]
    terms = {sum((blocks[v] for v in w), blocks[0]) + blocks[-1]: c for w, c in f}
    return MultilinearPoly(terms, range(1, n + 1)).to_vector(n)


def consequence_lattice(
    identities: Sequence[MultilinearPoly], n: int
) -> SubmoduleLattice:
    """Span of all degree-n multilinear consequences of the identities.

    A consequence a * f(u_1, ..., u_d) * b, with monomials a, u_i, b
    covering x_1..x_n once, is the renaming of exactly one seed
    x_1...x_k * f(u_1, ..., u_d) * x_{k+s+1}...x_n whose blocks u_i are
    consecutive, of lengths l_i >= 1 with s = sum l_i (``_placed``).  So
    the span is the S_n-span of the seeds, which ``orbit_span`` spins
    under the adjacent transpositions.
    """
    seeds = []
    for f in identities:
        if set(f.variables) != set(range(1, f.degree + 1)):
            raise ValueError("identity must use the variables 1..degree")
        for lengths in itertools.product(range(1, n - f.degree + 2), repeat=f.degree):
            seeds += (_placed(n, f, k, lengths) for k in range(n - sum(lengths) + 1))
    return orbit_span(len(monomial_order(n)), seeds, _transposition_maps((1,) * n))


def _shift(poly: MultilinearPoly, offset: int) -> MultilinearPoly:
    return MultilinearPoly(
        {tuple(v + offset for v in w): c for w, c in poly.terms.items()},
        tuple(v + offset for v in poly.variables),
    )


def ut2_identity_basis(ell: int, m: int) -> list[MultilinearPoly]:
    """[x1,x2][x3,x4], ell*x1, m*[x1,x2] (zero scalars dropped)."""
    out = [bracket_poly((1, 2)) * _shift(bracket_poly((1, 2)), 2)]
    if ell:
        out.append(ell * MultilinearPoly.monomial((1,)))
    if m:
        out.append(m * bracket_poly((1, 2)))
    return out


def grassmann_identity_basis(ell: int) -> list[MultilinearPoly]:
    """[x1,x2,x3] and ell*x1."""
    out = [bracket_poly((1, 2, 3))]
    if ell:
        out.append(ell * MultilinearPoly.monomial((1,)))
    return out


def grassmann_crossing_identity() -> MultilinearPoly:
    """[x2,x1][x3,x4] + [x2,x3][x1,x4]: the exchange relation that holds
    whenever commutators are central and square to zero."""
    return (
        bracket_poly((2, 1)) * _shift(bracket_poly((1, 2)), 2)
        + bracket_poly((2, 3)) * bracket_poly((1, 4))
    )


def identities_vanish(model: RingModel, polys: Sequence[MultilinearPoly]) -> bool:
    """Evaluate each polynomial at every generator tuple of its degree."""
    gens = model.generator_elements()
    for f in polys:
        for tup in generator_tuples(model, f.degree):
            if not evaluate(f, [gens[i] for i in tup]).is_zero():
                return False
    return True


def _in_kernel(model: RingModel, polys: Sequence[MultilinearPoly]) -> bool:
    return all(
        _kernel(model, f.degree, False).contains(f.to_vector(f.degree)) for f in polys
    )


# ---------------------------------------------------------------------------
# the filtration of the value group by minimal proper degree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrenskyFactor:
    t: int
    invariants: AbelianInvariants
    expected: AbelianInvariants
    character: tuple[int, ...]
    expected_character: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return (
            self.invariants == self.expected
            and self.character == self.expected_character
        )


@dataclass(frozen=True)
class DrenskyReport:
    ring_label: str
    n: int
    head_invariants: AbelianInvariants          # everything / level 2
    head_expected: AbelianInvariants            # cyclic of the characteristic
    factors: tuple[DrenskyFactor, ...]          # level t / level t+1

    @property
    def consistent(self) -> bool:
        return self.head_invariants == self.head_expected and all(
            f.consistent for f in self.factors
        )

    def to_json(self) -> dict:
        return json_sanitize(
            {
                "ring": self.ring_label,
                "n": self.n,
                "head": self.head_invariants.to_json(),
                "head_expected": self.head_expected.to_json(),
                "factors": [
                    {
                        "t": f.t,
                        "invariants": f.invariants.to_json(),
                        "expected": f.expected.to_json(),
                        "character": list(f.character),
                        "expected_character": list(f.expected_character),
                    }
                    for f in self.factors
                ],
            }
        )


def _induced_character(model: RingModel, t: int, n: int) -> tuple[int, ...]:
    """Character of the degree-t proper value group induced up to the
    symmetric group on n letters, by the finite-group induction formula
    (the averaging sum is exactly divisible by the subgroup order --
    checked)."""
    chi = _proper_character(model, t)
    classes = partitions(t)
    h_size = math.factorial(t) * math.factorial(n - t)
    values = []
    for _, sigma in conjugacy_class_reps(n):
        total = 0
        for x in itertools.permutations(range(1, n + 1)):
            conj = compose(inverse(x), compose(sigma, x))
            if all(conj[i] <= t for i in range(t)):
                total += chi[classes.index(cycle_type(conj[:t]))]
        q, r = divmod(total, h_size)
        if r:
            raise ArithmeticError("induction sum not divisible by |H|")
        values.append(q)
    return tuple(values)


def drensky_filtration(
    model: RingModel, n: int, *, row_budget: int | None = None
) -> DrenskyReport:
    """Filtration of the degree-n value group by minimal proper degree.

    Level t is spanned, modulo identities, by the renaming orbit of
    (monomial prefix) * (proper element of degree >= t).  The head
    quotient must be cyclic of the model's characteristic; the level-t
    factor is compared against binomial(n, t) copies of the degree-t
    proper value group, both by abelian invariants and by rational
    character (computed directly on the filtration, and independently
    via the induction formula).
    """
    _check_degrees([n])
    _guard([(model, t) for t in range(2, n + 1)], row_budget)
    return _drensky(model, n)


@lru_cache(maxsize=None)
def _drensky(model: RingModel, n: int) -> DrenskyReport:
    if model.unit is None:
        raise ValueError("the filtration needs a unital model")
    if n < 2:
        raise ValueError("need n >= 2")
    dim = len(monomial_order(n))
    kernel = _kernel(model, n, False)
    maps = _transposition_maps((1,) * n)
    # level t is level t+1 (closed under renaming) plus the renamings of
    # (x_1 ... x_{n-t}) * (proper basis element on the last t variables)
    levels = {n + 1: kernel}
    for t in range(n, 1, -1):
        seeds = [_placed(n, e.expand(), n - t, (1,) * t) for e in proper_basis(t).elements]
        levels[t] = orbit_span(dim, seeds, maps, stable=levels[t + 1].echelon.values())
    head = cokernel_invariants([*levels[2].echelon.values()], dim)
    head_expected = cyclic_invariants(model.characteristic())
    factors = []
    for t in range(2, n + 1):
        inv = levels[t].quotient_invariants(levels[t + 1])
        expected = _invariants(model, t, True).power(math.comb(n, t))
        chi = rational_character(levels[t], levels[t + 1], (1,) * n)
        chi_expected = _induced_character(model, t, n)
        factors.append(DrenskyFactor(t, inv, expected, chi, chi_expected))
    return DrenskyReport(model.label, n, head, head_expected, tuple(factors))


def drensky_outcomes(model: RingModel, n: int) -> list[VerificationOutcome]:
    """The filtration checks as outcomes; callers guard degrees 2..n
    first."""
    report = _drensky(model, n)
    out = [
        _outcome(
            "drensky",
            model.label,
            n,
            str(report.head_expected),
            str(report.head_invariants),
            "head quotient is not cyclic of the characteristic",
        )
    ]
    for f in report.factors:
        out.append(
            _outcome(
                "drensky",
                f"{model.label} t={f.t}",
                n,
                {
                    "invariants": str(f.expected),
                    "character": list(f.expected_character),
                },
                {
                    "invariants": str(f.invariants),
                    "character": list(f.character),
                },
                f"level {f.t} factor differs from the induced proper module",
            )
        )
    return out


# ---------------------------------------------------------------------------
# family-specific verifications
# ---------------------------------------------------------------------------

def verify_ut2(
    ell: int,
    m: int,
    n_max: int = GENERAL_N_MAX,
    *,
    row_budget: int | None = None,
) -> list[VerificationOutcome]:
    """Triangular-family checks: the codimension formula, the identity
    basis (vanishing, kernel membership, consequence closure at n <= 4),
    the proper identification with a hook Specht quotient, and the
    filtration factor table at n <= 4."""
    model = ut2(ell, m)
    label = model.label
    basis = ut2_identity_basis(ell, m)
    degrees = sorted({f.degree for f in basis} | set(range(2, n_max + 1)))
    _guard([(model, n) for n in degrees], row_budget)
    out = [
        _outcome(
            "ut2.codim", f"{label} identities vanish", None,
            True, identities_vanish(model, basis),
            "an identity basis element has a nonzero value",
        ),
        _outcome(
            "ut2.codim", f"{label} identities in kernel", None,
            True, _in_kernel(model, basis),
            "an identity basis element is outside the kernel lattice",
        ),
    ]
    for n in range(2, n_max + 1):
        count = (n - 2) * 2 ** (n - 1) + 1
        expected = cyclic_invariants(ell).direct_sum(
            cyclic_invariants(m).power(count)
        )
        computed = _invariants(model, n, False)
        out.append(
            _outcome(
                "ut2.codim", label, n, str(expected), str(computed),
                "ordinary invariants differ from the closed formula",
            )
        )
        lam = (n - 1, 1)
        rank = hook_number(lam)
        if m == 0:
            exp_proper = AbelianInvariants((), rank)
            chi_expected = specht_character(lam)
        else:
            exp_proper = cyclic_invariants(m).power(rank)
            chi_expected = tuple(0 for _ in partitions(n))
        got_proper = _invariants(model, n, True)
        chi = _proper_character(model, n)
        out.append(
            _outcome(
                "ut2.codim", f"{label} proper", n,
                {"invariants": str(exp_proper), "character": list(chi_expected)},
                {"invariants": str(got_proper), "character": list(chi)},
                f"proper value group is not S{lam} mod {m}",
            )
        )
        if n <= 4:
            out.append(
                _outcome(
                    "ut2.codim", f"{label} consequence closure", n,
                    True,
                    consequence_lattice(basis, n) == _kernel(model, n, False),
                    "kernel lattice differs from the identity-basis closure",
                )
            )
    for n in range(2, min(n_max, DRENSKY_N_MAX) + 1):
        out.extend(drensky_outcomes(model, n))
        out.append(_ut2_factor_table(model, ell, m, n))
    return out


def _ut2_factor_table(
    model: RingModel, ell: int, m: int, n: int
) -> VerificationOutcome:
    """Total of the filtration factors against the multiplicity table:
    cyclic of ell, plus (lam_1 - lam_2 + 1) copies of S(lam) mod m for
    each partition lam of n with at most three rows, lam_2 >= 1 and
    lam_3 <= 1."""
    report = _drensky(model, n)
    total = report.head_invariants
    for f in report.factors:
        total = total.direct_sum(f.invariants)
    expected = cyclic_invariants(ell)
    for lam in partitions(n):
        lam2 = lam[1] if len(lam) > 1 else 0
        lam3 = lam[2] if len(lam) > 2 else 0
        if len(lam) > 3 or lam2 < 1 or lam3 > 1:
            continue
        mult = (lam[0] - lam[1] + 1) * hook_number(lam)
        expected = expected.direct_sum(
            AbelianInvariants((), mult)
            if m == 0
            else cyclic_invariants(m).power(mult)
        )
    return _outcome(
        "ut2.codim", f"{model.label} factor table", n,
        str(expected), str(total),
        "filtration total does not match the multiplicity table",
    )


def verify_grassmann(
    ell: int,
    n_max: int = GRASSMANN_N_MAX,
    *,
    proper_n_max: int = GENERAL_N_MAX,
    row_budget: int | None = None,
) -> list[VerificationOutcome]:
    """Exterior-family checks: the 2^{n-1} codimension formula at
    truncation K = n+1 with K vs K+1 stabilization, the identity basis,
    the alternating proper quotients (zero in odd degree) in degrees
    2..proper_n_max, and the hook-rank accounting for the codimension
    total.  Every degree, ``proper_n_max``'s included, meets the one
    degree rule before any model is built, and then the row budget."""
    out: list[VerificationOutcome] = []
    label = f"grassmann({ell},*)"
    degrees = range(2, n_max + 1)
    proper_degrees = range(2, proper_n_max + 1)
    # the models are built only once their degrees have passed
    _check_degrees([n_max, *proper_degrees])
    basis = grassmann_identity_basis(ell)
    probe = grassmann(ell, 5)
    _guard(
        itertools.chain(
            ((probe, f.degree) for f in basis),
            ((grassmann(ell, n + k), n) for n in degrees for k in (1, 2)),
            ((grassmann(ell, t + 1), t) for t in proper_degrees),
        ),
        row_budget,
    )
    out.append(
        _outcome(
            "grassmann.codim", f"{label} identities vanish", None,
            True,
            identities_vanish(probe, basis + [grassmann_crossing_identity()]),
            "triple commutator or exchange identity has a nonzero value",
        )
    )
    out.append(
        _outcome(
            "grassmann.codim", f"{label} identities in kernel", None,
            True, _in_kernel(probe, basis),
            "identity basis element outside the kernel lattice",
        )
    )
    for n in degrees:
        expected = cyclic_invariants(ell).power(2 ** (n - 1))
        at_k = _invariants(grassmann(ell, n + 1), n, False)
        at_k1 = _invariants(grassmann(ell, n + 2), n, False)
        out.append(
            _outcome(
                "grassmann.codim", f"{label} K={n + 1}", n,
                str(expected), str(at_k),
                "codimension formula fails at the standard truncation",
            )
        )
        out.append(
            _outcome(
                "grassmann.codim", f"{label} stabilization", n,
                str(at_k), str(at_k1),
                f"invariants changed between K={n + 1} and K={n + 2}",
            )
        )
        if n <= 4:
            kern = _kernel(grassmann(ell, n + 1), n, False)
            out.append(
                _outcome(
                    "grassmann.codim", f"{label} consequence closure", n,
                    True,
                    consequence_lattice(basis, n) == kern,
                    "kernel differs from consequences of the identity basis",
                )
            )
    for t in proper_degrees:
        model = grassmann(ell, t + 1)
        got = _invariants(model, t, True)
        if t % 2:
            expected = AbelianInvariants((), 0)
            chi_expected = tuple(0 for _ in partitions(t))
        else:
            expected = cyclic_invariants(ell)
            chi_expected = (
                specht_character((1,) * t)
                if ell == 0
                else tuple(0 for _ in partitions(t))
            )
        chi = _proper_character(model, t)
        out.append(
            _outcome(
                "grassmann.codim", f"{label} proper", t,
                {"invariants": str(expected), "character": list(chi_expected)},
                {"invariants": str(got), "character": list(chi)},
                "proper value group is off the alternating pattern",
            )
        )
    for n in degrees:
        hooks = [(n - k,) + (1,) * k for k in range(n)]
        expected_ranks = [hook_number(lam) for lam in hooks]
        ranks = [specht_lattice(pair(lam, lam)).rank for lam in hooks]
        out.append(
            _outcome(
                "grassmann.codim", "hook accounting", n,
                {"total": 2 ** (n - 1), "ranks": expected_ranks},
                {"total": sum(ranks), "ranks": ranks},
                "hook-shape ranks do not sum to 2^{n-1}",
            )
        )
    return out


def verify_field_props(
    model: RingModel,
    n_max: int = 4,
    *,
    row_budget: int | None = None,
) -> list[VerificationOutcome]:
    """Field surrogates: with all moduli zero the rational evaluation
    rank must equal the free rank; with constant prime moduli the mod-p
    rank must equal the mod-p count; counts away from the characteristic
    must vanish."""
    return _field_props([model], n_max, row_budget)


def _field_props(
    models: Sequence[RingModel], n_max: int, row_budget: int | None
) -> list[VerificationOutcome]:
    primes = [_field_characteristic(model) for model in models]
    degrees = range(1, n_max + 1)
    _check_degrees([n_max])
    _guard([(model, n) for model in models for n in degrees], row_budget)
    out = []
    for model, p in zip(models, primes):
        for n in degrees:
            inv = _invariants(model, n, False)
            vectors = [row for row, _ in _rows(model, n, False)]
            rank = field_rank(vectors, len(monomial_order(n)), p)
            target = inv.free_rank if p == 0 else inv.codim(p)
            out.append(
                _outcome(
                    "field-props",
                    f"{model.label} rank over {'Q' if p == 0 else f'F_{p}'}",
                    n, target, rank,
                    "field rank does not match the invariant count",
                )
            )
            clean = (
                not inv.torsion
                if p == 0
                else inv.free_rank == 0
                and all(d == p for d in inv.elementary_divisors())
            )
            out.append(
                _outcome(
                    "field-props", f"{model.label} off-characteristic", n,
                    True, clean,
                    f"nonzero count away from the characteristic: {inv}",
                )
            )
    return out


def _field_characteristic(model: RingModel) -> int:
    """0 when all moduli are 0, p when they are all the prime p."""
    moduli = set(model.moduli)
    if moduli == {0}:
        return 0
    if len(moduli) == 1:
        p = moduli.pop()
        if _prime_power_base(p) != p:
            raise ValueError("constant moduli must be prime for field checks")
        return p
    raise ValueError("mixed moduli do not model an algebra over a field")


# ---------------------------------------------------------------------------
# module-theoretic claims surfaced as outcomes
# ---------------------------------------------------------------------------

def verify_specht_torsionfree(n_max: int = 6) -> list[VerificationOutcome]:
    """Every valid pair at every degree up to n_max spans a direct
    summand (all Smith invariant factors 1)."""
    check_tabloid_degree(n_max)
    out = []
    for n in range(1, n_max + 1):
        bad = [
            str(p) for p in valid_pairs(n) if not specht_lattice(p).is_saturated()
        ]
        out.append(
            _outcome(
                "specht.torsionfree", "all pairs", n, [], bad,
                "pairs whose lattice has a nontrivial invariant factor",
            )
        )
    return out


def verify_psi_outcomes(n_max: int = 6) -> list[VerificationOutcome]:
    """Image and kernel identities of the row-merging map, for every
    pair where the recursion step applies."""
    check_tabloid_degree(n_max)
    out = []
    for n in range(1, n_max + 1):
        bad = []
        for p in valid_pairs(n):
            if find_c(p) is None:
                continue
            image_ok, kernel_ok = verify_psi_lemma(p)
            if not (image_ok and kernel_ok):
                bad.append([str(p), image_ok, kernel_ok])
        out.append(
            _outcome(
                "specht.torsionfree", "psi image/kernel", n, [], bad,
                "pairs violating the image or kernel identity",
            )
        )
    return out


def verify_young(
    n_max: int = 6, moduli: Sequence[int] = (0, 2, 3)
) -> list[VerificationOutcome]:
    """Interlacing factor multiset, each shape once, plus mod-m factor
    invariants (m, ..., m) with hook-number multiplicity, for every
    induced filtration with sum(lam) < n <= n_max."""
    check_tabloid_degree(n_max)
    out = []
    for n in range(2, n_max + 1):
        for m in moduli:
            bad = []
            for t in range(1, n):
                for lam in partitions(t):
                    report = induce_mod(lam, n, m)
                    expected_labels = sorted(young_expected(lam, n), reverse=True)
                    got_labels = sorted(report.factor_labels, reverse=True)
                    if got_labels != expected_labels:
                        bad.append([list(lam), "labels", got_labels])
                        continue
                    for f in report.factors:
                        rank = hook_number(f.label)
                        want = (
                            AbelianInvariants((), rank)
                            if m == 0
                            else AbelianInvariants((m,) * rank, 0)
                        )
                        if f.invariants != want:
                            bad.append(
                                [list(lam), list(f.label), str(f.invariants)]
                            )
            out.append(
                _outcome(
                    "young", f"m={m}", n, [], bad,
                    "induced factors off the interlacing or hook pattern",
                )
            )
    return out


# ---------------------------------------------------------------------------
# claim registry
# ---------------------------------------------------------------------------

UT2_SUBJECTS = ((2, 2), (3, 3), (4, 2), (0, 0))
GRASSMANN_SUBJECTS = (3, 5, 0)


def _claim_ut2(config: dict) -> list[VerificationOutcome]:
    out = []
    for ell, m in config.get("subjects", UT2_SUBJECTS):
        out.extend(
            verify_ut2(
                ell, m,
                config.get("n_max", GENERAL_N_MAX),
                row_budget=config.get("row_budget"),
            )
        )
    return out


def _claim_grassmann(config: dict) -> list[VerificationOutcome]:
    out = []
    for ell in config.get("subjects", GRASSMANN_SUBJECTS):
        out.extend(
            verify_grassmann(
                ell,
                config.get("n_max", GRASSMANN_N_MAX),
                proper_n_max=config.get("proper_n_max", GENERAL_N_MAX),
                row_budget=config.get("row_budget"),
            )
        )
    return out


def _claim_proper_ordinary(config: dict) -> list[VerificationOutcome]:
    models = config["models"] if "models" in config else [
        ut2(2, 2), ut2(4, 2), ut2(0, 0),
        grassmann(3, 5), grassmann(0, 5),
        cyclic_ring(4), cyclic_ring(6), cyclic_ring(0),
    ]
    return _proper_ordinary(
        models, config.get("n_max", GENERAL_N_MAX), config.get("row_budget")
    )


def _claim_young(config: dict) -> list[VerificationOutcome]:
    return verify_young(
        config.get("n_max", 6), tuple(config.get("moduli", (0, 2, 3)))
    )


def _claim_drensky(config: dict) -> list[VerificationOutcome]:
    models = config["models"] if "models" in config else [ut2(2, 2), grassmann(3, 4)]
    n_max = config.get("n_max", DRENSKY_N_MAX)
    degrees = range(2, n_max + 1)
    _check_degrees([n_max])
    _guard([(model, n) for model in models for n in degrees], config.get("row_budget"))
    return [
        oc for model in models for n in degrees for oc in drensky_outcomes(model, n)
    ]


def _claim_torsionfree(config: dict) -> list[VerificationOutcome]:
    n_max = config.get("n_max", 6)
    return verify_specht_torsionfree(n_max) + verify_psi_outcomes(n_max)


def _claim_field_props(config: dict) -> list[VerificationOutcome]:
    models = (
        config["models"] if "models" in config else [ut2(0, 0), ut2(2, 2), ut2(3, 3)]
    )
    return _field_props(models, config.get("n_max", 4), config.get("row_budget"))


CLAIMS: dict[str, Callable[[dict], list[VerificationOutcome]]] = {
    "ut2.codim": _claim_ut2,
    "grassmann.codim": _claim_grassmann,
    "proper-ordinary": _claim_proper_ordinary,
    "young": _claim_young,
    "drensky": _claim_drensky,
    "specht.torsionfree": _claim_torsionfree,
    "field-props": _claim_field_props,
}


def run_claim(claim: str, config: dict | None = None) -> list[VerificationOutcome]:
    """Run one registered claim; raises KeyError for unknown names.

    A ``config`` key that is absent or None takes the claim's default; any
    other value is used as given."""
    if claim not in CLAIMS:
        raise KeyError(
            f"unknown claim {claim!r}; known: {', '.join(sorted(CLAIMS))}"
        )
    return CLAIMS[claim]({k: v for k, v in (config or {}).items() if v is not None})
