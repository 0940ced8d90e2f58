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
from typing import Callable, Iterator, Sequence

from .lattices import (
    AbelianInvariants,
    LatticeBuilder,
    SubmoduleLattice,
    evaluation_kernel,
    field_rank,
    image_invariants,
    json_sanitize,
)
from .multilinear import (
    MultilinearPoly,
    bracket_poly,
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
    conjugacy_class_reps,
    cycle_type,
    find_c,
    hook_number,
    induce_mod,
    pair,
    partitions,
    permute_row,
    rational_character,
    specht_character,
    specht_lattice,
    valid_pairs,
    verify_psi_lemma,
    young_expected,
)

GENERAL_N_MAX = 5
GRASSMANN_N_MAX = 4
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
    """Default cap on n: exterior models pay 2^K in rank, the others n!."""
    return GRASSMANN_N_MAX if model.family == "grassmann" else GENERAL_N_MAX


def _check_degree(model: RingModel, n: int, n_bound: int | None) -> None:
    if n < 1:
        raise ValueError(f"degree n={n} is below 1; multilinear degrees start at 1")
    bound = degree_bound(model) if n_bound is None else n_bound
    if n > bound:
        raise ValueError(
            f"n={n} exceeds the configured bound {bound} for {model.label}; "
            f"pass an explicit bound to override"
        )


# ---------------------------------------------------------------------------
# evaluation functionals
# ---------------------------------------------------------------------------

def evaluation_functionals(model: RingModel, n: int) -> list[Functional]:
    """Linear functionals describing all degree-n substitutions.

    Columns index the n! monomials in ``monomial_order(n)``.  Every
    generator tuple contributes one functional per ring coordinate it
    touches, valued in Z/(modulus of that coordinate).  Rows are
    deduplicated up to sign, which changes neither the subgroup they
    generate nor their common kernel.
    """
    order = monomial_order(n)
    gens = [{k: c for k, c in enumerate(g) if c} for g in model.generators]
    mul = model.mul_sparse
    moduli = model.moduli
    out: list[Functional] = []
    seen_rows: set[Functional] = set()
    for tup in generator_tuples(model, n):
        elems = [gens[i] for i in tup]
        # consecutive words in lex order share prefixes, so keep a stack
        # of partial products and rebuild only the changed suffix
        prev: Row = ()
        stack: list[dict[int, int]] = []
        values: list[dict[int, int]] = []
        for word in order:
            keep = 0
            while keep < len(prev) and prev[keep] == word[keep]:
                keep += 1
            del stack[keep:]
            while len(stack) < n:
                factor = elems[word[len(stack)] - 1]
                stack.append(factor if not stack else mul(stack[-1], factor))
            values.append(stack[-1])
            prev = word
        support = sorted(set().union(*values))
        for k in support:
            row = [val.get(k, 0) for val in values]
            for x in row:
                if x:
                    if x < 0:
                        row = [-y for y in row]
                    break
            else:
                continue
            entry = (tuple(row), moduli[k])
            if entry not in seen_rows:
                seen_rows.add(entry)
                out.append(entry)
    return out


def _check_budget(model: RingModel, n: int, row_budget: int | None) -> None:
    """Raise iff evaluating degree n would visit more candidate rows (one
    per ring coordinate of every generator tuple) than the budget allows.

    Every entry point that evaluates calls this before any cache lookup,
    so the outcome never depends on what an earlier call computed."""
    budget = DEFAULT_ROW_BUDGET if row_budget is None else row_budget
    needed = tuple_count(model, n) * model.rank
    if needed > budget:
        raise BudgetExceeded(model.label, n, needed, budget)


def _columns(n: int, proper: bool) -> int:
    return len(proper_basis(n).elements) if proper else len(monomial_order(n))


# The caches below are keyed only on what determines the answer: the
# model, the degree, and the column basis (n! monomials, or the proper
# basis when ``proper``).  They do no budget check of their own.

@lru_cache(maxsize=None)
def _rows(model: RingModel, n: int, proper: bool) -> tuple[Functional, ...]:
    if not proper:
        return tuple(evaluation_functionals(model, n))
    # a proper functional is an ordinary one restricted to the proper
    # basis; zero and repeated rows are left to the lattice layer
    basis = [[(i, c) for i, c in enumerate(b) if c] for b in proper_basis(n).matrix]
    return tuple(
        (tuple(sum(c * row[i] for i, c in b) for b in basis), m)
        for row, m in _rows(model, n, False)
    )


@lru_cache(maxsize=None)
def _invariants(model: RingModel, n: int, proper: bool) -> AbelianInvariants:
    return image_invariants(_rows(model, n, proper), _columns(n, proper))


@lru_cache(maxsize=None)
def _kernel(model: RingModel, n: int, proper: bool) -> SubmoduleLattice:
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
    n_bound: int | None = None,
    row_budget: int | None = None,
) -> CodimReport:
    """Invariants of the group of degree-n values of the model (the
    degree-n component of the free ring modulo the model's identities)."""
    _check_degree(model, n, n_bound)
    _check_budget(model, n, row_budget)
    t0 = time.perf_counter()
    inv = _invariants(model, n, False)
    prop = (
        proper_codim(model, n, n_bound=n_bound, row_budget=row_budget)
        if include_proper
        else None
    )
    ms = int((time.perf_counter() - t0) * 1000)
    return CodimReport(model.label, n, inv, prop, ms)


def proper_codim(
    model: RingModel,
    n: int,
    *,
    n_bound: int | None = None,
    row_budget: int | None = None,
) -> AbelianInvariants:
    """Invariants of the group of degree-n proper values: the unit
    subgroup in degree 0, zero in degree 1, and for n >= 2 the image of
    the commutator-product lattice under all substitutions."""
    if n == 0:
        return unit_subgroup_invariants(model)
    if n == 1:
        return AbelianInvariants((), 0)
    _check_degree(model, n, n_bound)
    _check_budget(model, n, row_budget)
    return _invariants(model, n, True)


def kernel_lattice(
    model: RingModel,
    n: int,
    *,
    n_bound: int | None = None,
    row_budget: int | None = None,
) -> SubmoduleLattice:
    """The degree-n identity lattice of the model inside Z^{n!}."""
    _check_degree(model, n, n_bound)
    _check_budget(model, n, row_budget)
    return _kernel(model, n, False)


def proper_quotient_pair(
    model: RingModel,
    n: int,
    *,
    n_bound: int | None = None,
    row_budget: int | None = None,
) -> tuple[SubmoduleLattice, SubmoduleLattice]:
    """(everything, identities) in the coordinates of the proper basis;
    the quotient is the degree-n proper value group, and the symmetric
    group acts on both via ``proper_action_matrix``."""
    _check_degree(model, n, n_bound)
    _check_budget(model, n, row_budget)
    return SubmoduleLattice.full(_columns(n, True)), _kernel(model, n, True)


# ---------------------------------------------------------------------------
# symmetric-group actions in both coordinate systems
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_action_map(n: int, word: Row) -> Row:
    """Position map of the renaming action on the n! monomial columns."""
    order = monomial_order(n)
    index = {w: i for i, w in enumerate(order)}
    return tuple(index[tuple(word[v - 1] for v in w)] for w in order)


def monomial_row_action(n: int) -> Callable[[Row, Sequence[int]], list[int]]:
    def act(word: Row, row: Sequence[int]) -> list[int]:
        return permute_row(monomial_action_map(n, word), row)

    return act


@lru_cache(maxsize=None)
def proper_action_matrix(n: int, word: Row) -> tuple[Row, ...]:
    """Row i is (basis element i renamed by the word) in basis coordinates."""
    basis = proper_basis(n)
    rows = []
    for elem in basis.elements:
        coords = basis.coordinates(elem.expand().act(word))
        if coords is None:
            raise AssertionError("renaming left the proper lattice")
        rows.append(tuple(coords))
    return tuple(rows)


def proper_row_action(n: int) -> Callable[[Row, Sequence[int]], list[int]]:
    def act(word: Row, row: Sequence[int]) -> list[int]:
        matrix = proper_action_matrix(n, word)
        out = [0] * len(matrix)
        for c, mrow in zip(row, matrix):
            if c:
                for k, v in enumerate(mrow):
                    if v:
                        out[k] += c * v
        return out

    return act


def proper_quotient_character(
    model: RingModel,
    t: int,
    n_bound: int | None = None,
    row_budget: int | None = None,
) -> tuple[int, ...]:
    """Rational character of the degree-t proper value group, one value
    per cycle type in ``partitions(t)`` order."""
    if t == 1:
        return tuple(0 for _ in partitions(1))
    _check_degree(model, t, n_bound)
    _check_budget(model, t, row_budget)
    return _proper_character(model, t)


@lru_cache(maxsize=None)
def _proper_character(model: RingModel, t: int) -> tuple[int, ...]:
    return rational_character(
        SubmoduleLattice.full(_columns(t, True)),
        _kernel(model, t, True),
        proper_row_action(t),
        conjugacy_class_reps(t),
    )


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
    j = 0..n; unital models only.  An explicit ``n_max`` overrides the
    family degree bound."""
    if model.unit is None:
        raise ValueError("the ordinary/proper bridge needs a unital model")
    bound = degree_bound(model) if n_max is None else n_max
    for n in range(1, bound + 1):
        _check_budget(model, n, row_budget)
    gammas = {
        j: proper_codim(model, j, n_bound=bound, row_budget=row_budget)
        for j in range(bound + 1)
    }
    out = []
    for n in range(1, bound + 1):
        expected = AbelianInvariants((), 0)
        for j in range(n + 1):
            expected = expected.direct_sum(gammas[j].power(math.comb(n, j)))
        computed = ordinary_codim(
            model, n, n_bound=bound, row_budget=row_budget
        ).ordinary
        out.append(
            _outcome(
                "proper-ordinary",
                model.label,
                n,
                str(expected),
                str(computed),
                "binomial sum of proper groups misses the value group",
            )
        )
    return out


# ---------------------------------------------------------------------------
# identities and their consequence closure
# ---------------------------------------------------------------------------

def _ordered_splits(elems: tuple[int, ...], blocks: int) -> Iterator[tuple[Row, ...]]:
    """All ways to arrange elems into ``blocks`` nonempty ordered words."""
    if blocks == 0:
        if not elems:
            yield ()
        return
    if len(elems) < blocks:
        return
    for perm in itertools.permutations(elems):
        for cuts in itertools.combinations(range(1, len(elems)), blocks - 1):
            marks = (0,) + cuts + (len(elems),)
            yield tuple(perm[marks[i]: marks[i + 1]] for i in range(blocks))


def multilinear_consequences(f: MultilinearPoly, n: int) -> Iterator[MultilinearPoly]:
    """Degree-n multilinear elements of the two-sided substitution ideal
    of f: all a * f(u_1, ..., u_d) * b with monomials u_i, a, b covering
    the variables 1..n exactly once."""
    d = f.degree
    if set(f.variables) != set(range(1, d + 1)):
        raise ValueError("identity must use the variables 1..degree")
    allvars = tuple(range(1, n + 1))
    for s_size in range(d, n + 1):
        for subset in itertools.combinations(allvars, s_size):
            rest = tuple(x for x in allvars if x not in subset)
            for blocks in _ordered_splits(subset, d):
                terms: dict[Row, int] = {}
                for word, coeff in f.terms.items():
                    new = tuple(
                        itertools.chain.from_iterable(blocks[v - 1] for v in word)
                    )
                    terms[new] = terms.get(new, 0) + coeff
                inst = MultilinearPoly(terms, subset)
                for k in range(len(rest) + 1):
                    for a_set in itertools.combinations(rest, k):
                        b_set = tuple(x for x in rest if x not in a_set)
                        for a_word in itertools.permutations(a_set):
                            left = (
                                MultilinearPoly.monomial(a_word) * inst
                                if a_word
                                else inst
                            )
                            for b_word in itertools.permutations(b_set):
                                yield (
                                    left * MultilinearPoly.monomial(b_word)
                                    if b_word
                                    else left
                                )


def consequence_lattice(
    identities: Sequence[MultilinearPoly], n: int
) -> SubmoduleLattice:
    """Span of all degree-n multilinear consequences of the identities."""
    builder = LatticeBuilder(len(monomial_order(n)))
    for f in identities:
        if f.degree > n:
            continue
        for g in multilinear_consequences(f, n):
            builder.add(g.to_vector(n))
    return builder.snapshot()


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


def identities_in_kernel(
    model: RingModel,
    polys: Sequence[MultilinearPoly],
    *,
    n_bound: int | None = None,
) -> bool:
    """Dual route to ``identities_vanish``: membership in the computed
    kernel lattice at each polynomial's own degree."""
    return all(
        kernel_lattice(model, f.degree, n_bound=n_bound).contains(
            f.to_vector(f.degree)
        )
        for f in polys
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
            inv = [0] * n
            for i, xi in enumerate(x):
                inv[xi - 1] = i + 1
            conj = tuple(inv[sigma[x[i] - 1] - 1] for i in range(n))
            if all(conj[i] <= t for i in range(t)):
                total += chi[classes.index(cycle_type(conj[:t]))]
        q, r = divmod(total, h_size)
        if r:
            raise ArithmeticError("induction sum not divisible by |H|")
        values.append(q)
    return tuple(values)


def drensky_filtration(
    model: RingModel, n: int, n_bound: int | None = None
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
    _check_degree(model, n, n_bound)
    for t in range(2, n + 1):
        _check_budget(model, t, None)
    return _drensky(model, n)


@lru_cache(maxsize=None)
def _drensky(model: RingModel, n: int) -> DrenskyReport:
    if model.unit is None:
        raise ValueError("the filtration needs a unital model")
    if n < 2:
        raise ValueError("need n >= 2")
    order = monomial_order(n)
    dim = len(order)
    index = {w: i for i, w in enumerate(order)}
    kernel = _kernel(model, n, False)
    words = list(itertools.permutations(range(1, n + 1)))

    def level(t: int) -> SubmoduleLattice:
        builder = LatticeBuilder(dim, kernel.rows)
        for s in range(t, n + 1):
            shift = n - s
            prefix = tuple(range(1, shift + 1))
            for elem_row in proper_basis(s).matrix:
                base = [
                    (prefix + tuple(v + shift for v in w), c)
                    for w, c in zip(monomial_order(s), elem_row)
                    if c
                ]
                for sigma in words:
                    vec = [0] * dim
                    for w, c in base:
                        vec[index[tuple(sigma[v - 1] for v in w)]] += c
                    builder.add(vec)
        return builder.snapshot()

    levels = {t: level(t) for t in range(2, n + 1)}
    levels[n + 1] = kernel
    head = SubmoduleLattice.full(dim).quotient_invariants(levels[2])
    head_expected = cyclic_invariants(model.characteristic())
    reps = conjugacy_class_reps(n)
    act = monomial_row_action(n)
    factors = []
    for t in range(2, n + 1):
        inv = levels[t].quotient_invariants(levels[t + 1])
        expected = _invariants(model, t, True).power(math.comb(n, t))
        chi = rational_character(levels[t], levels[t + 1], act, reps)
        chi_expected = _induced_character(model, t, n)
        factors.append(DrenskyFactor(t, inv, expected, chi, chi_expected))
    return DrenskyReport(model.label, n, head, head_expected, tuple(factors))


def drensky_outcomes(model: RingModel, n: int) -> list[VerificationOutcome]:
    """The filtration checks as outcomes; callers check the budget of
    degrees 2..n first."""
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
    for n in sorted({f.degree for f in basis} | set(range(2, n_max + 1))):
        _check_budget(model, n, row_budget)
    out = [
        _outcome(
            "ut2.codim", f"{label} identities vanish", None,
            True, identities_vanish(model, basis),
            "an identity basis element has a nonzero value",
        ),
        _outcome(
            "ut2.codim", f"{label} identities in kernel", None,
            True, identities_in_kernel(model, basis),
            "an identity basis element is outside the kernel lattice",
        ),
    ]
    for n in range(2, n_max + 1):
        count = (n - 2) * 2 ** (n - 1) + 1
        expected = cyclic_invariants(ell).direct_sum(
            cyclic_invariants(m).power(count)
        )
        computed = ordinary_codim(model, n, row_budget=row_budget).ordinary
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
        got_proper = proper_codim(model, n, row_budget=row_budget)
        chi = proper_quotient_character(model, n, row_budget=row_budget)
        out.append(
            _outcome(
                "ut2.codim", f"{label} proper", n,
                {"invariants": str(exp_proper), "character": list(chi_expected)},
                {"invariants": str(got_proper), "character": list(chi)},
                f"proper value group is not S{lam} mod {m}",
            )
        )
        if n <= 4:
            closure = consequence_lattice(basis, n)
            kern = kernel_lattice(model, n, row_budget=row_budget)
            out.append(
                _outcome(
                    "ut2.codim", f"{label} consequence closure", n,
                    True,
                    closure.contains_lattice(kern)
                    and kern.contains_lattice(closure),
                    "kernel lattice differs from the identity-basis closure",
                )
            )
    for n in range(2, min(n_max, 4) + 1):
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
    the alternating proper quotients (zero in odd degree), and the
    hook-rank accounting for the codimension total."""
    out: list[VerificationOutcome] = []
    label = f"grassmann({ell},*)"
    basis = grassmann_identity_basis(ell)
    probe = grassmann(ell, 5)
    degrees = range(2, min(n_max, GRASSMANN_N_MAX) + 1)
    for model, n in (
        [(probe, f.degree) for f in basis]
        + [(grassmann(ell, n + k), n) for n in degrees for k in (1, 2)]
        + [(grassmann(ell, t + 1), t) for t in range(2, proper_n_max + 1)]
    ):
        _check_budget(model, n, row_budget)
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
            True, identities_in_kernel(probe, basis),
            "identity basis element outside the kernel lattice",
        )
    )
    for n in degrees:
        expected = cyclic_invariants(ell).power(2 ** (n - 1))
        at_k = ordinary_codim(
            grassmann(ell, n + 1), n, row_budget=row_budget
        ).ordinary
        at_k1 = ordinary_codim(
            grassmann(ell, n + 2), n, n_bound=n, row_budget=row_budget
        ).ordinary
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
            closure = consequence_lattice(basis, n)
            kern = kernel_lattice(
                grassmann(ell, n + 1), n, row_budget=row_budget
            )
            out.append(
                _outcome(
                    "grassmann.codim", f"{label} consequence closure", n,
                    True,
                    closure.contains_lattice(kern)
                    and kern.contains_lattice(closure),
                    "kernel differs from consequences of the identity basis",
                )
            )
    for t in range(2, proper_n_max + 1):
        model = grassmann(ell, t + 1)
        got = proper_codim(model, t, n_bound=t, row_budget=row_budget)
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
        chi = proper_quotient_character(model, t, t, row_budget=row_budget)
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
    moduli = set(model.moduli)
    if moduli == {0}:
        p = 0
    elif len(moduli) == 1:
        p = moduli.pop()
        if not _is_prime(p):
            raise ValueError("constant moduli must be prime for field checks")
    else:
        raise ValueError("mixed moduli do not model an algebra over a field")
    out = []
    bound = min(n_max, degree_bound(model))
    for n in range(1, bound + 1):
        _check_budget(model, n, row_budget)
    for n in range(1, bound + 1):
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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


# ---------------------------------------------------------------------------
# module-theoretic claims surfaced as outcomes
# ---------------------------------------------------------------------------

def verify_specht_torsionfree(n_max: int = 6) -> list[VerificationOutcome]:
    """Every valid pair at every degree up to n_max spans a direct
    summand (all Smith invariant factors 1)."""
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
    for ell, m in config.get("subjects") or UT2_SUBJECTS:
        out.extend(
            verify_ut2(
                ell, m,
                config.get("n_max") or GENERAL_N_MAX,
                row_budget=config.get("row_budget"),
            )
        )
    return out


def _claim_grassmann(config: dict) -> list[VerificationOutcome]:
    out = []
    for ell in config.get("subjects") or GRASSMANN_SUBJECTS:
        out.extend(
            verify_grassmann(
                ell,
                config.get("n_max") or GRASSMANN_N_MAX,
                proper_n_max=config.get("proper_n_max") or GENERAL_N_MAX,
                row_budget=config.get("row_budget"),
            )
        )
    return out


def _claim_proper_ordinary(config: dict) -> list[VerificationOutcome]:
    models = config.get("models") or [
        ut2(2, 2), ut2(4, 2), ut2(0, 0),
        grassmann(3, 5), grassmann(0, 5),
        cyclic_ring(4), cyclic_ring(6), cyclic_ring(0),
    ]
    out = []
    for model in models:
        out.extend(
            verify_proper_ordinary(
                model,
                config.get("n_max") or GENERAL_N_MAX,
                row_budget=config.get("row_budget"),
            )
        )
    return out


def _claim_young(config: dict) -> list[VerificationOutcome]:
    return verify_young(
        config.get("n_max") or 6, tuple(config.get("moduli") or (0, 2, 3))
    )


def _claim_drensky(config: dict) -> list[VerificationOutcome]:
    models = config.get("models") or [ut2(2, 2), grassmann(3, 4)]
    degrees = range(2, min(config.get("n_max") or 4, 4) + 1)
    for model in models:
        for n in degrees:
            _check_budget(model, n, config.get("row_budget"))
    return [
        oc for model in models for n in degrees for oc in drensky_outcomes(model, n)
    ]


def _claim_torsionfree(config: dict) -> list[VerificationOutcome]:
    n_max = config.get("n_max") or 6
    return verify_specht_torsionfree(n_max) + verify_psi_outcomes(n_max)


def _claim_field_props(config: dict) -> list[VerificationOutcome]:
    models = config.get("models") or [ut2(0, 0), ut2(2, 2), ut2(3, 3)]
    out = []
    for model in models:
        out.extend(
            verify_field_props(
                model,
                config.get("n_max") or 4,
                row_budget=config.get("row_budget"),
            )
        )
    return out


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
    """Run one registered claim; raises KeyError for unknown names."""
    if claim not in CLAIMS:
        raise KeyError(
            f"unknown claim {claim!r}; known: {', '.join(sorted(CLAIMS))}"
        )
    return CLAIMS[claim](config or {})
