"""Integral symmetric-group combinatorics: tabloids, polytabloids, and
Specht lattices for pairs (lambda; mu).

A composition mu of n indexes the permutation module M(mu), the free
abelian group on mu-tabloids (rows as sorted sets).  For a partition
lambda fitting under mu with lambda_1 = mu_1, the lattice S(lambda; mu)
is spanned by the polytabloids of all n! tableaux of shape mu, signed
over the column group of the lambda-subtableau.  The module also builds
the filtration of S(lambda; mu) by Specht factors via the row-merging
maps psi_{i,v} and the pair operators A_c / R_c, and derives the integral
Young rule with optional reduction mod m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from .lattices import (
    AbelianInvariants,
    LatticeBuilder,
    SubmoduleLattice,
    TransformBuilder,
    _combine,
)

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Tabloid = tuple[tuple[int, ...], ...]   # rows as sorted tuples
Tableau = tuple[tuple[int, ...], ...]   # rows in written order
PermWord = tuple[int, ...]


def is_partition(parts: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(
        p > 0 for p in parts
    )


def is_composition(parts: Sequence[int]) -> bool:
    return len(parts) > 0 and all(p > 0 for p in parts)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(remaining: int, cap: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(rec(n, n))


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[Composition, ...]:
    """All compositions of n >= 1 (positive parts, order significant)."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(remaining: int) -> Iterator[Composition]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in rec(remaining - first):
                yield (first,) + rest

    return tuple(rec(n))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p > j) for j in range(lam[0])
    )


def hook_number(lam: Partition) -> int:
    """Number of standard tableaux of shape lam (hook-length formula).

    >>> hook_number((2, 1))
    2
    >>> hook_number((3, 2))
    5
    """
    if not is_partition(lam) and lam != ():
        raise ValueError(f"{lam} is not a partition")
    n = sum(lam)
    conj = conjugate(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return math.factorial(n) // denom


@dataclass(frozen=True)
class PartitionPair:
    """A pair (lambda; mu): partition under a composition, equal first parts.

    The distinguished ``ZERO_PAIR`` (empty on both sides) stands for the
    zero module and is produced by ``op_A`` in the degenerate case."""

    lam: Partition
    mu: Composition

    def __post_init__(self):
        if self.lam == () and self.mu == ():
            return
        if not is_partition(self.lam) or not self.lam:
            raise ValueError(f"lambda = {self.lam} is not a nonempty partition")
        if not is_composition(self.mu):
            raise ValueError(f"mu = {self.mu} is not a composition")
        if len(self.lam) > len(self.mu):
            raise ValueError("lambda has more rows than mu")
        if any(l > m for l, m in zip(self.lam, self.mu)):
            raise ValueError(f"lambda = {self.lam} does not fit under mu = {self.mu}")
        if self.lam[0] != self.mu[0]:
            raise ValueError("first parts must agree")

    @property
    def is_zero(self) -> bool:
        return self.mu == ()

    @property
    def n(self) -> int:
        return sum(self.mu)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0;0)"
        return f"({','.join(map(str, self.lam))};{','.join(map(str, self.mu))})"


ZERO_PAIR = PartitionPair((), ())


def pair(lam: Sequence[int], mu: Sequence[int]) -> PartitionPair:
    return PartitionPair(tuple(lam), tuple(mu))


def valid_pairs(n: int) -> tuple[PartitionPair, ...]:
    """Every pair (lambda; mu) with mu a composition of n."""
    out = []
    for mu in compositions(n):

        def rec(i: int, prev: int, acc: Partition) -> None:
            out.append(PartitionPair(acc, mu))
            if i < len(mu):
                for part in range(1, min(prev, mu[i]) + 1):
                    rec(i + 1, part, acc + (part,))

        rec(1, mu[0], (mu[0],))
    return tuple(out)


# ---------------------------------------------------------------------------
# tabloids and the permutation module M(mu)
# ---------------------------------------------------------------------------

#: hard ceiling on the symmetric group degree for tabloid enumeration
MAX_DEGREE = 7


@lru_cache(maxsize=None)
def tabloid_module_basis(mu: Composition) -> tuple[Tabloid, ...]:
    """All mu-tabloids, ordered lexicographically by row contents.

    >>> tabloid_module_basis((2, 1))
    (((1, 2), (3,)), ((1, 3), (2,)), ((2, 3), (1,)))
    """
    if not is_composition(mu):
        raise ValueError(f"{mu} is not a composition")
    n = sum(mu)
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported bound {MAX_DEGREE}")

    def rec(rows_left: Composition, remaining: tuple[int, ...]) -> Iterator[Tabloid]:
        if not rows_left:
            yield ()
            return
        k = rows_left[0]
        for chosen in itertools.combinations(remaining, k):
            rest = tuple(x for x in remaining if x not in chosen)
            for tail in rec(rows_left[1:], rest):
                yield (chosen,) + tail

    return tuple(sorted(rec(mu, tuple(range(1, n + 1)))))


@lru_cache(maxsize=None)
def _tabloid_index(mu: Composition) -> dict[Tabloid, int]:
    return {t: i for i, t in enumerate(tabloid_module_basis(mu))}


def canonical_tableau(mu: Composition) -> Tableau:
    """Rows filled with consecutive integers: (1..mu_1), (mu_1+1..), ..."""
    rows = []
    start = 1
    for part in mu:
        rows.append(tuple(range(start, start + part)))
        start += part
    return tuple(rows)


def tabloid_of(tableau: Tableau) -> Tabloid:
    return tuple(tuple(sorted(row)) for row in tableau)


@lru_cache(maxsize=None)
def _transposition_maps(mu: Composition) -> tuple[tuple[int, ...], ...]:
    """For each adjacent transposition (i, i+1), the induced permutation of
    tabloid indices."""
    basis = tabloid_module_basis(mu)
    index = _tabloid_index(mu)
    n = sum(mu)
    maps = []
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        img = tuple(
            index[tuple(tuple(sorted(swap.get(x, x) for x in row)) for row in tab)]
            for tab in basis
        )
        maps.append(img)
    return tuple(maps)


def tabloid_action_map(mu: Composition, word: PermWord) -> tuple[int, ...]:
    """Index permutation of the action of a one-line permutation word."""
    basis = tabloid_module_basis(mu)
    index = _tabloid_index(mu)
    return tuple(
        index[tuple(tuple(sorted(word[x - 1] for x in row)) for row in tab)]
        for tab in basis
    )


def permute_row(action_map: Sequence[int], row: Sequence[int]) -> list[int]:
    out = [0] * len(row)
    for i, c in enumerate(row):
        if c:
            out[action_map[i]] = c
    return out


@dataclass(frozen=True)
class TabloidVector:
    """An element of M(mu): integer coefficients on mu-tabloids."""

    shape: Composition
    coeffs: Mapping[Tabloid, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {t: c for t, c in self.coeffs.items() if c}
        for tab in clean:
            if tuple(len(r) for r in tab) != self.shape:
                raise ValueError(f"tabloid {tab} does not have shape {self.shape}")
        object.__setattr__(self, "coeffs", clean)

    def to_row(self) -> list[int]:
        index = _tabloid_index(self.shape)
        row = [0] * len(index)
        for tab, c in self.coeffs.items():
            row[index[tab]] = c
        return row

    @classmethod
    def from_row(cls, mu: Composition, row: Sequence[int]) -> "TabloidVector":
        basis = tabloid_module_basis(mu)
        return cls(mu, {basis[i]: c for i, c in enumerate(row) if c})

    def act(self, word: PermWord) -> "TabloidVector":
        return TabloidVector(
            self.shape,
            {
                tuple(tuple(sorted(word[x - 1] for x in row)) for row in tab): c
                for tab, c in self.coeffs.items()
            },
        )

    def __add__(self, other: "TabloidVector") -> "TabloidVector":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, 0) + c
        return TabloidVector(self.shape, out)

    def __rmul__(self, scalar: int) -> "TabloidVector":
        return TabloidVector(self.shape, {t: scalar * c for t, c in self.coeffs.items()})


# ---------------------------------------------------------------------------
# polytabloids and S(lambda; mu)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_perms(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Permutations of range(k) with their signs."""
    out = []
    for perm in itertools.permutations(range(k)):
        inv = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if perm[a] > perm[b]
        )
        out.append((perm, -1 if inv & 1 else 1))
    return tuple(out)


def _polytabloid_row(lam: Partition, mu: Composition, tableau: Tableau) -> list[int]:
    index = _tabloid_index(mu)
    columns = [
        [tableau[i][j] for i in range(len(lam)) if lam[i] > j]
        for j in range(lam[0])
    ]
    signed = [_signed_perms(len(col)) for col in columns]
    row = [0] * len(index)
    for combo in itertools.product(*signed):
        mapping: dict[int, int] = {}
        sign = 1
        for col, (perm, s) in zip(columns, combo):
            sign *= s
            for src, dst_pos in zip(col, perm):
                mapping[src] = col[dst_pos]
        tab = tuple(
            tuple(sorted(mapping.get(x, x) for x in trow)) for trow in tableau
        )
        row[index[tab]] += sign
    return row


def polytabloid(p: PartitionPair, tableau: Tableau) -> TabloidVector:
    """Signed column-group sum of the tabloid of ``tableau``.

    The column group permutes entries within the columns of the
    lambda-subtableau and fixes everything else.

    >>> p = pair((1, 1), (1, 1))
    >>> polytabloid(p, ((1,), (2,))).coeffs == {((1,), (2,)): 1, ((2,), (1,)): -1}
    True
    """
    if p.is_zero:
        raise ValueError("zero pair has no tableaux")
    if tuple(len(r) for r in tableau) != p.mu:
        raise ValueError("tableau shape mismatch")
    entries = sorted(x for row in tableau for x in row)
    if entries != list(range(1, p.n + 1)):
        raise ValueError("tableau entries must be 1..n exactly once")
    return TabloidVector.from_row(p.mu, _polytabloid_row(p.lam, p.mu, tableau))


@lru_cache(maxsize=None)
def specht_lattice(p: PartitionPair) -> SubmoduleLattice:
    """Integer span of the polytabloids of all n! tableaux of shape mu.

    Tableaux are folded incrementally in lexicographic order of the
    filling permutation; once the lattice is closed under all adjacent
    transpositions it already contains every remaining polytabloid
    (they form a single orbit), so generation stops early at that
    fixpoint.
    """
    if p.is_zero:
        return SubmoduleLattice.zero(1)
    n = p.n
    base = canonical_tableau(p.mu)
    dim = len(tabloid_module_basis(p.mu))
    builder = LatticeBuilder(dim)
    maps = _transposition_maps(p.mu)
    idle, threshold = 0, 4
    for word in itertools.permutations(range(1, n + 1)):
        tableau = tuple(tuple(word[x - 1] for x in row) for row in base)
        if builder.add(_polytabloid_row(p.lam, p.mu, tableau)):
            idle = 0
            continue
        idle += 1
        if idle >= threshold:
            if _stable_under(builder, maps):
                break
            idle = 0
            threshold *= 2
    return builder.snapshot()


def _stable_under(builder: LatticeBuilder, maps: Sequence[Sequence[int]]) -> bool:
    for row in builder.rows:
        for m in maps:
            if not builder.contains(permute_row(m, row)):
                return False
    return True


# ---------------------------------------------------------------------------
# the maps psi_{i,v} and the pair operators
# ---------------------------------------------------------------------------

def _psi_shape(mu: Composition, i: int, v: int) -> Composition:
    if not 1 <= i < len(mu):
        raise ValueError(f"row index {i} out of range for {mu}")
    if not 0 <= v <= mu[i]:
        raise ValueError(f"subset size {v} out of range for row {i + 1} of {mu}")
    nu = list(mu)
    nu[i - 1] = mu[i - 1] + mu[i] - v
    nu[i] = v
    return tuple(p for p in nu if p)


@lru_cache(maxsize=None)
def _psi_index_images(mu: Composition, i: int, v: int) -> tuple[tuple[int, ...], ...]:
    """For each mu-tabloid index, the nu-tabloid indices of its psi image
    (all coefficients are +1)."""
    nu = _psi_shape(mu, i, v)
    target = _tabloid_index(nu)
    images = []
    for tab in tabloid_module_basis(mu):
        row_a, row_b = tab[i - 1], tab[i]
        outs = []
        for keep in itertools.combinations(row_b, v):
            merged = tuple(sorted(row_a + tuple(x for x in row_b if x not in keep)))
            new_rows = list(tab)
            new_rows[i - 1] = merged
            new_rows[i] = keep
            if not keep:
                del new_rows[i]
            outs.append(target[tuple(new_rows)])
        images.append(tuple(outs))
    return tuple(images)


def _psi_row(mu: Composition, i: int, v: int, row: Sequence[int]) -> list[int]:
    nu = _psi_shape(mu, i, v)
    out = [0] * len(tabloid_module_basis(nu))
    images = _psi_index_images(mu, i, v)
    for s, c in enumerate(row):
        if c:
            for t in images[s]:
                out[t] += c
    return out


def psi(i: int, v: int, x: TabloidVector) -> TabloidVector:
    """Merge all but v entries of row i+1 into row i, summing over the
    kept subsets; linear in x and S_n-equivariant.

    >>> x = TabloidVector((1, 1), {((1,), (2,)): 1})
    >>> psi(1, 0, x).coeffs
    {((1, 2),): 1}
    """
    nu = _psi_shape(x.shape, i, v)
    return TabloidVector.from_row(nu, _psi_row(x.shape, i, v, x.to_row()))


def find_c(p: PartitionPair) -> int | None:
    """Minimal c >= 2 with lambda_{c-1} = mu_{c-1} and lambda_c < mu_c;
    None when lambda equals mu as compositions."""
    lam_pad = p.lam + (0,) * (len(p.mu) - len(p.lam))
    for idx, (l, m) in enumerate(zip(lam_pad, p.mu)):
        if l != m:
            return idx + 1
    return None


def _check_op_pre(c: int, p: PartitionPair) -> tuple[Partition, int]:
    if p.is_zero:
        raise ValueError("operators are undefined on the zero pair")
    if c < 2 or c > len(p.mu):
        raise ValueError(f"column index {c} out of range")
    lam_pad = p.lam + (0,) * (len(p.mu) - len(p.lam))
    if lam_pad[c - 2] != p.mu[c - 2] or lam_pad[c - 1] >= p.mu[c - 1]:
        raise ValueError(
            f"operators need lambda_{c-1} = mu_{c-1} and lambda_{c} < mu_{c}"
        )
    return lam_pad, lam_pad[c - 1]


def op_A(c: int, p: PartitionPair) -> PartitionPair:
    """Add a box to row c of lambda; the zero pair when that would break
    monotonicity (lambda_c = lambda_{c-1}).

    >>> op_A(2, pair((2, 1), (2, 2)))
    PartitionPair(lam=(2, 2), mu=(2, 2))
    >>> op_A(3, pair((2, 2), (2, 2, 1))).lam
    (2, 2, 1)
    """
    lam_pad, v = _check_op_pre(c, p)
    if v == lam_pad[c - 2]:
        return ZERO_PAIR
    new_lam = lam_pad[: c - 1] + (v + 1,) + lam_pad[c:]
    return PartitionPair(tuple(x for x in new_lam if x), p.mu)


def op_R(c: int, p: PartitionPair) -> PartitionPair:
    """Raise the boxes of mu row c above lambda_c into row c-1, then match
    the first parts.

    >>> op_R(2, pair((1,), (1, 1)))
    PartitionPair(lam=(2,), mu=(2,))
    >>> rp = op_R(3, pair((2, 1), (2, 1, 2)))
    >>> rp.lam, rp.mu
    ((2, 1), (2, 3))
    """
    lam_pad, v = _check_op_pre(c, p)
    new_mu = list(p.mu)
    new_mu[c - 2] = p.mu[c - 2] + p.mu[c - 1] - v
    new_mu[c - 1] = v
    new_mu = tuple(x for x in new_mu if x)
    new_lam = list(lam_pad[: len(new_mu)])
    new_lam[0] = new_mu[0]
    return PartitionPair(tuple(x for x in new_lam if x), new_mu)


# ---------------------------------------------------------------------------
# filtration by Specht factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiltrationFactor:
    label: Partition
    invariants: AbelianInvariants
    lattice_rank: int

    def to_json(self) -> dict:
        return {
            "factor_label": list(self.label),
            "invariants": self.invariants.to_json(),
            "rank": self.lattice_rank,
        }


@dataclass(frozen=True)
class FiltrationReport:
    lam: Partition
    mu: Composition
    modulus: int
    chain: tuple[SubmoduleLattice, ...]
    factors: tuple[FiltrationFactor, ...]

    @property
    def factor_labels(self) -> tuple[Partition, ...]:
        return tuple(f.label for f in self.factors)

    def torsion_free(self) -> bool:
        return all(not f.invariants.torsion for f in self.factors)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "modulus": self.modulus,
            "chain_ranks": [latt.rank for latt in self.chain],
            "factors": [f.to_json() for f in self.factors],
        }


def _psi_split(p: PartitionPair):
    """Apply psi_{c-1, lambda_c} to the basis of S(lambda; mu).

    Returns (S, R_c(pair), A_c(pair), the fold of the psi images, the
    kernel lattice, image == S(R_c(pair)), kernel == S(A_c(pair))); the
    fold lifts image rows back to S.  Requires lambda != mu."""
    c = find_c(p)
    if c is None:
        raise ValueError("lemma applies only when lambda != mu")
    lam_pad = p.lam + (0,) * (len(p.mu) - len(p.lam))
    v = lam_pad[c - 1]
    S = specht_lattice(p)
    r_pair, a_pair = op_R(c, p), op_A(c, p)
    tb = TransformBuilder(len(tabloid_module_basis(r_pair.mu)))
    for row in S.rows:
        tb.add(_psi_row(p.mu, c - 1, v, row))
    image = tb.image()
    r_lattice = specht_lattice(r_pair)
    image_ok = image.contains_lattice(r_lattice) and r_lattice.contains_lattice(image)
    k_lattice = SubmoduleLattice.from_rows(
        S.ambient, (_combine(rel.items(), S.rows, S.ambient) for rel in tb.kernel_rows)
    )
    a_lattice = (
        SubmoduleLattice.zero(S.ambient) if a_pair.is_zero else specht_lattice(a_pair)
    )
    kernel_ok = k_lattice.contains_lattice(a_lattice) and a_lattice.contains_lattice(
        k_lattice
    )
    return S, r_pair, a_pair, tb, k_lattice, image_ok, kernel_ok


def _lift_rows(
    tb: TransformBuilder, source_rows: Sequence[Sequence[int]], target: SubmoduleLattice
) -> list[list[int]]:
    """Rows of the source whose psi images span ``target`` -- one preimage
    per basis row of ``target``."""
    out = []
    ambient = len(source_rows[0]) if source_rows else 0
    for u in target.rows:
        combo = tb.solve(u)
        if combo is None:
            raise RuntimeError("filtration lift failed: image lattice mismatch")
        out.append(_combine(combo.items(), source_rows, ambient))
    return out


@lru_cache(maxsize=None)
def specht_series(p: PartitionPair) -> FiltrationReport:
    """Chain S = M_0 > M_1 > ... > 0 inside M(mu) with Specht factors.

    The recursion follows the pair operators: psi_{c-1, lambda_c} maps
    S(lambda; mu) onto S(R_c(pair)) with kernel S(A_c(pair)); pulling a
    series of the image back through chosen preimages and appending a
    series of the kernel yields the chain.  Both lattice identities are
    recomputed here and a mismatch raises (it would falsify the method).
    """
    if find_c(p) is None:
        S = specht_lattice(p)
        chain = (S, SubmoduleLattice.zero(S.ambient))
        inv = chain[0].quotient_invariants(chain[1])
        return FiltrationReport(
            p.lam, p.mu, 0, chain, (FiltrationFactor(p.lam, inv, S.rank),)
        )
    S, r_pair, a_pair, tb, k_lattice, image_ok, kernel_ok = _psi_split(p)
    dim = S.ambient
    if not image_ok:
        raise RuntimeError(f"psi image of {p} is not S({r_pair})")
    if not kernel_ok:
        raise RuntimeError(f"psi kernel on {p} is not S({a_pair})")

    r_report = specht_series(r_pair)
    chain: list[SubmoduleLattice] = [S]
    for deeper in r_report.chain[1:]:
        rows = [list(r) for r in k_lattice.rows]
        rows.extend(_lift_rows(tb, S.rows, deeper))
        chain.append(SubmoduleLattice.from_rows(dim, rows))
    labels = list(r_report.factor_labels)
    if a_pair.is_zero:
        if chain[-1].rank != 0:
            raise RuntimeError("zero kernel expected")
        chain[-1] = SubmoduleLattice.zero(dim)
    else:
        a_report = specht_series(a_pair)
        chain.extend(a_report.chain[1:])
        labels.extend(a_report.factor_labels)
    factors = []
    for i, label in enumerate(labels):
        if not chain[i].contains_lattice(chain[i + 1]):
            raise RuntimeError("filtration chain is not nested")
        inv = chain[i].quotient_invariants(chain[i + 1])
        factors.append(
            FiltrationFactor(label, inv, chain[i].rank - chain[i + 1].rank)
        )
    return FiltrationReport(p.lam, p.mu, 0, tuple(chain), tuple(factors))


def verify_psi_lemma(p: PartitionPair) -> tuple[bool, bool]:
    """(image matches S(R_c(pair)), kernel matches S(A_c(pair))) for the
    generating polytabloids of the pair; requires lambda != mu."""
    *_, image_ok, kernel_ok = _psi_split(p)
    return image_ok, kernel_ok


# ---------------------------------------------------------------------------
# Young's rule with quotients mod m
# ---------------------------------------------------------------------------

def young_expected(lam: Partition, n: int) -> tuple[Partition, ...]:
    """All nu of n interlacing lam: lam_i <= nu_i <= lam_{i-1}, descending
    lexicographic order.

    >>> young_expected((1,), 3)
    ((3,), (2, 1))
    >>> young_expected((2, 2), 5)
    ((3, 2), (2, 2, 1))
    """
    if not is_partition(lam) or not lam:
        raise ValueError(f"{lam} is not a nonempty partition")
    t = sum(lam)
    if t >= n:
        raise ValueError("need sum(lam) < n")
    rows = len(lam) + 1
    lam_pad = lam + (0,)
    out = []

    def rec(i: int, remaining: int, acc: Partition):
        if i == rows:
            if remaining == 0:
                out.append(tuple(x for x in acc if x))
            return
        lo = lam_pad[i]
        hi = lam_pad[i - 1] if i >= 1 else n
        for part in range(min(hi, remaining), lo - 1, -1):
            rec(i + 1, remaining - part, acc + (part,))

    rec(0, n, ())
    return tuple(sorted(out, reverse=True))


def induce_mod(lam: Partition, n: int, m: int) -> FiltrationReport:
    """Filtration of the induced lattice of S(lam) to degree n, reduced
    mod m when m > 0; factor labels follow the interlacing rule.

    Realized on the pair (lam; (lam_1, ..., lam_s, n - t)); for m > 0 the
    reported factors are (M_i + m*S) / (M_{i+1} + m*S).
    """
    if m < 0:
        raise ValueError("modulus must be >= 0")
    t = sum(lam)
    if t >= n:
        raise ValueError("need sum(lam) < n")
    p = PartitionPair(tuple(lam), tuple(lam) + (n - t,))
    series = specht_series(p)
    if m == 0:
        return series
    S = series.chain[0]
    scaled = SubmoduleLattice.from_rows(
        S.ambient, [[m * c for c in row] for row in S.rows]
    )
    mod_chain = tuple(latt.sum_with(scaled) for latt in series.chain)
    factors = []
    for i, f in enumerate(series.factors):
        inv = mod_chain[i].quotient_invariants(mod_chain[i + 1])
        factors.append(
            FiltrationFactor(f.label, inv, mod_chain[i].rank - mod_chain[i + 1].rank)
        )
    return FiltrationReport(p.lam, p.mu, m, mod_chain, tuple(factors))


# ---------------------------------------------------------------------------
# conjugacy classes and rational characters
# ---------------------------------------------------------------------------

def cycle_type(word: PermWord) -> Partition:
    n = len(word)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = word[x - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def class_representative(rho: Partition) -> PermWord:
    """One-line word of a permutation with cycle type rho (consecutive
    cycles: (1 2 .. rho_1)(rho_1+1 ..)...)."""
    word = []
    start = 1
    for part in rho:
        block = list(range(start, start + part))
        word.extend(block[1:] + block[:1])
        start += part
    return tuple(word)


def conjugacy_class_reps(n: int) -> tuple[tuple[Partition, PermWord], ...]:
    return tuple((rho, class_representative(rho)) for rho in partitions(n))


def rational_character(
    outer: SubmoduleLattice,
    inner: SubmoduleLattice,
    row_action: Callable[[PermWord, Sequence[int]], Sequence[int]],
    reps: Sequence[tuple[Partition, PermWord]],
) -> tuple[int, ...]:
    """Traces of class representatives on (outer/inner) tensored with Q.

    ``row_action(word, row)`` must return the image of an ambient row
    under the permutation; both lattices must be preserved (checked)."""
    values = []
    for _, word in reps:
        tr_outer = outer.action_trace(lambda row: row_action(word, row))
        tr_inner = inner.action_trace(lambda row: row_action(word, row)) if inner.rank else 0
        values.append(tr_outer - tr_inner)
    return tuple(values)


def specht_character(lam: Partition) -> tuple[int, ...]:
    """Ordinary character of the Specht lattice S(lam), one value per
    cycle type in ``partitions(sum(lam))`` order."""
    p = PartitionPair(lam, lam)
    latt = specht_lattice(p)
    n = sum(lam)
    reps = conjugacy_class_reps(n)
    maps = {word: tabloid_action_map(lam, word) for _, word in reps}
    return rational_character(
        latt,
        SubmoduleLattice.zero(latt.ambient),
        lambda word, row: permute_row(maps[word], row),
        reps,
    )
