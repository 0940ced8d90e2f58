"""Exact integer linear algebra on row lattices.

Everything here works over Z with arbitrary-precision Python ints.  One
Hermite fold (``split_hnf``) gives the image, the relations and the
preimages: the value group and the identity lattice of an evaluation map
with mixed cyclic target moduli come off one fold, and the Smith diagonal
from alternating folds.  One kernel, ``_reduce``, reduces every row over
Z: the fold's steps, membership, coordinates, traces and the Hermite form
all go through it.  Only ``field_rank``'s mod-p check works apart.

Vectors are rows throughout; a lattice is the row span of a matrix, and a
map acts on the right (``v @ M``).  Matrices are plain ``list[list[int]]``;
the fold in progress and the frozen Hermite form both hold each row as the
{column: value} dict of its nonzero entries -- no floats anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, prod
from typing import Iterable, Sequence

Row = Sequence[int]
Sparse = dict[int, int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0.

    >>> xgcd(12, 18)
    (6, -1, 1)
    >>> xgcd(0, -7)
    (7, 0, -1)
    """
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _sparse(row: Row | Sparse, ambient: int) -> Sparse:
    """The nonzero entries of a dense row of length ``ambient``, or of a
    {column: value} dict whose columns lie in [0, ambient), as a new dict."""
    if isinstance(row, dict):
        if row and not (0 <= min(row) and max(row) < ambient):
            raise ValueError(f"columns {min(row)}..{max(row)} outside [0, {ambient})")
        return {c: x for c, x in row.items() if x}
    if len(row) != ambient:
        raise ValueError(f"row length {len(row)} != ambient {ambient}")
    return {c: row[c] for c in compress(range(ambient), row)}


def _combine(s: int, a: Sparse, t: int, b: Sparse) -> Sparse:
    """s*a + t*b over the union of their columns, zeros dropped."""
    return {c: x for c in a.keys() | b.keys() if (x := s * a.get(c, 0) + t * b.get(c, 0))}


def _reduce(
    w: Sparse, echelon: dict[int, Sparse], after: int = -1, quotients: Sparse | None = None
) -> Sparse:
    """Reduce ``w`` in place against the rows of ``echelon`` (keyed by their
    pivot columns): at each pivot column right of ``after`` that w holds,
    in increasing order, subtract the floor quotient times its row.  A
    column that w does not hold gives quotient 0, and a row adds only
    columns right of its pivot, so this is the dense pass over the rows.

    The nonzero quotients go into ``quotients``, keyed by pivot.  A later
    row is zero at an earlier pivot, so that entry ends as the remainder of
    its division: when nothing remains, every division was exact and the
    quotients are the coordinates of w over the rows."""
    heap = [c for c in w if c > after and c in echelon]
    heapify(heap)
    while heap:
        j = heappop(heap)
        if j in w and (q := w[j] // (r := echelon[j])[j]):
            if quotients is not None:
                quotients[j] = q
            for c, rc in r.items():
                x = w.get(c)
                if x is None:
                    w[c] = -q * rc
                    if c in echelon:
                        heappush(heap, c)
                elif x := x - q * rc:
                    w[c] = x
                else:
                    del w[c]
    return w


class LatticeBuilder:
    """Streaming row-HNF accumulator for a sublattice of Z^ambient.

    Rows are folded one at a time; the builder keeps an echelon basis with
    strictly increasing pivot columns and positive pivots.  ``add`` returns
    True when the row enlarged the lattice, for fixpoint loops such as
    ``orbit_span``, which queues the images of exactly those rows and skips
    an image that repeats a queued row up to sign.  Call ``snapshot`` for
    the canonical Hermite form.

    ``add`` takes a dense row or a {column: value} dict.  ``echelon`` maps
    each pivot to its row, the dict of its nonzero entries; ``rows`` and
    ``pivots`` list them in pivot order.

    Each step of ``add`` reduces the row v against every pivot it holds
    (``_reduce``, the one reduction kernel), and stops when nothing
    remains.  If the leading column j of the remainder is no pivot, v is
    stored there with a positive leading entry.  Otherwise v[j] is a
    nonzero remainder of the pivot entry a, and xgcd(a, v[j]) replaces row
    j by a combination with pivot entry g < a, reduced against the later
    pivots, and leaves a row zero at j for the next step.  So every row is
    stored reduced against the pivots right of its own: unreduced rows feed
    each other, and their entries grow to thousands of bits on torsion
    spins while the Hermite form's stay small.

    >>> LatticeBuilder(2, [[0, 1], [1, 5]]).echelon
    {1: {1: 1}, 0: {0: 1}}
    """

    __slots__ = ("ambient", "echelon")

    def __init__(self, ambient: int, rows: Iterable[Row | Sparse] = ()):
        self.ambient = ambient
        self.echelon: dict[int, Sparse] = {}
        for row in rows:
            self.add(row)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.echelon)

    @property
    def rows(self) -> list[Sparse]:
        return [self.echelon[j] for j in self.pivots]

    def add(self, row: Row | Sparse) -> bool:
        v = _sparse(row, self.ambient)
        echelon = self.echelon
        changed = False
        while _reduce(v, echelon):
            j = min(v)
            r = echelon.get(j)
            if r is None:
                echelon[j] = v if v[j] > 0 else {c: -x for c, x in v.items()}
                return True
            # 0 < v[j] < r[j]: the remainder at j, so r[j] does not divide it
            a, b = r[j], v[j]
            g, x, y = xgcd(a, b)
            echelon[j] = _reduce(_combine(x, r, y, v), echelon, j)
            v = _combine(a // g, v, -(b // g), r)
            changed = True
        return changed

    def reduce(self, row: Row | Sparse) -> Sparse:
        """Nonzero entries of the remainder of ``row`` after reduction
        against the basis."""
        return _reduce(_sparse(row, self.ambient), self.echelon)

    def contains(self, row: Row | Sparse) -> bool:
        return not self.reduce(row)

    def rank(self) -> int:
        return len(self.echelon)

    def snapshot(self) -> "SubmoduleLattice":
        """Canonical Hermite form of the accumulated lattice."""
        return _hermite(self.ambient, self.echelon)


def _hermite(ambient: int, echelon: dict[int, Sparse]) -> SubmoduleLattice:
    """Canonical Hermite form of the echelon rows ``echelon`` (keyed by
    their pivots), which are left as they are.

    Entries above each pivot are reduced into [0, pivot).  The dense form
    reduces, for each pivot in increasing order, every earlier row against
    it; so row k is changed only by the rows i > k, in increasing i, while
    those are still unreduced, and is reduced here on its own against them."""
    return SubmoduleLattice(
        ambient, {j: _reduce(dict(echelon[j]), echelon, j) for j in sorted(echelon)}
    )


@dataclass(frozen=True)
class SubmoduleLattice:
    """A sublattice of Z^ambient, stored as its canonical row HNF:
    ``echelon`` maps each pivot column, in increasing order, to the
    {column: value} dict of its Hermite row's nonzero entries.  Equal
    lattices compare equal.  ``rows`` writes the basis out dense on first
    use."""

    ambient: int
    echelon: dict[int, Sparse]

    @classmethod
    def from_rows(cls, ambient: int, rows: Iterable[Row | Sparse]) -> "SubmoduleLattice":
        return LatticeBuilder(ambient, rows).snapshot()

    @classmethod
    def zero(cls, ambient: int) -> "SubmoduleLattice":
        return cls(ambient, {})

    @classmethod
    def full(cls, ambient: int) -> "SubmoduleLattice":
        return cls(ambient, {j: {j: 1} for j in range(ambient)})

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self.echelon)

    @property
    def rank(self) -> int:
        return len(self.echelon)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The Hermite rows as dense tuples, in pivot order."""
        dense = []
        for w in self.echelon.values():
            d = [0] * self.ambient
            for c, x in w.items():
                d[c] = x
            dense.append(tuple(d))
        return tuple(dense)

    # the builder's own: both read only ``ambient`` and ``echelon``
    reduce = LatticeBuilder.reduce
    contains = LatticeBuilder.contains

    def is_saturated(self) -> bool:
        """True iff Z^ambient / self is torsion-free.

        All pivots equal to 1 exhibits a unimodular maximal minor, which
        settles it; otherwise fall back to the Smith invariant factors
        (pivots > 1 do not by themselves rule saturation out, e.g. the
        span of (2, 1))."""
        if all(w[j] == 1 for j, w in self.echelon.items()):
            return True
        return all(d == 1 for d in smith_normal_form([*self.echelon.values()], self.ambient))

    def contains_lattice(self, other: "SubmoduleLattice") -> bool:
        return all(map(self.contains, other.echelon.values()))

    def coordinates_of(self, row: Row | Sparse) -> list[int] | None:
        """Coefficients c with ``row = sum c_i * rows[i]``, or None: the
        quotients of ``reduce``, exact when nothing remains."""
        quotients: Sparse = {}
        if _reduce(_sparse(row, self.ambient), self.echelon, quotients=quotients):
            return None
        return [quotients.get(j, 0) for j in self.echelon]

    def sum_with(self, other: "SubmoduleLattice") -> "SubmoduleLattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return SubmoduleLattice.from_rows(
            self.ambient, [*self.echelon.values(), *other.echelon.values()]
        )

    def quotient_invariants(self, inner: "SubmoduleLattice") -> "AbelianInvariants":
        """Invariants of self/inner; raises if inner is not contained."""
        rel = []
        for row in inner.echelon.values():
            coords = self.coordinates_of(row)
            if coords is None:
                raise ValueError("inner lattice is not contained in outer lattice")
            rel.append(coords)
        return cokernel_invariants(rel, self.rank)

    def action_trace(self, action_map: Row) -> int:
        """Trace on this lattice of the coordinate permutation ``action_map``,
        under which coordinate i moves to ``action_map[i]``; the map must
        preserve the lattice (checked).  The trace is the sum over the rows
        of the image's coordinate at the row's own pivot."""
        tr = 0
        for j, w in self.echelon.items():
            quotients: Sparse = {}
            if _reduce({action_map[c]: x for c, x in w.items()}, self.echelon, quotients=quotients):
                raise ValueError("map does not preserve the lattice")
            tr += quotients.get(j, 0)
        return tr


def orbit_span(
    ambient: int, seeds: Iterable[Row], maps: Sequence[Row], stable: Iterable[Row | Sparse] = ()
) -> SubmoduleLattice:
    """Hermite form of the span of ``stable`` and of the orbits of the
    ``seeds`` under the group generated by the coordinate permutations
    ``maps``.  ``stable`` must be closed under the maps already; it is not
    spun.  Every row that enlarges the lattice has its images under the maps
    queued in turn, so the result is closed under the group (spinning:
    Parker, "The computer calculation of modular characters", 1984).

    Rows wait in the work list as the sorted (column, value) pairs of their
    nonzero entries; a map moves the columns, and a row goes to the builder
    as the dict of those pairs.  A row equal up to sign to one queued before
    it is skipped: the work list is first in, first out, so the earlier row
    is folded first, and the builder would reduce the repeat to zero
    without changing a row.  The builder thus passes through the same
    states as when every image is folded.

    >>> orbit_span(3, [[1, -1, 0]], [(1, 0, 2), (0, 2, 1)]).rows
    ((1, 0, -1), (0, 1, -1))
    >>> orbit_span(3, [[1, 1, 0]], [(1, 2, 0)]).rows   # a 3-cycle
    ((1, 0, 1), (0, 1, 1), (0, 0, 2))

    The swap maps (1, -1) to (-1, 1), which is skipped, so the builder
    folds one row:

    >>> folded, add = [], LatticeBuilder.add
    >>> LatticeBuilder.add = lambda self, row: folded.append(row) or add(self, row)
    >>> orbit_span(2, [[1, -1]], [(1, 0)]).rows, folded
    (((1, -1),), [{0: 1, 1: -1}])
    >>> LatticeBuilder.add = add
    """
    builder = LatticeBuilder(ambient, stable)
    work: deque[tuple[tuple[int, int], ...]] = deque()
    seen = set()

    def queue(entries: tuple[tuple[int, int], ...]) -> None:
        key = tuple((c, -x) for c, x in entries) if entries and entries[0][1] < 0 else entries
        if key not in seen:
            seen.add(key)
            work.append(entries)

    for seed in seeds:
        if len(seed) != ambient:
            raise ValueError(f"row length {len(seed)} != ambient {ambient}")
        queue(tuple((c, x) for c, x in enumerate(seed) if x))
    while work:
        entries = work.popleft()
        if builder.add(dict(entries)):
            for m in maps:
                queue(tuple(sorted((m[c], x) for c, x in entries)))
    return builder.snapshot()


def split_hnf(
    pairs: Iterable[tuple[Row | Sparse, Row | Sparse]], head: int, tail: int
) -> tuple[LatticeBuilder, SubmoduleLattice, SubmoduleLattice]:
    """One echelon fold of the rows [h | t] for the (h, t) in ``pairs``;
    each part is a dense row or a {column: value} dict, and each [h | t]
    is handed to the builder as one dict.

    Returns (whole, image, relations): ``image`` is the Hermite form of the
    heads h in Z^head, ``relations`` the Hermite form of the tails
    sum c_i t_i whose heads cancel (sum c_i h_i = 0) in Z^tail, and
    ``whole`` the echelon fold left with only its head-pivot rows, against
    which ``preimage`` lifts a vector of the image to a tail (Cohen, *A
    Course in Computational Algebraic Number Theory*, 1993, 2.4).  The order
    of the pairs changes the cost and ``whole``, never ``image`` or
    ``relations``.

    >>> _, image, relations = split_hnf([([1, 2], [1, 0]), ([2, 4], [0, 1])], 2, 2)
    >>> image.rows, relations.rows
    (((1, 2),), ((2, -1),))
    """
    whole = LatticeBuilder(
        head + tail,
        (_sparse(h, head) | {head + c: x for c, x in _sparse(t, tail).items()} for h, t in pairs),
    )
    echelon, pivots = whole.echelon, whole.pivots
    k = bisect_left(pivots, head)
    # a row whose pivot lies in the tail has a zero head; move it out
    moved = {j - head: {c - head: x for c, x in echelon.pop(j).items()} for j in pivots[k:]}
    heads = {j: {c: x for c, x in echelon[j].items() if c < head} for j in pivots[:k]}
    return whole, _hermite(head, heads), _hermite(tail, moved)


def preimage(whole: LatticeBuilder, u: Row | Sparse, head: int | None = None) -> list[int] | None:
    """A tail t with [u | t] in the fold ``whole`` of ``split_hnf``, or None
    when u is not in its image.  ``u`` is a dense row of the head width
    ``head`` (by default its length) or a {column: value} dict, which needs
    ``head``."""
    if head is None:
        if isinstance(u, dict):
            raise TypeError("a {column: value} row needs the head width")
        head = len(u)
    v = _reduce(_sparse(u, head), whole.echelon)
    if v and min(v) < head:
        return None
    return [-v.get(c, 0) for c in range(head, whole.ambient)]


def smith_normal_form(rows: Sequence[Row | Sparse], ambient: int) -> list[int]:
    """Diagonal of the Smith normal form: d_1 | d_2 | ... | d_r, all > 0.

    ``rows`` are relations in Z^ambient; only the nonzero diagonal is
    returned (its length is the rank of the matrix).  Each row of the first
    Hermite form with pivot 1 is a diagonal 1 on its own: the canonical
    form reduces the entries above a unit pivot to 0, so its column is zero
    in every other row, and column operations clear the rest of its row
    without touching them.  Hermite folds of the other rows and of their
    transpose then alternate until each row has one nonzero entry; pairwise
    gcd/lcm makes that diagonal a divisor chain (Kannan and Bachem, SIAM J.
    Comput. 8, 1979; Cohen 1993, 2.4.4).

    >>> smith_normal_form([[2, 0], [0, 3]], 2)
    [1, 6]
    >>> smith_normal_form([[0, 0], [0, 0]], 2)
    []
    """
    h = LatticeBuilder(ambient, rows).snapshot()
    rest = [w for j, w in h.echelon.items() if w[j] != 1]
    units = h.rank - len(rest)
    # terminates: each round's first pivot divides the last one, so it
    # settles, and then its row and column clear and the minor follows
    while any(len(w) > 1 for w in rest):
        columns: dict[int, Sparse] = {}
        for k, w in enumerate(rest):
            for c, x in w.items():
                columns.setdefault(c, {})[k] = x
        h = LatticeBuilder(len(rest), [columns[c] for c in sorted(columns)]).snapshot()
        rest = [*h.echelon.values()]
    diag = [x for w in rest for x in w.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return [1] * units + diag


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group, Z^free_rank + sum of Z/d_i.

    ``torsion`` is the invariant factor chain: each d_i > 1 and
    d_1 | d_2 | ... | d_k.

    >>> AbelianInvariants((2, 6), 1).cyclic_count
    3
    >>> str(AbelianInvariants((2, 6), 1))
    'Z x Z/2 x Z/6'
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors must divide: {self.torsion}")
        if any(d < 2 for d in self.torsion):
            raise ValueError(f"invariant factors must be > 1: {self.torsion}")

    @classmethod
    def from_diagonal(cls, diag: Sequence[int], ambient: int) -> "AbelianInvariants":
        """Cokernel Z^ambient / (relations with SNF diagonal ``diag``)."""
        return cls(tuple(d for d in diag if d > 1), ambient - len(diag))

    @property
    def cyclic_count(self) -> int:
        return self.free_rank + len(self.torsion)

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return None if self.free_rank else prod(self.torsion, start=1)

    def elementary_divisors(self) -> tuple[int, ...]:
        """Sorted prime-power decomposition of the torsion part."""
        out = []
        for d in self.torsion:
            for p, k in _factorize(d).items():
                out.append(p**k)
        return tuple(sorted(out))

    def codim(self, q: int) -> int:
        """Number of Z_q summands: free rank for q = 0, count of invariant
        factors with p-primary part exactly q = p^k otherwise."""
        if q == 0:
            return self.free_rank
        p = _prime_power_base(q)
        if p is None:
            raise ValueError(f"q must be 0 or a prime power, got {q}")
        count = 0
        for d in self.torsion:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if p**e == q and e > 0:
                count += 1
        return count

    def per_q(self) -> dict[int, int]:
        """All nonzero codim counts, keyed by q (0 and prime powers)."""
        out: dict[int, int] = {}
        if self.free_rank:
            out[0] = self.free_rank
        for q in sorted(set(self.elementary_divisors())):
            out[q] = self.codim(q)
        return out

    def direct_sum(self, *others: "AbelianInvariants") -> "AbelianInvariants":
        groups = (self,) + others
        primes: dict[int, list[int]] = {}
        for g in groups:
            for d in g.elementary_divisors():
                p = _prime_power_base(d)
                assert p is not None
                primes.setdefault(p, []).append(d)
        for p in primes:
            primes[p].sort(reverse=True)
        k = max((len(v) for v in primes.values()), default=0)
        chain = []
        for i in range(k):
            d = prod(v[i] for v in primes.values() if i < len(v))
            chain.append(d)
        chain.reverse()
        return AbelianInvariants(tuple(chain), sum(g.free_rank for g in groups))

    def power(self, k: int) -> "AbelianInvariants":
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return AbelianInvariants()
        return self.direct_sum(*([self] * (k - 1)))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"torsion": list(self.torsion), "free_rank": self.free_rank}

    @classmethod
    def from_json(cls, data: dict) -> "AbelianInvariants":
        return cls(tuple(int(d) for d in data["torsion"]), int(data["free_rank"]))


def _factorize(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1 if p == 2 else 2
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out

def _prime_power_base(q: int) -> int | None:
    """The prime p when q = p^k (k >= 1), else None."""
    if q < 2:
        return None
    f = _factorize(q)
    return next(iter(f)) if len(f) == 1 else None


def cokernel_invariants(relations: Sequence[Row | Sparse], ambient: int) -> AbelianInvariants:
    """Invariants of Z^ambient / row-span(relations); each relation is a
    dense row or a {column: value} dict.

    >>> cokernel_invariants([[2, 0], [0, 3]], 2)
    AbelianInvariants(torsion=(6,), free_rank=0)
    """
    return AbelianInvariants.from_diagonal(smith_normal_form(relations, ambient), ambient)


# ---------------------------------------------------------------------------
# image of Z^c -> prod_i Z/m_i given by evaluation rows
# ---------------------------------------------------------------------------

def _clean_rows(rows: Iterable[tuple[Row, int]]) -> list[tuple[list[int], int]]:
    """Normalise (vector, modulus) constraints; drop duplicates and zeros."""
    out: list[tuple[list[int], int]] = []
    seen: set[tuple[int, ...]] = set()
    for vec, m in rows:
        if m < 0:
            raise ValueError("negative modulus")
        if m == 0:
            v = list(vec)
            if not any(v):
                continue
            lead = next(c for c in v if c)
            if lead < 0:
                v = [-c for c in v]
        else:
            v = [c % m for c in vec]
            if not any(v):
                continue
            v = min(v, [(m - c) % m for c in v])
        key = (m, *v)
        if key not in seen:
            seen.add(key)
            out.append((v, m))
    return out


def _evaluation_fold(rows: Iterable[tuple[Row, int]], columns: int, tail: int) -> tuple:
    """One ``split_hnf`` of Z^columns -> prod Z/m_i: the columns [A e_j | e_j]
    of the cleaned functionals A, tails cut to ``tail`` entries, and the rows
    [m_i e_i | 0] spanning the moduli lattice D (free functionals add none).
    Returns (D, image, relations): the image is A Z^columns + D, and with
    ``tail`` = columns the relations are the kernel {v : A v in D}.

    Each head A e_j is the {functional index: value} dict of its nonzeros,
    each unit tail {j: 1}, or {} from ``tail`` on.  The columns go
    last-first.  The tails already folded touch only columns above j, so a
    relation met while folding column j has its pivot at j, left of every
    relation so far: it is inserted without meeting the other relations,
    and the Hermite form has no dense triangle to back-reduce."""
    functionals = _clean_rows(rows)
    r = len(functionals)
    moduli = {k: {k: m} for k, (_, m) in enumerate(functionals) if m}
    heads: list[Sparse] = [{} for _ in range(columns)]
    for k, (v, _) in enumerate(functionals):
        if len(v) != columns:
            raise ValueError(f"row length {len(v)} != columns {columns}")
        for j in compress(range(columns), v):
            heads[j][k] = v[j]
    units = ({j: 1} if j < tail else {} for j in range(columns))
    pairs = [*zip(heads, units)][::-1] + [(d, {}) for d in moduli.values()]
    _, image, relations = split_hnf(pairs, r, tail)
    return SubmoduleLattice(r, moduli), image, relations


def image_invariants(rows: Iterable[tuple[Row, int]], columns: int) -> AbelianInvariants:
    """Invariants of the image of the evaluation map Z^columns -> prod Z/m_i.

    Each element of ``rows`` is a pair (vector, m): one linear functional
    landing in Z/m (m = 0 means Z).  The image is (A Z^columns + D) / D, the
    heads of a heads-only ``_evaluation_fold`` modulo the moduli lattice D,
    whose rows m_i e_i are a Hermite form already.

    >>> image_invariants([([1, 0], 2), ([0, 1], 2)], 2)
    AbelianInvariants(torsion=(2, 2), free_rank=0)
    >>> image_invariants([([0, 0], 7)], 2)      # zero map: trivial image
    AbelianInvariants(torsion=(), free_rank=0)
    """
    moduli, image, _ = _evaluation_fold(rows, columns, 0)
    return image.quotient_invariants(moduli)


def evaluation_kernel(rows: Iterable[tuple[Row, int]], columns: int) -> SubmoduleLattice:
    """The lattice {v in Z^columns : row . v == 0 (mod m) for every row}.

    This is the relation lattice of the image computed by
    ``image_invariants``: Z^columns / kernel is isomorphic to the image.

    >>> evaluation_kernel([([1, 1], 2), ([1, -1], 0)], 2).rows
    ((1, 1),)
    """
    return _evaluation_fold(rows, columns, columns)[2]


def field_rank(rows: Iterable[Row], columns: int, q: int = 0) -> int:
    """Rank of the matrix over Q (q = 0) or over F_q (q prime).

    >>> field_rank([[2, 4], [1, 2]], 2)
    1
    >>> field_rank([[2, 4], [1, 3]], 2, q=2)
    1
    """
    if q == 0:
        return LatticeBuilder(columns, rows).rank()
    if q < 2 or _prime_power_base(q) != q:
        raise ValueError(f"q must be 0 or prime, got {q}")
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        s = _sparse(row, columns)
        v = [s.get(c, 0) % q for c in range(columns)]
        for r, p in zip(reduced, pivots):
            if v[p]:
                f = v[p] * pow(r[p], -1, q) % q
                v = [(a - f * b) % q for a, b in zip(v, r)]
        j = next((c for c in range(columns) if v[c]), None)
        if j is not None:
            reduced.append(v)
            pivots.append(j)
            order = sorted(range(len(pivots)), key=pivots.__getitem__)
            reduced = [reduced[i] for i in order]
            pivots = [pivots[i] for i in order]
    return len(reduced)


# ---------------------------------------------------------------------------
# JSON helpers for exact integer payloads
# ---------------------------------------------------------------------------

_SAFE_INT = 2**53

def json_sanitize(obj):
    """Recursively convert ints beyond 2**53 to decimal strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _SAFE_INT else obj
    if isinstance(obj, dict):
        return {k: json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    return obj

def json_restore_int(value):
    """Inverse of ``json_sanitize``: decimal strings back to ints, recursing
    into containers; non-numeric strings pass through unchanged."""
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return value
    if isinstance(value, dict):
        return {k: json_restore_int(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_restore_int(v) for v in value]
    return value
