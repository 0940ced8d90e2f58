"""Exact integer linear algebra on row lattices.

Everything here works over Z with arbitrary-precision Python ints: Hermite
normal form (row style, canonical), Smith normal form, finitely generated
abelian group invariants, and the kernel/image computations needed to turn
an integer evaluation matrix with mixed cyclic target moduli into abelian
invariants.

Vectors are rows throughout; a lattice is the row span of a matrix, and a
map acts on the right (``v @ M``).  Matrices are plain ``list[list[int]]``
(or tuples of tuples once frozen) -- no floats anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Callable, Iterable, Sequence

Row = Sequence[int]


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


class _Echelon:
    """Reduction against echelon ``rows`` with strictly increasing
    ``pivots``, shared by the streaming builder and the frozen lattice."""

    __slots__ = ()

    def reduce(self, row: Row) -> list[int]:
        """Remainder of ``row`` after reduction against the basis."""
        v = list(row)
        for r, j in zip(self.rows, self.pivots):
            q = v[j] // r[j]
            if q:
                v = [a - q * b for a, b in zip(v, r)]
        return v

    def contains(self, row: Row) -> bool:
        return not any(self.reduce(row))


class LatticeBuilder(_Echelon):
    """Streaming row-HNF accumulator for a sublattice of Z^ambient.

    Rows are folded one at a time; the builder keeps an echelon basis with
    strictly increasing pivot columns and positive pivots.  ``add`` returns
    True when the row enlarged the lattice, so fixpoint loops (orbit
    closures, consequence closures) can detect stabilisation.  Call
    ``snapshot`` for the canonical Hermite form.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: Iterable[Row] = ()):
        self.ambient = ambient
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def add(self, row: Row) -> bool:
        v = list(row)
        if len(v) != self.ambient:
            raise ValueError(f"row length {len(v)} != ambient {self.ambient}")
        changed = False
        i = 0
        while True:
            j = next((c for c in range(self.ambient) if v[c]), None)
            if j is None:
                return changed
            while i < len(self.pivots) and self.pivots[i] < j:
                i += 1
            if i < len(self.pivots) and self.pivots[i] == j:
                r = self.rows[i]
                a, b = r[j], v[j]
                if b % a == 0:
                    q = b // a
                    for c in range(j, self.ambient):
                        v[c] -= q * r[c]
                else:
                    g, x, y = xgcd(a, b)
                    self.rows[i] = [x * rc + y * vc for rc, vc in zip(r, v)]
                    v = [(a // g) * vc - (b // g) * rc for rc, vc in zip(r, v)]
                    changed = True
            else:
                if v[j] < 0:
                    v = [-c for c in v]
                self.rows.insert(i, v)
                self.pivots.insert(i, j)
                return True

    def rank(self) -> int:
        return len(self.rows)

    def _back_reduce(self) -> None:
        # increasing pivot order: rows are echelon, so reducing against a
        # later pivot never reintroduces entries in an earlier pivot column
        for i in range(len(self.rows)):
            p = self.rows[i][self.pivots[i]]
            for k in range(i):
                q = self.rows[k][self.pivots[i]] // p
                if q:
                    self.rows[k] = [a - q * b for a, b in zip(self.rows[k], self.rows[i])]

    def snapshot(self) -> "SubmoduleLattice":
        """Canonical Hermite form of the accumulated lattice."""
        self._back_reduce()
        return SubmoduleLattice(
            self.ambient,
            tuple(tuple(r) for r in self.rows),
            tuple(self.pivots),
        )


def hnf(rows: Iterable[Row], ambient: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero
    rows are dropped and pivot columns increase strictly.  The result is a
    complete lattice invariant: two row sets span the same lattice iff
    their ``hnf`` outputs are equal.

    >>> hnf([[2, 4], [1, 3]])
    ((1, 1), (0, 2))
    >>> hnf([[0, 0], [0, 0]], ambient=2)
    ()
    """
    rows = [list(r) for r in rows]
    if ambient is None:
        if not rows:
            raise ValueError("ambient dimension required for an empty row set")
        ambient = len(rows[0])
    return LatticeBuilder(ambient, rows).snapshot().rows


@dataclass(frozen=True)
class SubmoduleLattice(_Echelon):
    """A sublattice of Z^ambient, stored as its canonical row HNF."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, ambient: int, rows: Iterable[Row]) -> "SubmoduleLattice":
        return LatticeBuilder(ambient, rows).snapshot()

    @classmethod
    def zero(cls, ambient: int) -> "SubmoduleLattice":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "SubmoduleLattice":
        eye = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        return cls(ambient, eye, tuple(range(ambient)))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_saturated(self) -> bool:
        """True iff Z^ambient / self is torsion-free.

        All pivots equal to 1 exhibits a unimodular maximal minor, which
        settles it; otherwise fall back to the Smith invariant factors
        (pivots > 1 do not by themselves rule saturation out, e.g. the
        span of (2, 1))."""
        if all(r[p] == 1 for r, p in zip(self.rows, self.pivots)):
            return True
        return all(d == 1 for d in smith_normal_form(self.rows, self.ambient))

    def contains_lattice(self, other: "SubmoduleLattice") -> bool:
        return all(self.contains(r) for r in other.rows)

    def coordinates_of(self, row: Row) -> list[int] | None:
        """Coefficients c with ``row = sum c_i * rows[i]``, or None."""
        v = list(row)
        coords = []
        for i, p in enumerate(self.pivots):
            q, rem = divmod(v[p], self.rows[i][p])
            if rem:
                return None
            coords.append(q)
            if q:
                r = self.rows[i]
                v = [a - q * b for a, b in zip(v, r)]
        return coords if not any(v) else None

    def sum_with(self, other: "SubmoduleLattice") -> "SubmoduleLattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return SubmoduleLattice.from_rows(self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other: "SubmoduleLattice") -> "SubmoduleLattice":
        """Intersection, via relations between the two row families."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        tb = TransformBuilder(self.ambient)
        for r in self.rows:
            tb.add(r)
        for r in other.rows:
            tb.add([-c for c in r])
        n1 = len(self.rows)
        return SubmoduleLattice.from_rows(
            self.ambient,
            (
                _combine([(i, c) for i, c in rel.items() if i < n1], self.rows, self.ambient)
                for rel in tb.kernel_rows
            ),
        )

    def quotient_invariants(self, inner: "SubmoduleLattice") -> "AbelianInvariants":
        """Invariants of self/inner; raises if inner is not contained."""
        rel = []
        for row in inner.rows:
            coords = self.coordinates_of(row)
            if coords is None:
                raise ValueError("inner lattice is not contained in outer lattice")
            rel.append(coords)
        return cokernel_invariants(rel, self.rank)

    def action_trace(self, image_of: Callable[[tuple[int, ...]], Row]) -> int:
        """Trace of a linear map that preserves this lattice.

        ``image_of`` maps a basis row to its image vector; the images must
        all lie in the lattice again (checked).
        """
        tr = 0
        for i, row in enumerate(self.rows):
            coords = self.coordinates_of(image_of(row))
            if coords is None:
                raise ValueError("map does not preserve the lattice")
            tr += coords[i]
        return tr


class TransformBuilder:
    """Row-HNF fold that additionally tracks how each basis row and each
    discovered relation is expressed in terms of the input rows.

    Combination coefficients are kept as sparse dicts {input_index: coeff},
    so feeding thousands of rows stays cheap.  ``kernel_rows`` accumulates
    the left-kernel of the input matrix (complete once all rows are added).
    """

    __slots__ = ("ambient", "rows", "pivots", "combos", "kernel_rows", "_count")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.combos: list[dict[int, int]] = []
        self.kernel_rows: list[dict[int, int]] = []
        self._count = 0

    @staticmethod
    def _axpy(d: dict[int, int], c: int, other: dict[int, int]) -> dict[int, int]:
        if not c:
            return d
        out = dict(d)
        for k, v in other.items():
            nv = out.get(k, 0) + c * v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return out

    def add(self, row: Row) -> int:
        """Fold one row; returns the input index assigned to it."""
        idx = self._count
        self._count += 1
        v = list(row)
        combo = {idx: 1}
        i = 0
        while True:
            j = next((c for c in range(self.ambient) if v[c]), None)
            if j is None:
                if combo:
                    self.kernel_rows.append(combo)
                return idx
            while i < len(self.pivots) and self.pivots[i] < j:
                i += 1
            if i < len(self.pivots) and self.pivots[i] == j:
                r, rc = self.rows[i], self.combos[i]
                a, b = r[j], v[j]
                if b % a == 0:
                    q = b // a
                    v = [x - q * y for x, y in zip(v, r)]
                    combo = self._axpy(combo, -q, rc)
                else:
                    g, x, y = xgcd(a, b)
                    self.rows[i] = [x * p + y * q for p, q in zip(r, v)]
                    self.combos[i] = self._axpy(
                        {k: x * c for k, c in rc.items() if x * c}, y, combo
                    )
                    v = [(a // g) * q - (b // g) * p for p, q in zip(r, v)]
                    combo = self._axpy(
                        {k: (a // g) * c for k, c in combo.items() if c}, -(b // g), rc
                    )
            else:
                if v[j] < 0:
                    v = [-c for c in v]
                    combo = {k: -c for k, c in combo.items()}
                self.rows.insert(i, v)
                self.pivots.insert(i, j)
                self.combos.insert(i, combo)
                return idx

    def image(self) -> SubmoduleLattice:
        lb = LatticeBuilder(self.ambient)
        for r in self.rows:
            lb.add(r)
        return lb.snapshot()

    def solve(self, target: Row) -> dict[int, int] | None:
        """Express ``target`` as a combination of the *input* rows."""
        v = list(target)
        combo: dict[int, int] = {}
        for i, p in enumerate(self.pivots):
            q, rem = divmod(v[p], self.rows[i][p])
            if rem:
                return None
            if q:
                v = [a - q * b for a, b in zip(v, self.rows[i])]
                combo = self._axpy(combo, q, self.combos[i])
        return combo if not any(v) else None


def kernel_basis(rows: Sequence[Row], ambient: int) -> list[list[int]]:
    """Basis of the right kernel {v : M @ v = 0} of the matrix with given rows.

    The kernel of an integer matrix is a saturated lattice, so this basis
    spans it over Z, not merely over Q.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [[int(i == j) for j in range(ambient)] for i in range(ambient)]
    tb = TransformBuilder(len(rows))
    for j in range(ambient):
        tb.add([rows[i][j] for i in range(len(rows))])
    out: list[list[int]] = []
    for rel in tb.kernel_rows:
        vec = [0] * ambient
        for idx, c in rel.items():
            vec[idx] = c
        out.append(vec)
    return [list(r) for r in LatticeBuilder(ambient, out).snapshot().rows]


def _combine(terms: Iterable[tuple[int, int]], rows: Sequence[Row], ambient: int) -> list[int]:
    """The vector sum c * rows[i] over the (i, c) pairs of ``terms``."""
    vec = [0] * ambient
    for i, c in terms:
        if c:
            vec = [a + c * x for a, x in zip(vec, rows[i])]
    return vec


def smith_normal_form(rows: Sequence[Row], ambient: int) -> list[int]:
    """Diagonal of the Smith normal form: d_1 | d_2 | ... | d_r, all > 0.

    ``rows`` are relations in Z^ambient; only the nonzero diagonal is
    returned (its length is the rank of the matrix).

    >>> smith_normal_form([[2, 0], [0, 3]], 2)
    [1, 6]
    >>> smith_normal_form([[0, 0], [0, 0]], 2)
    []
    """
    m = [list(r) for r in rows]
    R, C = len(m), ambient
    diag: list[int] = []
    i0 = 0
    j0 = 0
    while i0 < R and j0 < C:
        best = None
        for i in range(i0, R):
            for j in range(j0, C):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        while True:
            bi, bj = best
            if bi != i0:
                m[i0], m[bi] = m[bi], m[i0]
            if bj != j0:
                for row in m:
                    row[j0], row[bj] = row[bj], row[j0]
            p = m[i0][j0]
            dirty = False
            for i in range(i0 + 1, R):
                if m[i][j0]:
                    q = m[i][j0] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
                    if m[i][j0]:
                        dirty = True
            for j in range(j0 + 1, C):
                if m[i0][j]:
                    q = m[i0][j] // p
                    if q:
                        for i in range(i0, R):
                            m[i][j] -= q * m[i][j0]
                    if m[i0][j]:
                        dirty = True
            if dirty:
                best = None
                for i in range(i0, R):
                    for j in range(j0, C):
                        if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                            best = (i, j)
                continue
            p = abs(m[i0][j0])
            offender = next(
                (
                    i
                    for i in range(i0 + 1, R)
                    if any(m[i][j] % p for j in range(j0 + 1, C))
                ),
                None,
            )
            if offender is None:
                break
            m[i0] = [a + b for a, b in zip(m[i0], m[offender])]
            best = (i0, j0)
        diag.append(abs(m[i0][j0]))
        i0 += 1
        j0 += 1
    return diag


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


def cokernel_invariants(relations: Sequence[Row], ambient: int) -> AbelianInvariants:
    """Invariants of Z^ambient / row-span(relations).

    >>> cokernel_invariants([[2, 0], [0, 3]], 2)
    AbelianInvariants(torsion=(6,), free_rank=0)
    """
    return AbelianInvariants.from_diagonal(smith_normal_form(relations, ambient), ambient)


def lattice_quotient_invariants(
    outer: SubmoduleLattice, inner: SubmoduleLattice
) -> AbelianInvariants:
    """Invariants of outer/inner for nested sublattices of the same Z^ambient."""
    return outer.quotient_invariants(inner)


# ---------------------------------------------------------------------------
# image of Z^c -> prod_i Z/m_i given by evaluation rows
# ---------------------------------------------------------------------------

def _clean_rows(
    rows: Iterable[tuple[Row, int]],
) -> tuple[list[list[int]], list[tuple[list[int], int]]]:
    """Normalise (vector, modulus) constraints; drop duplicates and zeros."""
    free: list[list[int]] = []
    tors: list[tuple[list[int], int]] = []
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
            key = (0, *v)
            if key not in seen:
                seen.add(key)
                free.append(v)
        else:
            v = [c % m for c in vec]
            if not any(v):
                continue
            neg = [(m - c) % m for c in v]
            v = min(v, neg)
            key = (m, *v)
            if key not in seen:
                seen.add(key)
                tors.append((v, m))
    return free, tors


def _restricted_torsion(rows: Iterable[tuple[Row, int]], columns: int) -> tuple:
    """Prelude shared by ``image_invariants`` and ``evaluation_kernel``.

    Returns (h0, nbasis, level, hl): h0 is the Hermite form of the free
    (m = 0) rows; nbasis a basis of their common kernel N; level the lcm
    of the torsion moduli; and hl the Hermite form of the torsion rows
    restricted to N and scaled into Z/level, so that a vector u of
    N-coordinates satisfies every torsion row iff hl @ u == 0 (mod level).
    Without torsion rows N is not computed (nbasis and hl are None).
    """
    free, tors = _clean_rows(rows)
    h0 = hnf(free, columns) if free else ()
    if not tors:
        return h0, None, 0, None
    nbasis = kernel_basis(h0, columns)
    level = lcm(*[m for _, m in tors])
    hl = LatticeBuilder(len(nbasis))
    for vec, m in tors:
        s = level // m
        b = [s * sum(nb[j] * vec[j] for j in range(columns)) % level for nb in nbasis]
        if any(b):
            hl.add(b)
    return h0, nbasis, level, hl.snapshot()


def image_invariants(rows: Iterable[tuple[Row, int]], columns: int) -> AbelianInvariants:
    """Invariants of the image of the evaluation map Z^columns -> prod Z/m_i.

    Each element of ``rows`` is a pair (vector, m): one linear functional
    landing in Z/m (m = 0 means Z).  The free rows contribute their rank.
    The torsion part is the subgroup of (Z/level)^dim(N) spanned by the
    rows of the restricted Hermite form hl; a Smith diagonal d_1 | ... | d_k
    of hl makes it the sum of Z/(level / gcd(d_i, level)) (Storjohann and
    Mulders, "Fast algorithms for linear algebra modulo N", 1998).

    >>> image_invariants([([1, 0], 2), ([0, 1], 2)], 2)
    AbelianInvariants(torsion=(2, 2), free_rank=0)
    >>> image_invariants([([0, 0], 7)], 2)      # zero map: trivial image
    AbelianInvariants(torsion=(), free_rank=0)
    """
    h0, _, level, hl = _restricted_torsion(rows, columns)
    if hl is None:
        return AbelianInvariants((), len(h0))
    orders = [level // gcd(d, level) for d in smith_normal_form(hl.rows, hl.ambient)]
    return AbelianInvariants(tuple(reversed([d for d in orders if d > 1])), len(h0))


def evaluation_kernel(rows: Iterable[tuple[Row, int]], columns: int) -> SubmoduleLattice:
    """The lattice {v in Z^columns : row . v == 0 (mod m) for every row}.

    This is the relation lattice of the image computed by
    ``image_invariants``: Z^columns / kernel is isomorphic to the image.
    """
    h0, nbasis, level, hl = _restricted_torsion(rows, columns)
    if hl is None:
        return SubmoduleLattice.from_rows(columns, kernel_basis(h0, columns))
    cp, r = hl.ambient, hl.rank
    # u in the kernel iff hl @ u is divisible by `level` coordinatewise: the
    # right kernel of [hl | level*I] projected onto the u block.
    stacked = [[*row, *(level * (i == k) for k in range(r))] for i, row in enumerate(hl.rows)]
    relations = kernel_basis(stacked, cp + r)
    return SubmoduleLattice.from_rows(
        columns, (_combine(enumerate(rel[:cp]), nbasis, columns) for rel in relations)
    )


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
        v = [c % q for c in row]
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
