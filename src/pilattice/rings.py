"""Finitely generated rings presented by integer structure constants.

A model is an additive group  Z/m_1 x ... x Z/m_r  (m_k = 0 meaning Z)
with a bilinear multiplication given sparsely by basis products.  Rings
are not assumed unital or commutative; associativity, well-definedness of
the product against the additive torsion, and generation by the declared
generators are all checked at construction.

Every check runs on every model, but only where a product can be nonzero;
each restriction drops only products that are exactly zero:

- associativity: (e_i e_j) e_k is a sum of e_l e_k over l in the support
  of e_i e_j, so it vanishes unless (i, j) is a table key and some (l, k)
  is one; symmetrically for e_i (e_j e_k).  Only triples meeting one of
  the two conditions are compared.
- support masks: x * y vanishes unless some basis vector of y is a right
  factor of a table key whose left factor lies in the support of x.
- generation: once the generators and the additive relations span the
  whole coordinate lattice, no product can enlarge it, so the closure
  under products stops there.

Built-in families: cyclic rings Z/m, the 3-dimensional odd-looking
triangular model ut2(l, m) with basis e11, e22, e12, truncated exterior
(Grassmann) algebras over Z/l, and finite direct sums.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .lattices import (
    LatticeBuilder,
    json_restore_int,
    json_sanitize,
)
from .multilinear import MultilinearPoly

Coords = tuple[int, ...]
Sparse = dict[int, int]


def _reduce(value: int, modulus: int) -> int:
    return value % modulus if modulus else value


class RingModel:
    """A ring on basis e_0..e_{r-1} with additive moduli and a sparse
    multiplication table ``{(i, j): ((k, c), ...)}``."""

    def __init__(
        self,
        *,
        label: str,
        moduli: Sequence[int],
        table: Mapping[tuple[int, int], Iterable[tuple[int, int]]],
        generators: Sequence[Coords],
        unit: Coords | None = None,
        basis_names: Sequence[str] | None = None,
        family: str = "custom",
        params: tuple = (),
        support_masks: Sequence[int] | None = None,
    ):
        self.label = label
        self.moduli = tuple(int(m) for m in moduli)
        if any(m < 0 for m in self.moduli):
            raise ValueError("additive moduli must be >= 0")
        self.rank = len(self.moduli)
        self.family = family
        self.params = params
        tbl: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for (i, j), entries in table.items():
            cleaned = tuple(
                (k, c)
                for k, c in ((k, _reduce(c, self.moduli[k])) for k, c in entries)
                if c
            )
            if cleaned:
                tbl[(i, j)] = cleaned
        self.table = tbl
        # the same table indexed by left factor, then right factor, and the
        # left factors of the keys indexed by right factor
        self._products: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
        self._lefts: dict[int, list[int]] = {}
        for (i, j), entries in tbl.items():
            self._products.setdefault(i, {})[j] = entries
            self._lefts.setdefault(j, []).append(i)
        self.generators = tuple(self._reduce_coords(g) for g in generators)
        self.unit = self._reduce_coords(unit) if unit is not None else None
        self.basis_names = (
            tuple(basis_names)
            if basis_names is not None
            else tuple(f"e{k}" for k in range(self.rank))
        )
        if len(self.basis_names) != self.rank:
            raise ValueError("one name per basis vector required")
        self.support_masks = (
            tuple(support_masks) if support_masks is not None else None
        )
        self._key = (
            self.label,
            self.moduli,
            tuple(sorted(self.table.items())),
            self.generators,
            self.unit,
            self.support_masks,
        )
        self.validate()

    # -- identity / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RingModel) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        return f"RingModel({self.label!r}, rank={self.rank})"

    # -- arithmetic on coordinates ------------------------------------------

    def _reduce_coords(self, coords: Sequence[int]) -> Coords:
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return tuple(_reduce(c, m) for c, m in zip(coords, self.moduli))

    def mul_sparse(self, a: Sparse, b: Sparse) -> Sparse:
        out: Sparse = {}
        products = self._products
        for i, ca in a.items():
            row = products.get(i)
            if row:
                for j, cb in b.items():
                    for k, c in row.get(j, ()):
                        out[k] = out.get(k, 0) + ca * cb * c
        moduli = self.moduli
        for k, v in list(out.items()):
            m = moduli[k]
            if m:
                v %= m
            if v:
                out[k] = v
            else:
                del out[k]
        return out

    def element(self, coords: Sequence[int]) -> "RingElement":
        return RingElement(self, self._reduce_coords(coords))

    def basis_element(self, k: int) -> "RingElement":
        return self.element(tuple(1 if i == k else 0 for i in range(self.rank)))

    @property
    def zero(self) -> "RingElement":
        return self.element((0,) * self.rank)

    @property
    def one(self) -> "RingElement":
        if self.unit is None:
            raise ValueError(f"{self.label} has no declared unit")
        return self.element(self.unit)

    def generator_elements(self) -> tuple["RingElement", ...]:
        return tuple(self.element(g) for g in self.generators)

    # -- consistency checks ---------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError unless the table is well defined against the
        additive torsion and associative, every word through two generators
        with overlapping support masks vanishes, the declared unit is a
        two-sided identity and the generators generate the ring.

        Each check multiplies only where a product can be nonzero (see the
        module docstring).  The support-mask check multiplies generator a
        into a partner b only when b meets the right factors of some left
        reachable from a, so it reports the same first pair (a, b) as the
        unrestricted check."""
        for (i, j), entries in self.table.items():
            if not (0 <= i < self.rank and 0 <= j < self.rank):
                raise ValueError(f"table key {(i, j)} out of range")
            for k, c in entries:
                if not 0 <= k < self.rank:
                    raise ValueError(f"table target {k} out of range")
                mk = self.moduli[k]
                for source in (i, j):
                    scaled = self.moduli[source] * c
                    if _reduce(scaled, mk):
                        raise ValueError(
                            f"product e{i}*e{j} is not well defined against "
                            f"the additive torsion (entry {k})"
                        )
        # (e_i e_j) e_k = sum of c_l e_l e_k over l in the support of e_i e_j,
        # so it is zero unless (i, j) and some (l, k) are keys; likewise
        # e_i (e_j e_k) needs (j, k) and some (i, l).  Every other triple has
        # both sides zero.  Sorted, the first failure is the one a full
        # rank^3 walk in (i, j, k) order would report.
        pairs = {key: self.mul_sparse({key[0]: 1}, {key[1]: 1}) for key in self.table}
        triples = set()
        for (i, j), eij in pairs.items():
            for l in eij:
                triples.update((i, j, k) for k in self._products.get(l, ()))
        for (j, k), ejk in pairs.items():
            for l in ejk:
                triples.update((i, j, k) for i in self._lefts.get(l, ()))
        for i, j, k in sorted(triples):
            left = self.mul_sparse(pairs.get((i, j), {}), {k: 1})
            right = self.mul_sparse({i: 1}, pairs.get((j, k), {}))
            if left != right:
                raise ValueError(
                    f"multiplication not associative at (e{i}, e{j}, e{k})"
                )
        masks = self.support_masks
        if masks is not None:
            if len(masks) != len(self.generators):
                raise ValueError(
                    f"{len(masks)} support masks for {len(self.generators)} generators"
                )
            # generator_tuples skips every tuple in which two masks overlap,
            # so each word through such a pair must vanish: g_a * g_b = 0
            # and g_a * e_k * g_b = 0 for every basis vector e_k, since the
            # factors between them multiply out to a combination of the e_k.
            # x * y is only multiplied out when y meets the right factors
            # of x; otherwise it is zero.
            def rights(x: Sparse) -> set[int]:
                return {j for i in x for j in self._products.get(i, ())}

            gens = [{k: c for k, c in enumerate(g) if c} for g in self.generators]
            for a, ga in enumerate(gens):
                partners = [b for b, mb in enumerate(masks) if masks[a] & mb]
                if not partners:
                    continue
                lefts = [ga] + [
                    p for k in rights(ga) if (p := self.mul_sparse(ga, {k: 1}))
                ]
                reach = [(left, rights(left)) for left in lefts]
                reachable = set().union(*(keys for _, keys in reach))
                for b in partners:
                    if not reachable.isdisjoint(gens[b]) and any(
                        not keys.isdisjoint(gens[b]) and self.mul_sparse(left, gens[b])
                        for left, keys in reach
                    ):
                        raise ValueError(
                            f"generators {a} and {b} have overlapping support "
                            f"masks but a word through both is nonzero"
                        )
        if self.unit is not None:
            one = dict(enumerate(self.unit))
            one = {k: v for k, v in one.items() if v}
            for k in range(self.rank):
                ek = {k: 1}
                target = {k: _reduce(1, self.moduli[k])}
                target = {k: v for k, v in target.items() if v}
                if self.mul_sparse(one, ek) != target or self.mul_sparse(ek, one) != target:
                    raise ValueError("declared unit is not a two-sided identity")
        builder = LatticeBuilder(self.rank)
        for k, m in enumerate(self.moduli):
            if m:
                builder.add({k: m})
        for g in self.generators:
            builder.add(g)
        # close under products until the lattice is all of Z^rank (full rank,
        # every pivot 1), where no product can enlarge it any more; built-in
        # families get there from their generators alone; mul_sparse takes
        # the builder's {column: value} rows as they are
        while builder.rank() != self.rank or any(
            r[j] != 1 for r, j in zip(builder.rows, builder.pivots)
        ):
            rows = list(builder.rows)
            grown = False
            for a, b in itertools.product(rows, repeat=2):
                if builder.add(self.mul_sparse(a, b)):
                    grown = True
            if not grown:
                raise ValueError(
                    f"{self.label}: declared generators do not generate the ring"
                )

    def is_commutative(self) -> bool:
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.mul_sparse({i: 1}, {j: 1}) != self.mul_sparse({j: 1}, {i: 1}):
                    return False
        return True

    def characteristic(self) -> int:
        """Additive order of the unit (0 for infinite); requires a unit."""
        if self.unit is None:
            raise ValueError(f"{self.label} has no declared unit")
        ch = 1
        for c, m in zip(self.unit, self.moduli):
            if not c:
                continue
            if m == 0:
                return 0
            ch = math.lcm(ch, m // math.gcd(c, m))
        return ch

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "label": self.label,
            "family": self.family,
            "params": json_sanitize(list(self.params)),
            "rank": self.rank,
            "moduli": json_sanitize(list(self.moduli)),
            "table": [
                {"i": i, "j": j, "entries": json_sanitize([list(e) for e in entries])}
                for (i, j), entries in sorted(self.table.items())
            ],
            "generators": json_sanitize([list(g) for g in self.generators]),
            "unit": json_sanitize(list(self.unit)) if self.unit is not None else None,
            "basis_names": list(self.basis_names),
        }
        if self.support_masks is not None:
            doc["support_masks"] = json_sanitize(list(self.support_masks))
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "RingModel":
        family = doc.get("family", "custom")
        params = tuple(json_restore_int(p) for p in doc.get("params", []))
        rebuilt = _rebuild_known(family, params)
        if rebuilt is not None:
            stored = rebuilt.to_json()
            if "support_masks" not in doc:  # written before masks were stored
                stored.pop("support_masks", None)
            if stored != dict(doc):
                raise ValueError(
                    f"stored tables for {doc.get('label')} do not match the "
                    f"{family}{params} constructor"
                )
            return rebuilt
        table = {
            (entry["i"], entry["j"]): tuple(
                (k, json_restore_int(c)) for k, c in entry["entries"]
            )
            for entry in doc["table"]
        }
        unit = doc.get("unit")
        return cls(
            label=doc["label"],
            moduli=[json_restore_int(m) for m in doc["moduli"]],
            table=table,
            generators=[
                tuple(json_restore_int(c) for c in g) for g in doc["generators"]
            ],
            unit=tuple(json_restore_int(c) for c in unit) if unit is not None else None,
            basis_names=doc.get("basis_names"),
            family=family,
            params=params,
            support_masks=json_restore_int(doc.get("support_masks")),
        )


class RingElement:
    """An element of a :class:`RingModel`, stored as reduced coordinates."""

    __slots__ = ("model", "coords")

    def __init__(self, model: RingModel, coords: Coords):
        self.model = model
        self.coords = coords

    def sparse(self) -> Sparse:
        return {k: c for k, c in enumerate(self.coords) if c}

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return self.model.element(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return self.model.element(
            tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "RingElement":
        return self.model.element(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: int) -> "RingElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return self.model.element(tuple(scalar * a for a in self.coords))

    def __mul__(self, other) -> "RingElement":
        if isinstance(other, int):
            return self.__rmul__(other)
        self._check(other)
        prod = self.model.mul_sparse(self.sparse(), other.sparse())
        vec = [0] * self.model.rank
        for k, c in prod.items():
            vec[k] = c
        return self.model.element(tuple(vec))

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement) or other.model is not self.model:
            raise ValueError("elements belong to different ring models")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.model == other.model
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.model, self.coords))

    def __repr__(self) -> str:
        bits = [
            (f"{c}*" if c != 1 else "") + self.model.basis_names[k]
            for k, c in enumerate(self.coords)
            if c
        ]
        return " + ".join(bits) if bits else "0"


def commutator_element(a: RingElement, b: RingElement) -> RingElement:
    return a * b - b * a


def evaluate(poly: MultilinearPoly, elements: Sequence[RingElement]) -> RingElement:
    """Substitute elements[i-1] for x_i and expand.

    The elements must belong to one model.  Degree-0 polynomials evaluate
    through the unit, so the model must be unital in that case.
    """
    if not elements:
        raise ValueError("no elements supplied")
    model = elements[0].model
    if any(e.model is not model for e in elements):
        raise ValueError("elements belong to different ring models")
    if any(v > len(elements) for v in poly.variables):
        raise ValueError("polynomial uses more variables than elements supplied")
    values = [e.sparse() for e in elements]
    total: Sparse = {}
    for word, coeff in poly.terms.items():
        if word:
            value = values[word[0] - 1]
            for v in word[1:]:
                value = model.mul_sparse(value, values[v - 1])
        else:
            value = model.one.sparse()
        for k, c in value.items():
            total[k] = total.get(k, 0) + coeff * c
    vec = [0] * model.rank
    for k, c in total.items():
        vec[k] = c
    return model.element(tuple(vec))


def generator_tuples(model: RingModel, n: int) -> Iterator[tuple[int, ...]]:
    """Indices of all length-n substitution tuples from the generators.

    When the model carries disjoint-support masks (exterior algebras), a
    tuple whose supports overlap is skipped together with all extensions:
    any monomial evaluated on such a tuple repeats a mask bit somewhere,
    which kills the product in every variable order.  The masked walk is
    depth-first over the prefixes of length n - 1, in the order of
    ``itertools.product``; each prefix is extended at once by every
    generator its used support leaves free, read from a per-call table
    keyed by that support.
    """
    g = len(model.generators)
    masks = model.support_masks
    if masks is None:
        yield from itertools.product(range(g), repeat=n)
        return
    if n == 0:
        yield ()
        return
    # used support -> the 1-tuples of the generators it leaves free, and
    # the used support after each
    free: dict[int, tuple[list[tuple[int]], list[int]]] = {}
    stack = [((), 0)]
    while stack:
        prefix, used = stack.pop()
        step = free.get(used)
        if step is None:
            allowed = [i for i in range(g) if not masks[i] & used]
            step = free[used] = ([(i,) for i in allowed], [used | masks[i] for i in allowed])
        singles, after = step
        if len(prefix) == n - 1:
            yield from map(prefix.__add__, singles)
        else:
            # pushed last to first, so popped in increasing order
            stack.extend(zip(map(prefix.__add__, reversed(singles)), reversed(after)))


def tuple_count(model: RingModel, n: int) -> int:
    """How many tuples ``generator_tuples(model, n)`` yields, counted over
    (remaining length, used support) states instead of enumerated."""
    masks = model.support_masks
    if masks is None:
        return len(model.generators) ** n

    @lru_cache(maxsize=None)
    def count(left: int, used: int) -> int:
        if not left:
            return 1
        return sum(count(left - 1, used | m) for m in masks if not m & used)

    return count(n, 0)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclic_ring(m: int) -> RingModel:
    """The commutative unital ring Z/m (Z itself for m = 0)."""
    if m < 0:
        raise ValueError("modulus must be >= 0")
    return RingModel(
        label=f"cyclic({m})",
        moduli=(m,),
        table={(0, 0): ((0, 1),)},
        generators=((1,),),
        unit=(1,),
        basis_names=("1",),
        family="cyclic",
        params=(m,),
    )


@lru_cache(maxsize=None)
def ut2(ell: int, m: int) -> RingModel:
    """Upper triangular 2x2 matrices with diagonal entries mod ell and
    corner entry mod m; requires ell = 0 or m | ell with m > 0.

    Basis e11, e22, e12 with e11*e11 = e11, e22*e22 = e22,
    e11*e12 = e12*e22 = e12 and every other basis product zero.
    """
    if ell < 0 or m < 0:
        raise ValueError("moduli must be >= 0")
    if ell == 0:
        pass  # corner modulus unconstrained (m = 0 gives the integral model)
    elif m == 0 or ell % m:
        raise ValueError(
            f"ut2({ell}, {m}): need ell = 0 or m a positive divisor of ell"
        )
    return RingModel(
        label=f"ut2({ell},{m})",
        moduli=(ell, ell, m),
        table={
            (0, 0): ((0, 1),),
            (1, 1): ((1, 1),),
            (0, 2): ((2, 1),),
            (2, 1): ((2, 1),),
        },
        generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        unit=(1, 1, 0),
        basis_names=("e11", "e22", "e12"),
        family="ut2",
        params=(ell, m),
    )


def _sign_between(left: int, right: int) -> int:
    """Parity sign from moving each bit of ``right`` past the higher bits of
    ``left`` when concatenating two increasing products e_S * e_T."""
    sign = 1
    t = right
    while t:
        bit = t & -t
        above = left & ~(bit | (bit - 1))
        if above.bit_count() & 1:
            sign = -sign
        t ^= bit
    return sign


@lru_cache(maxsize=None)
def grassmann(ell: int, k: int) -> RingModel:
    """Exterior algebra over Z/ell on k anticommuting generators
    (ell odd, or 0 for integer coefficients).

    Basis vectors are the 2^k increasing monomials e_S, multiplied by
    e_S * e_T = (sign) e_{S|T} when S and T are disjoint and 0 otherwise.
    """
    if ell < 0 or (ell and ell % 2 == 0):
        raise ValueError("coefficient modulus must be odd or 0")
    if not 0 <= k <= 12:
        raise ValueError("generator count out of range")
    rank = 1 << k
    table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for s in range(rank):
        for t in range(rank):
            if s & t:
                continue
            table[(s, t)] = ((s | t, _sign_between(s, t)),)
    names = tuple(
        "1" if s == 0 else "e" + "".join(str(b + 1) for b in range(k) if s >> b & 1)
        for s in range(rank)
    )
    return RingModel(
        label=f"grassmann({ell},{k})",
        moduli=(ell,) * rank,
        table=table,
        generators=tuple(
            tuple(1 if i == s else 0 for i in range(rank)) for s in range(rank)
        ),
        unit=tuple(1 if s == 0 else 0 for s in range(rank)),
        basis_names=names,
        family="grassmann",
        params=(ell, k),
        support_masks=tuple(range(rank)),
    )


def direct_sum(*models: RingModel) -> RingModel:
    """Componentwise product of rings on the concatenated bases."""
    if not models:
        raise ValueError("need at least one summand")
    if len(models) == 1:
        return models[0]
    moduli: list[int] = []
    table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    generators: list[Coords] = []
    names: list[str] = []
    units: list[Coords] = []
    offset = 0
    total = sum(m.rank for m in models)
    for mi, model in enumerate(models):
        moduli.extend(model.moduli)
        for (i, j), entries in model.table.items():
            table[(i + offset, j + offset)] = tuple(
                (k + offset, c) for k, c in entries
            )
        for g in model.generators:
            generators.append(
                (0,) * offset + g + (0,) * (total - offset - model.rank)
            )
        names.extend(f"{name}#{mi}" for name in model.basis_names)
        if model.unit is not None:
            units.append(model.unit)
        offset += model.rank
    unit: Coords | None = None
    if len(units) == len(models):
        unit = tuple(itertools.chain.from_iterable(units))
    label = "sum(" + ",".join(m.label for m in models) + ")"
    return RingModel(
        label=label,
        moduli=moduli,
        table=table,
        generators=generators,
        unit=unit,
        basis_names=names,
        family="sum",
        params=tuple((m.family, m.params) for m in models),
    )


def _rebuild_known(family: str, params: tuple) -> RingModel | None:
    try:
        if family == "cyclic":
            return cyclic_ring(*params)
        if family == "ut2":
            return ut2(*params)
        if family == "grassmann":
            return grassmann(*params)
        if family == "sum":
            parts = [_rebuild_known(f, tuple(p)) for f, p in params]
            if all(p is not None for p in parts):
                return direct_sum(*parts)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return None
