"""Multilinear integer polynomials in noncommuting variables.

The degree-n multilinear component is the free abelian group on the n!
monomials x_{s(1)} x_{s(2)} ... x_{s(n)}; a monomial is stored as the tuple
of variable indices read left to right, and a polynomial as a sparse
``{word: coefficient}`` map.  On top of that this module provides
left-normed commutators, an integral basis of the proper sublattice
(spanned by products of commutators), and the rewriting that splits any
polynomial into monomial-prefix times proper components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .lattices import Sparse, SubmoduleLattice, _hermite, _reduce

Word = tuple[int, ...]


def identity_word(n: int) -> Word:
    return tuple(range(1, n + 1))


def compose(sigma: Word, tau: Word) -> Word:
    """(sigma . tau)(i) = sigma(tau(i)) in one-line notation."""
    return tuple(sigma[t - 1] for t in tau)


def inverse(sigma: Word) -> Word:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def is_permutation_word(word: Word, n: int | None = None) -> bool:
    if n is None:
        n = len(word)
    return len(word) == n and sorted(word) == list(range(1, n + 1))


@lru_cache(maxsize=None)
def monomial_order(n: int) -> tuple[Word, ...]:
    """All degree-n monomial words in lexicographic order (the column
    convention every matrix in this package uses)."""
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _monomial_index(n: int) -> dict[Word, int]:
    return {w: i for i, w in enumerate(monomial_order(n))}


class MultilinearPoly:
    """Sparse integer polynomial, multilinear in a fixed set of variables.

    Every monomial word is an ordering of the same variable set.  The
    variable set may be any finite set of positive indices -- commutator
    expansion works block by block -- and equals {1..n} for elements of the
    full degree-n component.
    """

    __slots__ = ("terms", "variables")

    def __init__(self, terms: Mapping[Word, int], variables: Iterable[int] | None = None):
        clean: dict[Word, int] = {}
        varset: frozenset[int] | None = (
            frozenset(variables) if variables is not None else None
        )
        for word, coeff in terms.items():
            word = tuple(word)
            if varset is None:
                varset = frozenset(word)
            if frozenset(word) != varset or len(word) != len(varset):
                raise ValueError(f"word {word} is not an ordering of {sorted(varset)}")
            if coeff:
                clean[word] = clean.get(word, 0) + coeff
        self.terms = {w: c for w, c in clean.items() if c}
        self.variables = varset if varset is not None else frozenset()

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, word: Word, coeff: int = 1) -> "MultilinearPoly":
        return cls({tuple(word): coeff})

    @classmethod
    def zero(cls, variables: Iterable[int] = ()) -> "MultilinearPoly":
        return cls({}, variables)

    @classmethod
    def one(cls) -> "MultilinearPoly":
        """The empty product: the scalar 1 in degree zero."""
        return cls({(): 1}, ())

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[Word, int]]:
        return iter(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPoly)
            and self.terms == other.terms
            and (self.variables == other.variables or not self.terms or not other.terms)
        )

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for word, coeff in sorted(self.terms.items()):
            mono = "".join(f"x{v}" for v in word) if word else "1"
            bits.append(f"{'+' if coeff > 0 and bits else ''}{coeff}*{mono}")
        return "".join(bits)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.variables != other.variables:
            raise ValueError("cannot add polynomials on different variable sets")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return MultilinearPoly(out, self.variables)

    def __neg__(self) -> "MultilinearPoly":
        return MultilinearPoly({w: -c for w, c in self.terms.items()}, self.variables)

    def __sub__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "MultilinearPoly":
        if not isinstance(scalar, int):
            return NotImplemented
        return MultilinearPoly(
            {w: scalar * c for w, c in self.terms.items()}, self.variables
        )

    def __mul__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        """Concatenation product; variable sets must be disjoint."""
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        if self.variables & other.variables:
            raise ValueError("product requires disjoint variable sets")
        out: dict[Word, int] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
        return MultilinearPoly(out, self.variables | other.variables)

    # -- symmetric group action and coordinates ----------------------------

    def act(self, sigma: Word) -> "MultilinearPoly":
        """Rename variables: x_i becomes x_{sigma(i)} (one-line word)."""
        n = len(sigma)
        if not is_permutation_word(sigma, n):
            raise ValueError(f"{sigma} is not a permutation word")
        if any(v > n for v in self.variables):
            raise ValueError("permutation word too short for this polynomial")
        return MultilinearPoly(
            {tuple(sigma[v - 1] for v in w): c for w, c in self.terms.items()},
            (sigma[v - 1] for v in self.variables),
        )

    def to_vector(self, n: int) -> list[int]:
        """Coefficient row in the lexicographic monomial order of degree n."""
        if self.terms and self.variables != frozenset(range(1, n + 1)):
            raise ValueError(f"polynomial is not on variables 1..{n}")
        idx = _monomial_index(n)
        vec = [0] * len(idx)
        for w, c in self.terms.items():
            vec[idx[w]] = c
        return vec

    @classmethod
    def from_vector(cls, vec: Iterable[int], n: int) -> "MultilinearPoly":
        order = monomial_order(n)
        return cls(
            {order[i]: c for i, c in enumerate(vec) if c}, range(1, n + 1)
        )


def commutator(f: MultilinearPoly, g: MultilinearPoly) -> MultilinearPoly:
    """[f, g] = fg - gf (variable sets must be disjoint)."""
    return f * g - g * f


def bracket_poly(indices: Word) -> MultilinearPoly:
    """Expansion of the left-normed commutator [x_{i1}, x_{i2}, ..., x_{ik}],
    from the closed form of ``_bracket_terms``.

    >>> sorted(bracket_poly((2, 1)).terms.items())
    [((1, 2), -1), ((2, 1), 1)]
    >>> len(bracket_poly((3, 1, 2)).terms)
    4
    """
    if len(indices) < 2:
        raise ValueError("a commutator needs at least two entries")
    if len(set(indices)) != len(indices):
        raise ValueError("commutator entries must be distinct")
    return MultilinearPoly(dict(_bracket_terms(tuple(indices))))


@lru_cache(maxsize=None)
def _bracket_terms(indices: Word) -> tuple[tuple[Word, int], ...]:
    """The terms of [x_{a1}, ..., x_{ak}] (distinct entries, k >= 2):

        [a1, ..., ak] = sum over T of {a2..ak} of (-1)^|T| (T reversed) a1 (the rest in order),

    since [u, x] = u x - x u puts x last in the rest or first in T.  The
    words are distinct: a1 sits at position |T|, after the entries of T."""
    first, rest = indices[0], indices[1:]
    out = []
    for taken in itertools.product((False, True), repeat=len(rest)):
        front = tuple(a for a, t in zip(rest, taken) if t)[::-1]
        back = tuple(a for a, t in zip(rest, taken) if not t)
        out.append((front + (first,) + back, -1 if len(front) % 2 else 1))
    return tuple(out)


@dataclass(frozen=True)
class CommutatorWord:
    """A product  x_{p1} ... x_{pk} * [..] [..] ...  of a strictly increasing
    monomial prefix and left-normed commutators on the remaining variables."""

    prefix: Word = ()
    brackets: tuple[Word, ...] = ()

    def __post_init__(self):
        seen: set[int] = set()
        if list(self.prefix) != sorted(self.prefix):
            raise ValueError("prefix must be strictly increasing")
        seen.update(self.prefix)
        if len(seen) != len(self.prefix):
            raise ValueError("repeated prefix variable")
        for br in self.brackets:
            if len(br) < 2:
                raise ValueError("brackets need at least two entries")
            if seen & set(br) or len(set(br)) != len(br):
                raise ValueError("variables must not repeat across factors")
            seen.update(br)

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(self.prefix).union(*map(frozenset, self.brackets)) \
            if self.brackets else frozenset(self.prefix)

    @property
    def degree(self) -> int:
        return len(self.prefix) + sum(map(len, self.brackets))

    def expand(self) -> MultilinearPoly:
        poly = MultilinearPoly.one()
        if self.prefix:
            poly = MultilinearPoly.monomial(self.prefix)
        for br in self.brackets:
            poly = poly * bracket_poly(br)
        return poly

    def __str__(self) -> str:
        bits = ["".join(f"x{v}" for v in self.prefix)] if self.prefix else []
        bits += ["[" + ",".join(f"x{v}" for v in br) + "]" for br in self.brackets]
        return "".join(bits) or "1"


# ---------------------------------------------------------------------------
# the proper sublattice: integer span of products of commutators
# ---------------------------------------------------------------------------

def _blockwise_partitions(elems: tuple[int, ...]) -> Iterator[tuple[Word, ...]]:
    """Set partitions of ``elems`` into blocks of size >= 2, each block
    sorted, blocks ordered by minimum."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for k in range(1, len(rest) + 1):
        for others in itertools.combinations(rest, k):
            if len(rest) - k == 1:
                continue
            block = (first,) + others
            remaining = tuple(e for e in rest if e not in others)
            for sub in _blockwise_partitions(remaining):
                yield (block,) + sub


def _block_brackets(block: Word) -> list[Word]:
    """Basis brackets for one block: the minimum first, the rest in any
    order -- (k-1)! left-normed brackets."""
    return [block[:1] + perm for perm in itertools.permutations(block[1:])]


def _candidate_brackets(block: Word) -> list[Word]:
    """Every ordering of the block with the first two entries descending."""
    return [p for p in itertools.permutations(block) if p[0] > p[1]]


@dataclass(frozen=True)
class ProperBasis:
    """Integral basis of the lattice of degree-n proper polynomials.

    ``elements[i]`` expands to the {column: value} row ``matrix[i]`` in the
    lexicographic monomial order.  Each row holds 1 at its least column,
    which is no other row's least, so the rows are a unitriangular basis
    of ``lattice``, and it is a direct summand."""

    n: int
    elements: tuple[CommutatorWord, ...]
    matrix: tuple[Sparse, ...]
    lattice: SubmoduleLattice

    def coordinates(self, poly: MultilinearPoly) -> list[int] | None:
        """Coefficients of ``poly`` over ``elements``, or None if the
        polynomial is not in the proper lattice."""
        quotients: Sparse = {}
        row = {c: x for c, x in enumerate(poly.to_vector(self.n)) if x}
        if _reduce(row, {min(r): r for r in self.matrix}, quotients=quotients):
            return None
        return [quotients.get(min(r), 0) for r in self.matrix]

    def contains(self, poly: MultilinearPoly) -> bool:
        return self.lattice.contains(poly.to_vector(self.n))


@lru_cache(maxsize=None)
def proper_basis(n: int) -> ProperBasis:
    """Basis of the proper sublattice of the degree-n component.

    Ranks follow the derangement numbers: 0, 1, 2, 9, 44, 265 for n = 1..6.
    Each element is a product of brackets [m, ...] led by their block
    minima m, in decreasing m: its row is its own word w plus lex-larger
    words, and the minima are the left-to-right minima of w.  Spanning is
    checked per block size, as every bracket on 1..n reducing to zero: a
    product follows, since swapping two blocks adds a Lie element on both.

    >>> [str(e) for e in proper_basis(3).elements]
    ['[x1,x2,x3]', '[x1,x3,x2]']
    >>> str(proper_basis(4).elements[0])
    '[x3,x4][x1,x2]'
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    elems: list[CommutatorWord] = []
    rows: dict[int, Sparse] = {}
    for part in _blockwise_partitions(identity_word(n)):
        for combo in itertools.product(*map(_block_brackets, part[::-1])):
            row = _product_row(combo, n)
            lead = min(row)
            if row[lead] != 1 or lead in rows:
                raise AssertionError(f"proper basis is not unitriangular at n={n}: {combo}")
            elems.append(CommutatorWord((), combo))
            rows[lead] = row
    if n > 1:
        proper_basis(n - 1)  # checks the brackets of each smaller size
        for br in _candidate_brackets(identity_word(n)):
            if _reduce(_product_row((br,), n), rows):
                raise AssertionError(f"bracket {br} outside the proper basis span")
    lattice = _hermite(len(monomial_order(n)), rows)
    return ProperBasis(n, tuple(elems), tuple(rows.values()), lattice)


def _product_row(brackets: tuple[Word, ...], n: int) -> Sparse:
    """The {column: value} row of the product of left-normed brackets whose
    entries are 1..n, each once: one entry per choice of a term of each
    bracket, since the concatenated words are distinct."""
    index = _monomial_index(n)
    row = {}
    for factors in itertools.product(*map(_bracket_terms, brackets)):
        word: Word = ()
        coeff = 1
        for w, c in factors:
            word += w
            coeff *= c
        row[index[word]] = coeff
    return row


# ---------------------------------------------------------------------------
# decomposition into prefix * proper components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """One summand  x_{p1}...x_{pk} * sigma(proper)  of a decomposition.

    ``sigma`` is the permutation word sending 1..(n-k) onto the complement
    of the prefix (ascending) and (n-k)+j onto prefix[j-1]; ``proper`` is a
    polynomial in the proper lattice on variables 1..(n-k), or the scalar
    (degree-0) component when the prefix is everything."""

    prefix: Word
    sigma: Word
    proper: MultilinearPoly


_Atom = int | Word      # a variable, or a left-normed bracket


def _leftmost_defect(atoms: tuple[_Atom, ...]) -> int | None:
    for p in range(len(atoms) - 1):
        a, b = atoms[p], atoms[p + 1]
        if isinstance(a, int) and isinstance(b, int) and a > b:
            return p
        if isinstance(a, tuple) and isinstance(b, int):
            return p
    return None


@lru_cache(maxsize=None)
def _rewrite_word(word: Word) -> tuple[tuple[Word, tuple[Word, ...], int], ...]:
    """Rewrite one monomial into normal terms (prefix, brackets, coeff).

    Rules, applied at the leftmost defect until none remains:
      * x_j x_i -> x_i x_j + [x_j, x_i]          (j > i)
      * B x     -> x B + [B, x]                  (B a bracket)
    Each rule either removes an inversion or moves a bracket toward the
    right end, so the process terminates; the absorbed-commutator summand
    [B, x] extends the left-normed bracket by one entry.
    """
    out: dict[tuple[Word, tuple[Word, ...]], int] = {}
    stack: list[tuple[int, tuple[_Atom, ...]]] = [(1, tuple(word))]
    while stack:
        coeff, atoms = stack.pop()
        p = _leftmost_defect(atoms)
        if p is None:
            split = next(
                (i for i, a in enumerate(atoms) if isinstance(a, tuple)), len(atoms)
            )
            prefix = atoms[:split]
            brackets = atoms[split:]
            key = (prefix, brackets)
            out[key] = out.get(key, 0) + coeff
            continue
        a, b = atoms[p], atoms[p + 1]
        head, tail = atoms[:p], atoms[p + 2:]
        if isinstance(a, int):
            stack.append((coeff, head + (b, a) + tail))
            stack.append((coeff, head + ((a, b),) + tail))
        else:
            stack.append((coeff, head + (b, a) + tail))
            stack.append((coeff, head + (a + (b,),) + tail))
    return tuple(
        (prefix, brackets, c) for (prefix, brackets), c in sorted(out.items()) if c
    )


def decompose(poly: MultilinearPoly) -> list[Component]:
    """Split a full-degree polynomial into prefix * proper components.

    The result is graded by the prefix subset: summing
    ``monomial(prefix) * proper.act(sigma)`` over the components returns
    the input exactly (see ``recompose``), and each proper part lies in
    the proper lattice of its degree.
    """
    n = poly.degree
    if poly.terms and poly.variables != frozenset(range(1, n + 1)):
        raise ValueError("decompose expects a polynomial on variables 1..n")
    collected: dict[Word, dict[Word, int]] = {}
    for word, coeff in poly.terms.items():
        for prefix, brackets, c in _rewrite_word(word):
            bucket = collected.setdefault(prefix, {})
            prod = MultilinearPoly.one()
            for br in brackets:
                prod = prod * bracket_poly(br)
            for w, pc in prod.terms.items():
                bucket[w] = bucket.get(w, 0) + coeff * c * pc
    components = []
    for prefix in sorted(collected, key=lambda p: (len(p), p)):
        complement = tuple(sorted(set(range(1, n + 1)) - set(prefix)))
        sigma = complement + prefix
        relabel = {v: t + 1 for t, v in enumerate(complement)}
        terms = {
            tuple(relabel[v] for v in w): c
            for w, c in collected[prefix].items()
            if c
        }
        if not terms:
            continue
        proper = MultilinearPoly(terms, range(1, len(complement) + 1))
        components.append(Component(prefix, sigma, proper))
    return components


def recompose(components: Iterable[Component], n: int) -> MultilinearPoly:
    """Inverse of ``decompose``: sum of prefix-monomial times sigma(proper)."""
    total: dict[Word, int] = {}
    for comp in components:
        for w, c in comp.proper.terms.items():
            full = comp.prefix + tuple(comp.sigma[v - 1] for v in w)
            total[full] = total.get(full, 0) + c
    return MultilinearPoly(total, range(1, n + 1))
