"""Finite Coxeter systems with full element enumeration and Cayley tables.

Conventions, fixed once and used everywhere:

- Symmetric groups act on {1..n} and elements are stored in one-line
  notation as tuples, so ``(2, 1, 3, 4)`` is the permutation written 2134.
- Products compose on the left: ``(u * v)(k) = u(v(k))``.  Consequently
  right multiplication by the generator with 0-based index ``s`` swaps
  positions s+1 and s+2 of the one-line form, and left multiplication
  swaps the values s+1 and s+2.
- Dihedral and matrix-defined groups store each element as its
  lexicographically least reduced word.  They are enumerated in the
  geometric (Tits) representation: the bilinear form
  B(a_s, a_t) = -cos(pi/m(s, t)) (-1 for m = 0) must be positive definite,
  else the group is infinite and the build raises CapExceeded before
  enumerating.  Each generator permutes the finite root system, the orbit
  of the simple roots, and an element is keyed by the images of the simple
  roots.  Roots are told apart by rounding their Euclidean coordinates, so
  exact checks on the permutations and on the longest element follow the
  build; a failure raises InvariantViolation, never a wrong group.
- Elements are indexed breadth-first by length from the identity, ties
  broken by lexicographic order of the stored form, so index 0 is the
  identity and indices are reproducible across runs.
- A generator ``s`` is a recoil of ``w`` when ``len(s*w) < len(w)`` and a
  descent when ``len(w*s) < len(w)``; recoil and descent sets are bitmasks
  (see `gensets`).

>>> sys4 = build_system(CoxeterSpec.symmetric(4))
>>> len(sys4.elements)
24
>>> u = sys4.from_oneline((2, 1, 3, 4)); v = sys4.from_oneline((1, 2, 4, 3))
>>> sys4.multiply(u, v).payload
(2, 1, 4, 3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .errors import CapExceeded, InvalidSpec, InvariantViolation, NotADescent

DEFAULT_ELEMENT_CAP = 200_000


@dataclass(frozen=True)
class CoxeterSpec:
    """Description of a finite Coxeter group to enumerate.

    kind is one of "symmetric", "dihedral", "matrix".  For dihedral groups
    `order` is the order m of the product of the two generators (the group
    has 2m elements).  Matrix entries give the orders m(s, t) as ints; 0 is
    reserved for infinite order and makes the build raise CapExceeded.
    """

    kind: str
    n: int = 0
    order: int = 0
    matrix: tuple[tuple[int, ...], ...] = ()
    element_cap: int = DEFAULT_ELEMENT_CAP

    @classmethod
    def symmetric(cls, n: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> CoxeterSpec:
        return cls(kind="symmetric", n=n, element_cap=element_cap)

    @classmethod
    def dihedral(cls, order: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> CoxeterSpec:
        return cls(kind="dihedral", order=order, element_cap=element_cap)

    @classmethod
    def from_matrix(cls, matrix, element_cap: int = DEFAULT_ELEMENT_CAP) -> CoxeterSpec:
        """Validated spec of a matrix given as a list of rows of ints."""
        if not isinstance(matrix, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in matrix):
            raise InvalidSpec("matrix must be a list of rows")
        spec = cls(kind="matrix", matrix=tuple(tuple(row) for row in matrix),
                   element_cap=element_cap)
        spec.validate()
        return spec

    @property
    def rank(self) -> int:
        if self.kind == "symmetric":
            return self.n - 1
        if self.kind == "dihedral":
            return 2
        return len(self.matrix)

    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self.kind == "matrix":
            return self.matrix
        if self.kind == "dihedral":
            return ((1, self.order), (self.order, 1))
        r = self.rank
        return tuple(
            tuple(1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(r))
            for i in range(r)
        )

    def describe(self) -> str:
        if self.kind == "symmetric":
            return f"S{self.n}"
        if self.kind == "dihedral":
            return f"I{self.order}"
        return f"matrix(rank={self.rank})"

    def validate(self) -> None:
        if type(self.element_cap) is not int or self.element_cap < 1:
            raise InvalidSpec("element_cap must be a positive integer")
        if self.kind == "symmetric":
            if self.n < 1:
                raise InvalidSpec("symmetric group needs n >= 1")
        elif self.kind == "dihedral":
            if self.order < 2:
                raise InvalidSpec("dihedral group needs order >= 2")
        elif self.kind == "matrix":
            m = self.matrix
            r = len(m)
            if r < 1:
                raise InvalidSpec("matrix must have positive rank")
            if any(len(row) != r for row in m):
                raise InvalidSpec("matrix must be square")
            if any(type(x) is not int for row in m for x in row):
                raise InvalidSpec("matrix entries must be integers")
            for i in range(r):
                if m[i][i] != 1:
                    raise InvalidSpec("matrix diagonal entries must be 1")
                for j in range(r):
                    if m[i][j] != m[j][i]:
                        raise InvalidSpec("matrix must be symmetric")
                    if i != j and m[i][j] != 0 and m[i][j] < 2:
                        raise InvalidSpec("off-diagonal entries must be 0 (infinite) or >= 2")
        else:
            raise InvalidSpec(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Element:
    """A group element: its index in the system plus the stored form.

    `payload` is the one-line tuple for symmetric groups and the canonical
    reduced word (0-based generator indices) otherwise.  `length` is the
    Coxeter length, which for permutations equals the inversion count.
    """

    index: int
    payload: tuple[int, ...]
    length: int


def _inversions(p: tuple[int, ...]) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def _invert_oneline(p: tuple[int, ...]) -> tuple[int, ...]:
    q = [0] * len(p)
    for pos, val in enumerate(p):
        q[val - 1] = pos + 1
    return tuple(q)


def positional_recoils(p: tuple[int, ...]) -> int:
    """Recoil bitmask of a one-line permutation: bit i set when the value
    i+2 appears before i+1.  Independent of the Cayley tables; used as the
    second route in agreement tests."""
    pos = _invert_oneline(p)
    mask = 0
    for i in range(len(p) - 1):
        if pos[i + 1] < pos[i]:
            mask |= 1 << i
    return mask


class CoxeterSystem:
    """Immutable enumeration of a finite Coxeter group.

    Attributes (all read-only by convention):
      spec           the defining CoxeterSpec
      rank           number of simple generators
      elements       index -> stored form (one-line tuple or canonical word)
      lengths        index -> Coxeter length
      right_cayley   [index][s] -> index of w*s
      left_cayley    [index][s] -> index of s*w
      recoils        index -> recoil bitmask  { s : len(s*w) < len(w) }
      descents       index -> descent bitmask { s : len(w*s) < len(w) }
      inverse_index  index -> index of the inverse
      gen_index      s -> element index of the generator
      longest_index  index of the longest element
    """

    def __init__(self, spec: CoxeterSpec, elements: list[tuple[int, ...]],
                 left_cayley: list[list[int]], right_cayley: list[list[int]],
                 inverse_index: list[int]):
        self.spec = spec
        self.kind = spec.kind
        self.rank = spec.rank
        self.n = spec.n
        self.matrix = spec.coxeter_matrix()
        self.elements = elements
        self.index = {p: i for i, p in enumerate(elements)}
        if self.kind == "symmetric":
            self.lengths = [_inversions(p) for p in elements]
        else:
            self.lengths = [len(w) for w in elements]
        self.left_cayley = left_cayley
        self.right_cayley = right_cayley
        self.inverse_index = inverse_index
        self.gen_index = list(left_cayley[0])  # s * identity
        self.gen_of = {idx: s for s, idx in enumerate(self.gen_index)}
        self.recoils = self._mask_table(self.left_cayley)
        self.descents = self._mask_table(self.right_cayley)
        self.longest_index = self._find_longest()
        self._class_cache: dict[int, object] = {}
        self._loop_cache: dict[int, object] = {}

    # -- construction helpers ------------------------------------------------

    def _mask_table(self, cayley: list[list[int]]) -> list[int]:
        masks = []
        for i, row in enumerate(cayley):
            mask = 0
            for s in range(self.rank):
                if self.lengths[row[s]] < self.lengths[i]:
                    mask |= 1 << s
            masks.append(mask)
        return masks

    def _find_longest(self) -> int:
        top = max(self.lengths)
        hits = [i for i, l in enumerate(self.lengths) if l == top]
        if len(hits) != 1:
            raise InvariantViolation("longest element is not unique")
        return hits[0]

    # -- element access ------------------------------------------------------

    def element(self, i: int) -> Element:
        return Element(i, self.elements[i], self.lengths[i])

    @property
    def identity(self) -> Element:
        return self.element(0)

    @property
    def longest(self) -> Element:
        return self.element(self.longest_index)

    def generator(self, s: int) -> Element:
        return self.element(self.gen_index[s])

    def from_oneline(self, oneline: Sequence[int]) -> Element:
        if self.kind != "symmetric":
            raise ValueError("one-line forms exist only for symmetric groups")
        return self.element(self.index[tuple(oneline)])

    def from_word(self, word: Sequence[int]) -> Element:
        """Element spelled by an arbitrary word in the generators."""
        i = 0
        for s in word:
            i = self.right_cayley[i][s]
        return self.element(i)

    def check_member(self, w: Element) -> None:
        if not (0 <= w.index < len(self.elements)) or self.elements[w.index] != w.payload:
            raise ValueError("element does not belong to this system")

    # -- group operations ----------------------------------------------------

    def multiply_index(self, u: int, v: int) -> int:
        if self.kind == "symmetric":
            pu, pv = self.elements[u], self.elements[v]
            return self.index[tuple(pu[x - 1] for x in pv)]
        i = u
        for s in self.elements[v]:
            i = self.right_cayley[i][s]
        return i

    def multiply(self, u: Element, v: Element) -> Element:
        self.check_member(u)
        self.check_member(v)
        return self.element(self.multiply_index(u.index, v.index))

    def inverse(self, w: Element) -> Element:
        self.check_member(w)
        return self.element(self.inverse_index[w.index])

    def length(self, w: Element) -> int:
        self.check_member(w)
        return self.lengths[w.index]

    def recoil_set(self, w: Element) -> int:
        self.check_member(w)
        return self.recoils[w.index]

    def descent_set(self, w: Element) -> int:
        self.check_member(w)
        return self.descents[w.index]

    def weak_leq(self, u: Element, w: Element) -> bool:
        """Right weak order: u <= w iff len(u) + len(u^-1 w) == len(w)."""
        self.check_member(u)
        self.check_member(w)
        return self.weak_leq_index(u.index, w.index)

    def weak_leq_index(self, u: int, w: int) -> bool:
        between = self.multiply_index(self.inverse_index[u], w)
        return self.lengths[u] + self.lengths[between] == self.lengths[w]

    def apply_exchange(self, word: Sequence[int], s: int) -> tuple[int, ...]:
        """Delete one letter of a reduced word so it spells s*w.

        Requires len(s*w) == len(w) - 1; raises NotADescent otherwise.
        When several deletions work, the smallest index is removed.
        """
        seq = tuple(word)
        i = 0
        for step, t in enumerate(seq):
            nxt = self.right_cayley[i][t]
            if self.lengths[nxt] != step + 1:
                raise ValueError("word is not reduced")
            i = nxt
        target = self.left_cayley[i][s]
        if self.lengths[target] == self.lengths[i] + 1:
            raise NotADescent(f"generator {s + 1} does not shorten this word")
        for cut in range(len(seq)):
            candidate = seq[:cut] + seq[cut + 1 :]
            j = 0
            for t in candidate:
                j = self.right_cayley[j][t]
            if j == target:
                return candidate
        raise InvariantViolation("exchange property produced no valid deletion")

    # -- presentation --------------------------------------------------------

    def order_product(self, s: int, t: int) -> int:
        """Order m(s, t) of the product of two generators (0 means infinite)."""
        return self.matrix[s][t]

    def reduced_word(self, w: Element) -> tuple[int, ...]:
        """Lexicographically least reduced word (equals the payload for
        word-based realizations)."""
        self.check_member(w)
        if self.kind != "symmetric":
            return w.payload
        out = []
        i = w.index
        while self.lengths[i] > 0:
            s = (self.recoils[i] & -self.recoils[i]).bit_length() - 1
            out.append(s)
            i = self.left_cayley[i][s]
        return tuple(out)

    def format_index(self, i: int) -> str:
        payload = self.elements[i]
        if self.kind == "symmetric":
            if self.n <= 9:
                return "".join(str(v) for v in payload)
            return " ".join(str(v) for v in payload)
        if not payload:
            return "e"
        if self.kind == "dihedral":
            return "".join("st"[s] for s in payload)
        return ".".join(str(s + 1) for s in payload)

    def format_element(self, w: Element) -> str:
        self.check_member(w)
        return self.format_index(w.index)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.spec.describe()}, {len(self.elements)} elements)"


def _build_symmetric(spec: CoxeterSpec) -> CoxeterSystem:
    n = spec.n
    size = 1
    for k in range(2, n + 1):  # stops at the first k! over the cap, so huge n ends fast
        size *= k
        if size > spec.element_cap:
            raise CapExceeded(f"|S{n}| >= {size} exceeds element_cap {spec.element_cap}")
    elements = sorted(permutations(range(1, n + 1)), key=lambda p: (_inversions(p), p))
    index = {p: i for i, p in enumerate(elements)}
    right, left = [], []
    for p in elements:
        row = []
        for s in range(n - 1):
            q = list(p)
            q[s], q[s + 1] = q[s + 1], q[s]
            row.append(index[tuple(q)])
        right.append(row)
        row = []
        for s in range(n - 1):
            a, b = s + 1, s + 2
            row.append(index[tuple(b if v == a else a if v == b else v for v in p)])
        left.append(row)
    inverse = [index[_invert_oneline(p)] for p in elements]
    return CoxeterSystem(spec, list(elements), left, right, inverse)


# Roots are told apart by their Euclidean coordinates rounded to this many
# cells per unit.  Two copies of one root computed along different paths
# differ by rounding error only; distinct roots of any group within reach
# lie far more than a cell apart (in I_m they are about pi/m apart).  The
# error grows with long orbits: I_50000 still builds its roots, I_100000
# fails the exact checks.
_CELLS_PER_UNIT = 1e7
# A root within this fraction of a cell of a cell edge is filed in the
# neighbouring cell too, so a copy that rounds the other way still finds it.
_NEAR_EDGE = 0.1
# For a finite W every Cholesky pivot of B is at least its smallest
# eigenvalue, 1 - cos(pi/h) with h < |W| the Coxeter number: above 1e-10
# for every |W| within the default cap.
_PIVOT_TOL = 1e-12


def _bilinear_form(matrix: tuple[tuple[int, ...], ...]) -> list[list[float]]:
    """B(a_s, a_t) = -cos(pi/m(s, t)), with -1 for m = 0 and an exact 0 for m = 2."""
    def entry(m: int) -> float:
        if m == 0 or m >= 2**53:  # cos(pi/m) rounds to 1 from 2**53 on; pi/m may overflow
            return -1.0
        return 0.0 if m == 2 else -math.cos(math.pi / m)

    return [[entry(m) for m in row] for row in matrix]


def _simple_roots(spec: CoxeterSpec) -> list[list[float]]:
    """Rows of the Cholesky factor L of B = L L^T: unit simple roots in
    Euclidean coordinates whose dot product is B.  W is finite iff B is
    positive definite, so a pivot that is not positive ends the build."""
    form = _bilinear_form(spec.coxeter_matrix())
    r = len(form)
    low = [[0.0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1):
            acc = form[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if j < i:
                low[i][j] = acc / low[j][j]
            elif acc > _PIVOT_TOL:
                low[i][i] = math.sqrt(acc)
            else:
                raise CapExceeded(
                    f"the bilinear form of {spec.describe()} is not positive definite: "
                    f"the group is infinite or too large for element_cap {spec.element_cap}")
    return low


def _cell_keys(v: list[float]) -> list[tuple[int, ...]]:
    """The grid cell of v first, then each neighbouring cell across an edge
    that v lies within _NEAR_EDGE of."""
    keys: list[tuple[int, ...]] = [()]
    for x in v:
        scaled = x * _CELLS_PER_UNIT
        k = round(scaled)
        off = scaled - k
        if abs(off) > 0.5 - _NEAR_EDGE:
            other = k + 1 if off > 0 else k - 1
            keys = [key + (k,) for key in keys] + [key + (other,) for key in keys]
        else:
            keys = [key + (k,) for key in keys]
    return keys


def _root_action(spec: CoxeterSpec, largest: int) -> list[list[int]]:
    """Each generator as a permutation of root ids; the roots are the orbit
    of the simple roots, and simple root s has id s.  `largest` is the
    largest entry of the Coxeter matrix."""
    simple = _simple_roots(spec)
    roots: list[list[float]] = []
    cells: dict[tuple[int, ...], int] = {}

    def find(v: list[float]) -> int:
        hit = cells.get(tuple(round(x * _CELLS_PER_UNIT) for x in v))
        if hit is None:
            hit = len(roots)
            roots.append(v)
            for key in _cell_keys(v):
                cells.setdefault(key, hit)
        return hit

    for a in simple:
        find(a)
    # B is positive definite, so W is finite and each irreducible component
    # of rank k has k*h roots, its Coxeter number h being at most 2k, 30 or
    # the largest m(s, t); more roots than that means copies of one root
    # were filed apart
    rank = len(simple)
    most = rank * max(2 * rank, 30, largest)
    perms: list[list[int]] = [[] for _ in simple]
    i = 0
    while i < len(roots):
        if len(roots) > most:
            raise InvariantViolation(f"root identification failed: more than {most} roots")
        v = roots[i]
        for s, a in enumerate(simple):
            c = 2 * sum(x * y for x, y in zip(v, a))
            perms[s].append(find([x - c * y for x, y in zip(v, a)]))
        i += 1
    return perms


def _product_order(p: list[int], q: list[int]) -> int:
    """Order of the permutation i -> p[q[i]]."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        i, size = start, 0
        while not seen[i]:
            seen[i] = True
            i = p[q[i]]
            size += 1
        if size:
            order = math.lcm(order, size)
    return order


def _check_root_action(matrix: tuple[tuple[int, ...], ...], perms: list[list[int]]) -> None:
    """Exact checks on what rounding produced: every generator permutes the
    roots as an involution and every product st has order m(s, t)."""
    for s, p in enumerate(perms):
        if any(p[p[i]] != i for i in range(len(p))):
            raise InvariantViolation(
                f"root identification failed: generator {s + 1} does not act as an involution")
        for t in range(s + 1, len(perms)):
            order = _product_order(p, perms[t])
            if order != matrix[s][t]:
                raise InvariantViolation(
                    f"root identification failed: generators {s + 1} and {t + 1} "
                    f"act with order {order}, not {matrix[s][t]}")


def _build_from_roots(spec: CoxeterSpec) -> CoxeterSystem:
    rank = spec.rank
    cap = spec.element_cap
    matrix = spec.coxeter_matrix()
    # generators s, t with m(s, t) = m span a dihedral subgroup of order 2m
    largest = max(max(row) for row in matrix)
    if 2 * largest > cap:
        raise CapExceeded(f"|{spec.describe()}| >= {2 * largest} exceeds element_cap {cap}")
    perms = _root_action(spec, largest)
    _check_root_action(matrix, perms)
    # breadth-first by length with left multiplication; an element w is
    # keyed by the root ids of w(a_1), ..., w(a_rank)
    keys = [tuple(range(rank))]
    known = {keys[0]}
    elements: list[tuple[int, ...]] = [()]
    left: list[list[int]] = [[-1] * rank]
    level = [0]
    while True:
        grown: dict[tuple[int, ...], dict[int, int]] = {}
        for u in level:
            ku = keys[u]
            for s in range(rank):
                if left[u][s] != -1:
                    continue  # already linked: s*u is shorter
                p = perms[s]
                k = tuple([p[x] for x in ku])
                if k in known:
                    raise InvariantViolation("root identification failed: BFS reached "
                                             "a known element without a back link")
                grown.setdefault(k, {})[s] = u
        if not grown:
            break
        if len(elements) + len(grown) > cap:
            raise CapExceeded(f"{spec.describe()} has more than {cap} elements, "
                              f"so it exceeds element_cap {cap}")
        # each s in links is a recoil; the lex-least reduced word starts
        # with the smallest one and continues with the word of s*w
        fresh = []
        for k, links in grown.items():
            s = min(links)
            fresh.append(((s,) + elements[links[s]], k))
        fresh.sort()
        level = []
        for word, k in fresh:
            idx = len(elements)
            elements.append(word)
            keys.append(k)
            known.add(k)
            left.append([-1] * rank)
            for s, u in grown[k].items():
                left[u][s] = idx
                left[idx][s] = u
            level.append(idx)
    if len(level) != 1 or 2 * len(elements[-1]) != len(perms[0]):
        raise InvariantViolation("root identification failed: the longest element is not "
                                 "unique or its length is not half the number of roots")
    # w^-1 = a_k ... a_1 for the word a_1 ... a_k of w, and w*s = (s*w^-1)^-1
    inverse = []
    for word in elements:
        j = 0
        for t in word:
            j = left[j][t]
        inverse.append(j)
    right = [[inverse[left[inverse[i]][s]] for s in range(rank)] for i in range(len(elements))]
    return CoxeterSystem(spec, elements, left, right, inverse)


def build_system(spec: CoxeterSpec) -> CoxeterSystem:
    """Enumerate the whole group and precompute every lookup table."""
    spec.validate()
    if spec.kind == "symmetric":
        return _build_symmetric(spec)
    return _build_from_roots(spec)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
