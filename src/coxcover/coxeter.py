"""Finite Coxeter systems with full element enumeration and Cayley tables.

Conventions, fixed once and used everywhere:

- Elements are plain int indices into the system's tables; every query
  (product, inverse, length, recoil and descent sets, weak order) is a
  table lookup or a walk through a table.
- Symmetric groups act on {1..n} and elements are stored in one-line
  notation as tuples, so ``(2, 1, 3, 4)`` is the permutation written 2134.
- Products compose on the left: ``(u * v)(k) = u(v(k))``.  Consequently
  right multiplication by the generator with 0-based index ``s`` swaps
  positions s+1 and s+2 of the one-line form, and left multiplication
  swaps the values s+1 and s+2.
- The S_n tables are built without forming a product.  `permutations`
  yields S_n in lex order, and the factorial-base digits of a lex rank are
  the Lehmer code of its permutation.  Right multiplication by s changes
  only the digits s and s+1, so the rank of w*s is the rank of w plus an
  offset read off those two digits; mapping ranks through the length sort
  gives `right_cayley`.  Inverses are looked up from the one-line forms,
  and s*w = (w^-1 * s)^-1 gives `left_cayley`.  Recoils are read from
  `left_cayley` and descents from `right_cayley`, each on its own, so
  that `verify` comparing them through `inverse_index` tests the tables.
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
- Every system also keeps the lexicographically least reduced word of
  each element (for word-stored groups, the stored form itself).  A
  product u*v walks the right Cayley table from u along the word of v, for
  every kind of group.
- Elements are indexed breadth-first by length from the identity, ties
  broken by lexicographic order of the stored form, so index 0 is the
  identity and indices are reproducible across runs.
- A generator ``s`` is a recoil of ``w`` when ``len(s*w) < len(w)`` and a
  descent when ``len(w*s) < len(w)``; recoil and descent sets are bitmasks
  (see `gensets`).

>>> sys4 = build_system(CoxeterSpec.symmetric(4))
>>> len(sys4.elements)
24
>>> u = sys4.elements.index((2, 1, 3, 4)); v = sys4.word_index((2,))
>>> sys4.elements[sys4.multiply_index(u, v)]
(2, 1, 4, 3)
>>> sys4.words[sys4.longest_index]
(0, 1, 0, 2, 1, 0)
>>> sys4.format_index(sys4.word_index((0, 1)))
'2314'
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple, Sequence

from .errors import CapExceeded, InvalidSpec, InvariantViolation

DEFAULT_ELEMENT_CAP = 200_000
# letters that the stored reduced words may hold per element of the cap
WORD_LETTERS_PER_ELEMENT = 16


def _decimal(n: int) -> str:
    """n in decimal, or past 24 digits its first 8 digits and its digit
    count, so that a message echoing a hostile parameter stays one short
    line (str() would refuse more than 4300 digits)."""
    if n < 10 ** 24:
        return str(n)
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1  # at most one short
    digits += n >= 10 ** digits
    return f"{n // 10 ** (digits - 8)}...({digits} digits)"


class CoxeterSpec(NamedTuple):
    """Description of a finite Coxeter group to enumerate.

    kind is one of "symmetric", "dihedral", "matrix".  For dihedral groups
    `order` is the order m of the product of the two generators (the group
    has 2m elements).  Matrix entries give the orders m(s, t) as ints; 0 is
    reserved for infinite order and makes the build raise CapExceeded.
    A spec is immutable; `spec._replace(element_cap=c)` gives a copy with
    another cap.
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
            return f"S{_decimal(self.n)}"
        if self.kind == "dihedral":
            return f"I{_decimal(self.order)}"
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
      words          index -> lexicographically least reduced word; the
                     same list as `elements` for word-stored groups
      lengths        index -> Coxeter length, len(words[i])
      right_cayley   [index][s] -> index of w*s
      left_cayley    [index][s] -> index of s*w
      recoils        index -> recoil bitmask  { s : len(s*w) < len(w) }
      descents       index -> descent bitmask { s : len(w*s) < len(w) }
      inverse_index  index -> index of the inverse
      gen_index      s -> element index of the generator
      longest_index  index of the longest element

    The identity has index 0.
    """

    def __init__(self, spec: CoxeterSpec, elements: list[tuple[int, ...]],
                 words: list[tuple[int, ...]],
                 left_cayley: list[list[int]], right_cayley: list[list[int]],
                 inverse_index: list[int]):
        self.spec = spec
        self.kind = spec.kind
        self.rank = spec.rank
        self.n = spec.n
        self.matrix = spec.coxeter_matrix()
        self.elements = elements
        self.words = words
        self.lengths = [len(w) for w in words]
        self.left_cayley = left_cayley
        self.right_cayley = right_cayley
        self.inverse_index = inverse_index
        self.gen_index = list(left_cayley[0])  # s * identity
        self.gen_of = {idx: s for s, idx in enumerate(self.gen_index)}
        self.recoils = self._mask_table(self.left_cayley)
        self.descents = self._mask_table(self.right_cayley)
        self.longest_index = self._find_longest()
        self._class_cache: dict[int, object] = {}

    # -- construction helpers ------------------------------------------------

    def _mask_table(self, cayley: list[list[int]]) -> list[int]:
        """Bit s of entry w set when len(cayley[w][s]) < len(w), one
        generator column at a time."""
        lengths = self.lengths
        masks = [0] * len(cayley)
        for s, column in enumerate(zip(*cayley)):
            bit = 1 << s
            masks = [m | bit if lengths[v] < length else m
                     for m, v, length in zip(masks, column, lengths)]
        return masks

    def _find_longest(self) -> int:
        top = max(self.lengths)
        hits = [i for i, l in enumerate(self.lengths) if l == top]
        if len(hits) != 1:
            raise InvariantViolation("longest element is not unique")
        return hits[0]

    # -- group operations ----------------------------------------------------

    def word_index(self, word: Sequence[int]) -> int:
        """Index of the element spelled by an arbitrary word in the generators."""
        i = 0
        for s in word:
            i = self.right_cayley[i][s]
        return i

    def multiply_index(self, u: int, v: int) -> int:
        right = self.right_cayley
        for s in self.words[v]:
            u = right[u][s]
        return u

    def weak_leq_index(self, u: int, w: int) -> bool:
        """Right weak order: u <= w iff len(u) + len(u^-1 w) == len(w)."""
        between = self.multiply_index(self.inverse_index[u], w)
        return self.lengths[u] + self.lengths[between] == self.lengths[w]

    # -- presentation --------------------------------------------------------

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
            raise CapExceeded(f"|{spec.describe()}| >= {_decimal(size)} exceeds element_cap "
                              f"{_decimal(spec.element_cap)}")
    # permutations() yields lex order, in which the k-th permutation has as
    # many inversions as k has digit sum in the factorial base; a stable
    # sort on that count gives the (length, one-line) order
    lex = list(permutations(range(1, n + 1)))
    inversions = [0]
    for k in range(2, n + 1):
        inversions = [d + x for d in range(k) for x in inversions]
    order = sorted(range(size), key=inversions.__getitem__)
    elements = [lex[k] for k in order]
    del lex, inversions
    index_of_rank = [0] * size
    for i, k in enumerate(order):
        index_of_rank[k] = i
    # The digits of lex rank k are the Lehmer code c_0..c_{n-1} of its
    # permutation (c_j counts the later entries below entry j), weighted by
    # f_j = (n-1-j)!.  Right multiplication by s swaps entries s and s+1
    # (0-based) and changes only a = c_s and b = c_{s+1}: to (b+1, a) when
    # a <= b, else to (b, a-1).  The rank thus moves by an offset of (a, b)
    # alone, and over consecutive ranks the offsets repeat with period
    # (n-s)!: b holds each value for f_{s+1} ranks, a for f_s ranks.
    right_columns = []
    for s in range(n - 1):
        fa, fb = math.factorial(n - 1 - s), math.factorial(n - 2 - s)
        offsets: list[int] = []
        for a in range(n - s):
            for b in range(n - s - 1):
                offsets += [(b - a) * (fa - fb) + (fa if a <= b else -fb)] * fb
        offsets *= size // len(offsets)
        right_columns.append([index_of_rank[k + offsets[k]] for k in order])
    index = dict(zip(elements, range(size)))
    inverse = [index[_invert_oneline(p)] for p in elements]
    # s*w = (w^-1 * s)^-1
    left_columns = [[inverse[column[j]] for j in inverse] for column in right_columns]
    # S1 has no generator, so no column, and one empty row
    right = [list(row) for row in zip(*right_columns)] or [[]]
    left = [list(row) for row in zip(*left_columns)] or [[]]
    # indices ascend with length, so s is a recoil of w exactly when s*w has
    # the smaller index; the lex-least reduced word starts with the smallest
    # recoil and continues with the word of s*w, already built
    words: list[tuple[int, ...]] = [()]
    for i in range(1, size):
        row = left[i]
        s = 0
        while row[s] > i:
            s += 1
        words.append((s,) + words[row[s]])
    return CoxeterSystem(spec, elements, words, left, right, inverse)


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
                    "the group is infinite or too large for element_cap "
                    f"{_decimal(spec.element_cap)}")
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


def _permutation_order(permutation: dict[int, int]) -> int:
    """Order of the permutation x -> permutation[x]: the lcm of its cycle
    lengths.  A fixed point costs one comparison.  Raises ValueError when
    the map is not a bijection of its keys."""
    order = 1
    seen: set[int] = set()
    for start, x in permutation.items():
        if x == start or start in seen:
            continue
        seen.add(start)
        size = 1
        while x != start:
            if x in seen or x not in permutation:
                raise ValueError("not a bijection of its keys")
            seen.add(x)
            x = permutation[x]
            size += 1
        order = math.lcm(order, size)
    return order


def _check_root_action(matrix: tuple[tuple[int, ...], ...], perms: list[list[int]]) -> None:
    """Exact checks on what rounding produced: every generator permutes the
    roots as an involution and every product st has order m(s, t)."""
    for s, p in enumerate(perms):
        if any(p[p[i]] != i for i in range(len(p))):
            raise InvariantViolation(
                f"root identification failed: generator {s + 1} does not act as an involution")
    for s, p in enumerate(perms):
        for t in range(s + 1, len(perms)):
            order = _permutation_order({i: p[j] for i, j in enumerate(perms[t])})
            if order != matrix[s][t]:
                raise InvariantViolation(
                    f"root identification failed: generators {s + 1} and {t + 1} "
                    f"act with order {order}, not {matrix[s][t]}")


def _build_from_roots(spec: CoxeterSpec) -> CoxeterSystem:
    rank = spec.rank
    cap = spec.element_cap
    matrix = spec.coxeter_matrix()
    # every subset J of the generators is the recoil set of the longest
    # element of W_J, so |W| >= 2^rank
    if 2 ** rank > cap:
        raise CapExceeded(f"|{spec.describe()}| >= 2^{rank} exceeds element_cap {_decimal(cap)}")
    # generators s, t with m(s, t) = m span a dihedral subgroup of order 2m
    largest = max(max(row) for row in matrix)
    if 2 * largest > cap:
        raise CapExceeded(f"|{spec.describe()}| >= {_decimal(2 * largest)} exceeds element_cap "
                          f"{_decimal(cap)}")
    # and that subgroup's 2m elements are stored as words of m^2 letters in all
    if largest * largest > WORD_LETTERS_PER_ELEMENT * cap:
        raise CapExceeded(f"the words of {spec.describe()} hold >= {_decimal(largest * largest)} "
                          f"letters, more than {WORD_LETTERS_PER_ELEMENT} per element of "
                          f"element_cap {_decimal(cap)}")
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
                links = grown.get(k)
                if links is None:
                    # refuse at the first element over the cap, before the
                    # rest of the level is built
                    if len(elements) + len(grown) >= cap:
                        raise CapExceeded(f"{spec.describe()} has more than {cap} elements, "
                                          f"so it exceeds element_cap {cap}")
                    links = grown[k] = {}
                links[s] = u
        if not grown:
            break
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
    return CoxeterSystem(spec, elements, elements, left, right, inverse)


def build_system(spec: CoxeterSpec) -> CoxeterSystem:
    """Enumerate the whole group and precompute every lookup table."""
    spec.validate()
    if spec.kind == "symmetric":
        return _build_symmetric(spec)
    return _build_from_roots(spec)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
