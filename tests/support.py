"""Shared test utilities, including a from-scratch permutation oracle that
never touches the library's tables, and reference code for theorems the
tests check (a union-find for components, cycle ranks of class graphs, the
positional braid criterion, relation loops found one walk at a time,
loop actions lifted one step at a time by the reference lift
`unique_lift_edge`, monodromy reports that walk every loop, base-point
independence of loop actions), the S_n tables built by swapping
one-line entries, the convolution tallied by one word walk per pair, the
algebra product and the X/Y basis changes on coefficient dicts, which only
the tests use, a product table built from
one-line forms or canonical words alone, and a call counter that forked
workers share."""

from __future__ import annotations

import os
from collections import Counter
from itertools import permutations
from typing import Iterable, Sequence

from coxcover.algebra import _superset_transform, product_expand
from coxcover.covering import CoveringInstance
from coxcover.coxeter import _invert_oneline, _permutation_order
from coxcover.errors import ClassInconstant, InvariantViolation, NotAClassEdge, OrderViolation
from coxcover.gensets import format_subset, from_bits, from_one_based, one_based
from coxcover.monodromy import (
    FiberAction, Loop, alternating, loop_action, relation_loops)
from coxcover.recoil import recoil_class
from coxcover.words import WordEngine


def subset(*one_based: int) -> int:
    return from_one_based(one_based)


def perm(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def perm_index(sys, text: str) -> int:
    """Element index of the permutation written `text` in one-line notation."""
    return sys.elements.index(perm(text))


def compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """(u o v)(k) = u(v(k)), independent implementation."""
    return tuple(u[x - 1] for x in v)


def oracle_recoils(p: tuple[int, ...]) -> tuple[int, ...]:
    """1-based recoil positions: i such that i+1 appears before i."""
    position = {value: i for i, value in enumerate(p)}
    return tuple(i for i in range(1, len(p)) if position[i + 1] < position[i])


def oracle_class(n: int, recoils: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [p for p in permutations(range(1, n + 1)) if oracle_recoils(p) == recoils]


def oracle_class_edges(n: int, recoils: tuple[int, ...]) -> list[tuple]:
    """Undirected in-class Cayley edges via the adjacent-difference test."""
    members = set(oracle_class(n, recoils))
    edges = []
    for p in members:
        for i in range(n - 1):
            if abs(p[i] - p[i + 1]) >= 2:
                q = list(p)
                q[i], q[i + 1] = q[i + 1], q[i]
                q = tuple(q)
                if q in members and p < q:
                    edges.append((p, q, i + 1))
    return sorted(edges)


def oracle_inversions(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def reference_symmetric_tables(n: int) -> dict[str, object]:
    """The tables of S_n, named as `CoxeterSystem` names them, built one
    product at a time: w*s by swapping entries s and s+1 of the one-line
    form and looking the result up in a dict, inverses by
    `_invert_oneline`, s*w = (w^-1 * s)^-1, and each recoil and descent bit
    by comparing lengths.  No Lehmer digits involved."""
    elements = sorted(permutations(range(1, n + 1)), key=oracle_inversions)  # stable
    index = {p: i for i, p in enumerate(elements)}
    right = [[index[p[:s] + (p[s + 1], p[s]) + p[s + 2:]] for s in range(n - 1)]
             for p in elements]
    inverse = [index[_invert_oneline(p)] for p in elements]
    left = [[inverse[j] for j in right[inverse[i]]] for i in range(len(elements))]
    words: list[tuple[int, ...]] = [()]
    for i in range(1, len(elements)):
        row = left[i]
        s = next(s for s in range(n - 1) if row[s] < i)
        words.append((s,) + words[row[s]])
    lengths = [len(w) for w in words]

    def masks(cayley):
        return [sum(1 << s for s, v in enumerate(row) if lengths[v] < lengths[i])
                for i, row in enumerate(cayley)]

    return {"elements": elements, "right_cayley": right, "left_cayley": left,
            "inverse_index": inverse, "words": words, "recoils": masks(left),
            "descents": masks(right), "longest_index": lengths.index(max(lengths))}


def instance_fields(instance: CoveringInstance) -> dict[str, object]:
    """Every field of a covering instance but its `lifts` cache, by name;
    two instances with equal fields describe the same covering."""
    return {name: getattr(instance, name)
            for name in CoveringInstance.__slots__ if name != "lifts"}


def reference_words(matrix) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Elements and right Cayley table of the group of a Coxeter matrix,
    enumerated breadth-first from the canonical words of the braid-move
    engine.  Same indexing as `build_system`, but no roots involved."""
    rank = len(matrix)
    engine = WordEngine(tuple(tuple(row) for row in matrix))
    elements: list[tuple[int, ...]] = [()]
    right: list[list[int]] = [[-1] * rank]
    level = [0]
    while level:
        grown: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for u in level:
            wu = elements[u]
            for s in range(rank):
                if right[u][s] != -1:
                    continue  # already linked: this step shortens
                cw = engine.canonical(wu + (s,))
                assert len(cw) == len(wu) + 1, "a shorter word without a back link"
                grown.setdefault(cw, []).append((u, s))
        level = []
        for cw in sorted(grown):
            idx = len(elements)
            elements.append(cw)
            right.append([-1] * rank)
            for u, s in grown[cw]:
                right[u][s] = idx
                right[idx][s] = u
            level.append(idx)
    return elements, right


def reference_products(sys) -> tuple[list, list[int], list[list[int]]]:
    """Elements, recoil sets and full product table of the group of `sys`,
    made from its spec alone, never reading `multiply_index` or
    `right_cayley`.  S_n takes the one-line forms in the library's order
    (by inversions, stably over lex order), multiplies them by `compose`
    and reads recoils off positions.  Every other group takes the elements
    of `reference_words`, multiplies by walking the braid-move engine's
    canonical words one letter at a time, and finds the recoil set of w as
    the generators s with s*w shorter than w."""
    if sys.kind == "symmetric":
        n = sys.rank + 1
        elements = sorted(permutations(range(1, n + 1)), key=oracle_inversions)
        index = {p: i for i, p in enumerate(elements)}
        recoils = [from_one_based(oracle_recoils(p)) for p in elements]
        products = [[index[compose(u, v)] for v in elements] for u in elements]
        return elements, recoils, products
    engine = WordEngine(sys.matrix)
    elements, _ = reference_words(sys.matrix)
    index = {w: i for i, w in enumerate(elements)}

    def times(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        for s in v:
            u = engine.canonical(u + (s,))
        return u

    recoils = [from_bits(s for s in range(sys.rank) if len(times((s,), w)) < len(w))
               for w in elements]
    products = [[index[times(u, v)] for v in elements] for u in elements]
    return elements, recoils, products


class UnionFind:
    """Disjoint-set forest over the non-negative integers below a size,
    kept in a list indexed by item.  Every root is the smallest item of its
    set: a union links the larger root under the smaller one.  A reference
    for the library's component searches, sharing no code with them."""

    def __init__(self, size: int):
        self.parent: list[int] = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:  # path halving
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx < ry:
            self.parent[ry] = rx
        elif ry < rx:
            self.parent[rx] = ry

    def component_ids(self, order: Iterable[int]) -> list[int]:
        """Small int id of each item of `order`, in that order, ids assigned
        by first appearance; over ascending items a component's id follows
        its smallest member."""
        ids: dict[int, int] = {}
        out = []
        for x in order:
            root = self.find(x)
            if root not in ids:
                ids[root] = len(ids)
            out.append(ids[root])
        return out


def lift_side(sys, vertex, lifted) -> tuple[str, int]:
    """The coordinate a lift moved and the generator it moved by, read off
    the two vertices: ("right", s) when rho became rho*s, ("left", t) when
    pi became pi*t."""
    (p, r), (p2, r2) = vertex, lifted
    if p == p2:
        return "right", sys.right_cayley[r].index(r2)
    return "left", sys.right_cayley[p].index(p2)


def cycle_rank(vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> int:
    """Edges minus vertices plus components of a finite simple graph; the
    number of independent cycles (0 exactly for forests)."""
    vertices = list(vertices)
    uf = UnionFind(max(vertices, default=-1) + 1)
    n_edges = 0
    for e in edges:
        uf.union(e[0], e[1])
        n_edges += 1
    return n_edges - len(vertices) + len(set(uf.component_ids(vertices)))


def class_edges(sys, cls) -> list[tuple[int, int, int]]:
    """The edges of a class graph as (u, v, s) with u < v and v = u*s,
    ascending, read off the class adjacency; s is v's position in u's row
    of the right Cayley table."""
    return [(u, v, sys.right_cayley[u].index(v))
            for u in cls.members for v in cls.adjacency[u] if u < v]


def class_cycle_rank(cls) -> int:
    return cycle_rank(cls.members, [(u, v) for u in cls.members
                                    for v in cls.adjacency[u] if u < v])


def braid_loop_exists_positional(sys, w: int, i: int) -> bool:
    """Type-A shortcut for the braid hexagon at one-line position i
    (0-based): the three entries starting there must be pairwise at least 2
    apart.  Agreement with the walk test is a tested invariant."""
    p = sys.elements[w]
    a, b, c = p[i], p[i + 1], p[i + 2]
    return abs(a - b) >= 2 and abs(b - c) >= 2 and abs(a - c) >= 2


def reference_relation_loops(sys, cls) -> list[Loop]:
    """`relation_loops` without its cache, shared words or square walks:
    at every member, a square for each generator s whose Cayley neighbour
    u*s is larger and in the class, read off the member's row of the right
    Cayley table; then for every generator pair, build the alternating word
    afresh, record the whole walk and stop only when it leaves the class;
    keep the walks whose smallest element is their base."""
    loops: list[Loop] = []
    pairs = [(s, t, sys.matrix[s][t]) for s in range(sys.rank)
             for t in range(s + 1, sys.rank) if sys.matrix[s][t] >= 2]
    for base in cls.members:
        loops += [Loop(base, (s, s), "square") for s, v in enumerate(sys.right_cayley[base])
                  if v > base and sys.recoils[v] == sys.recoils[base]]
        for s, t, m in pairs:
            walk = [base]
            for g in alternating(s, t, 2 * m):
                walk.append(sys.right_cayley[walk[-1]][g])
                if sys.recoils[walk[-1]] != sys.recoils[base]:
                    break
            else:
                if min(walk) != base:
                    continue
                if walk[-1] != base:
                    raise InvariantViolation("alternating walk did not close")
                kind = "commuting" if m == 2 else "braid" if m == 3 else "polygon"
                loops.append(Loop(base, alternating(s, t, 2 * m), kind))
    return loops


def simple_conjugate(sys, w: int, s: int) -> int | None:
    """The generator index t with w s w^-1 = t, or None when the conjugate
    is not simple, read off the tables: w*s = t*w, so t is the position of
    w*s in w's row of the left Cayley table.  No multiplication; the tests
    compare it with `conjugated_generator`."""
    row = sys.left_cayley[w]
    ws = sys.right_cayley[w][s]
    return row.index(ws) if ws in row else None


def unique_lift_edge(sys, vertex: tuple[int, int], s: int, sigma: int) -> tuple[int, int]:
    """The reference lift of one in-class step of the product through the
    factorization, by a rule that does not read any instance's wiring.

    Given a vertex (pi, rho) whose product sigma moves to sigma*s inside its
    recoil class, exactly one of two refactorings works: either rho*s stays
    in rho's class (the right coordinate moves by s), or rho s rho^-1 is a
    simple generator t and pi*t stays in pi's class (the left coordinate
    moves by t).  Returns the new vertex; the side follows from it, since a
    right lift changes rho and a left lift changes pi.

    `sigma` is the product pi*rho, as an instance's `projection` holds it;
    nothing is multiplied out.  t is read off the tables by
    `simple_conjugate`, since rho*s = t*rho.
    """
    p, r = vertex
    right, recoils = sys.right_cayley, sys.recoils
    sigma2 = right[sigma][s]
    if recoils[sigma2] != recoils[sigma]:
        raise NotAClassEdge(
            f"step {sys.format_index(sigma)} -> {sys.format_index(sigma2)} "
            "leaves the recoil class"
        )
    r2 = right[r][s]
    if recoils[r2] == recoils[r]:
        return p, r2
    t = simple_conjugate(sys, r, s)
    if t is None:
        raise InvariantViolation("neither factorization of the lifted step is valid")
    p2 = right[p][t]
    if recoils[p2] != recoils[p]:
        raise InvariantViolation("left factorization left the first coordinate's class")
    return p2, r


def conjugate_action(instance, loop: Loop, path_word: tuple[int, ...]) -> FiberAction:
    """The action of the loop transported to the endpoint of a path: lift
    the path backwards, run the loop, lift the path forwards, one
    `unique_lift_edge` call per step (`reference_loop_action` of the moved
    loop).  Used to test base-point independence."""
    end = loop.base
    for s in path_word:
        end = instance.system.right_cayley[end][s]
    moved = Loop(end, tuple(reversed(path_word)) + loop.word + path_word, loop.kind)
    return reference_loop_action(instance, moved)


def reference_loop_action(instance, loop: Loop) -> FiberAction:
    """`loop_action` without the lift table: every fiber point walks the
    loop by calling `unique_lift_edge` at each step, the product advancing
    one right Cayley lookup per step."""
    fiber = instance.fibers.get(loop.base)
    if fiber is None:
        raise ValueError("loop base is not in the target class of this instance")
    sys = instance.system
    permutation: dict[int, int] = {}
    for vid in fiber:
        current, sigma = instance.vertices[vid], instance.projection[vid]
        for s in loop.word:
            current = unique_lift_edge(sys, current, s, sigma)
            sigma = sys.right_cayley[sigma][s]
        end = instance.vertices.index(current)
        if instance.projection[end] != loop.base:
            raise InvariantViolation("lifted loop did not end over its base")
        permutation[vid] = end
    if sorted(permutation.values()) != sorted(permutation):
        raise InvariantViolation("loop action is not a bijection of the fiber")
    return FiberAction(loop, permutation, _permutation_order(permutation))


def reference_monodromy_report(instance) -> dict:
    """`monodromy_report` without its involution test for squares or the
    check of a trivial cover: every relation loop of the target class,
    squares included, walks the lift table through `loop_action`, in loop
    order, and raises as that walk does.  Returns the `monodromy` document,
    its keys spelled out here."""
    sys = instance.system
    loops = relation_loops(sys, recoil_class(sys, instance.target))
    kinds = Counter(loop.kind for loop in loops)
    orders: dict[str, Counter[int]] = {"braid": Counter(), "polygon": Counter()}
    allowed = {"square": (1,), "commuting": (1,), "braid": (1, 2)}
    for loop in loops if not instance.is_empty else ():
        order = loop_action(instance, loop).order
        if loop.kind in allowed and order not in allowed[loop.kind]:
            raise OrderViolation(f"{loop.kind} loop at {sys.format_index(loop.base)} "
                                 f"acted with order {order}")
        if loop.kind in orders:
            orders[loop.kind][order] += 1
    report = {"I": list(one_based(instance.left)), "J": list(one_based(instance.right)),
              "K": list(one_based(instance.target)), "braid_loops": kinds["braid"],
              "orders": {str(k): orders["braid"][k] for k in sorted(orders["braid"])},
              "no_braid_loops": not kinds["braid"] and not kinds["polygon"]}
    if instance.is_empty:
        report["empty"] = True
    if kinds["polygon"]:
        report["polygon_loops"] = kinds["polygon"]
        report["polygon_orders"] = {str(k): orders["polygon"][k] for k in sorted(orders["polygon"])}
    return report


def reference_convolution(sys, left: int, right: int) -> dict[int, int]:
    """The convolution by word walks: every pair (p, r) multiplied by
    walking r's reduced word, the products tallied per element, and the
    tally checked constant on each recoil class.  The tests compare
    `convolution_oracle`, which reads products off the class tree, with it."""
    cls_l = recoil_class(sys, left)
    cls_r = recoil_class(sys, right)
    counts: Counter[int] = Counter()
    for p in cls_l.members:
        for r in cls_r.members:
            counts[sys.multiply_index(p, r)] += 1
    coeffs: dict[int, int] = {}
    for target in sorted({sys.recoils[w] for w in counts}):
        members = recoil_class(sys, target).members
        values = {counts.get(w, 0) for w in members}
        if len(values) != 1:
            raise ClassInconstant(
                f"counts {sorted(values)} differ inside class {format_subset(target)} "
                f"for the product ({format_subset(left)}, {format_subset(right)})"
            )
        coeffs[target] = values.pop()
    return coeffs


def x_from_y(coeffs: dict[int, int]) -> dict[int, int]:
    """Y-basis coefficients rewritten in the X basis, zeros dropped."""
    return {m: c for m, c in _superset_transform(coeffs, -1).items() if c}


def y_from_x(coeffs: dict[int, int]) -> dict[int, int]:
    """X-basis coefficients rewritten in the Y basis, zeros dropped."""
    return {m: c for m, c in _superset_transform(coeffs, +1).items() if c}


def algebra_product(sys, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two Y-basis combinations, subset -> coefficient, from
    the library's class-pair expansions; zeros dropped."""
    out: Counter[int] = Counter()
    for mi, ci in a.items():
        for mj, cj in b.items():
            for mk, ck in product_expand(sys, mi, mj).items():
                out[mk] += ci * cj * ck
    return {m: c for m, c in out.items() if c}


class Tally:
    """Counts calls across forked workers: each call appends the caller's
    pid as one line to a file opened with O_APPEND, which the workers
    inherit."""

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def add(self) -> None:
        os.write(self.fd, b"%d\n" % os.getpid())

    def pids(self) -> list[int]:
        return [int(line) for line in self.path.read_bytes().split()]
