"""Shared test utilities, including a from-scratch permutation oracle that
never touches the library's tables, and reference code for theorems the
tests check (a union-find for components, cycle ranks of class graphs, the
positional braid criterion, relation loops found one walk at a time,
loop actions lifted one step at a time, monodromy reports that walk every
loop, base-point independence of loop actions), the S_n tables built by swapping
one-line entries, the convolution tallied by one word walk per pair, and
the algebra product, which only the tests use, and a call counter that
forked workers share."""

from __future__ import annotations

import os
from collections import Counter
from itertools import permutations
from typing import Iterable, Sequence

from coxcover.algebra import AlgebraElement, product_expand, x_from_y, y_from_x
from coxcover.covering import CoveringInstance, multiplicity_partition, unique_lift_edge
from coxcover.coxeter import _invert_oneline, _permutation_order
from coxcover.errors import ClassInconstant, InvariantViolation, OrderViolation
from coxcover.gensets import format_subset, from_one_based
from coxcover.monodromy import (
    FiberAction, Loop, MonodromyReport, loop_action, relation_loops)
from coxcover.recoil import recoil_class
from coxcover.words import WordEngine, alternating


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


def reference_monodromy_report(instance) -> MonodromyReport:
    """`monodromy_report` without its involution test for squares or the
    check of a trivial cover: every relation loop of the target class,
    squares included, walks the lift table through `loop_action`, in loop
    order, and raises as that walk does."""
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
    return MonodromyReport(
        left=instance.left, right=instance.right, target=instance.target,
        empty=instance.is_empty,
        braid_loops=kinds["braid"], braid_orders=dict(orders["braid"]),
        polygon_loops=kinds["polygon"], polygon_orders=dict(orders["polygon"]),
        no_braid_loops=not kinds["braid"] and not kinds["polygon"],
        fiber_size=instance.fiber_size, partition=multiplicity_partition(instance),
    )


def reference_convolution(sys, left: int, right: int) -> AlgebraElement:
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
    return AlgebraElement.make("Y", coeffs)


def algebra_product(sys, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product of two algebra elements, in the basis both arguments share,
    from the library's class-pair expansions.

    X-basis products are computed through the Y basis, so their structure
    constants are exposed without a separate table.
    """
    if a.basis != b.basis:
        raise ValueError("operands must share a basis")
    if a.basis == "X":
        return x_from_y(algebra_product(sys, y_from_x(a), y_from_x(b)))
    out: Counter[int] = Counter()
    for mi, ci in a.coeffs:
        for mj, cj in b.coeffs:
            for mk, ck in product_expand(sys, mi, mj).coeffs:
                out[mk] += ci * cj * ck
    return AlgebraElement.make("Y", dict(out))


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
