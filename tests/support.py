"""Shared test utilities, including a from-scratch permutation oracle that
never touches the library's tables, and reference code for theorems the
tests check (a union-find for components, cycle ranks of class graphs, the
positional braid criterion, loop actions lifted one step at a time,
base-point independence of loop actions), and the algebra product, which
only the tests use."""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Iterable, Sequence

from coxcover.algebra import AlgebraElement, product_expand, x_from_y, y_from_x
from coxcover.covering import unique_lift_edge
from coxcover.coxeter import _permutation_order
from coxcover.errors import InvariantViolation
from coxcover.gensets import from_one_based
from coxcover.monodromy import FiberAction, Loop, lift_path
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


def class_cycle_rank(cls) -> int:
    return cycle_rank(cls.members, cls.edges)


def braid_loop_exists_positional(sys, w: int, i: int) -> bool:
    """Type-A shortcut for the braid hexagon at one-line position i
    (0-based): the three entries starting there must be pairwise at least 2
    apart.  Agreement with the walk test is a tested invariant."""
    p = sys.elements[w]
    a, b, c = p[i], p[i + 1], p[i + 2]
    return abs(a - b) >= 2 and abs(b - c) >= 2 and abs(a - c) >= 2


def conjugate_action(instance, loop: Loop, path_word: tuple[int, ...]) -> FiberAction:
    """The action of the loop transported to the endpoint of a path: lift
    the path backwards, run the loop, lift the path forwards.  Used to test
    base-point independence."""
    sys = instance.system
    end = loop.base
    for s in path_word:
        end = sys.right_cayley[end][s]
    permutation: dict[int, int] = {}
    for vid in instance.fibers[end]:
        vertex = instance.vertices[vid]
        back = lift_path(instance, vertex, tuple(reversed(path_word)))
        looped = lift_path(instance, back[-1], loop.word)
        forward = lift_path(instance, looped[-1], path_word)
        permutation[vid] = instance.id_of(forward[-1])
    moved = Loop(end, tuple(reversed(path_word)) + loop.word + path_word, loop.kind)
    return FiberAction(moved, permutation, _permutation_order(permutation))


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
        end = instance.id_of(current)
        if instance.projection[end] != loop.base:
            raise InvariantViolation("lifted loop did not end over its base")
        permutation[vid] = end
    if sorted(permutation.values()) != sorted(permutation):
        raise InvariantViolation("loop action is not a bijection of the fiber")
    return FiberAction(loop, permutation, _permutation_order(permutation))


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
