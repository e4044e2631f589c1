"""Shared test utilities, including a from-scratch permutation oracle that
never touches the library's tables."""

from __future__ import annotations

from itertools import permutations

from coxcover.gensets import from_one_based
from coxcover.words import WordEngine


def subset(*one_based: int) -> int:
    return from_one_based(one_based)


def perm(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


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
