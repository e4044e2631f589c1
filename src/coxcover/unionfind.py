"""Disjoint-set forest over non-negative integer items (element indices or
vertex ids), kept in a list indexed by item."""

from __future__ import annotations

from typing import Iterable


class UnionFind:
    """Every root is the smallest item of its set: a union links the larger
    root under the smaller one."""

    def __init__(self, items: Iterable[int] = ()):
        self.items: list[int] = list(items)
        self.parent: list[int] = list(range(max(self.items, default=-1) + 1))

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

    def component_count(self) -> int:
        parent = self.parent
        return sum(1 for x in self.items if parent[x] == x)

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
