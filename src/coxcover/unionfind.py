"""Disjoint-set forest over the non-negative integers below a size (element
indices or vertex ids), kept in a list indexed by item."""

from __future__ import annotations

from typing import Iterable


class UnionFind:
    """Every root is the smallest item of its set: a union links the larger
    root under the smaller one."""

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
