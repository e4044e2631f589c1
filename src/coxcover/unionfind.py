"""Disjoint-set forest over arbitrary hashable items."""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    def __init__(self, items: Iterable[Hashable] = ()):
        self.parent: dict = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def component_count(self) -> int:
        return sum(1 for x in self.parent if self.parent[x] == x)

    def component_ids(self, order: Iterable[Hashable]) -> dict:
        """Map item -> small int id, ids assigned by first appearance in `order`."""
        ids: dict = {}
        out = {}
        for x in order:
            root = self.find(x)
            if root not in ids:
                ids[root] = len(ids)
            out[x] = ids[root]
        return out
