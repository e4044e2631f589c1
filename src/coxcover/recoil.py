"""Recoil classes: the fibers of the recoil-set map, with their graph structure.

The class of a subset I collects every element whose recoil set is exactly I.
It inherits a graph from the right Cayley graph (edges w -- w*s that stay in
the class), stored once, as `adjacency`: each member's neighbours in
ascending order.  The class is an interval of the right weak order; its
minimum and maximum are stored as `alpha` and `beta`.

Classes are built by a full scan of the enumerated group, so the interval
property, connectivity and the edge criteria stay independently testable
facts rather than construction inputs.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
from .errors import InvariantViolation
from .gensets import complement, format_subset


class RecoilClass:
    __slots__ = ("subset", "members", "adjacency", "alpha", "beta", "tree_links", "loops")

    def __init__(self, subset: int, members: list[int], adjacency: dict[int, list[int]],
                 alpha: int, beta: int):
        self.subset = subset
        self.members = members        # element indices, ascending
        self.adjacency = adjacency    # element -> neighbour indices, ascending
        self.alpha = alpha            # weak-order minimum (element index)
        self.beta = beta              # weak-order maximum (element index)
        self.tree_links = None        # filled by the convolution oracle on first use
        self.loops = None             # (loops, counts by kind), filled by `relation_loops`

    def __len__(self) -> int:
        return len(self.members)


def recoil_class(sys: CoxeterSystem, subset: int) -> RecoilClass:
    """The recoil class of `subset`, cached on the system."""
    cached = sys._class_cache.get(subset)
    if cached is not None:
        return cached  # type: ignore[return-value]
    if subset >> sys.rank:
        raise ValueError(f"subset {format_subset(subset)} outside rank {sys.rank}")
    members = [i for i in range(len(sys.elements)) if sys.recoils[i] == subset]
    if not members:
        raise InvariantViolation(f"recoil class {format_subset(subset)} is empty")
    right_cayley, recoils = sys.right_cayley, sys.recoils
    adjacency = {u: sorted(v for v in right_cayley[u] if recoils[v] == subset)
                 for u in members}
    # element indices ascend with (length, form), so the unique shortest and
    # longest members sit at the ends; uniqueness is part of the theorem
    if len(members) > 1:
        if sys.lengths[members[0]] == sys.lengths[members[1]]:
            raise InvariantViolation("recoil class has no unique minimum")
        if sys.lengths[members[-1]] == sys.lengths[members[-2]]:
            raise InvariantViolation("recoil class has no unique maximum")
    cls = RecoilClass(subset, members, adjacency, members[0], members[-1])
    sys._class_cache[subset] = cls
    return cls


def alpha_oneline(n: int, subset: int) -> tuple[int, ...]:
    """One-line form of the weak-order minimum of a symmetric-group class.

    The generators in `subset` split {1..n} into intervals; the minimum is
    the concatenation of those intervals written in descending order.
    """
    out: list[int] = []
    start = 1
    for v in range(1, n + 1):
        # the block continues while generator v (1-based) is in the subset
        if v < n and (subset >> (v - 1)) & 1:
            continue
        out.extend(range(v, start - 1, -1))
        start = v + 1
    return tuple(out)


def beta_oneline(n: int, subset: int) -> tuple[int, ...]:
    """One-line form of the weak-order maximum: the minimum of the
    complementary class multiplied by the longest element, i.e. reversed."""
    return tuple(reversed(alpha_oneline(n, complement(subset, n - 1))))


def same_class_edge_index(sys: CoxeterSystem, w: int, s: int) -> bool:
    """Does the Cayley edge w -- w*s stay inside w's recoil class?"""
    return sys.recoils[sys.right_cayley[w][s]] == sys.recoils[w]


def conjugated_generator(sys: CoxeterSystem, w: int, s: int) -> int | None:
    """The generator index t with w s w^-1 = t, or None when the conjugate
    is not simple.  Computed by actual multiplication, a walk through the
    right Cayley table that does not read the recoil tables, so it can
    cross-check the class-edge criterion."""
    ws = sys.right_cayley[w][s]
    conj = sys.multiply_index(ws, sys.inverse_index[w])
    return sys.gen_of.get(conj)


def positional_same_class(sys: CoxeterSystem, w: int, s: int) -> bool:
    """Type-A criterion: the swapped one-line entries differ by at least 2."""
    p = sys.elements[w]
    return abs(p[s] - p[s + 1]) >= 2


def class_interval_matches(sys: CoxeterSystem, cls: RecoilClass) -> bool:
    """Exhaustively test members == { w : alpha <= w <= beta } in weak order."""
    found = [
        w
        for w in range(len(sys.elements))
        if sys.weak_leq_index(cls.alpha, w) and sys.weak_leq_index(w, cls.beta)
    ]
    return found == cls.members
