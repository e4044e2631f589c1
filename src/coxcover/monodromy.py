"""Relation loops in recoil classes and their action on covering fibers.

The cycles of a class graph are generated by loops tracing the defining
relations of the group, as far as they fit inside the class: going back and
forth along one edge (squares), the 4-cycles of a commuting pair (order 2),
the 6-cycles of a braid pair (order 3) and, in groups that have them, the
2m-gons of pairs of order m >= 4 ("polygon" loops).  `relation_loops` finds
them all, squares included, with one walker over the Cayley table.

Lifting such a loop through a covering instance permutes the fiber over its
base point.  `loop_action` walks vertex ids through the instance's lift
table (`CoveringInstance.lift_table`), read once off the instance's
adjacency, so a step shared by many loops costs one lookup per walk.
Squares and commuting loops always act trivially; braid loops act with
order 1 or 2; polygon orders are measured and reported without asserting
a bound.

A square (s, s) is the relation s^2 = 1: its lift from u ends at u exactly
when lifts[s][lifts[s][u]] == u.  `lift_loops` walks the loops once, in
order, and passes a square without `loop_action` when the lift table is
an involution on its step, with no -1, from every point over its base;
any other square goes through `loop_action`, so an error raised and its
witness are those of the walk over every loop.  It raises on any
violation and returns only the braid and polygon order counts: the
`verify` sweep calls it alone.  `monodromy_report` adds the document that
the `monodromy` command prints.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import CoxeterSystem, _permutation_order
from .covering import CoveringInstance, multiplicity_partition
from .errors import InvariantViolation, NotAClassEdge, OrderViolation
from .recoil import RecoilClass


def alternating(a: int, b: int, count: int) -> tuple[int, ...]:
    """The word a b a b ... of the given length."""
    return tuple(a if i % 2 == 0 else b for i in range(count))


class Loop(NamedTuple):
    """A closed walk inside one recoil class, as a generator word from a
    base element.  Every prefix of the word must stay in the class."""

    base: int                 # element index
    word: tuple[int, ...]
    kind: str                 # "square" | "commuting" | "braid" | "polygon"


class FiberAction(NamedTuple):
    loop: Loop
    permutation: dict[int, int]   # vertex id -> vertex id, over the base fiber
    order: int


def relation_loops(sys: CoxeterSystem, cls: RecoilClass) -> list[Loop]:
    """All relation loops lying inside the class, each emitted once.

    The words, built once per class, are the square (s, s) of each
    generator, then each pair's alternating word in the rotation that
    starts with the smaller generator (the reverse rotation is the inverse
    loop).  Each is walked from every member through `right_cayley` and
    stops at the first step that leaves the class or drops below the
    member, so a loop is kept at its minimum only: one square per class
    edge, at its smaller end.  Loops come out by base, then by word.
    Kept on the class, next to the loop counts by kind, which `lift_loops`
    and `monodromy_report` read.
    """
    if cls.loops is not None:
        return cls.loops[0]
    words = [((s, s), "square") for s in range(sys.rank)] + [
        (alternating(s, t, 2 * m), "commuting" if m == 2 else "braid" if m == 3 else "polygon")
        for s in range(sys.rank)
        for t in range(s + 1, sys.rank)
        if (m := sys.matrix[s][t]) >= 2
    ]
    loops: list[Loop] = []
    right, recoils, subset = sys.right_cayley, sys.recoils, cls.subset
    for base in cls.members:
        for word, kind in words:
            current = base
            for g in word:
                current = right[current][g]
                if current < base or recoils[current] != subset:
                    break
            else:
                if current != base:
                    raise InvariantViolation("alternating walk did not close")
                loops.append(Loop(base, word, kind))
    counts = {"square": 0, "commuting": 0, "braid": 0, "polygon": 0}
    for loop in loops:
        counts[loop.kind] += 1
    cls.loops = loops, counts
    return loops


def loop_action(instance: CoveringInstance, loop: Loop) -> FiberAction:
    """Permutation of the fiber over the loop's base induced by lifting the
    loop from every fiber point, walking vertex ids through the instance's
    lift table.  A loop that leaves the target class raises NotAClassEdge.
    One cycle walk (`_permutation_order`) checks that the ends permute the
    fiber and gives the order."""
    base = loop.base
    fiber = instance.fibers.get(base)
    if fiber is None:
        raise ValueError("loop base is not in the target class of this instance")
    lifts, projection = instance.lift_table(), instance.projection
    rows = [lifts[s] for s in loop.word]
    permutation: dict[int, int] = {}
    for vid in fiber:
        end = vid
        for row in rows:
            end = row[end]
            if end < 0:
                word = " ".join(f"s{g + 1}" for g in loop.word)
                raise NotAClassEdge(
                    f"loop {word} at {instance.system.format_index(base)} leaves "
                    f"the target class when lifted from {instance.vertices[vid]}")
        if projection[end] != base:
            raise InvariantViolation("lifted loop did not end over its base")
        permutation[vid] = end
    try:
        order = _permutation_order(permutation)
    except ValueError:
        raise InvariantViolation("loop action is not a bijection of the fiber") from None
    return FiberAction(loop, permutation, order)


def lift_loops(instance: CoveringInstance) -> tuple[dict[int, int], dict[int, int]]:
    """Lift every relation loop of the target class through the instance
    and return the orders the braid loops and the polygon loops act with,
    each order mapped to its loop count.

    Squares and commuting loops are required to act trivially and braid
    loops with order 1 or 2 (OrderViolation otherwise; neither can happen).
    The loops are walked once, in order.  A square (s, s) whose lift table
    row is an involution, with no -1, on every point over its base lifts
    to the identity and is passed; every other loop, a square that fails
    that test included, goes through `loop_action`, so the first failing
    loop raises the error and witness of the walk over every loop.
    When the class carries no braid or polygon loop at all, the instance
    must fall apart into disjoint copies of the target class: the partition
    is all ones and each component projects isomorphically.
    """
    sys = instance.system
    cls = instance.target_class
    relation_loops(sys, cls)
    loops, counts = cls.loops
    braid_orders: dict[int, int] = {}
    polygon_orders: dict[int, int] = {}
    if instance.is_empty:
        return braid_orders, polygon_orders
    lifts, projection, fibers = instance.lift_table(), instance.projection, instance.fibers
    for loop in loops:
        if loop.kind == "square":
            row, base = lifts[loop.word[0]], loop.base
            for u in fibers[base]:
                v = row[u]
                if v < 0 or row[v] != u or projection[u] != base:
                    break
            else:
                continue  # s^2 = 1 lifts to the identity of the fiber
        action = loop_action(instance, loop)
        if loop.kind in ("square", "commuting"):
            if action.order != 1:
                raise OrderViolation(
                    f"{loop.kind} loop at {sys.format_index(loop.base)} "
                    f"acted with order {action.order}"
                )
        elif loop.kind == "braid":
            if action.order not in (1, 2):
                raise OrderViolation(
                    f"braid loop at {sys.format_index(loop.base)} "
                    f"acted with order {action.order}"
                )
            braid_orders[action.order] = braid_orders.get(action.order, 0) + 1
        else:
            polygon_orders[action.order] = polygon_orders.get(action.order, 0) + 1
    if counts["braid"] == 0 and counts["polygon"] == 0:
        _check_trivial_cover(instance)
    return braid_orders, polygon_orders


def monodromy_report(instance: CoveringInstance) -> dict:
    """`lift_loops`, tabulated as the document `monodromy` prints: the
    instance's `subsets`, then `braid_loops`, `orders` and
    `no_braid_loops`, `"empty": true` for an empty instance, and
    `polygon_loops` and `polygon_orders` when the class has polygon loops.
    Orders are counted under their decimal string, in ascending order."""
    braid_orders, polygon_orders = lift_loops(instance)
    counts = instance.target_class.loops[1]
    report = {
        **instance.subsets(),
        "braid_loops": counts["braid"],
        "orders": {str(k): n for k, n in sorted(braid_orders.items())},
        "no_braid_loops": counts["braid"] == 0 and counts["polygon"] == 0,
    }
    if instance.is_empty:
        report["empty"] = True
    if counts["polygon"]:
        report["polygon_loops"] = counts["polygon"]
        report["polygon_orders"] = {str(k): n for k, n in sorted(polygon_orders.items())}
    return report


def _check_trivial_cover(instance: CoveringInstance) -> None:
    """Without braid or polygon loops every component must be a disjoint
    isomorphic copy of the target class."""
    partition = multiplicity_partition(instance)
    if partition != (1,) * instance.fiber_size:
        raise InvariantViolation(f"no braid loops but partition {partition} is not all ones")
    if not component_isomorphisms(instance):
        raise InvariantViolation("a degree-1 component is not isomorphic to the target class")


def component_isomorphisms(instance: CoveringInstance) -> bool:
    """True when every component projects one-to-one onto the target class,
    vertices and edges alike."""
    # a component's degree is its fiber count, which the constructor found
    # equal at every class member: degree 1 is one vertex over each member
    if any(d != 1 for d in instance.degrees):
        return False
    # edge counts then force the edge bijection (projection never collapses)
    comp_ends = [0] * instance.component_count  # twice the edges: none leaves its component
    for c, nbrs in zip(instance.component, instance.adjacency):
        comp_ends[c] += len(nbrs)
    class_ends = sum(len(nbrs) for nbrs in instance.target_class.adjacency.values())
    return all(ends == class_ends for ends in comp_ends)
