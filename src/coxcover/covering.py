"""Fibered product of two recoil classes and its projection onto a third.

Fix recoil subsets I, J, K.  The instance built here has one vertex for
every pair (pi, rho) with pi in the class of I, rho in the class of J and
pi*rho in the class of K.  Edges come from the product graph: exactly one
coordinate moves along an edge of its own class, both endpoints must be
vertices, and the two products must sit one Cayley step apart (automatic
for right moves; a real restriction for left moves, whose product shift is
a conjugate that need not be simple).  The graph is stored once, as
ascending adjacency lists of vertex ids; `edges` reads (u, v) pairs off
them, and an edge's moved coordinate and generator follow from u and v.

The vertices come from one scan of the |Y_I|*|Y_J| products, `_scan`,
which buckets the pairs by the recoil set of their product, for the
targets asked: `build_fibered_graph` asks for K alone, and
`iter_fibered_graphs` for every target at once.  Both hand a bucket to the
`CoveringInstance` constructor, so an instance is identical whichever way
it was built.  It wires the adjacency, labels the components by a search
over it and checks that every fiber splits the same way across them
(FiberInconstant otherwise).
`CoveringInstance.subsets` builds the keys I, J and K once, for both
`row`, the one definition of a `table` row, and the `monodromy` document;
`cover --format json` prints the row with the vertex count added.

The projection sends (pi, rho) to pi*rho.  Everything this package computes
downstream rests on that projection being a graph covering of the target
class; `verify_covering` checks the covering axioms directly instead of
assuming them, edge preservation and unique lifting together as one
local-bijection test per vertex (its neighbours must project one-to-one
onto the class neighbours of its image).  It returns the witnesses of
any violation, and `cover` prints the first.  The per-fiber counts give
the structure constants of the descent algebra.

Each edge u -- v lifts the Cayley step from pi(u) to pi(v), so the
wiring already holds the unique lift of every in-class step.
`CoveringInstance.lift_table` reads those lifts off the adjacency on first
use and keeps them as vertex ids, raising with the first
`verify_covering` witness at a step lifted other than once: the same
local-bijection test, which is the `verify` sweep's one covering-axiom
test.  `monodromy.loop_action` moves fiber points along relation loops
through the table, `monodromy.lift_loops` confirms the square loops by
checking that it is an involution, and the sweep checks the table against
a brute force that tries both refactorizations of every step.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .coxeter import CoxeterSystem
from .errors import FiberInconstant, InvariantViolation
from .gensets import format_subset, iter_subsets, one_based
from .recoil import RecoilClass, recoil_class

Vertex = tuple[int, int]  # (element index in left class, element index in right class)


class CoveringInstance:
    """One instance (I, J, K): its vertices, adjacency, fibers and components,
    wired from every pair of the product of cls_l and cls_r that lands in
    cls_t, in scan order (ascending pairs), and the pairs' products.
    Raises FiberInconstant unless every fiber splits the same way across
    the components.  `lifts` is filled by `lift_table` on first use."""

    __slots__ = ("left", "right", "target", "system", "left_class", "right_class",
                 "target_class", "vertices", "projection", "adjacency",
                 "fibers", "component", "degrees", "fiber_size", "lifts")

    def __init__(self, sys: CoxeterSystem, cls_l: RecoilClass, cls_r: RecoilClass,
                 cls_t: RecoilClass, vertices: list[Vertex], projection: list[int]):
        self.left, self.right, self.target = cls_l.subset, cls_r.subset, cls_t.subset
        self.system = sys
        self.left_class, self.right_class, self.target_class = cls_l, cls_r, cls_t
        self.vertices = vertices        # sorted pairs of element indices
        self.projection = projection    # vertex id -> element index of the product
        order = len(sys.elements)
        # pi*|W| + rho -> vertex id, needed only while wiring
        get = {p * order + r: i for i, (p, r) in enumerate(vertices)}.get
        right_cayley = sys.right_cayley
        adj_l, adj_r = cls_l.adjacency, cls_r.adjacency

        # vertex id -> neighbour ids.  Ids ascend with the pairs, so a move
        # reaches a larger id exactly when the moved coordinate grows.  Each
        # edge is found from its smaller end u and appended to both lists;
        # they ascend, since u ascends, class adjacency lists ascend and u's
        # right moves keep pi, so they precede its left moves.
        self.adjacency = adjacency = [[] for _ in vertices]
        for u, (p, r) in enumerate(vertices):
            nbrs = adjacency[u]
            base = p * order
            for r2 in adj_r[r]:
                if r2 > r:
                    v = get(base + r2)
                    if v is not None:
                        nbrs.append(v)
                        adjacency[v].append(u)
            for p2 in adj_l[p]:
                if p2 > p:
                    v = get(p2 * order + r)
                    # a left move shifts the product by rho^-1 s rho, which
                    # need not be simple; only moves whose projection is a
                    # Cayley step are edges, or the projection could not
                    # preserve them
                    if v is not None and projection[v] in right_cayley[projection[u]]:
                        nbrs.append(v)
                        adjacency[v].append(u)

        # target element -> vertex ids
        self.fibers = fibers = {t: [] for t in cls_t.members}
        for vid, prod in enumerate(projection):
            fibers[prod].append(vid)

        # vertex id -> component id; searches start from ascending
        # unlabelled vertices, so a component's id follows its smallest vertex
        self.component = component = [-1] * len(vertices)
        n_comp = 0
        for root in range(len(vertices)):
            if component[root] == -1:
                component[root] = n_comp
                stack = [root]
                while stack:
                    for v in adjacency[stack.pop()]:
                        if component[v] == -1:
                            component[v] = n_comp
                            stack.append(v)
                n_comp += 1

        # component id -> covering degree: the fiber counts at the class
        # minimum, verified constant over every point of the target class
        degrees = None
        for t in cls_t.members:
            counts = [0] * n_comp
            for vid in fibers[t]:
                counts[component[vid]] += 1
            if degrees is None:
                degrees = counts
            elif counts != degrees:
                raise FiberInconstant(
                    f"component fiber counts {counts} at {sys.format_index(t)} differ "
                    f"from {degrees} at {sys.format_index(cls_t.alpha)} in the "
                    f"({format_subset(self.left)}, {format_subset(self.right)}, "
                    f"{format_subset(self.target)}) instance"
                )
        self.degrees = degrees
        self.fiber_size = sum(degrees)  # the structure constant
        # generator -> vertex id -> id of the lift of that step, or -1 when
        # the step leaves the target class
        self.lifts: list[list[int]] | None = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge as (u, v), u < v, ascending, read off the adjacency."""
        return [(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def component_count(self) -> int:
        return len(self.degrees)

    def lift_table(self) -> list[list[int]]:
        """`lifts[s][u]`: the id of the vertex that lifts the step
        pi(u) -> pi(u)*s from vertex u, or -1 when pi(u)*s leaves the target
        class.  Read off the adjacency on first use, since each edge u -- v
        lifts the step from pi(u) to pi(v), and kept on the instance.  A
        vertex whose neighbours do not lift each in-class step exactly once
        raises InvariantViolation with the first `verify_covering` witness."""
        if self.lifts is None:
            right, projection = self.system.right_cayley, self.projection
            class_nbrs = self.target_class.adjacency
            lifts = [[-1] * len(projection) for _ in range(self.system.rank)]
            for u, nbrs in enumerate(self.adjacency):
                steps = right[projection[u]]
                for v in nbrs:
                    if projection[v] not in steps:
                        raise InvariantViolation(verify_covering(self)[0])
                    row = lifts[steps.index(projection[v])]
                    if row[u] >= 0:
                        raise InvariantViolation(verify_covering(self)[0])
                    row[u] = v
                # each neighbour filled its own step: a short list missed one
                if len(nbrs) != len(class_nbrs[projection[u]]):
                    raise InvariantViolation(verify_covering(self)[0])
            self.lifts = lifts
        return self.lifts

    def subsets(self) -> dict:
        """The subsets I, J and K, 1-based: the keys that open both the
        instance's `table` row and its `monodromy` document."""
        return {"I": list(one_based(self.left)), "J": list(one_based(self.right)),
                "K": list(one_based(self.target))}

    def row(self) -> dict:
        """The instance's `table` row: its subsets, the structure constant
        a, the partition lambda and the component count."""
        return {
            **self.subsets(),
            "a": self.fiber_size,
            "lambda": list(multiplicity_partition(self)),
            "components": self.component_count,
        }

    def to_json(self) -> dict:
        """The `cover --format json` document: the row and the vertex count."""
        return {**self.row(), "vertices": len(self.vertices)}


def _scan(sys: CoxeterSystem, cls_l: RecoilClass, cls_r: RecoilClass,
          targets: Iterable[int]) -> dict[int, tuple[list[Vertex], list[int]]]:
    """The one pass over the product of two classes: for each recoil set
    in `targets`, a bucket (vertices, projection) of the pairs (p, r) whose
    product lands in that class, in ascending order, and their products.
    A pair whose product lands in no wanted class is dropped."""
    buckets = {target: ([], []) for target in targets}
    bucket_of, recoils, multiply = buckets.get, sys.recoils, sys.multiply_index
    members_r = cls_r.members
    for p in cls_l.members:
        for r in members_r:
            prod = multiply(p, r)
            bucket = bucket_of(recoils[prod])
            if bucket is not None:
                bucket[0].append((p, r))
                bucket[1].append(prod)
    return buckets


def build_fibered_graph(sys: CoxeterSystem, left: int, right: int,
                        target: int) -> CoveringInstance:
    """Scan the product of two classes for the pairs whose product lands
    in the target class; the instance wires up its adjacency, fibers,
    components and per-component degrees.

    An empty instance (structure constant 0) is valid data, not an error.
    """
    cls_l = recoil_class(sys, left)
    cls_r = recoil_class(sys, right)
    cls_t = recoil_class(sys, target)  # refuses a target outside the rank before the scan
    vertices, projection = _scan(sys, cls_l, cls_r, (target,))[target]
    return CoveringInstance(sys, cls_l, cls_r, cls_t, vertices, projection)


def iter_fibered_graphs(sys: CoxeterSystem, left: int,
                        right: int) -> Iterator[tuple[int, CoveringInstance]]:
    """Every non-empty instance of the product of two classes, as
    (target, instance) in ascending target order, from one scan that
    buckets every target.  Instances are wired one at a time as they are
    requested, so a consumer holds only what it keeps.
    """
    cls_l = recoil_class(sys, left)
    cls_r = recoil_class(sys, right)
    buckets = _scan(sys, cls_l, cls_r, iter_subsets(sys.rank))
    for target in iter_subsets(sys.rank):
        vertices, projection = buckets.pop(target)
        if vertices:
            yield target, CoveringInstance(sys, cls_l, cls_r, recoil_class(sys, target),
                                           vertices, projection)


def multiplicity_partition(instance: CoveringInstance) -> tuple[int, ...]:
    """Per-component covering degrees, weakly decreasing.  Sums to the
    structure constant; empty for an empty instance."""
    return tuple(sorted(instance.degrees, reverse=True))


def verify_covering(instance: CoveringInstance) -> list[str]:
    """Check the three covering axioms of the projection and return the
    witnesses of their violations; an empty list means the axioms hold.

    Surjectivity is read off the fibers: the first target element that no
    vertex projects onto is a witness.  Edge preservation and unique
    lifting are checked together, as one local-bijection test per vertex
    u: the projections of u's neighbours, counted with multiplicity, must
    be the class neighbours of pi(u), each taken once.  The test compares
    every vertex's list in one pass; only when it fails does a second pass
    examine each failing vertex for its witnesses: an edge over a
    non-edge breaks edge preservation, and the first in edge order is a
    witness; every class neighbour hit n != 1 times gives "n lifts of
    edge ...".

    An empty instance returns []: its projection onto the target class is
    then vacuously non-surjective, a fact about the instance rather than a
    failed axiom.
    """
    if instance.is_empty:
        return []
    sys = instance.system
    missed = [t for t, f in instance.fibers.items() if not f]
    witnesses = [f"no vertex projects onto {sys.format_index(t)}" for t in missed[:1]]

    projection, vertices = instance.projection, instance.vertices
    class_nbrs = instance.target_class.adjacency  # each list ascends
    bad_edges: list[str] = []
    bad_lifts: list[str] = []
    adjacency = instance.adjacency
    over = projection.__getitem__
    seen = [sorted(map(over, nbrs)) for nbrs in adjacency]
    wanted = list(map(class_nbrs.__getitem__, projection))
    if seen != wanted:  # the witness pass, over the failing vertices
        for u, nbrs in enumerate(adjacency):
            if seen[u] == wanted[u]:
                continue
            pu = projection[u]
            for v in nbrs:
                if projection[v] not in class_nbrs[pu]:
                    a, b = min(u, v), max(u, v)  # edges are written smaller end first
                    bad_edges.append(
                        f"edge {vertices[a]} -- {vertices[b]} projects to non-edge "
                        f"{sys.format_index(projection[a])} -- {sys.format_index(projection[b])}"
                    )
            for b in class_nbrs[pu]:
                hits = sum(1 for v in nbrs if projection[v] == b)
                if hits != 1:
                    bad_lifts.append(
                        f"{hits} lifts of edge {sys.format_index(pu)} -- "
                        f"{sys.format_index(b)} at vertex {vertices[u]}"
                    )
    return witnesses + bad_edges[:1] + bad_lifts  # the first bad edge in edge order

