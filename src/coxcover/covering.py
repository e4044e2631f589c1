"""Fibered product of two recoil classes and its projection onto a third.

Fix recoil subsets I, J, K.  The instance built here has one vertex for
every pair (pi, rho) with pi in the class of I, rho in the class of J and
pi*rho in the class of K.  Edges come from the product graph: exactly one
coordinate moves along an edge of its own class, both endpoints must be
vertices, and the two products must sit one Cayley step apart (automatic
for right moves; a real restriction for left moves, whose product shift is
a conjugate that need not be simple).  Each edge is tagged with the
coordinate that moved ("left" or "right") and the generator of that class
edge.

`build_fibered_graph` builds one instance (I, J, K) from a scan of the
product filtered on K.  `iter_fibered_graphs` builds every non-empty
instance of (I, J) from a single scan, bucketed by the recoil set of each
product; both hand their vertices to the same wiring step, so an instance
is identical whichever way it was built.  That step labels the components
by a search over the instance's adjacency lists and checks that every
fiber splits the same way across them (FiberInconstant otherwise).

The projection sends (pi, rho) to pi*rho.  Everything this package computes
downstream rests on that projection being a graph covering of the target
class; `verify_covering` checks the covering axioms directly instead of
assuming them, edge preservation and unique lifting together as one
local-bijection test per vertex (its neighbours must project one-to-one
onto the class neighbours of its image).  The per-fiber counts give the
structure constants of the descent algebra.

`unique_lift_edge` decides how one in-class step of the product lifts.
`CoveringInstance.lift_table` asks it once for every in-class step of an
instance and keeps the answers as vertex ids; that is the only time a step
is lifted.  `monodromy.loop_action`, the only code that walks the table,
moves fiber points along relation loops through it, and the invariant
sweep checks the table against a brute force that does not call
`unique_lift_edge`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .coxeter import CoxeterSystem
from .errors import FiberInconstant, InvariantViolation, NotAClassEdge
from .gensets import format_subset, one_based
from .recoil import RecoilClass, recoil_class, simple_conjugate

Vertex = tuple[int, int]  # (element index in left class, element index in right class)


class CoveringInstance:
    """One instance (I, J, K): its vertices, edges, fibers and components.

    Every field but `lifts` is set once, by `_wire`; `lifts` is filled by
    `lift_table` on first use."""

    __slots__ = ("left", "right", "target", "system", "left_class", "right_class",
                 "target_class", "vertices", "id_by_key", "projection", "edges",
                 "adjacency", "fibers", "component", "degrees", "fiber_size", "lifts")

    def __init__(self, left: int, right: int, target: int, system: CoxeterSystem,
                 left_class: RecoilClass, right_class: RecoilClass,
                 target_class: RecoilClass, vertices: list[Vertex],
                 id_by_key: dict[int, int], projection: list[int],
                 edges: list[tuple[int, int, str, int]], adjacency: list[list[int]],
                 fibers: dict[int, list[int]], component: list[int],
                 degrees: list[int], fiber_size: int):
        self.left = left
        self.right = right
        self.target = target
        self.system = system
        self.left_class = left_class
        self.right_class = right_class
        self.target_class = target_class
        self.vertices = vertices        # sorted pairs of element indices
        self.id_by_key = id_by_key      # pi*|W| + rho -> vertex id
        self.projection = projection    # vertex id -> element index of the product
        self.edges = edges              # (u, v, side, generator), u < v
        self.adjacency = adjacency      # vertex id -> neighbour ids
        self.fibers = fibers            # target element -> vertex ids
        self.component = component      # vertex id -> component id
        self.degrees = degrees          # component id -> covering degree
        self.fiber_size = fiber_size    # the structure constant
        # generator -> vertex id -> id of the lift of that step, or -1 when
        # the step leaves the target class
        self.lifts: list[list[int]] | None = None

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def component_count(self) -> int:
        return len(self.degrees)

    def lift_table(self) -> list[list[int]]:
        """`lifts[s][u]`: the id of the vertex that lifts the step
        pi(u) -> pi(u)*s from vertex u, or -1 when pi(u)*s leaves the target
        class.  Each in-class step is lifted once, by `unique_lift_edge`,
        and the table is kept on the instance."""
        if self.lifts is None:
            sys = self.system
            right, recoils, order = sys.right_cayley, sys.recoils, len(sys.elements)
            get, target = self.id_by_key.get, self.target
            lifts = [[-1] * len(self.vertices) for _ in range(sys.rank)]
            for u, vertex in enumerate(self.vertices):
                sigma = self.projection[u]
                steps = right[sigma]
                for s, row in enumerate(lifts):
                    # every product lies in the target class
                    if recoils[steps[s]] == target:
                        p, r = unique_lift_edge(sys, vertex, s, sigma)
                        # both coordinates come from the Cayley tables, so
                        # the key cannot alias another vertex's
                        v = get(p * order + r)
                        if v is None:
                            raise InvariantViolation(
                                f"the lift of step s{s + 1} at {vertex} is no vertex")
                        row[u] = v
            self.lifts = lifts
        return self.lifts

    def to_json(self) -> dict:
        return {
            "I": list(one_based(self.left)),
            "J": list(one_based(self.right)),
            "K": list(one_based(self.target)),
            "a": self.fiber_size,
            "lambda": list(multiplicity_partition(self)),
            "components": self.component_count,
            "vertices": len(self.vertices),
        }


def build_fibered_graph(sys: CoxeterSystem, left: int, right: int,
                        target: int) -> CoveringInstance:
    """Filter the full product of two classes on the product's recoil set,
    then wire up edges, fibers, components and per-component degrees.

    An empty instance (structure constant 0) is valid data, not an error.
    """
    cls_l = recoil_class(sys, left)
    cls_r = recoil_class(sys, right)
    cls_t = recoil_class(sys, target)  # refuses a target outside the rank before the scan

    vertices: list[Vertex] = []
    projection: list[int] = []
    for p in cls_l.members:
        for r in cls_r.members:
            prod = sys.multiply_index(p, r)
            if sys.recoils[prod] == target:
                vertices.append((p, r))
                projection.append(prod)
    return _wire(sys, cls_l, cls_r, cls_t, vertices, projection)


def iter_fibered_graphs(sys: CoxeterSystem, left: int,
                        right: int) -> Iterator[tuple[int, CoveringInstance]]:
    """Every non-empty instance of the product of two classes, as
    (target, instance) in ascending target order.

    One pass over the product buckets each pair by the recoil set of its
    product; bucket K holds exactly the vertices `build_fibered_graph`
    would find for target K, in the same order.  Instances are wired one at
    a time as they are requested, so a consumer holds only what it keeps.
    """
    cls_l = recoil_class(sys, left)
    cls_r = recoil_class(sys, right)

    buckets: dict[int, tuple[list[Vertex], list[int]]] = {}
    recoils = sys.recoils
    multiply = sys.multiply_index
    for p in cls_l.members:
        for r in cls_r.members:
            prod = multiply(p, r)
            key = recoils[prod]
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = ([], [])
            bucket[0].append((p, r))
            bucket[1].append(prod)
    for target in sorted(buckets):
        vertices, projection = buckets.pop(target)
        yield target, _wire(sys, cls_l, cls_r, recoil_class(sys, target),
                            vertices, projection)


def _wire(sys: CoxeterSystem, cls_l: RecoilClass, cls_r: RecoilClass,
          cls_t: RecoilClass, vertices: list[Vertex],
          projection: list[int]) -> CoveringInstance:
    """Edges, fibers, components and per-component degrees over the given
    vertices, which must be every pair of the product of the classes cls_l
    and cls_r that lands in cls_t, in scan order (ascending pairs), with
    their products.  Raises FiberInconstant unless every fiber splits the
    same way across the components, so in particular has the same size."""
    left, right, target = cls_l.subset, cls_r.subset, cls_t.subset
    order = len(sys.elements)
    id_by_key = {p * order + r: i for i, (p, r) in enumerate(vertices)}
    get = id_by_key.get
    right_cayley = sys.right_cayley
    adj_l, adj_r = cls_l.adjacency, cls_r.adjacency

    # vertex ids ascend with the pairs, so a move reaches a larger id exactly
    # when the moved coordinate grows; each edge is found from its smaller end
    edges: list[tuple[int, int, str, int]] = []
    for u, (p, r) in enumerate(vertices):
        base = p * order
        for r2, s in adj_r[r]:
            if r2 > r:
                v = get(base + r2)
                if v is not None:
                    edges.append((u, v, "right", s))
        for p2, s in adj_l[p]:
            if p2 > p:
                v = get(p2 * order + r)
                # a left move shifts the product by rho^-1 s rho, which need
                # not be simple; only moves whose projection is a Cayley
                # step are edges, or the projection could not preserve them
                if v is not None and projection[v] in right_cayley[projection[u]]:
                    edges.append((u, v, "left", s))
    edges.sort()  # no two edges share (u, v), so this orders them by (u, v)
    adjacency: list[list[int]] = [[] for _ in vertices]
    for u, v, _, _ in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    fibers: dict[int, list[int]] = {t: [] for t in cls_t.members}
    for vid, prod in enumerate(projection):
        fibers[prod].append(vid)

    # searches start from ascending unlabelled vertices, so a component's
    # id follows its smallest vertex
    component = [-1] * len(vertices)
    n_comp = 0
    for root in range(len(vertices)):
        if component[root] != -1:
            continue
        component[root] = n_comp
        stack = [root]
        while stack:
            for v in adjacency[stack.pop()]:
                if component[v] == -1:
                    component[v] = n_comp
                    stack.append(v)
        n_comp += 1
    degrees = _component_degrees(sys, component, n_comp, fibers, cls_t,
                                 left, right, target)
    fiber_size = sum(degrees)

    return CoveringInstance(
        left=left, right=right, target=target, system=sys,
        left_class=cls_l, right_class=cls_r, target_class=cls_t,
        vertices=vertices, id_by_key=id_by_key, projection=projection,
        edges=edges, adjacency=adjacency, fibers=fibers,
        component=component, degrees=degrees, fiber_size=fiber_size,
    )


def _component_degrees(sys: CoxeterSystem, component: list[int], n_comp: int,
                       fibers: dict[int, list[int]], cls_t: RecoilClass,
                       left: int, right: int, target: int) -> list[int]:
    """Per-component fiber count at a base point, verified constant over
    every point of the target class."""
    if n_comp == 0:
        return []
    base = cls_t.members[0]
    degrees = [0] * n_comp
    for vid in fibers[base]:
        degrees[component[vid]] += 1
    for t in cls_t.members[1:]:
        counts = [0] * n_comp
        for vid in fibers[t]:
            counts[component[vid]] += 1
        if counts != degrees:
            raise FiberInconstant(
                f"component fiber counts {counts} at {sys.format_index(t)} differ "
                f"from {degrees} at {sys.format_index(base)} in the "
                f"({format_subset(left)}, {format_subset(right)}, "
                f"{format_subset(target)}) instance"
            )
    return degrees


def multiplicity_partition(instance: CoveringInstance) -> tuple[int, ...]:
    """Per-component covering degrees, weakly decreasing.  Sums to the
    structure constant; empty for an empty instance."""
    return tuple(sorted(instance.degrees, reverse=True))


class CoveringReport(NamedTuple):
    status: str                 # "ok" | "empty" | "failed"
    surjective: bool | None
    edges_preserved: bool | None
    unique_lifting: bool | None
    violations: list[str]
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def verify_covering(instance: CoveringInstance) -> CoveringReport:
    """Check the three covering axioms of the projection, reporting any
    violation with a witness.

    Surjectivity is read off the fibers.  Edge preservation and unique
    lifting are checked together, as one local-bijection test per vertex
    u: the projections of u's neighbours, counted with multiplicity, must
    be the class neighbours of pi(u), each taken once.  Only a vertex that
    fails the test is examined again, for its witnesses: a neighbour over a
    non-neighbour of pi(u) breaks edge preservation, and a class neighbour
    hit n != 1 times gives "n lifts of edge ...".

    An empty instance gets the explicit "empty" status: the projection onto
    the target class is then vacuously non-surjective, which is recorded as
    a fact about the instance rather than a failed axiom.
    """
    if instance.is_empty:
        return CoveringReport(
            status="empty", surjective=None, edges_preserved=None,
            unique_lifting=None, violations=[],
            note="empty instance: projection onto the target class is "
                 "vacuously non-surjective",
        )
    sys = instance.system
    violations: list[str] = []

    missed = [t for t, f in instance.fibers.items() if not f]
    surjective = not missed
    if missed:
        violations.append(f"no vertex projects onto {sys.format_index(missed[0])}")

    projection, vertices = instance.projection, instance.vertices
    # class adjacency lists ascend (recoil_class builds them from sorted edges)
    class_nbrs = {t: [b for b, _ in nbrs]
                  for t, nbrs in instance.target_class.adjacency.items()}
    bad_edges: list[str] = []
    bad_lifts: list[str] = []
    for u, nbrs in enumerate(instance.adjacency):
        pu = projection[u]
        if sorted([projection[v] for v in nbrs]) == class_nbrs[pu]:
            continue
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
    edges_preserved = not bad_edges
    unique_lifting = not bad_lifts
    violations += bad_edges[:1] + bad_lifts  # the first bad edge in edge order

    status = "ok" if not violations else "failed"
    return CoveringReport(status, surjective, edges_preserved, unique_lifting, violations)


def unique_lift_edge(sys: CoxeterSystem, vertex: Vertex, s: int,
                     sigma: int) -> Vertex:
    """Lift one in-class step of the product through the factorization.

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
