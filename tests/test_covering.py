from __future__ import annotations

import copy
import hashlib
import itertools
import re

import pytest

from coxcover import (
    CoveringInstance,
    FiberInconstant,
    InvariantViolation,
    NotAClassEdge,
    build_fibered_graph,
    covering_dot,
    iter_fibered_graphs,
    multiplicity_partition,
    recoil_class,
    verify_covering,
)
from coxcover.gensets import iter_subsets
from coxcover.recoil import conjugated_generator, same_class_edge_index

from .support import (
    UnionFind, class_cycle_rank, class_edges, compose, cycle_rank, instance_fields,
    lift_side, oracle_class, oracle_class_edges, perm, perm_index, reference_products, subset,
    unique_lift_edge)


def test_s4_instance_1_3_13(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    assert len(inst.vertices) == 5
    assert inst.fiber_size == 1
    assert inst.component_count == 1
    assert inst.degrees == [1]
    assert len(inst.edges) == 5
    assert multiplicity_partition(inst) == (1,)
    assert verify_covering(inst) == []


def test_s5_instance_23_34_13(s5):
    inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
    assert len(inst.vertices) == 32
    assert inst.fiber_size == 2
    assert inst.component_count == 1
    assert multiplicity_partition(inst) == (2,)
    assert verify_covering(inst) == []


def test_empty_left_subset_gives_copy_of_right_class(s4, i6):
    for sys_ in (s4, i6):
        for mask in iter_subsets(sys_.rank):
            cls = recoil_class(sys_, mask)
            inst = build_fibered_graph(sys_, 0, mask, mask)
            assert len(inst.vertices) == len(cls.members)
            assert inst.fiber_size == 1
            assert len(inst.edges) == len(class_edges(sys_, cls))
            # every edge moves the right coordinate: pi is unchanged
            assert all(inst.vertices[u][0] == inst.vertices[v][0] for u, v in inst.edges)


def test_empty_instance(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(2))
    assert inst.is_empty
    assert inst.fiber_size == 0
    assert multiplicity_partition(inst) == ()
    # vacuously non-surjective, which is no failed axiom; `cover` reports
    # the instance as empty
    assert verify_covering(inst) == []


def test_empty_instance_matches_brute_force(s4):
    left = oracle_class(4, (1,))
    right = oracle_class(4, (3,))
    products = {compose(u, v) for u in left for v in right}
    from .support import oracle_recoils

    assert all(oracle_recoils(p) != (2,) for p in products)


def test_singleton_fiber_instance(s4):
    inst = build_fibered_graph(s4, 0, subset(2), subset(2))
    assert verify_covering(inst) == []
    assert all(len(f) == 1 for f in inst.fibers.values())


def test_covering_axioms_all_s4(s4):
    checked = 0
    for left in iter_subsets(s4.rank):
        for right in iter_subsets(s4.rank):
            for target in iter_subsets(s4.rank):
                inst = build_fibered_graph(s4, left, right, target)
                if inst.is_empty:
                    continue
                checked += 1
                assert verify_covering(inst) == []
                assert sum(multiplicity_partition(inst)) == inst.fiber_size
    assert checked == 188


def _rewired(inst, edges):
    """A copy of the instance whose adjacency holds the given edges instead
    of its own."""
    adjacency = [[] for _ in inst.vertices]
    for u, v in sorted(edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    fake = copy.copy(inst)
    fake.adjacency = adjacency
    return fake


WITNESS_KINDS = ("no vertex projects onto", "projects to non-edge", "lifts of edge")


def _kinds(witnesses: list[str]) -> set[str]:
    """The kinds of covering witness that appear in the list."""
    return {kind for kind in WITNESS_KINDS if any(kind in w for w in witnesses)}


def test_covering_axioms_fail_on_a_dropped_edge(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    u, v = dropped = inst.edges[0]
    witnesses = verify_covering(_rewired(inst, [e for e in inst.edges if e != dropped]))
    assert _kinds(witnesses) == {"lifts of edge"}
    pu, pv = (s4.format_index(inst.projection[x]) for x in (u, v))
    assert witnesses[0].startswith("0 lifts of edge ")
    assert f"0 lifts of edge {pu} -- {pv} at vertex {inst.vertices[u]}" in witnesses
    assert f"0 lifts of edge {pv} -- {pu} at vertex {inst.vertices[v]}" in witnesses


def test_covering_axioms_fail_on_a_duplicated_neighbour(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    u, v = inst.edges[0]
    witnesses = verify_covering(_rewired(inst, inst.edges + [inst.edges[0]]))
    assert _kinds(witnesses) == {"lifts of edge"}
    pu, pv = (s4.format_index(inst.projection[x]) for x in (u, v))
    assert witnesses[0].startswith("2 lifts of edge ")
    assert f"2 lifts of edge {pu} -- {pv} at vertex {inst.vertices[u]}" in witnesses


def _non_edge(inst) -> tuple[int, int]:
    """The first pair u < v of vertices over distinct, non-adjacent points."""
    cls = inst.target_class
    return next((u, v) for u in range(len(inst.vertices))
                for v in range(u + 1, len(inst.vertices))
                if inst.projection[u] != inst.projection[v]
                and inst.projection[v] not in cls.adjacency[inst.projection[u]])


def test_covering_axioms_fail_on_an_edge_over_a_non_edge(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    u, v = _non_edge(inst)
    witnesses = verify_covering(_rewired(inst, inst.edges + [(u, v)]))
    assert _kinds(witnesses) == {"projects to non-edge"}
    pu, pv = (s4.format_index(inst.projection[x]) for x in (u, v))
    assert witnesses == [
        f"edge {inst.vertices[u]} -- {inst.vertices[v]} projects to non-edge {pu} -- {pv}"]


def _swapped_lifts(inst):
    """The edges of the instance with two points u, u' of one fiber
    trading lifts: u lifts step s twice and t never, u' the reverse, and
    every vertex keeps its degree."""
    lifts = inst.lift_table()
    u, u2 = next(f for f in inst.fibers.values() if len(f) > 1)[:2]
    s, t = [s for s, row in enumerate(lifts) if row[u] >= 0][:2]
    x, v2 = lifts[t][u], lifts[s][u2]
    drop = {(min(u, x), max(u, x)), (min(u2, v2), max(u2, v2))}
    return [e for e in inst.edges if e not in drop] + [(min(u, v2), max(u, v2)),
                                                       (min(u2, x), max(u2, x))]


@pytest.mark.parametrize("miswire", [
    lambda inst: inst.edges[1:],
    lambda inst: inst.edges + inst.edges[:1],
    lambda inst: inst.edges + [_non_edge(inst)],
    _swapped_lifts,
], ids=["dropped-edge", "duplicated-neighbour", "over-a-non-edge", "swapped-lifts"])
def test_lift_table_refuses_a_miswired_instance(s5, miswire):
    # the table is read off the wiring, so a wiring that is no covering
    # raises at its first failing vertex, with the first covering witness;
    # swapped lifts keep every degree and fail only the two-lift test
    inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
    fake = _rewired(inst, miswire(inst))
    fake.lifts = None
    witnesses = verify_covering(fake)
    assert witnesses
    with pytest.raises(InvariantViolation) as raised:
        fake.lift_table()
    assert str(raised.value) == witnesses[0]
    assert fake.lifts is None


def test_covering_axioms_fail_on_an_emptied_fiber(s4):
    # the constructor refuses an empty fiber (FiberInconstant), so only an
    # instance changed after construction reaches the surjectivity witness
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    t = inst.target_class.members[-1]
    fake = copy.copy(inst)
    fake.fibers = {**inst.fibers, t: []}
    assert verify_covering(fake) == ["no vertex projects onto 4231"]


INSTANCE_FIELDS = ("left", "right", "target", "vertices", "projection", "edges",
                   "fibers", "component", "degrees", "fiber_size")


@pytest.mark.parametrize("group", ["s4", "s5", "i6", "b3", "h3"])
def test_one_pass_instances_match_single_target_builds(group, request):
    sys_ = request.getfixturevalue(group)
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            expected = [(target, inst) for target in iter_subsets(sys_.rank)
                        if not (inst := build_fibered_graph(sys_, left, right, target)).is_empty]
            got = list(iter_fibered_graphs(sys_, left, right))
            assert [t for t, _ in got] == [t for t, _ in expected]
            for (target, inst), (_, want) in zip(got, expected):
                assert not inst.is_empty
                for name in INSTANCE_FIELDS:
                    assert getattr(inst, name) == getattr(want, name), (
                        f"{name} differs for ({left}, {right}, {target})")


@pytest.mark.parametrize("group", ["s4", "i6", "b3", "h3"])
def test_instances_match_reference_products(group, request):
    """Every triple's vertices and projection are the pairs, in ascending
    order, that a product sharing no code with the scan sends into the
    target class."""
    sys_ = request.getfixturevalue(group)
    elements, recoils, products = reference_products(sys_)
    assert elements == sys_.elements
    by_class: dict[int, list[int]] = {}
    for w, mask in enumerate(recoils):
        by_class.setdefault(mask, []).append(w)
    for left, right, target in itertools.product(iter_subsets(sys_.rank), repeat=3):
        inst = build_fibered_graph(sys_, left, right, target)
        want = [(p, r) for p in by_class[left] for r in by_class[right]
                if recoils[products[p][r]] == target]
        assert inst.vertices == want, (left, right, target)
        assert inst.projection == [products[p][r] for p, r in want], (left, right, target)


def test_one_pass_rejects_subsets_outside_rank(s4, monkeypatch):
    with pytest.raises(ValueError):
        next(iter_fibered_graphs(s4, 1 << s4.rank, 0))

    def no_products(p, r):
        raise AssertionError("a product was computed")

    # every out-of-range subset, the target too, is refused before the scan
    monkeypatch.setattr(s4, "multiply_index", no_products)
    for masks in ((1 << s4.rank, 0, 0), (0, 1 << s4.rank, 0), (0, 0, 1 << s4.rank)):
        with pytest.raises(ValueError):
            build_fibered_graph(s4, *masks)


def test_edges_move_one_coordinate_and_project_to_edges(s5):
    inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
    members = set(recoil_class(s5, subset(1, 3)).members)
    for u, v in inst.edges:
        pu, ru = inst.vertices[u]
        pv, rv = inst.vertices[v]
        side, s = lift_side(s5, (pu, ru), (pv, rv))
        if side == "right":
            assert pu == pv and s5.right_cayley[ru][s] == rv
        else:
            assert ru == rv and s5.right_cayley[pu][s] == pv
        assert inst.projection[u] in members
        assert inst.projection[v] in s5.right_cayley[inst.projection[u]]


def test_left_moves_with_nonsimple_conjugate_are_not_edges(s5):
    # the product pair 42153 / 42351 differs by a length-3 conjugate; the
    # corresponding left move must be absent even though both are vertices
    inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
    pi = perm_index(s5, "41352")
    pi2 = perm_index(s5, "43152")
    rho = perm_index(s5, "15243")
    u = inst.vertices.index((pi, rho))
    v = inst.vertices.index((pi2, rho))
    assert v not in inst.adjacency[u]


def test_unique_lift_left_case(s4):
    vertex = (perm_index(s4, "2314"), perm_index(s4, "1243"))
    lifted = unique_lift_edge(s4, vertex, 2, s4.multiply_index(*vertex))
    assert lift_side(s4, vertex, lifted) == ("left", 2)
    assert tuple(s4.elements[i] for i in lifted) == (perm("2341"), perm("1243"))


def test_unique_lift_right_case(s4):
    vertex = (perm_index(s4, "2341"), perm_index(s4, "1243"))
    lifted = unique_lift_edge(s4, vertex, 1, s4.multiply_index(*vertex))
    assert lift_side(s4, vertex, lifted) == ("right", 1)
    assert tuple(s4.elements[i] for i in lifted) == (perm("2341"), perm("1423"))


def test_unique_lift_dihedral(i6):
    s, t = i6.gen_index
    lifted = unique_lift_edge(i6, (s, t), 0, i6.multiply_index(s, t))
    assert lift_side(i6, (s, t), lifted) == ("right", 0)
    assert tuple(i6.format_index(i) for i in lifted) == ("s", "ts")
    lifted = unique_lift_edge(i6, (s, t), 1, i6.multiply_index(s, t))
    assert lift_side(i6, (s, t), lifted) == ("left", 1)
    assert tuple(i6.format_index(i) for i in lifted) == ("st", "t")


def test_unique_lift_requires_class_edge(s4):
    # both these steps leave the product's recoil class
    v1 = (perm_index(s4, "2314"), perm_index(s4, "1243"))
    with pytest.raises(NotAClassEdge):
        unique_lift_edge(s4, v1, 1, s4.multiply_index(*v1))
    v2 = (perm_index(s4, "2134"), perm_index(s4, "1243"))
    with pytest.raises(NotAClassEdge):
        unique_lift_edge(s4, v2, 2, s4.multiply_index(*v2))


def test_lift_dichotomy_brute_force(s4):
    # exactly one of the two candidate factorizations is ever valid
    for left in iter_subsets(s4.rank):
        for right in iter_subsets(s4.rank):
            for target in iter_subsets(s4.rank):
                inst = build_fibered_graph(s4, left, right, target)
                for vid, (p, r) in enumerate(inst.vertices):
                    sigma = inst.projection[vid]
                    for s in range(s4.rank):
                        if not same_class_edge_index(s4, sigma, s):
                            continue
                        right_ok = same_class_edge_index(s4, r, s)
                        conj = conjugated_generator(s4, r, s)
                        left_ok = conj is not None and same_class_edge_index(s4, p, conj)
                        assert right_ok != left_ok
                        vertex = unique_lift_edge(s4, (p, r), s, sigma)
                        assert lift_side(s4, (p, r), vertex) == \
                            (("right", s) if right_ok else ("left", conj))
                        assert vertex in inst.vertices


@pytest.mark.parametrize("group", ["s4", "i6", "b3"])
def test_unique_lift_with_known_product_matches_multiplied(group, request):
    sys_ = request.getfixturevalue(group)
    steps = 0
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for _, inst in iter_fibered_graphs(sys_, left, right):
                for vid, vertex in enumerate(inst.vertices):
                    sigma = inst.projection[vid]
                    for s in range(sys_.rank):
                        if not same_class_edge_index(sys_, sigma, s):
                            with pytest.raises(NotAClassEdge):
                                unique_lift_edge(sys_, vertex, s, sigma)
                            continue
                        steps += 1
                        assert unique_lift_edge(sys_, vertex, s, sigma) == \
                            unique_lift_edge(sys_, vertex, s, sys_.multiply_index(*vertex))
    assert steps > 0


def test_lift_table_holds_the_unique_lifts(s4, s5, i6, b3, h3):
    # the table read off the wiring against the reference lift rule
    for sys_ in (s4, s5, i6, b3, h3):
        in_class = 0
        for left in iter_subsets(sys_.rank):
            for right in iter_subsets(sys_.rank):
                for _, inst in iter_fibered_graphs(sys_, left, right):
                    lifts = inst.lift_table()
                    assert len(lifts) == sys_.rank
                    assert inst.lift_table() is lifts  # filled once, then kept
                    for vid, vertex in enumerate(inst.vertices):
                        sigma = inst.projection[vid]
                        for s in range(sys_.rank):
                            if same_class_edge_index(sys_, sigma, s):
                                in_class += 1
                                lifted = unique_lift_edge(sys_, vertex, s, sigma)
                                assert lifts[s][vid] == inst.vertices.index(lifted)
                            else:
                                assert lifts[s][vid] == -1
        assert in_class > 0


def test_fiber_constancy_and_counting(s5):
    sizes = {m: len(recoil_class(s5, m).members) for m in iter_subsets(s5.rank)}
    for left in iter_subsets(s5.rank):
        for right in iter_subsets(s5.rank):
            total = 0
            for target in iter_subsets(s5.rank):
                inst = build_fibered_graph(s5, left, right, target)
                assert all(len(f) == inst.fiber_size for f in inst.fibers.values())
                total += inst.fiber_size * sizes[target]
            assert total == sizes[left] * sizes[right]


def test_wire_refuses_a_fiber_of_another_size(s5):
    # one scan bucket with a vertex dropped: its fiber is one short
    inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
    assert len(inst.target_class.members) >= 2 and inst.fiber_size >= 1
    classes = (inst.left_class, inst.right_class, inst.target_class)
    rewired = CoveringInstance(s5, *classes, list(inst.vertices), list(inst.projection))
    assert instance_fields(rewired) == instance_fields(inst)
    # the short fiber sits over 21453, the base point is the class minimum 21435
    witness = ("component fiber counts [1] at 21453 differ from [2] at 21435 "
               "in the ({2,3}, {3,4}, {1,3}) instance")
    with pytest.raises(FiberInconstant) as raised:
        CoveringInstance(s5, *classes, inst.vertices[:-1], inst.projection[:-1])
    assert str(raised.value) == witness


def test_cycle_rank():
    assert cycle_rank([1, 2, 3], [(1, 2), (2, 3)]) == 0
    assert cycle_rank([1, 2, 3], [(1, 2), (2, 3), (1, 3)]) == 1
    assert cycle_rank([1, 2, 3, 4], [(1, 2), (3, 4)]) == 0


def test_components_match_union_find(s4, i6, b3, h3):
    for sys_ in (s4, i6, b3, h3):
        for left in iter_subsets(sys_.rank):
            for right in iter_subsets(sys_.rank):
                for _, inst in iter_fibered_graphs(sys_, left, right):
                    uf = UnionFind(len(inst.vertices))
                    for u, v in inst.edges:
                        uf.union(u, v)
                    component = uf.component_ids(range(len(inst.vertices)))
                    assert inst.component == component
                    degrees = [0] * (max(component) + 1)
                    for vid in inst.fibers[inst.target_class.members[0]]:
                        degrees[component[vid]] += 1
                    assert inst.degrees == degrees


def test_union_find_roots_are_smallest_members():
    # sparse items, as class members are: ids go to the items asked for only
    uf = UnionFind(10)
    for x, y in ((4, 9), (7, 9), (5, 2)):
        uf.union(x, y)
    assert [uf.find(x) for x in (9, 4, 7, 2, 5)] == [4, 4, 4, 2, 2]
    assert uf.component_ids([2, 4, 5, 7, 9]) == [0, 1, 0, 1, 1]
    assert UnionFind(0).component_ids([]) == []


def test_cycle_rank_of_classes(s4, s5):
    assert class_cycle_rank(recoil_class(s4, subset(3))) == 0
    y2 = recoil_class(s4, subset(2))
    assert len(y2.members) == 5 and len(class_edges(s4, y2)) == 5
    assert class_cycle_rank(y2) == 1
    # independent recount for the 16-element class of S5
    members = oracle_class(5, (1, 3))
    edges = oracle_class_edges(5, (1, 3))
    assert (len(members), len(edges)) == (16, 24)
    y13 = recoil_class(s5, subset(1, 3))
    assert class_cycle_rank(y13) == len(edges) - len(members) + 1 == 9


def test_instance_json_schema(s5):
    inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
    data = inst.to_json()
    assert data == {"I": [2, 3], "J": [3, 4], "K": [1, 3],
                    "a": 2, "lambda": [2], "components": 1, "vertices": 32}


def test_covering_dot_export(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    dot = covering_dot(inst)
    assert dot == covering_dot(inst)
    assert dot.count('"(') >= 5
    assert dot.count("color=blue") == 3
    assert dot.count("color=red") == 2


_DOT_EDGE = re.compile(r'  "([^"]+)" -- "([^"]+)" \[color=(\w+), label="(\d+)"\];')
_SIDE_COLORS = {"right": "blue", "left": "red"}


@pytest.mark.parametrize("group", ["s4", "i6", "b3"])
def test_dot_colour_and_label_follow_the_moved_coordinate(group, request):
    # the colour and label are read off an edge's endpoints; lift_side reads
    # the moved coordinate and its generator off them independently
    sys_ = request.getfixturevalue(group)
    colors = {"blue": 0, "red": 0}
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for _, inst in iter_fibered_graphs(sys_, left, right):
                ids = {f"({sys_.format_index(p)}|{sys_.format_index(r)})": vid
                       for vid, (p, r) in enumerate(inst.vertices)}
                lines = covering_dot(inst).splitlines()
                edge_lines = [m.groups() for line in lines if (m := _DOT_EDGE.fullmatch(line))]
                assert len(lines) == 2 + len(inst.vertices) + len(edge_lines)
                assert [(ids[a], ids[b]) for a, b, _, _ in edge_lines] == inst.edges
                for a, b, color, label in edge_lines:
                    side, s = lift_side(sys_, inst.vertices[ids[a]], inst.vertices[ids[b]])
                    assert (color, label) == (_SIDE_COLORS[side], str(s + 1))
                    colors[color] += 1
    assert colors["blue"] > 0 and colors["red"] > 0


# sha256 of the DOT text of every non-empty instance of S4 and then B3, in
# (I, J) order and ascending target order, concatenated; the bytes of the
# release that stored each instance's edge list next to its adjacency
DOT_DIGEST = "b90ca10bc14291e7ab744c7825caba2adfa8fe1b2eba8e0fb1088c726b01b876"


def test_dot_bytes_are_pinned(s4, b3):
    # edges read off the adjacency keep their order, colours and labels
    digest = hashlib.sha256()
    instances = 0
    for sys_ in (s4, b3):
        for left in iter_subsets(sys_.rank):
            for right in iter_subsets(sys_.rank):
                for _, inst in iter_fibered_graphs(sys_, left, right):
                    digest.update(covering_dot(inst).encode())
                    instances += 1
    assert instances == 188 + 248
    assert digest.hexdigest() == DOT_DIGEST


def _ascending(items) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


@pytest.mark.parametrize("group", ["s4", "s5", "i6", "b3", "h3"])
def test_edges_and_adjacency_lists_ascend(group, request):
    # the constructor appends each edge to both adjacency lists in scan
    # order and relies on it to keep them ascending, without a sort
    sys_ = request.getfixturevalue(group)
    for mask in iter_subsets(sys_.rank):
        cls = recoil_class(sys_, mask)
        assert all(_ascending(cls.adjacency[m]) for m in cls.members)
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for _, inst in iter_fibered_graphs(sys_, left, right):
                assert all(u < v for u, v in inst.edges)
                assert _ascending(inst.edges)
                assert all(_ascending(nbrs) for nbrs in inst.adjacency)
