from __future__ import annotations

from collections import Counter

import pytest

from coxcover import (
    Loop,
    build_fibered_graph,
    component_isomorphisms,
    iter_fibered_graphs,
    lift_path,
    loop_action,
    monodromy_report,
    recoil_class,
    relation_loops,
    unique_lift_edge,
)
from coxcover.errors import InvariantViolation, NotAClassEdge
from coxcover.gensets import iter_subsets

from .support import (
    braid_loop_exists_positional, conjugate_action, perm, perm_index,
    reference_loop_action, subset)

FLAGSHIP = (subset(2, 3), subset(3, 4), subset(1, 3))


def test_path_class_has_only_squares(s4):
    loops = relation_loops(s4, recoil_class(s4, subset(3)))
    assert [l.kind for l in loops] == ["square", "square"]


def test_y2_commuting_loop(s4):
    loops = relation_loops(s4, recoil_class(s4, subset(2)))
    kinds = Counter(l.kind for l in loops)
    assert kinds == {"square": 5, "commuting": 1}
    commuting = [l for l in loops if l.kind == "commuting"][0]
    assert s4.elements[commuting.base] == perm("1324")
    assert commuting.word == (0, 2, 0, 2)


def test_braid_loops_in_s5_class(s5):
    loops = relation_loops(s5, recoil_class(s5, subset(1, 3)))
    kinds = Counter(l.kind for l in loops)
    assert kinds == {"square": 24, "commuting": 8, "braid": 2}
    braid_bases = sorted(s5.elements[l.base] for l in loops if l.kind == "braid")
    assert braid_bases == [perm("24135"), perm("42135")]
    for l in loops:
        if l.kind == "braid":
            assert l.word == (2, 3, 2, 3, 2, 3)
    # the walk of the reference hexagon stays inside the class
    walk = [perm("24153"), perm("24135"), perm("24315"), perm("24351"),
            perm("24531"), perm("24513")]
    members = {s5.elements[i] for i in recoil_class(s5, subset(1, 3)).members}
    assert set(walk) <= members


def test_braid_positional_criterion_agrees(s5):
    for target in iter_subsets(s5.rank):
        cls = recoil_class(s5, target)
        members = set(cls.members)
        for w in cls.members:
            for i in range(s5.n - 2):
                walk_ok = True
                current = w
                for g in (i, i + 1, i, i + 1, i, i + 1):
                    current = s5.right_cayley[current][g]
                    if current not in members:
                        walk_ok = False
                        break
                assert walk_ok == braid_loop_exists_positional(s5, w, i)


def test_loop_prefixes_stay_inside_class(s4, s5, i6, b3, h3):
    for sys_ in (s4, s5, i6, b3, h3):
        for target in iter_subsets(sys_.rank):
            cls = recoil_class(sys_, target)
            for loop in relation_loops(sys_, cls):
                current = loop.base
                for g in loop.word:
                    current = sys_.right_cayley[current][g]
                    assert sys_.recoils[current] == target
                assert current == loop.base


def test_lift_path_squares_and_commuting_return(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    cls = recoil_class(s4, subset(1, 3))
    for loop in relation_loops(s4, cls):
        for vid in inst.fibers[loop.base]:
            path = lift_path(inst, inst.vertices[vid], loop.word)
            assert path[-1] == inst.vertices[vid]
            downstairs = loop.base
            for step, g in enumerate(loop.word):
                downstairs = s4.right_cayley[downstairs][g]
                p, r = path[step + 1]
                assert s4.multiply_index(p, r) == downstairs


def test_lift_path_rejects_leaving_class(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1))
    start = inst.vertices[0]
    with pytest.raises(NotAClassEdge):
        lift_path(inst, start, (0,))  # a step by s1 exits the target class
    with pytest.raises(ValueError):
        lift_path(inst, (0, 0), ())
    # out-of-range coordinates whose key p*|W| + r is that of a real vertex
    p, r = start
    order = len(s4.elements)
    for fake in ((p - 1, r + order), (p + 1, r - order)):
        with pytest.raises(ValueError):
            lift_path(inst, fake, ())


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_lift_path_two_steps_matches_multiplied_lifts(group, request):
    # every two-letter walk from every vertex: the lift equals two lifts that
    # multiply their products out, and a walk whose second step leaves the
    # target class is refused
    sys_ = request.getfixturevalue(group)
    refused = 0
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for _, inst in iter_fibered_graphs(sys_, left, right):
                for vid, start in enumerate(inst.vertices):
                    sigma = inst.projection[vid]
                    for s1 in range(sys_.rank):
                        mid = sys_.right_cayley[sigma][s1]
                        if sys_.recoils[mid] != sys_.recoils[sigma]:
                            continue
                        for s2 in range(sys_.rank):
                            if sys_.recoils[sys_.right_cayley[mid][s2]] != sys_.recoils[mid]:
                                refused += 1
                                with pytest.raises(NotAClassEdge):
                                    lift_path(inst, start, (s1, s2))
                                continue
                            first = unique_lift_edge(sys_, start, s1,
                                                     sys_.multiply_index(*start))
                            second = unique_lift_edge(sys_, first, s2,
                                                      sys_.multiply_index(*first))
                            assert lift_path(inst, start, (s1, s2)) == [start, first, second]
    assert refused > 0


def test_reference_braid_loop_swaps_fiber(s5):
    inst = build_fibered_graph(s5, *FLAGSHIP)
    base = perm_index(s5, "24153")
    loop = Loop(base, (3, 2, 3, 2, 3, 2), "braid")
    fiber = inst.fibers[base]
    assert len(fiber) == 2
    action = loop_action(inst, loop)
    assert action.order == 2
    a, b = fiber
    assert action.permutation == {a: b, b: a}
    # one traversal moves each point to the other; twice returns it
    start = inst.vertices[a]
    once = lift_path(inst, start, loop.word)
    assert once[-1] == inst.vertices[b]
    twice = lift_path(inst, once[-1], loop.word)
    assert twice[-1] == start


@pytest.mark.parametrize("group", ["s4", "b3", "h3"])
def test_loop_action_matches_step_by_step_lifts(group, request):
    sys_ = request.getfixturevalue(group)
    actions = 0
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for target, inst in iter_fibered_graphs(sys_, left, right):
                for loop in relation_loops(sys_, recoil_class(sys_, target)):
                    got, want = loop_action(inst, loop), reference_loop_action(inst, loop)
                    assert (got.permutation, got.order) == (want.permutation, want.order)
                    actions += 1
    assert actions > 0


def test_loop_action_refuses_a_walk_leaving_the_class(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1))
    base = inst.target_class.members[0]
    # a square whose first step by s1 exits the target class
    loop = Loop(base, (0, 0), "square")
    for action in (loop_action, reference_loop_action):
        with pytest.raises(NotAClassEdge):
            action(inst, loop)


def test_loop_action_refuses_a_lift_table_that_merges_fiber_points(s5):
    inst = build_fibered_graph(s5, *FLAGSHIP)
    loop = next(l for l in relation_loops(s5, inst.target_class) if l.kind == "square")
    a, b = inst.fibers[loop.base]
    lifts = inst.lift_table()
    lifts[loop.word[0]][a] = lifts[loop.word[0]][b]
    with pytest.raises(InvariantViolation, match="not a bijection"):
        loop_action(inst, loop)


def test_loop_action_refuses_a_one_point_fiber_that_moves(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    loop = next(l for l in relation_loops(s4, inst.target_class) if l.kind == "square")
    [vid] = inst.fibers[loop.base]
    s = loop.word[0]
    lifts = inst.lift_table()
    mid = lifts[s][vid]
    # route the way back to a vertex outside the fiber and claim it lies over the base
    other = next(w for w in range(len(inst.vertices)) if w not in (vid, mid))
    lifts[s][mid] = other
    inst.projection[other] = loop.base
    with pytest.raises(InvariantViolation, match="not a bijection"):
        loop_action(inst, loop)


def test_squares_and_commuting_act_trivially_everywhere(s4):
    for left in iter_subsets(s4.rank):
        for right in iter_subsets(s4.rank):
            for target in iter_subsets(s4.rank):
                inst = build_fibered_graph(s4, left, right, target)
                if inst.is_empty:
                    continue
                for loop in relation_loops(s4, recoil_class(s4, target)):
                    action = loop_action(inst, loop)
                    if loop.kind in ("square", "commuting"):
                        assert action.order == 1


def test_monodromy_report_flagship(s5):
    inst = build_fibered_graph(s5, *FLAGSHIP)
    report = monodromy_report(inst)
    assert report.braid_loops == 2
    assert report.braid_orders == {2: 2}
    assert not report.no_braid_loops
    assert report.partition == (2,)
    assert report.to_json() == {
        "I": [2, 3], "J": [3, 4], "K": [1, 3],
        "braid_loops": 2, "orders": {"2": 2}, "no_braid_loops": False,
    }


def test_monodromy_report_no_braid_classes(s4):
    for target in (0, subset(1), subset(2), subset(1, 2), subset(2, 3)):
        inst = build_fibered_graph(s4, subset(2), subset(3), target)
        assert not inst.is_empty
        report = monodromy_report(inst)
        assert report.no_braid_loops
        assert report.partition == (1,) * inst.fiber_size
        assert component_isomorphisms(inst)


def test_monodromy_report_empty_instance(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(2))
    report = monodromy_report(inst)
    assert report.empty
    assert report.braid_loops == 0 and report.braid_orders == {}
    data = report.to_json()
    assert data["empty"] is True and data["orders"] == {}


def test_base_point_independence(s5):
    inst = build_fibered_graph(s5, *FLAGSHIP)
    base = perm_index(s5, "24153")
    loop = Loop(base, (3, 2, 3, 2, 3, 2), "braid")
    direct = loop_action(inst, loop)
    # transport along the class edge 24153 -- 24135 (generator 4)
    moved = conjugate_action(inst, loop, (3,))
    assert moved.order == direct.order == 2
    transport = {}
    for vid in inst.fibers[base]:
        lifted = lift_path(inst, inst.vertices[vid], (3,))
        transport[vid] = inst.id_of(lifted[-1])
    conjugated = {
        transport[v]: transport[direct.permutation[v]] for v in direct.permutation}
    assert conjugated == moved.permutation


def test_polygon_loops_measured_not_bounded(h3):
    # pairs of generator order 5 produce 10-cycles; their fiber actions are
    # reported as data (orders above 2 really occur)
    kinds = Counter()
    for target in iter_subsets(h3.rank):
        for loop in relation_loops(h3, recoil_class(h3, target)):
            kinds[loop.kind] += 1
    assert kinds["polygon"] == 2
    orders: Counter[int] = Counter()
    for left in iter_subsets(h3.rank):
        for right in iter_subsets(h3.rank):
            inst = build_fibered_graph(h3, left, right, subset(2))
            if inst.is_empty:
                continue
            report = monodromy_report(inst)
            assert set(report.braid_orders) <= {1, 2}
            orders.update(report.polygon_orders)
    assert set(orders) == {1, 4}


def test_braid_orders_all_instances_b3(b3):
    for left in iter_subsets(b3.rank):
        for right in iter_subsets(b3.rank):
            for target in iter_subsets(b3.rank):
                inst = build_fibered_graph(b3, left, right, target)
                if inst.is_empty:
                    continue
                report = monodromy_report(inst)
                assert set(report.braid_orders) <= {1, 2}
                assert report.polygon_loops == 0
