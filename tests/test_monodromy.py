from __future__ import annotations

import re
from collections import Counter

import pytest

from coxcover import (
    CoxeterSpec,
    Loop,
    build_fibered_graph,
    build_system,
    component_isomorphisms,
    iter_fibered_graphs,
    loop_action,
    monodromy,
    monodromy_report,
    multiplicity_partition,
    recoil_class,
    relation_loops,
)
from coxcover.errors import InvariantViolation, NotAClassEdge, OrderViolation
from coxcover.gensets import iter_subsets
from coxcover.recoil import RecoilClass

from .support import (
    braid_loop_exists_positional, conjugate_action, perm, perm_index,
    reference_loop_action, reference_monodromy_report, reference_relation_loops, subset,
    unique_lift_edge)

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


D4_MATRIX = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]


# loop kinds over all classes of each group (H3 alone has a polygon loop)
LOOP_KINDS = {
    "s4": {"square": 18, "commuting": 2},
    "s5": {"square": 144, "commuting": 36, "braid": 6},
    "i6": {"square": 8},
    "b3": {"square": 48, "commuting": 6, "braid": 2},
    "h3": {"square": 144, "commuting": 20, "braid": 10, "polygon": 2},
    "d4": {"square": 256, "commuting": 72, "braid": 18},
}


@pytest.mark.parametrize("group", sorted(LOOP_KINDS))
def test_relation_loops_match_the_reference_walk(group, request):
    # same loops, same order, same kinds as walking every pair's word
    # afresh from every member to its end
    if group == "d4":
        sys_ = build_system(CoxeterSpec.from_matrix(D4_MATRIX))
    else:
        sys_ = request.getfixturevalue(group)
    kinds = Counter()
    for target in iter_subsets(sys_.rank):
        cls = recoil_class(sys_, target)
        loops = relation_loops(sys_, cls)
        assert loops == reference_relation_loops(sys_, cls)
        kinds.update(l.kind for l in loops)
    assert kinds == LOOP_KINDS[group]


class _OpenWalkSystem:
    """Two commuting generators whose Cayley table sends the alternating
    walk from 0 through 1, 2 and 3 to 1 instead of back to 0, all in one
    class: the table of no group."""

    rank = 2
    matrix = [[1, 2], [2, 1]]
    right_cayley = [[1, 3], [0, 2], [3, 1], [2, 1]]
    recoils = [0, 0, 0, 0]


def test_alternating_walk_that_does_not_close_is_refused():
    sys_ = _OpenWalkSystem()
    cls = RecoilClass(0, [0], {}, 0, 0)
    with pytest.raises(InvariantViolation, match="^alternating walk did not close$"):
        relation_loops(sys_, cls)
    with pytest.raises(InvariantViolation, match="^alternating walk did not close$"):
        reference_relation_loops(sys_, cls)


def test_lift_path_squares_and_commuting_return(s4):
    # every step of a square or commuting loop, walked through the lift
    # table, lies over the downstairs walk, and the walk comes back
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1, 3))
    cls = recoil_class(s4, subset(1, 3))
    lifts = inst.lift_table()
    for loop in relation_loops(s4, cls):
        for vid in inst.fibers[loop.base]:
            end, downstairs = vid, loop.base
            for g in loop.word:
                end = lifts[g][end]
                downstairs = s4.right_cayley[downstairs][g]
                assert s4.multiply_index(*inst.vertices[end]) == downstairs
            assert end == vid


def test_lift_path_rejects_leaving_class(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(1))
    start = inst.vertices[0]
    loop = Loop(inst.projection[0], (0, 0), "square")  # a step by s1 exits the target class
    # the witness names the loop word and the fiber point it was lifted from
    witness = r"^loop s1 s1 at \S+ leaves the target class when lifted from "
    with pytest.raises(NotAClassEdge, match=witness + re.escape(str(start)) + "$"):
        loop_action(inst, loop)


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_lift_path_two_steps_matches_multiplied_lifts(group, request):
    # every two-letter walk from every vertex: two steps through the lift
    # table equal two lifts that multiply their products out, and a second
    # step that leaves the target class reads -1
    sys_ = request.getfixturevalue(group)
    refused = 0
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for _, inst in iter_fibered_graphs(sys_, left, right):
                lifts = inst.lift_table()
                for vid, start in enumerate(inst.vertices):
                    sigma = inst.projection[vid]
                    for s1 in range(sys_.rank):
                        mid = sys_.right_cayley[sigma][s1]
                        if sys_.recoils[mid] != sys_.recoils[sigma]:
                            continue
                        first = unique_lift_edge(sys_, start, s1,
                                                 sys_.multiply_index(*start))
                        assert inst.vertices[lifts[s1][vid]] == first
                        for s2 in range(sys_.rank):
                            if sys_.recoils[sys_.right_cayley[mid][s2]] != sys_.recoils[mid]:
                                refused += 1
                                assert lifts[s2][lifts[s1][vid]] == -1
                                continue
                            second = unique_lift_edge(sys_, first, s2,
                                                      sys_.multiply_index(*first))
                            assert inst.vertices[lifts[s2][lifts[s1][vid]]] == second
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
    lifts = inst.lift_table()
    end = a
    for g in loop.word:
        end = lifts[g][end]
    assert end == b
    for g in loop.word:
        end = lifts[g][end]
    assert end == a


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
    assert monodromy_report(inst) == {
        "I": [2, 3], "J": [3, 4], "K": [1, 3],
        "braid_loops": 2, "orders": {"2": 2}, "no_braid_loops": False,
    }
    assert multiplicity_partition(inst) == (2,)


@pytest.mark.parametrize("group", ["s4", "b3", "h3"])
def test_monodromy_report_matches_the_walk_over_every_loop(group, request):
    sys_ = request.getfixturevalue(group)
    reports = 0
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for _, inst in iter_fibered_graphs(sys_, left, right):
                got, want = monodromy_report(inst), reference_monodromy_report(inst)
                assert list(got.items()) == list(want.items())  # keys in order too
                reports += 1
    assert reports > 0


@pytest.mark.parametrize("group", ["s4", "b3", "h3"])
def test_monodromy_report_walks_only_the_loops_that_are_not_squares(group, request,
                                                                    monkeypatch):
    # a square whose step is an involution on its base fiber acts
    # trivially; only the other loops are lifted through `loop_action`
    sys_ = request.getfixturevalue(group)
    walked: list[Loop] = []

    def counting(instance, loop):
        walked.append(loop)
        return loop_action(instance, loop)

    monkeypatch.setattr(monodromy, "loop_action", counting)
    reports = 0
    for left in iter_subsets(sys_.rank):
        for right in iter_subsets(sys_.rank):
            for _, inst in iter_fibered_graphs(sys_, left, right):
                walked.clear()
                monodromy_report(inst)
                loops = relation_loops(sys_, inst.target_class)
                assert walked == [l for l in loops if l.kind != "square"]
                reports += 1
    assert reports > 0


def corrupted_square(inst, last=False):
    """The instance's first square loop (its last with `last`), its
    generator and the two points of its base fiber, ready to be
    corrupted."""
    squares = [l for l in relation_loops(inst.system, inst.target_class) if l.kind == "square"]
    loop = squares[-1 if last else 0]
    a, b = inst.fibers[loop.base]
    return loop, loop.word[0], a, b


def assert_raises_as_the_walk(inst, error, match) -> None:
    """`monodromy_report` raises `error`, with the message of the walk
    over every loop."""
    with pytest.raises(error, match=match) as got:
        monodromy_report(inst)
    with pytest.raises(error) as want:
        reference_monodromy_report(inst)
    assert type(got.value) is type(want.value) is error
    assert str(got.value) == str(want.value)


def test_monodromy_report_refuses_a_square_that_swaps_fiber_points(s5):
    inst = build_fibered_graph(s5, *FLAGSHIP)
    loop, s, a, b = corrupted_square(inst)
    lifts = inst.lift_table()
    # send the way back of each point's square to the other point
    lifts[s][lifts[s][a]], lifts[s][lifts[s][b]] = b, a
    assert loop_action(inst, loop).permutation == {a: b, b: a}
    assert_raises_as_the_walk(inst, OrderViolation, "^square loop at .* acted with order 2$")


def test_monodromy_report_walks_the_braid_loops_before_a_later_failing_square(s5):
    # the class of {1,3} carries two braid loops, both before its last
    # square; swapping that square's fiber points fails only at the end
    # of the walk
    inst = build_fibered_graph(s5, *FLAGSHIP)
    loops = relation_loops(s5, inst.target_class)
    loop, s, a, b = corrupted_square(inst, last=True)
    assert max(i for i, l in enumerate(loops) if l.kind == "braid") < loops.index(loop)
    lifts = inst.lift_table()
    lifts[s][lifts[s][a]], lifts[s][lifts[s][b]] = b, a
    assert loop_action(inst, loop).permutation == {a: b, b: a}
    assert_raises_as_the_walk(inst, OrderViolation, "^square loop at %s acted with order 2$"
                              % s5.format_index(loop.base))


def test_monodromy_report_refuses_a_lift_table_that_merges_fiber_points(s5):
    # only squares: no other loop would walk into the merged points
    inst = build_fibered_graph(s5, subset(2), subset(2, 4), subset(4))
    assert {l.kind for l in relation_loops(s5, inst.target_class)} == {"square"}
    _, s, a, b = corrupted_square(inst)
    lifts = inst.lift_table()
    lifts[s][a] = lifts[s][b]
    assert_raises_as_the_walk(inst, InvariantViolation, "not a bijection")


def test_monodromy_report_refuses_a_square_lift_that_leaves_the_class(s5):
    inst = build_fibered_graph(s5, *FLAGSHIP)
    _, s, a, _ = corrupted_square(inst)
    inst.lift_table()[s][a] = -1  # an in-class step over the square's base
    assert_raises_as_the_walk(inst, NotAClassEdge, "^loop s%d s%d at .* leaves the target class"
                              % (s + 1, s + 1))


def test_monodromy_report_no_braid_classes(s4):
    for target in (0, subset(1), subset(2), subset(1, 2), subset(2, 3)):
        inst = build_fibered_graph(s4, subset(2), subset(3), target)
        assert not inst.is_empty
        assert monodromy_report(inst)["no_braid_loops"] is True
        assert multiplicity_partition(inst) == (1,) * inst.fiber_size
        assert component_isomorphisms(inst)


def test_monodromy_report_empty_instance(s4):
    inst = build_fibered_graph(s4, subset(1), subset(3), subset(2))
    report = monodromy_report(inst)
    assert report["empty"] is True
    assert report["braid_loops"] == 0 and report["orders"] == {}


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
        lifted = unique_lift_edge(s5, inst.vertices[vid], 3, inst.projection[vid])
        transport[vid] = inst.vertices.index(lifted)
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
    orders: set[str] = set()
    for left in iter_subsets(h3.rank):
        for right in iter_subsets(h3.rank):
            inst = build_fibered_graph(h3, left, right, subset(2))
            if inst.is_empty:
                continue
            report = monodromy_report(inst)
            assert set(report["orders"]) <= {"1", "2"}
            orders.update(report["polygon_orders"])
    assert orders == {"1", "4"}


def test_braid_orders_all_instances_b3(b3):
    for left in iter_subsets(b3.rank):
        for right in iter_subsets(b3.rank):
            for target in iter_subsets(b3.rank):
                inst = build_fibered_graph(b3, left, right, target)
                if inst.is_empty:
                    continue
                report = monodromy_report(inst)
                assert set(report["orders"]) <= {"1", "2"}
                assert "polygon_loops" not in report
