from __future__ import annotations

import os

import pytest

from coxcover import (
    algebra, build_fibered_graph, convolution_oracle, covering, monodromy, verify)
from coxcover.gensets import iter_subsets
from coxcover.verify import CheckResult, run_invariant_sweep

from .support import subset


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_sweep_builds_each_instance_once(group, request, monkeypatch, tally):
    sys_ = request.getfixturevalue(group)
    wire = covering.CoveringInstance.__init__

    def counting(self, *args):
        tally.add()
        wire(self, *args)

    def refuse(*args):
        raise AssertionError("the sweep must not expand products again")

    monkeypatch.setattr(covering.CoveringInstance, "__init__", counting)
    monkeypatch.setattr(algebra, "product_expand", refuse)
    monkeypatch.setattr(verify, "product_expand", refuse, raising=False)
    results = run_invariant_sweep(sys_)
    built = len(tally.pids())
    assert all(r.ok for r in results)
    non_empty = sum(len(convolution_oracle(sys_, left, right).coeffs)
                    for left in iter_subsets(sys_.rank) for right in iter_subsets(sys_.rank))
    assert built == non_empty
    assert dict((r.name, r.checked) for r in results)["monodromy"] == non_empty


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_sweep_lifts_each_in_class_step_exactly_once(group, request, monkeypatch, tally):
    # filling the lift table is the only lift; the dichotomy checks the
    # table against its brute force and the relation loops read the table
    sys_ = request.getfixturevalue(group)
    lift = covering.unique_lift_edge

    def counting(*args):
        tally.add()
        return lift(*args)

    # verify holds no such name (raising=False); patching it there anyway
    # counts the calls of any import that would bring one in
    for module in (covering, verify, monodromy):
        monkeypatch.setattr(module, "unique_lift_edge", counting, raising=False)
    results = {r.name: r.checked for r in run_invariant_sweep(sys_)}
    calls = len(tally.pids())
    non_empty = results["monodromy"]
    # one monodromy check per non-zero structure constant, counted apart
    # from the sweep's records
    assert non_empty == sum(len(algebra.product_expand(sys_, left, right).coeffs)
                            for left in iter_subsets(sys_.rank)
                            for right in iter_subsets(sys_.rank))
    in_class_steps = results["covering axioms"] - non_empty  # one check per instance besides
    assert in_class_steps > 0
    assert calls == in_class_steps


@pytest.mark.parametrize("group, start", [("s4", "(0, 3) s2"), ("i6", "(0, 1) s2")],
                         ids=["s4", "i6"])
def test_lift_dichotomy_does_not_trust_unique_lift_edge(group, start, request, monkeypatch):
    # a lift that does not move fills the table with the vertex itself;
    # only the brute force can tell
    sys_ = request.getfixturevalue(group)
    monkeypatch.setattr(covering, "unique_lift_edge", lambda sys, vertex, s, sigma: vertex)
    results = {r.name: r for r in run_invariant_sweep(sys_)}
    assert results["covering axioms"].failures[0] == \
        f"lift table disagrees with brute force at {start}"


def test_lift_dichotomy_checks_the_lift_table(s4):
    inst = build_fibered_graph(s4, subset(2, 3), subset(1, 3), subset(1, 3))
    conjugates = []
    assert verify._check_class_edges(s4, conjugates).ok
    assert len(conjugates) == len(s4.elements) * s4.rank
    clean = CheckResult("clean")
    verify._check_lift_dichotomy(s4, inst, clean, conjugates)
    assert clean.ok and clean.checked > 0
    lifts = inst.lift_table()
    s, vid = next((s, vid) for s, row in enumerate(lifts)
                  for vid, lifted in enumerate(row) if lifted >= 0)
    witness = f"lift table disagrees with brute force at {inst.vertices[vid]} s{s + 1}"
    for wrong in (vid, -1):  # a lift always moves; -1 refuses an in-class step
        lifts[s][vid] = wrong
        res = CheckResult("tampered")
        verify._check_lift_dichotomy(s4, inst, res, conjugates)
        assert res.failures == [witness]
        assert res.checked == clean.checked


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_sweep_multiplies_out_each_conjugate_once(group, request, monkeypatch, tally):
    # the class-edge check multiplies out every w s w^-1 once; the lift
    # dichotomy, in every process of the sweep, reads them from that list
    sys_ = request.getfixturevalue(group)
    conjugate = verify.conjugated_generator

    def counting(*args):
        tally.add()
        return conjugate(*args)

    monkeypatch.setattr(verify, "conjugated_generator", counting)
    for count in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        seen = len(tally.pids())
        assert all(r.ok for r in run_invariant_sweep(sys_))
        calls = tally.pids()[seen:]
        assert len(calls) == len(sys_.elements) * sys_.rank
        assert set(calls) == {os.getpid()}
