from __future__ import annotations

import os
import sys as _sys

import pytest

from coxcover import (
    algebra, build_fibered_graph, convolution_oracle, covering, verify)
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
    non_empty = sum(len(convolution_oracle(sys_, left, right))
                    for left in iter_subsets(sys_.rank) for right in iter_subsets(sys_.rank))
    assert built == non_empty
    assert dict((r.name, r.checked) for r in results)["monodromy"] == non_empty


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_sweep_tests_the_wiring_once_and_builds_no_document(group, request, monkeypatch):
    # filling the lift table is the sweep's covering-axiom test, and the
    # loops are lifted without the `monodromy` document: neither the
    # separate axiom test nor the document's subset keys are reached
    sys_ = request.getfixturevalue(group)

    def refuse(*args):
        raise AssertionError("the sweep must do each job once")

    monkeypatch.setattr(covering, "verify_covering", refuse)
    monkeypatch.setattr(verify, "verify_covering", refuse, raising=False)
    monkeypatch.setattr(covering.CoveringInstance, "subsets", refuse)
    results = run_invariant_sweep(sys_)
    assert [r.name for r in results if not r.ok] == []


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_sweep_fills_each_lift_table_once(group, request, monkeypatch, tally):
    # the lift table is read off each instance's wiring once; the dichotomy
    # checks it against its brute force and the relation loops read it
    sys_ = request.getfixturevalue(group)
    table = covering.CoveringInstance.lift_table

    def counting(self):
        if self.lifts is None:
            tally.add()
        return table(self)

    monkeypatch.setattr(covering.CoveringInstance, "lift_table", counting)
    results = {r.name: r.checked for r in run_invariant_sweep(sys_)}
    non_empty = results["monodromy"]
    # one monodromy check per non-zero structure constant, counted apart
    # from the sweep's records
    assert non_empty == sum(len(algebra.product_expand(sys_, left, right))
                            for left in iter_subsets(sys_.rank)
                            for right in iter_subsets(sys_.rank))
    assert len(tally.pids()) == non_empty
    # no second lift rule is left in the package
    assert not [name for name, module in _sys.modules.items()
                if name.split(".")[0] == "coxcover" and hasattr(module, "unique_lift_edge")]


@pytest.mark.parametrize("group, start", [("s4", "(0, 3) s2"), ("i6", "(0, 1) s2")],
                         ids=["s4", "i6"])
def test_lift_dichotomy_does_not_trust_the_wiring(group, start, request, monkeypatch):
    # a table whose every lift stays at its own vertex walks each relation
    # loop to the identity; only the brute force can tell
    sys_ = request.getfixturevalue(group)
    table = covering.CoveringInstance.lift_table

    def unmoved(self):
        lifts = table(self)
        for row in lifts:
            for u, v in enumerate(row):
                if v >= 0:
                    row[u] = u
        return lifts

    monkeypatch.setattr(covering.CoveringInstance, "lift_table", unmoved)
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
