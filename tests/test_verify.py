from __future__ import annotations

import pytest

from coxcover import (
    algebra, build_fibered_graph, convolution_oracle, covering, monodromy, verify)
from coxcover.gensets import iter_subsets
from coxcover.verify import CheckResult, run_invariant_sweep

from .support import subset


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_sweep_builds_each_instance_once(group, request, monkeypatch):
    sys_ = request.getfixturevalue(group)
    wire = covering._wire
    built = 0

    def counting(*args):
        nonlocal built
        built += 1
        return wire(*args)

    def refuse(*args):
        raise AssertionError("the sweep must not expand products again")

    monkeypatch.setattr(covering, "_wire", counting)
    monkeypatch.setattr(algebra, "product_expand", refuse)
    monkeypatch.setattr(verify, "product_expand", refuse, raising=False)
    results = run_invariant_sweep(sys_)
    assert all(r.ok for r in results)
    non_empty = sum(len(convolution_oracle(sys_, left, right).coeffs)
                    for left in iter_subsets(sys_.rank) for right in iter_subsets(sys_.rank))
    assert built == non_empty
    assert dict((r.name, r.checked) for r in results)["monodromy"] == non_empty


@pytest.mark.parametrize("group", ["s4", "i6"])
def test_sweep_lifts_each_in_class_step_at_most_twice(group, request, monkeypatch):
    # once for the dichotomy's own comparison and once to fill the lift
    # table; the relation loops read the table and lift nothing again
    sys_ = request.getfixturevalue(group)
    lift = covering.unique_lift_edge
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return lift(*args)

    for module in (covering, verify, monodromy):
        monkeypatch.setattr(module, "unique_lift_edge", counting)
    results = {r.name: r.checked for r in run_invariant_sweep(sys_)}
    non_empty = results["monodromy"]
    in_class_steps = results["covering axioms"] - non_empty  # one check per instance besides
    assert in_class_steps > 0
    assert calls <= 2 * in_class_steps


def test_lift_dichotomy_checks_the_lift_table(s4):
    inst = build_fibered_graph(s4, subset(2, 3), subset(1, 3), subset(1, 3))
    clean = CheckResult("clean")
    verify._check_lift_dichotomy(s4, inst, clean, {})
    assert clean.ok and clean.checked > 0
    lifts = inst.lift_table()
    s, vid = next((s, vid) for s, row in enumerate(lifts)
                  for vid, lifted in enumerate(row) if lifted >= 0)
    witness = f"lift table disagrees with unique_lift_edge at {inst.vertices[vid]} s{s + 1}"
    for wrong in (vid, -1):  # a lift always moves; -1 refuses an in-class step
        lifts[s][vid] = wrong
        res = CheckResult("tampered")
        verify._check_lift_dichotomy(s4, inst, res, {})
        assert res.failures == [witness]
        assert res.checked == clean.checked
