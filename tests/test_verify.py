from __future__ import annotations

import pytest

from coxcover import algebra, convolution_oracle, covering, verify
from coxcover.gensets import iter_subsets
from coxcover.verify import run_invariant_sweep


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
