"""Acceptance suite: one test per stated criterion, each timed against
its stated budget and reporting one PASS/FAIL line.

Criterion 2 expects the expansion of Y2*Y3 that the composition
convention fixed by criteria 1, 3 and 4 gives.  An earlier golden value,
{(): 1, (2,): 1, (3,): 1, (2, 3): 1, (1, 2): 1}, is the expansion of Y2*Y1,
with one label mirrored (generator i -> n-i).  Mirroring every label
leaves the table unchanged (test_product_tables_mirror_symmetric in
test_algebra.py), so no reading of Y_I used for both factors and the
target gives that value.  The expected value is confirmed against the
convolution oracle and a from-scratch recount in test_algebra.py.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from coxcover import (
    CoxeterSpec,
    Loop,
    build_fibered_graph,
    build_system,
    component_isomorphisms,
    convolution_oracle,
    full_table,
    loop_action,
    monodromy_report,
    multiplicity_partition,
    product_expand,
    recoil_class,
    relation_loops,
    verify_covering,
)
from coxcover.gensets import iter_subsets, one_based

from .conftest import A3_MATRIX, B3_MATRIX
from .support import perm_index, subset, x_from_y, y_from_x


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    else:
        print(f"ACCEPTANCE {number}: PASS  {description}  [{elapsed:.2f}s]")


def expansion(coeffs: dict[int, int]) -> dict[tuple[int, ...], int]:
    return {one_based(mask): c for mask, c in coeffs.items()}


def test_criterion_01_s4_first_product():
    with criterion(1, "S4: Y1*Y3 expansion", budget=1.0):
        s4 = build_system(CoxeterSpec.symmetric(4))
        assert expansion(product_expand(s4, subset(1), subset(3))) == {
            (): 1, (1,): 1, (1, 3): 1}


def test_criterion_02_s4_second_product():
    with criterion(2, "S4: Y2*Y3 expansion (golden value)", budget=1.0):
        s4 = build_system(CoxeterSpec.symmetric(4))
        got = expansion(product_expand(s4, subset(2), subset(3)))
        assert got == {(): 1, (1,): 1, (2,): 1, (1, 2): 1, (2, 3): 1}, (
            f"computed {got}: Y2*Y3 under the composition convention that "
            "criteria 1, 3 and 4 fix"
        )


def test_criterion_03_s5_structure_constant():
    with criterion(3, "S5: constant 2, connected, partition (2)", budget=5.0):
        s5 = build_system(CoxeterSpec.symmetric(5))
        inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
        assert inst.fiber_size == 2
        assert inst.component_count == 1
        assert multiplicity_partition(inst) == (2,)
        assert product_expand(s5, subset(2, 3), subset(3, 4))[subset(1, 3)] == 2


def test_criterion_04_dihedral_product():
    with criterion(4, "I2(6): Ys*Yt expansion and class sizes", budget=1.0):
        i6 = build_system(CoxeterSpec.dihedral(6))
        assert expansion(product_expand(i6, subset(1), subset(2))) == {
            (): 2, (1,): 2, (2,): 2, (1, 2): 3}
        assert len(recoil_class(i6, subset(1))) == 5
        assert len(recoil_class(i6, subset(2))) == 5


def test_criterion_05_oracle_equivalence_sweep():
    with criterion(5, "S3/S4/S5: covering route equals oracle on all pairs",
                   budget=60.0):
        for n in (3, 4, 5):
            sys_ = build_system(CoxeterSpec.symmetric(n))
            pairs = 0
            for left in iter_subsets(sys_.rank):
                for right in iter_subsets(sys_.rank):
                    pairs += 1
                    assert product_expand(sys_, left, right) == \
                        convolution_oracle(sys_, left, right)
            assert pairs == 4 ** sys_.rank


def test_criterion_06_covering_axioms():
    with criterion(6, "S4 and I2(2..8): covering axioms on every nonempty "
                      "instance", budget=30.0):
        specs = [CoxeterSpec.symmetric(4)]
        specs += [CoxeterSpec.dihedral(m) for m in range(2, 9)]
        for spec in specs:
            sys_ = build_system(spec)
            for left in iter_subsets(sys_.rank):
                for right in iter_subsets(sys_.rank):
                    for target in iter_subsets(sys_.rank):
                        inst = build_fibered_graph(sys_, left, right, target)
                        if not inst.is_empty:
                            assert verify_covering(inst) == [], (spec.describe(),
                                                                 left, right, target)


def test_criterion_07_counting_identity():
    with criterion(7, "counting identity in S3, S4, S5, I2(6), B3"):
        specs = [CoxeterSpec.symmetric(3), CoxeterSpec.symmetric(4),
                 CoxeterSpec.symmetric(5), CoxeterSpec.dihedral(6),
                 CoxeterSpec.from_matrix(B3_MATRIX)]
        for spec in specs:
            sys_ = build_system(spec)
            if spec.kind == "matrix":
                assert len(sys_) == 48
            sizes = {m: len(recoil_class(sys_, m)) for m in iter_subsets(sys_.rank)}
            for left in iter_subsets(sys_.rank):
                for right in iter_subsets(sys_.rank):
                    coeffs = product_expand(sys_, left, right)
                    assert sum(c * sizes[m] for m, c in coeffs.items()) == \
                        sizes[left] * sizes[right]


def test_criterion_08_monodromy_orders():
    with criterion(8, "S5: braid orders in {1,2}, trivial squares/commuting, "
                      "reference loop has order 2", budget=120.0):
        s5 = build_system(CoxeterSpec.symmetric(5))
        for left in iter_subsets(s5.rank):
            for right in iter_subsets(s5.rank):
                for target in iter_subsets(s5.rank):
                    inst = build_fibered_graph(s5, left, right, target)
                    if inst.is_empty:
                        continue
                    # raises OrderViolation on any nontrivial square or
                    # commuting loop, or braid order outside {1, 2}
                    report = monodromy_report(inst)
                    assert set(report["orders"]) <= {"1", "2"}
        inst = build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3))
        base = perm_index(s5, "24153")
        action = loop_action(inst, Loop(base, (3, 2, 3, 2, 3, 2), "braid"))
        assert action.order == 2


def test_criterion_09_no_braid_corollary():
    with criterion(9, "S4/S5: no braid loop forces all-ones partition and "
                      "component isomorphisms"):
        for n in (4, 5):
            sys_ = build_system(CoxeterSpec.symmetric(n))
            covered = 0
            for target in iter_subsets(sys_.rank):
                loops = relation_loops(sys_, recoil_class(sys_, target))
                if any(l.kind in ("braid", "polygon") for l in loops):
                    continue
                for left in iter_subsets(sys_.rank):
                    for right in iter_subsets(sys_.rank):
                        inst = build_fibered_graph(sys_, left, right, target)
                        if inst.is_empty:
                            continue
                        covered += 1
                        assert multiplicity_partition(inst) == (1,) * inst.fiber_size
                        assert component_isomorphisms(inst)
            assert covered > 0


def test_criterion_10_generic_engine_and_moebius():
    with criterion(10, "matrix A3 table equals S4 table; basis round trip"):
        s4 = build_system(CoxeterSpec.symmetric(4))
        a3 = build_system(CoxeterSpec.from_matrix(A3_MATRIX))
        assert full_table(s4)["rows"] == full_table(a3)["rows"]
        rng = random.Random(271828)
        for _ in range(100):
            coeffs = {m: rng.randint(-50, 50) for m in iter_subsets(4)}
            vec = {m: c for m, c in coeffs.items() if c}
            assert y_from_x(x_from_y(vec)) == vec
