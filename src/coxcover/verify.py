"""Executable invariant sweeps over one enumerated group.

Each check exercises a theorem the construction depends on, preferring two
independent routes wherever one exists (positional criteria against table
lookups, covering degrees against the convolution oracle, formula extremes
against class scans).  The CLI `verify` command runs all of them and fails
on the first witness.

The covering-axiom, lift-dichotomy and monodromy checks share one streamed
sweep over the covering instances: every non-empty instance of every
product is built once, handed to all three, and dropped before the next;
only its fiber size is kept, for the algebra check's comparison with the
convolution oracle.  The covering axioms are one local-bijection test per
vertex.  The lift dichotomy fills the instance's lift table, which lifts
each in-class step once by `unique_lift_edge`, and checks every entry
against a brute force that tries both refactorizations by multiplication
and shares no code with `unique_lift_edge`; the monodromy check then moves
the fiber points along its loops through that table with `loop_action`, so
no step is lifted twice.  `monodromy_report` raises on any monodromy
violation, a braid loop of order above 2 included, from inside that sweep,
before the algebra check has run, so it can pre-empt an error that check
would raise; either way the CLI prints only the group header and one
`invariant failure:` line, and exits 1.
"""

from __future__ import annotations

import random

from .algebra import AlgebraElement, convolution_oracle, x_from_y, y_from_x
from .coxeter import CoxeterSystem, positional_recoils
from .covering import (
    iter_fibered_graphs,
    multiplicity_partition,
    verify_covering,
)
from .gensets import format_subset, iter_subsets
from .monodromy import monodromy_report
from .recoil import (
    alpha_oneline,
    beta_oneline,
    class_interval_matches,
    conjugated_generator,
    positional_same_class,
    recoil_class,
    same_class_edge_index,
)


FiberSizes = dict[tuple[int, int], dict[int, int]]  # (I, J) -> {K: structure constant}


class CheckResult:
    __slots__ = ("name", "checked", "failures")

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, witness: str) -> None:
        self.failures.append(witness)


def _check_cayley(sys: CoxeterSystem) -> CheckResult:
    res = CheckResult("cayley tables")
    for table in (sys.right_cayley, sys.left_cayley):
        for w in range(len(sys.elements)):
            for s in range(sys.rank):
                res.checked += 1
                v = table[w][s]
                if table[v][s] != w:
                    res.fail(f"generator {s + 1} is not an involution at {sys.format_index(w)}")
                if abs(sys.lengths[v] - sys.lengths[w]) != 1:
                    res.fail(f"length step != 1 at {sys.format_index(w)}, generator {s + 1}")
    full = (1 << sys.rank) - 1
    if sys.lengths.count(0) != 1:
        res.fail("identity is not unique")
    if sys.recoils[sys.longest_index] != full or sys.descents[sys.longest_index] != full:
        res.fail("longest element does not have full recoil and descent sets")
    res.checked += 2
    return res


def _check_recoil_descent(sys: CoxeterSystem) -> CheckResult:
    res = CheckResult("recoils vs descents")
    for w in range(len(sys.elements)):
        res.checked += 1
        if sys.recoils[w] != sys.descents[sys.inverse_index[w]]:
            res.fail(f"recoil set of {sys.format_index(w)} is not the inverse's descent set")
        if sys.kind == "symmetric" and positional_recoils(sys.elements[w]) != sys.recoils[w]:
            res.fail(f"positional recoil criterion differs at {sys.format_index(w)}")
    return res


def _check_class_edges(sys: CoxeterSystem) -> CheckResult:
    res = CheckResult("class-edge criteria")
    for w in range(len(sys.elements)):
        for s in range(sys.rank):
            res.checked += 1
            by_recoils = same_class_edge_index(sys, w, s)
            conj = conjugated_generator(sys, w, s)
            if by_recoils != (conj is None):
                res.fail(f"conjugation criterion differs at {sys.format_index(w)}, s{s + 1}")
            if sys.kind == "symmetric" and by_recoils != positional_same_class(sys, w, s):
                res.fail(f"positional criterion differs at {sys.format_index(w)}, s{s + 1}")
            ws = sys.right_cayley[w][s]
            if sys.lengths[ws] == sys.lengths[w] + 1:
                grown = sys.recoils[ws]
                if conj is None:
                    if grown != sys.recoils[w]:
                        res.fail(f"recoil set changed without a simple conjugate at "
                                 f"{sys.format_index(w)}, s{s + 1}")
                elif grown != sys.recoils[w] | (1 << conj) or grown == sys.recoils[w]:
                    res.fail(f"recoil set did not grow by the conjugate at "
                             f"{sys.format_index(w)}, s{s + 1}")
    return res


def _check_classes(sys: CoxeterSystem) -> CheckResult:
    res = CheckResult("recoil classes")
    total = 0
    for subset in iter_subsets(sys.rank):
        cls = recoil_class(sys, subset)
        total += len(cls.members)
        res.checked += 1
        reached = {cls.alpha}
        stack = [cls.alpha]
        while stack:
            for v, _ in cls.adjacency[stack.pop()]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        if len(reached) != len(cls.members):
            res.fail(f"class {format_subset(subset)} is not connected")
        if not class_interval_matches(sys, cls):
            res.fail(f"class {format_subset(subset)} is not the weak-order interval "
                     "of its extremes")
        if sys.kind == "symmetric":
            if sys.elements[cls.alpha] != alpha_oneline(sys.n, subset):
                res.fail(f"scan minimum differs from formula for {format_subset(subset)}")
            if sys.elements[cls.beta] != beta_oneline(sys.n, subset):
                res.fail(f"scan maximum differs from formula for {format_subset(subset)}")
    if total != len(sys.elements):
        res.fail("classes do not partition the group")
    return res


def _check_coverings(sys: CoxeterSystem, fiber_sizes: FiberSizes,
                     monodromy: CheckResult) -> CheckResult:
    """The one pass over instances: every non-empty instance of every
    product is built once and handed to the covering-axiom check, the lift
    dichotomy and the monodromy check (which fills in `monodromy`).  Only
    the fiber sizes are kept, in `fiber_sizes[(I, J)]`, for the oracle
    comparison."""
    res = CheckResult("covering axioms")
    conjugates: dict[int, int | None] = {}
    for left in iter_subsets(sys.rank):
        for right in iter_subsets(sys.rank):
            sizes = fiber_sizes[left, right] = {}
            for target, inst in iter_fibered_graphs(sys, left, right):
                sizes[target] = inst.fiber_size
                res.checked += 1
                report = verify_covering(inst)
                if not report.ok:
                    res.fail(f"covering axioms failed for ({format_subset(left)}, "
                             f"{format_subset(right)}, {format_subset(target)}): "
                             f"{report.violations[:1]}")
                if sum(multiplicity_partition(inst)) != inst.fiber_size:
                    res.fail(f"partition does not sum to the constant for "
                             f"({format_subset(left)}, {format_subset(right)}, "
                             f"{format_subset(target)})")
                _check_lift_dichotomy(sys, inst, res, conjugates)
                _check_instance_monodromy(inst, monodromy)
    return res


def _check_lift_dichotomy(sys, inst, res: CheckResult,
                          conjugates: dict[int, int | None]) -> None:
    """Both candidate factorizations of every in-class step, brute-forced:
    exactly one must stay in its class, and the instance's lift table must
    hold the vertex it gives, (pi, rho*s) or (pi*t, rho) with t = rho s
    rho^-1.  The conjugate of s by rho depends on (rho, s) alone, so it is
    multiplied out once per pair and kept in `conjugates` under
    rho*rank + s."""
    rank, right, recoils = sys.rank, sys.right_cayley, sys.recoils
    vertices, lifts = inst.vertices, inst.lift_table()
    checked = 0
    for vid, sigma in enumerate(inst.projection):
        p, r = start = vertices[vid]
        steps, rec_sigma, rec_p, rec_r = right[sigma], recoils[sigma], recoils[p], recoils[r]
        for s in range(rank):
            if recoils[steps[s]] != rec_sigma:
                continue  # not an in-class step
            checked += 1
            right_ok = recoils[right[r][s]] == rec_r
            key = r * rank + s
            if key in conjugates:
                conj = conjugates[key]
            else:
                conj = conjugates[key] = conjugated_generator(sys, r, s)
            left_ok = conj is not None and recoils[right[p][conj]] == rec_p
            if right_ok == left_ok:
                res.fail(f"lift dichotomy failed at {start} step s{s + 1}")
                continue
            expect = (p, right[r][s]) if right_ok else (right[p][conj], r)
            if (lifted := lifts[s][vid]) < 0 or vertices[lifted] != expect:
                res.fail(f"lift table disagrees with brute force at {start} s{s + 1}")
    res.checked += checked


def _check_instance_monodromy(inst, res: CheckResult) -> None:
    """Lift every relation loop of the target class; `monodromy_report`
    raises on any violation, among them a braid loop acting with an order
    other than 1 or 2."""
    res.checked += 1
    monodromy_report(inst)


def _check_algebra(sys: CoxeterSystem, rng: random.Random,
                   fiber_sizes: FiberSizes) -> CheckResult:
    """Covering constants, as the fiber sizes the sweep kept, against the
    convolution oracle and the counting identity, plus basis round trips."""
    res = CheckResult("products vs oracle")
    class_sizes = {subset: len(recoil_class(sys, subset).members)
                   for subset in iter_subsets(sys.rank)}
    for left in iter_subsets(sys.rank):
        for right in iter_subsets(sys.rank):
            res.checked += 1
            expansion = AlgebraElement.make("Y", fiber_sizes[left, right])
            if expansion != convolution_oracle(sys, left, right):
                res.fail(f"oracle mismatch at ({format_subset(left)}, {format_subset(right)})")
            if any(c <= 0 for _, c in expansion.coeffs):
                res.fail(f"nonpositive coefficient at ({format_subset(left)}, "
                         f"{format_subset(right)})")
            weighted = sum(c * class_sizes[m] for m, c in expansion.coeffs)
            if weighted != class_sizes[left] * class_sizes[right]:
                res.fail(f"counting identity failed at ({format_subset(left)}, "
                         f"{format_subset(right)})")
    for _ in range(25):
        res.checked += 1
        coeffs = {m: rng.randint(-9, 9) for m in iter_subsets(sys.rank)}
        start = AlgebraElement.make("Y", coeffs)
        if y_from_x(x_from_y(start)) != start:
            res.fail("basis round trip is not the identity")
    return res


def _check_monodromy(sys: CoxeterSystem, res: CheckResult) -> CheckResult:
    """This check ran inside the covering sweep and filled in `res`: every
    class is the target of a non-empty instance (the empty set times it),
    so `monodromy_report` has lifted the relation loops of every class."""
    return res


def run_invariant_sweep(sys: CoxeterSystem) -> list[CheckResult]:
    """All seven checks, in their printed order.  The covering, algebra and
    monodromy checks share one streamed pass over the covering instances,
    run inside `_check_coverings`."""
    rng = random.Random(0)
    fiber_sizes: FiberSizes = {}
    monodromy = CheckResult("monodromy")
    return [
        _check_cayley(sys),
        _check_recoil_descent(sys),
        _check_class_edges(sys),
        _check_classes(sys),
        _check_coverings(sys, fiber_sizes, monodromy),
        _check_algebra(sys, rng, fiber_sizes),
        _check_monodromy(sys, monodromy),
    ]
