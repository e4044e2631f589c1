"""Executable invariant sweeps over one enumerated group.

Each check exercises a theorem the construction depends on, preferring two
independent routes wherever one exists (positional criteria against table
lookups, covering degrees against the convolution oracle, formula extremes
against class scans).  The CLI `verify` command runs all of them and fails
on the first witness.

The covering-axiom, lift-dichotomy and monodromy checks share one streamed
sweep over the covering instances: every non-empty instance of every
product is built once, walked once, and dropped before the next; only its
fiber size is kept.  The product's convolution oracle runs in the sweep
too and gives a dict of the same shape, which the algebra check compares
with the fiber sizes as it is.  The covering axioms are tested once, when the lift dichotomy fills the
instance's lift table: the fill reads each step's lift off the wiring and
raises, with the first `verify_covering` witness, at a vertex whose
neighbours do not project one-to-one onto the class neighbours of its
image.  The dichotomy then checks every entry against a brute force that
tries both refactorizations by multiplication; so the constructor's
wiring, left-move filter included, is checked against a rule it does not
use.  Its conjugates rho s rho^-1 are those the class-edge check
multiplied out.  The monodromy check lifts the loops through that table
with `lift_loops`, which builds no document, one check per instance.

One error rule: whatever raises for a product in the sweep (a monodromy
violation, a braid loop of order above 2 included, a fiber that is not
constant, a step that an instance's wiring lifts other than once, a class
that cannot be built, or the product's oracle) raises at that product,
in product order, before the algebra check runs; the CLI then prints the
group header and one `invariant failure:` line, and exits 1.  `fan_out`
computes the products on every CPU, with the results and the first error
of a serial sweep.
"""

from __future__ import annotations

import random
from functools import partial

from .algebra import _superset_transform, convolution_oracle
from .coxeter import CoxeterSystem, positional_recoils
from .covering import iter_fibered_graphs
from .fanout import fan_out
from .gensets import format_subset, iter_subsets
from .monodromy import lift_loops
from .recoil import (
    alpha_oneline,
    beta_oneline,
    class_interval_matches,
    conjugated_generator,
    positional_same_class,
    recoil_class,
    same_class_edge_index,
)


# w*rank + s -> w s w^-1 if it is a simple generator, else None
Conjugates = list[int | None]


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


def _check_class_edges(sys: CoxeterSystem, conjugates: Conjugates) -> CheckResult:
    """Appends each w s w^-1 it multiplies out to `conjugates`, for the
    lift dichotomy."""
    res = CheckResult("class-edge criteria")
    for w in range(len(sys.elements)):
        for s in range(sys.rank):
            res.checked += 1
            by_recoils = same_class_edge_index(sys, w, s)
            conj = conjugated_generator(sys, w, s)
            conjugates.append(conj)
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
            for v in cls.adjacency[stack.pop()]:
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


# the fiber sizes by target, the covering checks and witnesses and the
# oracle's constants by target of one product, as plain data that
# `marshal` can send
PairResult = tuple[dict[int, int], int, list[str], dict[int, int]]


def _pairs(sys: CoxeterSystem) -> list[tuple[int, int]]:
    """Every product (I, J), in the order the checks report them."""
    return [(left, right) for left in iter_subsets(sys.rank) for right in iter_subsets(sys.rank)]


def _check_coverings(sys: CoxeterSystem, conjugates: Conjugates,
                     swept: list[PairResult]) -> CheckResult:
    """The one pass over instances: `_sweep_pair` of every product, on
    every CPU.  Each product's record goes into `swept`, in pair order,
    for the algebra and monodromy checks; the first product that raises
    raises here."""
    res = CheckResult("covering axioms")
    swept += fan_out(partial(_sweep_pair, sys, conjugates), _pairs(sys))
    for _, checked, failures, _ in swept:
        res.checked += checked
        res.failures += failures
    return res


def _sweep_pair(sys: CoxeterSystem, conjugates: Conjugates,
                pair: tuple[int, int]) -> PairResult:
    """Every non-empty instance of the product `pair`, built once and
    walked once: the lift dichotomy fills its lift table, which is the
    covering-axiom test, and checks it, then `lift_loops` lifts the
    relation loops through it; then the product's convolution oracle.
    Any of them that raises raises here."""
    left, right = pair
    res = CheckResult("covering axioms")
    sizes = {}
    for target, inst in iter_fibered_graphs(sys, left, right):
        sizes[target] = inst.fiber_size
        res.checked += 1  # the covering axioms: the lift table filled
        _check_lift_dichotomy(sys, inst, res, conjugates)
        lift_loops(inst)
    return sizes, res.checked, res.failures, convolution_oracle(sys, left, right)


def _check_lift_dichotomy(sys, inst, res: CheckResult,
                          conjugates: Conjugates) -> None:
    """Both candidate factorizations of every in-class step, brute-forced:
    exactly one must stay in its class, and the instance's lift table must
    hold the vertex it gives, (pi, rho*s) or (pi*t, rho) with t = rho s
    rho^-1.  The conjugate t is read from `conjugates[rho*rank + s]`,
    which `_check_class_edges` multiplied out; the lift table reads no
    conjugate.  Filling the table is the sweep's covering-axiom test: a
    miswired vertex raises there, before any entry is compared."""
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
            conj = conjugates[r * rank + s]
            left_ok = conj is not None and recoils[right[p][conj]] == rec_p
            if right_ok == left_ok:
                res.fail(f"lift dichotomy failed at {start} step s{s + 1}")
                continue
            expect = (p, right[r][s]) if right_ok else (right[p][conj], r)
            if (lifted := lifts[s][vid]) < 0 or vertices[lifted] != expect:
                res.fail(f"lift table disagrees with brute force at {start} s{s + 1}")
    res.checked += checked


def _check_algebra(sys: CoxeterSystem, swept: list[PairResult]) -> CheckResult:
    """Covering constants, as the fiber sizes the sweep kept, against the
    convolution oracle the sweep computed next to them, and the counting
    identity, plus basis round trips.  It only compares: an oracle that
    raised did so in the sweep."""
    res = CheckResult("products vs oracle")
    class_sizes = {subset: len(recoil_class(sys, subset).members)
                   for subset in iter_subsets(sys.rank)}
    for (left, right), (sizes, _, _, oracle) in zip(_pairs(sys), swept):
        res.checked += 1
        if sizes != oracle:
            res.fail(f"oracle mismatch at ({format_subset(left)}, {format_subset(right)})")
        if any(c <= 0 for c in sizes.values()):
            res.fail(f"nonpositive coefficient at ({format_subset(left)}, "
                     f"{format_subset(right)})")
        weighted = sum(c * class_sizes[m] for m, c in sizes.items())
        if weighted != class_sizes[left] * class_sizes[right]:
            res.fail(f"counting identity failed at ({format_subset(left)}, "
                     f"{format_subset(right)})")
    rng = random.Random(0)
    for _ in range(25):
        res.checked += 1
        coeffs = {m: rng.randint(-9, 9) for m in iter_subsets(sys.rank)}
        if _superset_transform(_superset_transform(coeffs, -1), +1) != coeffs:
            res.fail("basis round trip is not the identity")
    return res


def _check_monodromy(sys: CoxeterSystem, swept: list[PairResult]) -> CheckResult:
    """`lift_loops` ran inside the covering sweep, on every non-empty
    instance, and raised on any violation, among them a braid loop acting
    with an order other than 1 or 2; one check per instance, so one per
    fiber size kept.  Every class is the target of a non-empty instance
    (the empty set times it), so the relation loops of every class were
    lifted."""
    res = CheckResult("monodromy")
    res.checked = sum(len(sizes) for sizes, _, _, _ in swept)
    return res


def run_invariant_sweep(sys: CoxeterSystem) -> list[CheckResult]:
    """All seven checks, in their printed order.  The covering, algebra and
    monodromy checks share one streamed pass over the covering instances,
    run inside `_check_coverings`, which leaves one record per product in
    `swept` for the other two.  The lift dichotomy in that pass reads the
    conjugates the class-edge check multiplied out."""
    swept: list[PairResult] = []
    conjugates: Conjugates = []
    return [
        _check_cayley(sys),
        _check_recoil_descent(sys),
        _check_class_edges(sys, conjugates),
        _check_classes(sys),
        _check_coverings(sys, conjugates, swept),
        _check_algebra(sys, swept),
        _check_monodromy(sys, swept),
    ]
