"""Executable invariant sweeps over one enumerated group.

Each check exercises a theorem the construction depends on, preferring two
independent routes wherever one exists (positional criteria against table
lookups, covering degrees against the convolution oracle, formula extremes
against class scans).  The CLI `verify` command runs all of them and fails
on the first witness.

The covering-axiom, lift-dichotomy and monodromy checks share one streamed
sweep over the covering instances: every non-empty instance of every
product is built once, handed to all three, and dropped before the next;
only its fiber size is kept.  Each product's convolution oracle runs in
the sweep too, after its instances.  The sweep leaves one record per
product, in product order: its fiber sizes, covering checks, witnesses
and oracle coefficients.  The algebra check compares the sizes with the
oracle; an oracle that raised in the sweep is called again by that check,
in product order, so its error comes where a serial check raises it.
The monodromy check counts one check per instance, so one per fiber
size.  The covering axioms are one local-bijection test per vertex.  The
lift dichotomy fills the instance's lift table, which lifts each in-class
step once by `unique_lift_edge`, and checks every entry against a brute
force that tries both refactorizations by multiplication and shares no
code with `unique_lift_edge`; its conjugates rho s rho^-1 are those the
class-edge check multiplied out, one list that forked workers inherit.
The monodromy check then reads its loops off that table in one walk:
each square whose step is an involution there passes, and the other loops
go through `loop_action`, so no step is lifted twice.  `monodromy_report`
raises on any monodromy violation, a braid loop of order above 2
included, from inside that sweep, before the algebra check has run, so it
can pre-empt an error that check would raise; either way the CLI prints
only the group header and one `invariant failure:` line, and exits 1.

The products (I, J) of that sweep are independent, so the parent computes
one share of them and forks one worker for each further CPU in its
affinity mask (none with one CPU, without `os.fork`, or while another
thread runs).  A worker sends its per-product checks, witnesses, fiber
sizes and oracle coefficients back through a pipe with `marshal` and ends
through `os._exit`.  The parent merges them in product order and computes
again whatever a worker did not deliver, so the counts, the witnesses and
the first error raised are those of a serial sweep, whatever the worker
count.  Every worker is reaped before the sweep returns or raises.  Each
process builds the relation loops and tree links its pairs need, on first
use, so the first pair that needs a class that cannot be built raises, in
pair order.
"""

from __future__ import annotations

import marshal
import os
import random
import threading

from .algebra import AlgebraElement, convolution_oracle, x_from_y, y_from_x
from .coxeter import CoxeterSystem, positional_recoils
from .covering import iter_fibered_graphs, verify_covering
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


Coeffs = tuple[tuple[int, int], ...]  # an AlgebraElement's (subset, coefficient) pairs
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
# oracle's coefficients (None where it raised) of one product, as plain
# data that `marshal` can send
PairResult = tuple[dict[int, int], int, list[str], Coeffs | None]


def _pairs(sys: CoxeterSystem) -> list[tuple[int, int]]:
    """Every product (I, J), in the order the checks report them."""
    return [(left, right) for left in iter_subsets(sys.rank) for right in iter_subsets(sys.rank)]


def _check_coverings(sys: CoxeterSystem, conjugates: Conjugates,
                     swept: list[PairResult]) -> CheckResult:
    """The one pass over instances: every non-empty instance of every
    product is built once and handed to the covering-axiom check, the lift
    dichotomy and `monodromy_report`.  Each product's record goes into
    `swept`, in pair order, for the algebra and monodromy checks.
    `_sweep` shares the products out among forked workers."""
    res = CheckResult("covering axioms")
    swept += _sweep(sys, conjugates, _pairs(sys))
    for _, checked, failures, _ in swept:
        res.checked += checked
        res.failures += failures
    return res


def _sweep_pair(sys: CoxeterSystem, conjugates: Conjugates,
                left: int, right: int) -> PairResult:
    """Every non-empty instance of the product (left, right), built and
    checked once, and the product's convolution oracle.  An oracle that
    raises gives None: `_check_algebra` calls it again, so its error comes
    after the whole sweep, where a serial check raises it."""
    res = CheckResult("covering axioms")
    sizes = {}
    for target, inst in iter_fibered_graphs(sys, left, right):
        sizes[target] = inst.fiber_size
        res.checked += 1
        report = verify_covering(inst)
        if not report.ok:
            res.fail(f"covering axioms failed for ({format_subset(left)}, "
                     f"{format_subset(right)}, {format_subset(target)}): "
                     f"{report.violations[:1]}")
        _check_lift_dichotomy(sys, inst, res, conjugates)
        monodromy_report(inst)  # raises on any monodromy violation
    try:
        oracle = convolution_oracle(sys, left, right).coeffs
    except Exception:
        oracle = None
    return sizes, res.checked, res.failures, oracle


def _sweep(sys: CoxeterSystem, conjugates: Conjugates,
           pairs: list[tuple[int, int]]) -> list[PairResult]:
    """`_sweep_pair` of every pair, in pair order.  The parent computes
    the first share of the pairs and one forked worker each further share.
    A share stops at its first raising pair; every pair left without a
    result (after that stop, or in the share of a worker that died or sent
    nothing usable) is computed again here, in pair order, so the error
    that comes up is the one a serial pass raises first.  Every worker is
    reaped before this returns or raises; on an error or an interrupt they
    are killed first."""
    shares = _shares(len(pairs), _worker_count(len(pairs)))
    results: list[PairResult | None] = [None] * len(pairs)
    workers = []  # (pid, pipe, share)
    try:
        for share in shares[1:]:
            try:
                workers.append(_fork_worker(sys, conjugates, pairs, share))
            except OSError:
                break  # out of processes or pipes: the shares left are computed below
        for pos, result in zip(shares[0], _sweep_share(sys, conjugates, pairs, shares[0])):
            results[pos] = result
        for _, pipe, share in workers:
            for pos, result in zip(share, _decode(pipe.read(), len(share))):
                results[pos] = result
    except BaseException:
        from signal import SIGKILL
        for pid, _, _ in workers:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            os.waitpid(pid, 0)
    return [result if result is not None else _sweep_pair(sys, conjugates, *pairs[pos])
            for pos, result in enumerate(results)]


def _worker_count(pairs: int) -> int:
    """One per CPU this process may run on, capped at `pairs`.  Only the
    parent (1) without `os.fork` or while another thread runs: a forked
    child gets only the forking thread, so a lock that another thread
    holds would stay locked in it."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(len(affinity(0)), pairs)


def _shares(total: int, count: int) -> list[range]:
    """`count` shares of the pair positions, dealt round-robin, so each
    takes about 1/count of the |Y_I|*|Y_J| scan; with two, exactly half,
    since half of the group has any given recoil."""
    return [range(first, total, count) for first in range(count)]


def _sweep_share(sys: CoxeterSystem, conjugates: Conjugates,
                 pairs: list[tuple[int, int]], share: range) -> list[PairResult]:
    """The results of a share's pairs, in order, up to its first raising
    pair, which `_sweep` computes again."""
    done: list[PairResult] = []
    try:
        for pos in share:
            done.append(_sweep_pair(sys, conjugates, *pairs[pos]))
    except Exception:
        pass
    return done


def _fork_worker(sys: CoxeterSystem, conjugates: Conjugates,
                 pairs: list[tuple[int, int]], share: range):
    """Fork a worker for `share`: it sends `_sweep_share` through a pipe
    with `marshal` and ends through `os._exit`, never writing to or
    flushing the stdio buffers it inherited."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                marshal.dump(_sweep_share(sys, conjugates, pairs, share), pipe)
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb"), share


def _decode(data: bytes, size: int) -> list[PairResult]:
    """A worker's results, or none if what it sent is unusable."""
    try:
        done = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return []
    return done if isinstance(done, list) and len(done) <= size else []


def _check_lift_dichotomy(sys, inst, res: CheckResult,
                          conjugates: Conjugates) -> None:
    """Both candidate factorizations of every in-class step, brute-forced:
    exactly one must stay in its class, and the instance's lift table must
    hold the vertex it gives, (pi, rho*s) or (pi*t, rho) with t = rho s
    rho^-1.  The conjugate t is read from `conjugates[rho*rank + s]`,
    which `_check_class_edges` multiplied out; the lift table reads no
    conjugate."""
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
    identity, plus basis round trips.  Where the oracle raised in the
    sweep, it is called again here, in pair order, to raise."""
    res = CheckResult("products vs oracle")
    class_sizes = {subset: len(recoil_class(sys, subset).members)
                   for subset in iter_subsets(sys.rank)}
    for (left, right), (sizes, _, _, coeffs) in zip(_pairs(sys), swept):
        res.checked += 1
        expansion = AlgebraElement.make("Y", sizes)
        oracle = (convolution_oracle(sys, left, right) if coeffs is None
                  else AlgebraElement("Y", coeffs))
        if expansion != oracle:
            res.fail(f"oracle mismatch at ({format_subset(left)}, {format_subset(right)})")
        if any(c <= 0 for _, c in expansion.coeffs):
            res.fail(f"nonpositive coefficient at ({format_subset(left)}, "
                     f"{format_subset(right)})")
        weighted = sum(c * class_sizes[m] for m, c in expansion.coeffs)
        if weighted != class_sizes[left] * class_sizes[right]:
            res.fail(f"counting identity failed at ({format_subset(left)}, "
                     f"{format_subset(right)})")
    rng = random.Random(0)
    for _ in range(25):
        res.checked += 1
        coeffs = {m: rng.randint(-9, 9) for m in iter_subsets(sys.rank)}
        start = AlgebraElement.make("Y", coeffs)
        if y_from_x(x_from_y(start)) != start:
            res.fail("basis round trip is not the identity")
    return res


def _check_monodromy(sys: CoxeterSystem, swept: list[PairResult]) -> CheckResult:
    """`monodromy_report` ran inside the covering sweep, on every non-empty
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
