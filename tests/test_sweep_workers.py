"""`fan_out(fn, items)` shares its items out among forked workers, one
per CPU in the affinity mask, and `verify` runs its covering sweep through
it, each product's convolution oracle included.  Whatever the worker
count, and whatever a worker does, the results and the first error are
those of one serial pass, and no child outlives the call."""

from __future__ import annotations

import errno
import json
import os
import threading
import time

import pytest

from coxcover import algebra, fanout, monodromy, verify
from coxcover.cli import main
from coxcover.errors import ClassInconstant, InvariantViolation
from coxcover.fanout import fan_out
from coxcover.gensets import format_subset, iter_subsets
from coxcover.verify import run_invariant_sweep

from .conftest import B3_MATRIX, H3_MATRIX


def set_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def run_verify(capsys, group: str) -> tuple[int, str, str]:
    code = main(["verify", "--group", group])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def group_arg(name: str, tmp_path) -> str:
    matrix = {"B3": B3_MATRIX, "H3": H3_MATRIX}.get(name)
    if matrix is None:
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"m": matrix}))
    return f"matrix:{path}"


def tally_pairs(monkeypatch, tally, worker_action=None) -> None:
    """Record the pid of every `_sweep_pair` call; in a forked worker, run
    `worker_action` first."""
    parent, sweep_pair = os.getpid(), verify._sweep_pair

    def tallied(*args):
        tally.add()
        if worker_action is not None and os.getpid() != parent:
            worker_action()
        return sweep_pair(*args)

    monkeypatch.setattr(verify, "_sweep_pair", tallied)


@pytest.mark.parametrize("name", ["S4", "I6", "B3", "H3"])
def test_output_does_not_depend_on_the_worker_count(name, tmp_path, capsys, monkeypatch, tally):
    group = group_arg(name, tmp_path)
    default = run_verify(capsys, group)
    assert default[0] == 0 and default[2] == ""
    assert "\nproducts vs oracle: ok (" in default[1]
    rank = int(default[1].split("rank ")[1].split("\n")[0])
    oracle = verify.convolution_oracle

    def tallied(*args):
        tally.add()
        return oracle(*args)

    monkeypatch.setattr(verify, "convolution_oracle", tallied)
    for count in (1, 3):
        set_cpus(monkeypatch, count)
        seen = len(tally.pids())
        assert run_verify(capsys, group) == default
        calls = tally.pids()[seen:]
        # once per product, in the parent and count - 1 workers, and none
        # in the algebra check
        assert len(calls) == 4 ** rank
        assert len(set(calls)) == count
        assert_no_child_left()


@pytest.mark.parametrize("module, builder", [(monodromy, "relation_loops"),
                                             (algebra, "_tree_links")],
                         ids=["relation-loops", "tree-links"])
def test_a_class_that_cannot_be_built_gives_the_serial_error(module, builder, s4, capsys,
                                                             monkeypatch, tally):
    # each process builds a class's loops and tree links on first use, so
    # the first pair that needs the refused class raises, in pair order;
    # {1, 2} is first needed at position 3, a worker's share with 2 CPUs
    # and the parent's with 3
    build, refused = getattr(module, builder), 0b011

    def refusing(sys_, cls):
        if cls.subset == refused:
            tally.add()
            raise InvariantViolation(f"injected failure in class {format_subset(refused)}")
        return build(sys_, cls)

    monkeypatch.setattr(module, builder, refusing)
    set_cpus(monkeypatch, 1)
    serial = run_verify(capsys, "S4")
    assert serial == (1, "group S4: 24 elements, rank 3\n",
                      "invariant failure: injected failure in class {1,2}\n")
    for count in (2, 3):
        set_cpus(monkeypatch, count)
        seen = len(tally.pids())
        assert run_verify(capsys, "S4") == serial
        assert any(pid != os.getpid() for pid in tally.pids()[seen:])
        assert_no_child_left()


@pytest.mark.parametrize("earlier", [0, 1], ids=["parent-share-first", "worker-share-first"])
def test_two_failures_give_the_serial_error(earlier, s4, capsys, monkeypatch):
    pairs = [(left, right) for left in iter_subsets(3) for right in iter_subsets(3)]
    shares = fanout._shares(len(pairs), 2)
    first = shares[earlier][0]
    second = next(pos for pos in shares[1 - earlier] if pos > first)
    failing = {pairs[first], pairs[second]}
    walk = verify.lift_loops

    def injected(inst):
        if (inst.left, inst.right) in failing:
            raise InvariantViolation(f"injected failure at ({format_subset(inst.left)}, "
                                     f"{format_subset(inst.right)})")
        return walk(inst)

    monkeypatch.setattr(verify, "lift_loops", injected)
    set_cpus(monkeypatch, 1)
    serial = run_verify(capsys, "S4")
    left, right = pairs[first]
    assert serial == (1, "group S4: 24 elements, rank 3\n",
                      f"invariant failure: injected failure at ({format_subset(left)}, "
                      f"{format_subset(right)})\n")
    set_cpus(monkeypatch, 2)
    assert run_verify(capsys, "S4") == serial
    assert_no_child_left()


@pytest.mark.parametrize("sweep_fails", [False, True], ids=["oracle", "oracle-then-sweep"])
def test_an_oracle_error_in_a_worker_gives_the_serial_error(sweep_fails, s4, capsys,
                                                            monkeypatch, tally):
    pairs = [(left, right) for left in iter_subsets(3) for right in iter_subsets(3)]
    worker_share = fanout._shares(len(pairs), 2)[1]
    bad, later = pairs[worker_share[0]], pairs[-1]
    assert later != bad
    oracle, walk = verify.convolution_oracle, verify.lift_loops

    def failing_oracle(sys_, left, right):
        if (left, right) == bad:
            tally.add()
            raise ClassInconstant(f"injected oracle failure at ({format_subset(left)}, "
                                  f"{format_subset(right)})")
        return oracle(sys_, left, right)

    def failing_walk(inst):
        if (inst.left, inst.right) == later:
            raise InvariantViolation("injected sweep failure")
        return walk(inst)

    monkeypatch.setattr(verify, "convolution_oracle", failing_oracle)
    if sweep_fails:
        monkeypatch.setattr(verify, "lift_loops", failing_walk)
    # the oracle raises at its own product, so it wins over a sweep
    # failure at a later product, as any fault of the sweep would
    set_cpus(monkeypatch, 1)
    serial = run_verify(capsys, "S4")
    message = f"injected oracle failure at ({format_subset(bad[0])}, {format_subset(bad[1])})"
    assert serial == (1, "group S4: 24 elements, rank 3\n", f"invariant failure: {message}\n")
    set_cpus(monkeypatch, 2)
    seen = len(tally.pids())
    assert run_verify(capsys, "S4") == serial
    # the worker met the fault first and stopped its share there; the
    # parent met it again when it computed that product
    worker = tally.pids()[seen]
    assert worker != os.getpid()
    assert tally.pids()[seen:] == [worker, os.getpid()]
    assert_no_child_left()


@pytest.mark.parametrize("name", ["S4", "B3"])
def test_a_worker_that_exits_early_is_covered(name, tmp_path, capsys, monkeypatch, tally):
    group = group_arg(name, tmp_path)
    set_cpus(monkeypatch, 1)
    serial = run_verify(capsys, group)
    tally_pairs(monkeypatch, tally, worker_action=lambda: os._exit(0))
    set_cpus(monkeypatch, 3)
    assert run_verify(capsys, group) == serial
    assert len(set(tally.pids())) == 3
    assert_no_child_left()


def test_an_interrupt_kills_and_reaps_the_workers(s4, monkeypatch, tally):
    parent = os.getpid()

    def stalled(*args):
        tally.add()
        if os.getpid() != parent:
            time.sleep(60)
        for _ in range(500):  # until the worker has started
            if len(set(tally.pids())) > 1:
                break
            time.sleep(0.01)
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "_sweep_pair", stalled)
    set_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_invariant_sweep(s4)
    assert time.monotonic() - start < 30
    assert len(set(tally.pids())) == 2
    assert_no_child_left()


@pytest.mark.parametrize("blocker", ["thread", "no-fork"])
def test_the_parent_sweeps_alone_when_forking_is_unsafe(blocker, s4, monkeypatch, tally):
    set_cpus(monkeypatch, 2)
    tally_pairs(monkeypatch, tally)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if blocker == "thread":
        thread.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        assert all(r.ok for r in run_invariant_sweep(s4))
    finally:
        stop.set()
        if blocker == "thread":
            thread.join()
    assert set(tally.pids()) == {os.getpid()}
    assert_no_child_left()


def squares_tallied(tally):
    def square(x):
        tally.add()
        return x * x
    return square


@pytest.mark.parametrize("count", [1, 2, 3])
def test_fan_out_returns_results_in_item_order(count, monkeypatch, tally):
    set_cpus(monkeypatch, count)
    items = list(range(7))  # neither 2 nor 3 divides 7
    assert fan_out(squares_tallied(tally), items) == [x * x for x in items]
    assert len(tally.pids()) == len(items)
    assert len(set(tally.pids())) == count
    assert_no_child_left()


def test_fan_out_of_no_items_is_empty(monkeypatch):
    set_cpus(monkeypatch, 2)
    assert fan_out(abs, []) == []


def test_fan_out_raises_the_first_error_in_item_order(monkeypatch, tally):
    # with 3 CPUs, items 2 and 4 both fall in worker shares
    def failing(x):
        tally.add()
        if x in (2, 4):
            raise ValueError(f"item {x}")
        return x

    set_cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="^item 2$"):
        fan_out(failing, list(range(7)))
    assert any(pid != os.getpid() for pid in tally.pids())
    assert_no_child_left()


@pytest.mark.parametrize("started", [0, 1], ids=["none-started", "one-started"])
@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_the_parent_computes_the_shares_of_workers_that_cannot_start(call, started,
                                                                     monkeypatch, tally):
    fds = sorted(os.listdir("/proc/self/fd"))
    real, calls = getattr(os, call), []

    def refused(*args):
        calls.append(call)
        if len(calls) > started:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real(*args)

    monkeypatch.setattr(os, call, refused)
    set_cpus(monkeypatch, 3)
    items = list(range(7))
    assert fan_out(squares_tallied(tally), items) == [x * x for x in items]
    pids = tally.pids()
    assert len(pids) == len(items)
    assert len(set(pids)) == 1 + started
    # the parent's own share and every share of a worker that did not start
    assert pids.count(os.getpid()) == len(items) - len(fanout._shares(len(items), 3)[1]) * started
    assert_no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == fds
