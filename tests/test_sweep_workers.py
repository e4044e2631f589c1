"""`verify` shares its covering sweep out among forked workers, one per
CPU in the affinity mask, and each share computes its products'
convolution oracles too.  Whatever the worker count, and whatever a
worker does, the output is that of one serial pass, and no child outlives
the sweep."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from coxcover import algebra, monodromy, verify
from coxcover.cli import main
from coxcover.errors import ClassInconstant, InvariantViolation
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
    shares = verify._shares(len(pairs), 2)
    first = shares[earlier][0]
    second = next(pos for pos in shares[1 - earlier] if pos > first)
    failing = {pairs[first], pairs[second]}
    report = verify.monodromy_report

    def injected(inst):
        if (inst.left, inst.right) in failing:
            raise InvariantViolation(f"injected failure at ({format_subset(inst.left)}, "
                                     f"{format_subset(inst.right)})")
        return report(inst)

    monkeypatch.setattr(verify, "monodromy_report", injected)
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
    worker_share = verify._shares(len(pairs), 2)[1]
    bad, later = pairs[worker_share[0]], pairs[-1]
    assert later != bad
    oracle, covering = verify.convolution_oracle, verify.verify_covering

    def failing_oracle(sys_, left, right):
        if (left, right) == bad:
            tally.add()
            raise ClassInconstant(f"injected oracle failure at ({format_subset(left)}, "
                                  f"{format_subset(right)})")
        return oracle(sys_, left, right)

    def failing_covering(inst):
        if (inst.left, inst.right) == later:
            raise InvariantViolation("injected covering failure")
        return covering(inst)

    monkeypatch.setattr(verify, "convolution_oracle", failing_oracle)
    if sweep_fails:
        monkeypatch.setattr(verify, "verify_covering", failing_covering)
    set_cpus(monkeypatch, 1)
    serial = run_verify(capsys, "S4")
    message = ("injected covering failure" if sweep_fails else
               f"injected oracle failure at ({format_subset(bad[0])}, {format_subset(bad[1])})")
    assert serial == (1, "group S4: 24 elements, rank 3\n", f"invariant failure: {message}\n")
    set_cpus(monkeypatch, 2)
    seen = len(tally.pids())
    assert run_verify(capsys, "S4") == serial
    # the worker met the fault first; the algebra check, run only when the
    # sweep passed, met it again in the parent
    assert tally.pids()[seen:] == [tally.pids()[seen]] + [os.getpid()] * (not sweep_fails)
    assert tally.pids()[seen] != os.getpid()
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
