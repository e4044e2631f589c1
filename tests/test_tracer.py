"""The benchmark's tracer rebinds library entry points by name and reads
their arguments and results; every name it lists must still resolve, and a
traced job must still run, or `perfbench/run.py --trace 1` breaks."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxcover

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the traced child imports the coxcover these tests import
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(coxcover.__file__)),
                  os.environ.get("PYTHONPATH")]))}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_resolve():
    tracer = _load_tracer()
    assert tracer.LAYERS
    for name, (module_name, attr) in tracer.LAYERS.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{name}: {module_name}.{attr} is gone"
        assert callable(owner), name


@pytest.mark.parametrize("argv, expected", [
    (("monodromy", "--group", "S5", "--left", "2,3", "--right", "3,4", "--target", "1,3"),
     {"monodromy.loop_action", "covering.build_fibered_graph"}),
    # verify builds its instances through iter_fibered_graphs, which has no span
    (("verify", "--group", "S4"), {"monodromy.loop_action", "verify.coverings"}),
], ids=["monodromy", "verify"])
def test_traced_job_records_its_spans(argv, expected, tmp_path):
    spans_file = tmp_path / "spans"
    done = subprocess.run([sys.executable, str(TRACER), str(spans_file), "--", *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    names = {span[0] for span in _load_tracer().load_spans(spans_file)}
    assert expected <= names
