"""Span tracing from outside the program, and the per-layer metrics.

Run as a script, this is one traced CLI job:

    python perfbench/tracer.py SPANS_FILE -- CLI_ARGS...

It imports coxcover, rebinds the public entry points listed in `LAYERS`
(and the seven checks of `run_invariant_sweep`) in every coxcover module
that holds them, calls `coxcover.cli.main(CLI_ARGS)` and exits with its
code.  Each wrapped call records a span (name, start, end, parent and up
to three counts read off its arguments or result).  Spans stay in memory
and are written to SPANS_FILE when the job ends; each job writes its own
file, so the file identifies the job.

`multiply_index` is not wrapped: the S6 table calls it 13.6M times.  Pair
counts are computed from class sizes instead.

Imported as a module, `layer_metrics` turns the spans of a pass into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import marshal
import sys
import time
from array import array
from collections import Counter

# span name -> (module, attribute); "Class.method" names a method
LAYERS = {
    "cli.main": ("coxcover.cli", "main"),
    "cli.cmd_table": ("coxcover.cli", "cmd_table"),
    "cli.cmd_cover": ("coxcover.cli", "cmd_cover"),
    "cli.cmd_monodromy": ("coxcover.cli", "cmd_monodromy"),
    "cli.cmd_verify": ("coxcover.cli", "cmd_verify"),
    "coxeter.build_system": ("coxcover.coxeter", "build_system"),
    "words.canonical": ("coxcover.words", "WordEngine.canonical"),
    "words.braid_closure": ("coxcover.words", "WordEngine.braid_closure"),
    "recoil.recoil_class": ("coxcover.recoil", "recoil_class"),
    "covering.build_fibered_graph": ("coxcover.covering", "build_fibered_graph"),
    "covering.verify_covering": ("coxcover.covering", "verify_covering"),
    "algebra.expansion_rows": ("coxcover.algebra", "expansion_rows"),
    "algebra.product_expand": ("coxcover.algebra", "product_expand"),
    "algebra.convolution_oracle": ("coxcover.algebra", "convolution_oracle"),
    "monodromy.relation_loops": ("coxcover.monodromy", "relation_loops"),
    "monodromy.monodromy_report": ("coxcover.monodromy", "monodromy_report"),
    "monodromy.loop_action": ("coxcover.monodromy", "loop_action"),
}
CHECKS = ("cayley", "recoil_descent", "class_edges", "classes", "coverings",
          "algebra", "monodromy")
for _check in CHECKS:
    LAYERS[f"verify.{_check}"] = ("coxcover.verify", f"_check_{_check}")


# -- recording (runs inside the traced job) ----------------------------------

def _counts(name: str, args: tuple, result) -> tuple[int, int, int]:
    """Up to three counts for one span, read in O(1) from its arguments or
    result; their meaning depends on the span name (see `layer_metrics`)."""
    if name == "coxeter.build_system":
        return len(result), args[0].kind != "symmetric", 0
    if name == "words.braid_closure":
        return len(result), 0, 0
    if name == "recoil.recoil_class":
        return args[1], len(result.members), 0
    if name == "covering.build_fibered_graph":
        return (len(result.left_class) * len(result.right_class),
                len(result.vertices), len(result.edges))
    if name.startswith("algebra."):
        return args[1], args[2], len(result) if name == "algebra.expansion_rows" else 0
    if name == "monodromy.relation_loops":
        return args[1].subset, len(result), 0
    if name == "monodromy.loop_action":
        instance, loop = args
        return len(instance.fibers[loop.base]) * len(loop.word), 0, 0
    if name.startswith("verify."):
        return result.checked, 0, 0
    return 0, 0, 0


def _error_counts(name: str, args: tuple, error: BaseException) -> tuple[int, int, int]:
    """A build that hits the element cap still enumerated `cap` elements
    with the word engine (symmetric groups are refused before enumerating)."""
    if (name == "coxeter.build_system" and type(error).__name__ == "CapExceeded"
            and args[0].kind != "symmetric"):
        return args[0].element_cap, 1, 1
    return 0, 0, 1


NAMES = list(LAYERS)
COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"),
           ("a0", "q"), ("a1", "q"), ("a2", "q"))


class Recorder:
    """Spans in flat arrays, which the garbage collector does not scan, so
    recording adds no collector work to the traced program."""

    def __init__(self):
        self.columns = {key: array(code) for key, code in COLUMNS}
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        c = self.columns
        names, starts, ends, parents = c["name"], c["start"], c["end"], c["parent"]
        a0, a1, a2 = c["a0"], c["a1"], c["a2"]
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            a0.append(0)
            a1.append(0)
            a2.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                a0[i], a1[i], a2[i] = _error_counts(name, args, exc)
                raise
            ends[i] = clock()
            stack.pop()
            a0[i], a1[i], a2[i] = _counts(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every entry point in `LAYERS`, in each coxcover module
        that holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "coxcover" or n.startswith("coxcover.")]
        for name, (module_name, attr) in LAYERS.items():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump([col.tobytes() for col in self.columns.values()], fh)


def load_spans(path) -> list[tuple]:
    """Spans written by `Recorder.dump`, as (name, start, end, parent, a0, a1, a2)."""
    with open(path, "rb") as fh:
        raw = marshal.load(fh)
    cols = []
    for (key, code), data in zip(COLUMNS, raw):
        col = array(code)
        col.frombytes(data)
        cols.append(col)
    names = [NAMES[i] for i in cols[0]]
    return list(zip(names, *cols[1:]))


def _traced_main(argv: list[str]) -> int:
    spans_path = argv[0]
    cli_argv = argv[argv.index("--") + 1:]
    import coxcover.cli
    recorder = Recorder()
    recorder.install()
    try:
        return coxcover.cli.main(cli_argv)
    finally:
        recorder.dump(spans_path)


# -- aggregation (runs in the benchmark) -------------------------------------

def _self_times(spans: list[tuple]) -> list[float]:
    own = [span[2] - span[1] for span in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _under(spans: list[tuple], i: int, prefix: str) -> bool:
    """Does span i have an ancestor whose name starts with `prefix`?"""
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


SELF_TIME_METRICS = {
    "cli.parse_s": ("cli.main",),
    "cli.output_s": ("cli.cmd_table", "cli.cmd_cover", "cli.cmd_monodromy", "cli.cmd_verify"),
    "coxeter.build_system_s": ("coxeter.build_system",),
    "words.canonical_s": ("words.canonical", "words.braid_closure"),
    "recoil.recoil_class_s": ("recoil.recoil_class",),
    "covering.build_fibered_graph_s": ("covering.build_fibered_graph",),
    "covering.verify_covering_s": ("covering.verify_covering",),
    "algebra.expansion_rows_s": ("algebra.expansion_rows",),
    "algebra.convolution_oracle_s": ("algebra.convolution_oracle",),
    "algebra.product_expand_s": ("algebra.product_expand",),
    "monodromy.relation_loops_s": ("monodromy.relation_loops",),
    "monodromy.monodromy_report_s": ("monodromy.monodromy_report",),
    "monodromy.loop_action_s": ("monodromy.loop_action",),
    **{f"verify.{c}_s": (f"verify.{c}",) for c in CHECKS},
}


def job_layer_times(spans: list[tuple]) -> dict[str, float]:
    """Self time of each metric in `SELF_TIME_METRICS` for one job.  The
    values add up to the duration of `cli.main`."""
    by_span = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, _self_times(spans)):
        by_span[span[0]] += own
    return {metric: sum(by_span[n] for n in names)
            for metric, names in SELF_TIME_METRICS.items()}


def _job_counts(spans: list[tuple]) -> Counter:
    count: Counter = Counter()
    class_sizes: dict[int, int] = {}
    loops_built: set[int] = set()
    for i, (name, _, _, _, a0, a1, a2) in enumerate(spans):
        count[name] += 1
        if name == "coxeter.build_system":
            count["elements"] += a0
            count["word_elements"] += a0 if a1 else 0
        elif name == "words.braid_closure":
            count["closure_words"] += a0
        elif name == "recoil.recoil_class":
            class_sizes[a0] = a1
        elif name == "covering.build_fibered_graph":
            count["pairs_scanned"] += a0
            count["vertices"] += a1
            count["edges"] += a2
            if _under(spans, i, "algebra."):
                count["pairs_multiplied"] += a0
            if _under(spans, i, "verify."):
                count["instances_built"] += 1
        elif name == "monodromy.relation_loops" and a0 not in loops_built:
            loops_built.add(a0)  # later calls are cache hits
            count["loops"] += a1
        elif name == "monodromy.loop_action":
            count["lift_steps"] += a0
        elif name.startswith("verify."):
            count[f"{name}_checks"] += a0
    count["classes_built"] += len(class_sizes)  # the class cache never evicts
    for name, _, _, _, a0, a1, a2 in spans:
        if name.startswith("algebra."):
            # the target scan of a product, or the oracle's full product
            count["pairs_multiplied"] += class_sizes[a0] * class_sizes[a1]
            count["rows"] += a2
    return count


def layer_metrics(jobs: list[list[tuple]]) -> dict[str, float]:
    """Per-layer metrics summed over the spans of every job of a pass."""
    out: dict[str, float] = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    count: Counter = Counter()
    for spans in jobs:
        for metric, value in job_layer_times(spans).items():
            out[metric] += value
        count.update(_job_counts(spans))
    out.update({
        "coxeter.elements": count["elements"],
        "words.canonical_calls": count["words.canonical"],
        "words.closure_words": count["closure_words"],
        "words.closure_words_per_element":
            count["closure_words"] / count["word_elements"] if count["word_elements"] else 0.0,
        "recoil.recoil_class_calls": count["recoil.recoil_class"],
        "recoil.classes_built": count["classes_built"],
        "covering.build_fibered_graph_calls": count["covering.build_fibered_graph"],
        "covering.pairs_scanned": count["pairs_scanned"],
        "covering.vertices": count["vertices"],
        "covering.edges": count["edges"],
        "covering.vertex_yield":
            count["vertices"] / count["pairs_scanned"] if count["pairs_scanned"] else 0.0,
        "algebra.products": count["algebra.expansion_rows"] + count["algebra.product_expand"],
        "algebra.rows": count["rows"],
        "algebra.pairs_multiplied": count["pairs_multiplied"],
        "monodromy.loops": count["loops"],
        "monodromy.loop_action_calls": count["monodromy.loop_action"],
        "monodromy.lift_steps": count["lift_steps"],
        "verify.instances_built": count["instances_built"],
        **{f"verify.{c}_checks": count[f"verify.{c}_checks"] for c in CHECKS},
    })
    return out


def built_groups(spans: list[tuple]) -> list[tuple[int, bool]]:
    """(elements, capped) for every build_system call of one job."""
    return [(a0, bool(a2)) for name, _, _, _, a0, _, a2 in spans
            if name == "coxeter.build_system"]


if __name__ == "__main__":
    raise SystemExit(_traced_main(sys.argv[1:]))
