"""Benchmark of the coxcover CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Every job is a fresh
`python -m coxcover ...` process on `src/`, timed from spawn to exit, one
at a time (one closed-loop client).  A run warms up, measures set-up time,
then repeats passes of the workload's jobs while they fit in S seconds
(always at least one pass), and checks every output afterwards.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
every time rescaled to a fixed machine speed (see SpeedProbe); with
--trace 1 it runs one pass plain and one pass under `tracer.py`, and prints
the per-layer metrics.  The last stdout line is the result object; the
line before it records the machine, the source and the seed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import SymmetricOracle, check_cover, check_monodromy, check_table  # noqa: E402
from tracer import built_groups, job_layer_times, layer_metrics, load_spans  # noqa: E402
from workloads import GROUP_ORDERS, QUERY_GROUP, QUERY_N, WORKLOADS, Job  # noqa: E402

RUN_LIMIT_S = 170          # every process is killed after this, so a run ends in time
SETUP_SAMPLES = 5          # set-up is repeated up to this many times per group ...
SETUP_BUDGET_S = 1.5       # ... while the group's samples add up to less than this
TRACE_TOLERANCE = 0.10     # share of the traced wall time the spans may leave unexplained
PROBE_ITERATIONS = 40_000  # the speed probe's fixed loop ...
PROBE_PERIOD_S = 0.1       # ... run this often, while a job runs on the other core
PROBE_WINDOW_S = 0.25      # a job's speed is the mean of the probes this close to it
PROBE_CPU_S = 0.004        # times are rescaled to a machine where one probe takes this

SETUP_CODE = """
import sys
from coxcover.cli import parse_group
from coxcover.coxeter import build_system
build_system(parse_group(sys.argv[1], None))
"""


class SpeedProbe:
    """Tracks the machine's speed while jobs run.

    The VM's CPU speed drifts by up to 2x over minutes, and it drifts on
    both cores together.  A thread runs a fixed loop every PROBE_PERIOD_S
    and records its CPU time (not its wall time, which preemption would
    inflate).  `scale` turns a wall time into seconds at the speed where
    the loop takes PROBE_CPU_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        time.sleep(PROBE_WINDOW_S)  # probes after the last job
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            cpu = time.thread_time()
            acc = 0
            for i in range(PROBE_ITERATIONS):
                acc += i * i % 7
            self.samples.append((time.perf_counter(), time.thread_time() - cpu))

    def scale(self, start: float, wall: float) -> float:
        """`wall`, run from `start`, rescaled to the reference speed."""
        near = [cpu for t, cpu in self.samples
                if start - PROBE_WINDOW_S <= t <= start + wall + PROBE_WINDOW_S]
        if not near:
            middle = start + wall / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return wall * PROBE_CPU_S / statistics.fmean(near)


@dataclass
class Done:
    job: Job
    start: float                # perf_counter at spawn
    wall: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes
    spans: list | None = None


class Runner:
    """Spawns one child at a time and times it from spawn to exit."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, argv: list[str]) -> tuple[float, float, int, float, bytes, bytes]:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (start, wall, proc.returncode, usage.ru_maxrss / 1024,
                out_path.read_bytes(), err_path.read_bytes())

    def run_job(self, job: Job) -> Done:
        return Done(job, *self.spawn([sys.executable, "-m", "coxcover", *job.cli_argv]))

    def trace_job(self, job: Job) -> Done:
        spans_path = self.scratch / "spans"
        spans_path.unlink(missing_ok=True)
        tracer = str(Path(__file__).resolve().parent / "tracer.py")
        done = Done(job, *self.spawn([sys.executable, tracer, str(spans_path),
                                      "--", *job.cli_argv]))
        done.spans = load_spans(spans_path) if spans_path.exists() else []
        return done

    def setup_samples(self, group: str) -> list[tuple[float, float]]:
        """(start, wall) of fresh processes that start Python, import
        coxcover and build the group."""
        samples = []
        while len(samples) < SETUP_SAMPLES and sum(w for _, w in samples) < SETUP_BUDGET_S:
            start, wall, code, _, _, err = self.spawn([sys.executable, "-c", SETUP_CODE, group])
            if code != 0:
                raise RuntimeError(f"set-up of {group} exited {code}: {err.decode()[-500:]}")
            samples.append((start, wall))
        return samples

    def startup_time(self) -> float:
        """Wall time of a fresh process that only imports coxcover.cli."""
        _, wall, code, _, _, err = self.spawn([sys.executable, "-c", "import coxcover.cli"])
        if code != 0:
            raise RuntimeError(f"import coxcover.cli exited {code}: {err.decode()[-500:]}")
        return wall


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest calls."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _instance(job: Job) -> tuple[str, ...]:
    """The --group, --left, --right and --target options of a cover or
    monodromy job, which name its instance."""
    return job.argv[1:9]


def _request(job: Job) -> tuple[list[int], list[int], list[int]]:
    opts = dict(zip(job.argv[1::2], job.argv[2::2]))
    return tuple([int(x) for x in opts[k].split(",") if x]
                 for k in ("--left", "--right", "--target"))


class Checker:
    """Output checks, run after the timed passes."""

    def __init__(self):
        self.s6 = SymmetricOracle(6)
        self.s7 = SymmetricOracle(QUERY_N)
        self.lambdas: dict = {}

    def problems(self, done: Done) -> list[str]:
        job = done.job
        out = []
        if done.code != job.exit_code:
            out.append(f"exit code {done.code}, expected {job.exit_code}")
        if b"Traceback" in done.stderr:
            out.append("traceback on stderr")
        if out:
            return out
        if job.digest is not None and hashlib.sha256(done.stdout).hexdigest() != job.digest:
            out.append("stdout differs from the recorded digest")
        try:
            out += self._content(job, done)
        except (ValueError, KeyError, TypeError) as exc:
            out.append(f"unreadable output: {exc!r}")
        if done.spans is not None:
            out += self._orders(job, done.spans)
        return out

    def _content(self, job: Job, done: Done) -> list[str]:
        if job.kind == "table":
            return check_table(done.stdout, self.s6 if job.group == "S6" else None)
        if job.kind == "cover":
            queried = job.group == QUERY_GROUP
            problems = check_cover(done.stdout, self.s7 if queried else None,
                                   _request(job) if queried else None)
            self.lambdas[_instance(job)] = json.loads(done.stdout)["lambda"]
            return problems
        if job.kind == "monodromy":
            return check_monodromy(done.stdout, _request(job), self.lambdas.get(_instance(job)))
        if job.kind == "verify":
            last = done.stdout.decode().rstrip("\n").rsplit("\n", 1)[-1]
            return [] if last.startswith("all checks passed") else [f"verify ended {last!r}"]
        if job.kind == "capped":
            lines = done.stderr.decode().splitlines()
            ok = not done.stdout and len(lines) == 1 and lines[0].startswith("error: ")
            return [] if ok else [f"capped job printed {done.stdout[:80]!r} / {lines[:3]!r}"]
        raise ValueError(f"unknown job kind {job.kind}")

    @staticmethod
    def _orders(job: Job, spans: list) -> list[str]:
        built = built_groups(spans)
        expected = [(job.cap, True)] if job.kind == "capped" else [(GROUP_ORDERS[job.group], False)]
        return [] if built == expected else [f"built (order, capped) {built}, expected {expected}"]


def environment(root: Path, seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "coxcover").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "commit": _git_commit(root), "source_sha256": source.hexdigest(), "seed": seed}


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    return ref_path.read_text().strip() if ref_path.is_file() else None


def run(args, root: Path, scratch: Path, spec: dict) -> dict:
    workload = WORKLOADS[args.workload]
    runner = Runner(root, scratch)
    rng = random.Random(args.seed)

    runner.spawn([sys.executable, "-c", "import coxcover.cli"])
    runner.run_job(workload.warmup)

    done: list[Done] = []
    if args.trace:
        jobs = workload.jobs(rng)
        plain = [runner.run_job(job) for job in jobs]
        traced, startups = [], []
        for job in jobs:
            traced.append(runner.trace_job(job))
            startups.append(runner.startup_time())  # right after, at the same machine speed
        done = plain + traced
        metrics = traced_metrics(plain, traced, startups)
        wanted = spec["per_layer"]
    else:
        with SpeedProbe() as probe:
            setups = [runner.setup_samples(group) for group in workload.setup_groups]
            passes: list[list[Done]] = []
            start = time.perf_counter()
            # a pass starts only if it should end within --seconds (the first always runs)
            while not passes or (time.perf_counter() - start + statistics.median(
                    sum(d.wall for d in p) for p in passes) <= args.seconds):
                passes.append([runner.run_job(job) for job in workload.jobs(rng)])
        done = [d for p in passes for d in p]
        raw = timings(passes, setups, lambda start, wall: wall)
        metrics = timings(passes, setups, probe.scale)
        metrics["peak_rss_mb"] = max(d.rss_mb for d in done)
        calls = [probe.scale(d.start, d.wall) for d in done]
        print(f"{len(passes)} passes, {len(done)} calls; p90 has "
              f"{sum(c > metrics['query_p90_s'] for c in calls)} calls beyond it; "
              f"{len(probe.samples)} speed probes, median "
              f"{statistics.median(cpu for _, cpu in probe.samples) * 1000:.2f} ms", file=sys.stderr)
        print(f"raw wall times: {json.dumps(raw)}", file=sys.stderr)
        wanted = spec["end_to_end"]

    checker = Checker()
    failed = 0
    for d in done:
        problems = checker.problems(d)
        if problems:
            failed += 1
            print(f"FAILED {d.job.label}: {'; '.join(problems)}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def timings(passes: list[list[Done]], setups: list[list[tuple[float, float]]],
            rescale) -> dict:
    """The end-to-end times, each job's (start, wall) passed through `rescale`."""
    calls = [rescale(d.start, d.wall) for p in passes for d in p]
    return {
        "wall_s": statistics.median(sum(rescale(d.start, d.wall) for d in p) for p in passes),
        "setup_s": sum(statistics.median(rescale(*s) for s in samples) for samples in setups),
        "query_p50_s": percentile(calls, 50),
        "query_p90_s": percentile(calls, 90),
    }


def traced_metrics(plain: list[Done], traced: list[Done], startups: list[float]) -> dict:
    metrics = layer_metrics([d.spans for d in traced])
    traced_wall = sum(d.wall for d in traced)
    in_main = sum(span[2] - span[1] for d in traced for span in d.spans
                  if span[0] == "cli.main")
    unaccounted = traced_wall - sum(startups) - in_main
    metrics.update({
        "cli.startup_s": statistics.median(startups),
        "cli.output_bytes": sum(len(d.stdout) for d in traced),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - sum(d.wall for d in plain),
        "trace.unaccounted_s": unaccounted,
    })
    print(f"{'job':<44}{'plain s':>9}{'traced s':>10}  largest self times", file=sys.stderr)
    for p, t in zip(plain, traced):
        times = job_layer_times(t.spans)
        top = sorted(times.items(), key=lambda kv: -kv[1])[:3]
        print(f"{p.job.label[:43]:<44}{p.wall:9.3f}{t.wall:10.3f}  "
              + ", ".join(f"{k} {v:.3f}" for k, v in top), file=sys.stderr)
    share = unaccounted / traced_wall
    print(f"spans + startup leave {unaccounted:.3f} s of {traced_wall:.3f} s traced wall "
          f"unexplained ({share:.1%}; tolerance {TRACE_TOLERANCE:.0%})"
          + ("" if abs(share) <= TRACE_TOLERANCE else "  OUTSIDE TOLERANCE"), file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "coxcover" / "cli.py").is_file():
        print(f"error: {root} holds no coxcover source tree (src/coxcover)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as scratch:
        result = run(args, root, Path(scratch), spec)
    print(json.dumps(environment(root, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
