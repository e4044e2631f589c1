"""The four workloads: which CLI jobs a pass runs and what each must print.

A job is one `python -m coxcover ...` process.  A pass is the list of jobs
one workload runs in order; a run repeats passes until its time is up.
Fixed jobs carry the sha256 of the stdout the CLI printed at commit 31358ec,
so any change to the bytes it prints is an error.  The `queries` jobs are
drawn from the seed and are checked against the S_n oracle instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from oracle import recoils

GROUPS_DIR = "perfbench/groups"

D4 = f"matrix:{GROUPS_DIR}/D4.json"
B4 = f"matrix:{GROUPS_DIR}/B4.json"
B3 = f"matrix:{GROUPS_DIR}/B3.json"
H3 = f"matrix:{GROUPS_DIR}/H3.json"
A2_AFFINE = f"matrix:{GROUPS_DIR}/A2_affine.json"
A2_AFFINE_CAP = 1000

# Group orders the traced run checks build_system against.
GROUP_ORDERS = {
    "S5": 120, "S6": 720, "S7": 5040, "I12": 24, "I100": 200,
    B3: 48, H3: 120, D4: 192, B4: 384,
}

QUERY_GROUP = "S7"
QUERY_N = 7
QUERIES_PER_PASS = 50  # 100 calls, so the p90 has ten calls beyond it


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]
    group: str
    kind: str                   # "table" | "cover" | "monodromy" | "verify" | "capped"
    digest: str | None = None   # sha256 of stdout at commit 31358ec
    cap: int | None = None

    @property
    def exit_code(self) -> int:
        return 3 if self.kind == "capped" else 0

    @property
    def cli_argv(self) -> tuple[str, ...]:
        head = ("--cap", str(self.cap)) if self.cap is not None else ()
        return head + self.argv


def _table(label, group, digest):
    return Job(label, ("table", "--group", group, "--format", "json"), group, "table", digest)


def _enum(label, group, digest):
    argv = ("cover", "--group", group, "--left", "1", "--right", "2",
            "--target", "1,2", "--format", "json")
    return Job(label, argv, group, "cover", digest)


def _verify(label, group, digest):
    return Job(label, ("verify", "--group", group), group, "verify", digest)


TABLE_S6 = _table("table S6", "S6",
    "16e9ecc8aea985d354c5c4af04d65f96ec55a490766b4a8e63a577f8fd6bd6c3")
TABLE_H3 = _table("table H3", H3,
    "9f6d8227a0ef7bb056368e184a89e9c877932c7eb4aeff155cbad0b1366aeb5d")
ENUM_D4 = _enum("cover D4", D4,
    "b5c65c5a9b3d0a9bdec5f9852229ec63eb70220e87dda948d639bba2fac073ee")
ENUM_B4 = _enum("cover B4", B4,
    "b5c65c5a9b3d0a9bdec5f9852229ec63eb70220e87dda948d639bba2fac073ee")
ENUM_I100 = _enum("cover I100", "I100",
    "64a688764f59f09bc3dc01acd2e2f0a5f51cb4dfb10dada0231817869ab5d83a")
ENUM_A2_AFFINE = Job(
    "cover A2~ cap 1000",
    ("cover", "--group", A2_AFFINE, "--left", "1", "--right", "2",
     "--target", "1,2", "--format", "json"),
    A2_AFFINE, "capped", cap=A2_AFFINE_CAP,
)
VERIFY_S5 = _verify("verify S5", "S5",
    "a479bd58af4cb59f544a511f8a4baef50b5b15db1af5404d3a6b238cdd27d48a")
VERIFY_H3 = _verify("verify H3", H3,
    "4b437f2645b5854a125a1b26c28aa42dd69d128c2ac5e7740c859549964d7595")
VERIFY_B3 = _verify("verify B3", B3,
    "441b2ae79b231d2ba90e779bd2249208f0c091f9cdf5100f867e050c38caff8e")
VERIFY_I12 = _verify("verify I12", "I12",
    "34754b5a9b02c933c99175aa14c82066a8ea7fbe46c9a9b7dfa4f43fa918c800")
QUERY_WARMUP = Job("cover S7", ("cover", "--group", QUERY_GROUP, "--left", "1", "--right", "2",
                                "--target", "1,2", "--format", "json"), QUERY_GROUP, "cover")


def _subset_arg(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(QUERY_N - 1) if mask >> i & 1)


def query_jobs(rng: random.Random) -> list[Job]:
    """`QUERIES_PER_PASS` cover + monodromy pairs on S7.  Each triple comes
    from two random permutations p and r as (rec p, rec r, rec p∘r), so
    every instance is non-empty and triples are weighted by how many pairs
    realize them."""
    jobs = []
    for _ in range(QUERIES_PER_PASS):
        p = list(range(1, QUERY_N + 1))
        r = list(range(1, QUERY_N + 1))
        rng.shuffle(p)
        rng.shuffle(r)
        pr = tuple(p[x - 1] for x in r)
        triple = tuple(_subset_arg(recoils(q)) for q in (tuple(p), tuple(r), pr))
        where = ("--group", QUERY_GROUP, "--left", triple[0], "--right", triple[1],
                 "--target", triple[2])
        label = "I=%s J=%s K=%s" % triple
        jobs.append(Job("cover " + label, ("cover",) + where + ("--format", "json"),
                        QUERY_GROUP, "cover"))
        jobs.append(Job("monodromy " + label, ("monodromy",) + where,
                        QUERY_GROUP, "monodromy"))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Callable[[random.Random], list[Job]]  # one pass, drawn from the seeded generator
    warmup: Job                  # a cheap job run once, untimed, before anything else
    setup_groups: tuple[str, ...]  # groups setup_s times; a capped group never
    # gives an answer, so it has no set-up to time


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "table",
            lambda rng: [TABLE_S6, TABLE_H3], TABLE_H3,
            ("S6", H3),
        ),
        Workload(
            "enumerate",
            lambda rng: [ENUM_D4, ENUM_B4, ENUM_I100, ENUM_A2_AFFINE], ENUM_I100,
            (D4, B4, "I100"),
        ),
        Workload(
            "verify",
            lambda rng: [VERIFY_S5, VERIFY_H3, VERIFY_B3, VERIFY_I12], VERIFY_I12,
            ("S5", H3, B3, "I12"),
        ),
        Workload(
            "queries",
            query_jobs, QUERY_WARMUP,
            (QUERY_GROUP,),
        ),
    )
}
