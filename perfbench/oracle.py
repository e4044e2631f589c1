"""Output checks that do not import the code under test.

The symmetric-group oracle works on one-line tuples: recoil bit i is set
when the value i+2 appears before i+1, and products compose as
(u∘v)(k) = u(v(k)).  With it the base-fiber count of a triple (I, J, K) is

    a = #{π ∈ Y_I : rec(π⁻¹σ) = J}   for any σ ∈ Y_K,

and for every product Σ_K a_K·|Y_K| = |Y_I|·|Y_J|.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import permutations


def recoils(p: tuple[int, ...]) -> int:
    position = [0] * (len(p) + 1)
    for i, value in enumerate(p):
        position[value] = i
    mask = 0
    for i in range(len(p) - 1):
        if position[i + 2] < position[i + 1]:
            mask |= 1 << i
    return mask


def compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(u[x - 1] for x in v)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    q = [0] * len(p)
    for i, value in enumerate(p):
        q[value - 1] = i + 1
    return tuple(q)


def mask_of(one_based: list[int]) -> int:
    mask = 0
    for i in one_based:
        mask |= 1 << (i - 1)
    return mask


class SymmetricOracle:
    """Recoil classes of S_n, built by brute force."""

    def __init__(self, n: int):
        self.n = n
        self.classes: dict[int, list[tuple[int, ...]]] = {}
        for p in permutations(range(1, n + 1)):
            self.classes.setdefault(recoils(p), []).append(p)

    def size(self, mask: int) -> int:
        return len(self.classes.get(mask, ()))

    def base_fiber(self, left: int, right: int, sigma: tuple[int, ...]) -> int:
        return sum(1 for pi in self.classes[left]
                   if recoils(compose(inverse(pi), sigma)) == right)

    def table(self) -> dict[tuple[int, int, int], int]:
        """Every non-zero constant, from one scan of S_n per target class."""
        out: Counter = Counter()
        for target, members in self.classes.items():
            sigma = members[0]
            for pi in permutations(range(1, self.n + 1)):
                out[recoils(pi), recoils(compose(inverse(pi), sigma)), target] += 1
        return dict(out)


def _row_problems(row: dict) -> list[str]:
    """Σλ = a and components = len(λ), for a table row or a cover object."""
    problems = []
    if sum(row["lambda"]) != row["a"]:
        problems.append(f"sum of lambda {row['lambda']} != a={row['a']}")
    if row["components"] != len(row["lambda"]):
        problems.append(f"components={row['components']} != len(lambda)")
    return problems


def check_table(stdout: bytes, oracle: SymmetricOracle | None) -> list[str]:
    """Row identities on any table; with an oracle, every constant and the
    counting identity of every product."""
    rows = json.loads(stdout)["rows"]
    problems = []
    for row in rows:
        problems += _row_problems(row)
    if oracle is None:
        return problems
    seen = {}
    for row in rows:
        seen[mask_of(row["I"]), mask_of(row["J"]), mask_of(row["K"])] = row["a"]
    expected = oracle.table()
    if seen != expected:
        wrong = sorted(set(seen.items()) ^ set(expected.items()))
        problems.append(f"{len(wrong)} constants differ from the oracle, first {wrong[0]}")
    weighted: Counter = Counter()
    for (left, right, target), a in seen.items():
        weighted[left, right] += a * oracle.size(target)
    subsets = range(1 << (oracle.n - 1))
    for left in subsets:
        for right in subsets:
            if weighted[left, right] != oracle.size(left) * oracle.size(right):
                problems.append(f"counting identity fails for I={left:b} J={right:b}")
    return problems


def check_cover(stdout: bytes, oracle: SymmetricOracle | None,
                request: tuple[str, str, str] | None) -> list[str]:
    """Row identities on a cover object; with an oracle, the constant is the
    base-fiber count and `vertices` = a·|Y_K|."""
    row = json.loads(stdout)
    problems = _row_problems(row)
    if oracle is None:
        return problems
    left, right, target = (mask_of(row[k]) for k in ("I", "J", "K"))
    if request is not None and (row["I"], row["J"], row["K"]) != request:
        problems.append(f"cover answered {row['I']},{row['J']},{row['K']} for {request}")
    a = oracle.base_fiber(left, right, oracle.classes[target][0])
    if row["a"] != a:
        problems.append(f"a={row['a']} but the base fiber holds {a}")
    if row["vertices"] != a * oracle.size(target):
        problems.append(f"vertices={row['vertices']} != a*|Y_K| = {a * oracle.size(target)}")
    return problems


def check_monodromy(stdout: bytes, request: tuple[list, list, list],
                    cover_lambda: list[int] | None) -> list[str]:
    """Internal consistency of a monodromy report on a non-empty S_n
    instance (no polygon loops exist in type A)."""
    rep = json.loads(stdout)
    problems = []
    if (rep["I"], rep["J"], rep["K"]) != request:
        problems.append(f"monodromy answered for {rep['I']},{rep['J']},{rep['K']}")
    if rep.get("empty") or "polygon_loops" in rep:
        problems.append("non-empty type-A instance reported as empty or with polygons")
    if not set(rep["orders"]) <= {"1", "2"}:
        problems.append(f"braid orders {sorted(rep['orders'])} outside 1..2")
    if sum(rep["orders"].values()) != rep["braid_loops"]:
        problems.append("braid orders do not add up to braid_loops")
    if rep["no_braid_loops"] != (rep["braid_loops"] == 0):
        problems.append("no_braid_loops disagrees with braid_loops")
    if rep["no_braid_loops"] and cover_lambda is not None and set(cover_lambda) != {1}:
        problems.append(f"no braid loops but lambda={cover_lambda}")
    return problems
