"""Products of recoil-class sums in the group algebra.

Two independent routes compute the expansion of a product of two class sums
back into class sums:

- the covering route reads each coefficient off a fibered-product instance
  as its constant fiber size.  `product_expand` and `expansion_rows` take
  every non-empty instance of a product from one bucketed pass over the
  pairs (`iter_fibered_graphs`); the coefficient of one target alone is
  `build_fibered_graph(sys, I, J, K).fiber_size`.
- The convolution oracle multiplies out all pairs in the group algebra and
  tallies per element (`convolution_oracle`).  It keeps its own scan, so it
  shares no code with the route it checks.

`full_table` runs both for every pair of subsets and insists they agree.
The Y basis is the class sums themselves; the X basis collects the class
sums of all subsets of an index, so the two bases are related by the zeta
and Moebius transforms of the subset lattice.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .coxeter import CoxeterSystem
from .covering import iter_fibered_graphs, multiplicity_partition
from .errors import ClassInconstant, OracleMismatch
from .gensets import format_subset, iter_subsets, one_based
from .recoil import recoil_class


class AlgebraElement(NamedTuple):
    """Integer combination of basis elements indexed by generator subsets.

    `basis` is "Y" (class sums) or "X" (subset-accumulated sums).  Zero
    coefficients are never stored.
    """

    basis: str
    coeffs: tuple[tuple[int, int], ...]  # (subset mask, coefficient), mask-sorted

    @classmethod
    def make(cls, basis: str, coeffs: dict[int, int]) -> AlgebraElement:
        if basis not in ("Y", "X"):
            raise ValueError(f"unknown basis {basis!r}")
        pairs = tuple(sorted((m, c) for m, c in coeffs.items() if c != 0))
        return cls(basis, pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def coefficient(self, subset: int) -> int:
        return self.as_dict().get(subset, 0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for mask, c in self.coeffs:
            head = "" if c == 1 else f"{c} "
            terms.append(f"{head}{self.basis}_{format_subset(mask)}")
        return " + ".join(terms)


def product_expand(sys: CoxeterSystem, left: int, right: int) -> AlgebraElement:
    """Product of two class sums in the Y basis, via covering degrees."""
    coeffs = {
        target: inst.fiber_size
        for target, inst in iter_fibered_graphs(sys, left, right)
    }
    return AlgebraElement.make("Y", coeffs)


def convolution_oracle(sys: CoxeterSystem, left: int, right: int) -> AlgebraElement:
    """Brute-force route: multiply out all pairs, tally per group element,
    and check the tally is constant on each recoil class."""
    cls_l = recoil_class(sys, left)
    cls_r = recoil_class(sys, right)
    counts: Counter[int] = Counter()
    for p in cls_l.members:
        for r in cls_r.members:
            counts[sys.multiply_index(p, r)] += 1
    coeffs: dict[int, int] = {}
    for target in sorted({sys.recoils[w] for w in counts}):
        members = recoil_class(sys, target).members
        values = {counts.get(w, 0) for w in members}
        if len(values) != 1:
            raise ClassInconstant(
                f"counts {sorted(values)} differ inside class {format_subset(target)} "
                f"for the product ({format_subset(left)}, {format_subset(right)})"
            )
        coeffs[target] = values.pop()
    return AlgebraElement.make("Y", coeffs)


def _superset_transform(coeffs: dict[int, int], sign: int) -> dict[int, int]:
    """f'[A] = sum of sign^|B - A| * f[B] over B containing A, within the
    support lattice: the superset zeta transform for sign +1 and its
    inverse, the Moebius transform, for sign -1."""
    universe = 0
    for mask in coeffs:
        universe |= mask
    lattice = [0]
    bit = 1
    while bit <= universe:
        if universe & bit:
            lattice += [m | bit for m in lattice]
        bit <<= 1
    f = {m: coeffs.get(m, 0) for m in lattice}
    for b in (1 << i for i in range(universe.bit_length()) if (universe >> i) & 1):
        for m in lattice:
            if not m & b:
                f[m] += sign * f[m | b]
    return f


def x_from_y(elem: AlgebraElement) -> AlgebraElement:
    """Rewrite a Y-basis combination in the X basis.

    Since each X equals the sum of the Y over all subsets of its index, the
    X coefficients are the superset Moebius transform of the Y ones.
    """
    if elem.basis != "Y":
        raise ValueError("x_from_y expects a Y-basis element")
    return AlgebraElement.make("X", _superset_transform(elem.as_dict(), -1))


def y_from_x(elem: AlgebraElement) -> AlgebraElement:
    """Rewrite an X-basis combination in the Y basis (superset zeta)."""
    if elem.basis != "X":
        raise ValueError("y_from_x expects an X-basis element")
    return AlgebraElement.make("Y", _superset_transform(elem.as_dict(), +1))


class TableRow(NamedTuple):
    left: tuple[int, ...]    # serialized subsets, 1-based ascending
    right: tuple[int, ...]
    target: tuple[int, ...]
    constant: int
    partition: tuple[int, ...]
    components: int

    def to_json(self) -> dict:
        return {
            "I": list(self.left),
            "J": list(self.right),
            "K": list(self.target),
            "a": self.constant,
            "lambda": list(self.partition),
            "components": self.components,
        }


class StructureTable:
    __slots__ = ("group", "rank", "rows")

    def __init__(self, group: str, rank: int, rows: list[TableRow] | None = None):
        self.group = group
        self.rank = rank
        self.rows = [] if rows is None else rows

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "rank": self.rank,
            "zero_rows_omitted": True,
            "rows": [row.to_json() for row in self.rows],
        }


def expansion_rows(sys: CoxeterSystem, left: int, right: int) -> list[TableRow]:
    """Table rows of one product, cross-checked against the oracle."""
    rows: list[TableRow] = []
    covering: dict[int, int] = {}
    for target, inst in iter_fibered_graphs(sys, left, right):
        covering[target] = inst.fiber_size
        rows.append(TableRow(
            left=one_based(left),
            right=one_based(right),
            target=one_based(target),
            constant=inst.fiber_size,
            partition=multiplicity_partition(inst),
            components=inst.component_count,
        ))
    oracle = convolution_oracle(sys, left, right).as_dict()
    if covering != oracle:
        raise OracleMismatch(
            f"covering route {covering} != oracle {oracle} for "
            f"({format_subset(left)}, {format_subset(right)})"
        )
    rows.sort(key=lambda r: r.target)
    return rows


def full_table(sys: CoxeterSystem) -> StructureTable:
    """Every product of two class sums, as rows sorted lexicographically by
    the serialized (I, J, K) subsets.  Rows with a zero constant are
    omitted; each retained row was verified against the oracle."""
    table = StructureTable(group=sys.spec.describe(), rank=sys.rank)
    subsets = sorted(iter_subsets(sys.rank), key=one_based)
    for left in subsets:
        for right in subsets:
            table.rows.extend(expansion_rows(sys, left, right))
    return table
