"""Products of recoil-class sums in the group algebra.

Two independent routes compute the expansion of a product of two class sums
back into class sums (the Y basis), each as a plain dict that maps every
target subset to its non-zero constant:

- the covering route reads each coefficient off a fibered-product instance
  as its constant fiber size.  `product_expand` and `expansion_rows` take
  every non-empty instance of a product from one bucketed pass over the
  pairs (`iter_fibered_graphs`); the coefficient of one target alone is
  `build_fibered_graph(sys, I, J, K).fiber_size`.
- The convolution oracle multiplies out all pairs in the group algebra and
  tallies per element (`convolution_oracle`).  It keeps its own scan, so it
  shares no product code with the route it checks: the covering scan walks
  a reduced word per pair, while the oracle walks one word per left element
  and reads the rest of the row off the right class's tree of shorter
  neighbours, one Cayley lookup per pair.

`full_table` runs both for every pair of subsets and insists they agree.
Its rows are the instances' own `CoveringInstance.row` dicts, and
`table_json` wraps them as the document `table --format json` prints.
The X basis collects the class sums of all subsets of an index, so a
coefficient dict moves from Y to X by the superset Moebius transform and
back by the zeta transform, `_superset_transform` with sign -1 and +1.
"""

from __future__ import annotations

from collections import Counter

from .coxeter import CoxeterSystem
from .covering import iter_fibered_graphs
from .errors import ClassInconstant, InvariantViolation, OracleMismatch
from .gensets import format_subset, iter_subsets, one_based
from .recoil import RecoilClass, recoil_class


def product_expand(sys: CoxeterSystem, left: int, right: int) -> dict[int, int]:
    """Product of two class sums in the Y basis, via covering degrees:
    each target subset mapped to its non-zero constant."""
    return {target: inst.fiber_size for target, inst in iter_fibered_graphs(sys, left, right)}


def _tree_links(sys: CoxeterSystem, cls: RecoilClass) -> list[tuple[int, int]]:
    """For every member r after the minimum, in member order: the row
    position of r' = r*s, its first class neighbour, and the generator s.
    The class is an interval of the weak order, so that neighbour exists
    and is shorter, and r = r'*s sits at an earlier position.  Kept on the
    class, so each class is linked once."""
    if cls.tree_links is not None:
        return cls.tree_links
    position = {r: i for i, r in enumerate(cls.members)}
    links = []
    for i, r in enumerate(cls.members[1:], 1):
        near = cls.adjacency[r][:1]
        back = sys.right_cayley[r]
        if not near or position.get(near[0], i) >= i or near[0] not in back:
            raise InvariantViolation(
                f"member {sys.format_index(r)} of class {format_subset(cls.subset)} "
                f"has no shorter class neighbour")
        links.append((position[near[0]], back.index(near[0])))
    cls.tree_links = links
    return links


def convolution_oracle(sys: CoxeterSystem, left: int, right: int) -> dict[int, int]:
    """Brute-force route: multiply out all pairs, tally per group element,
    and check the tally is constant on each recoil class.  Returns each
    target subset mapped to its non-zero constant, as `product_expand`.

    Each left element p multiplies the right class as one row: p*alpha_J by
    a word walk, then every other p*r = (p*r')*s along the class's tree of
    shorter neighbours, one Cayley lookup per pair."""
    cls_l = recoil_class(sys, left)
    cls_r = recoil_class(sys, right)
    links = _tree_links(sys, cls_r)
    right_cayley, multiply, root = sys.right_cayley, sys.multiply_index, cls_r.members[0]
    counts: Counter[int] = Counter()
    for p in cls_l.members:
        row = [multiply(p, root)]  # p * alpha_J
        append = row.append
        for j, s in links:
            append(right_cayley[row[j]][s])
        counts.update(row)
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
    return coeffs


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


def expansion_rows(sys: CoxeterSystem, left: int, right: int) -> list[dict]:
    """The `CoveringInstance.row` of every non-empty instance of one product,
    sorted by K and cross-checked against the oracle."""
    rows: list[dict] = []
    covering: dict[int, int] = {}
    for target, inst in iter_fibered_graphs(sys, left, right):
        covering[target] = inst.fiber_size
        rows.append(inst.row())
    oracle = convolution_oracle(sys, left, right)
    if covering != oracle:
        raise OracleMismatch(
            f"covering route {covering} != oracle {oracle} for "
            f"({format_subset(left)}, {format_subset(right)})"
        )
    rows.sort(key=lambda row: row["K"])
    return rows


def table_json(sys: CoxeterSystem, rows: list[dict]) -> dict:
    """The document `table --format json` prints for `rows`."""
    return {"group": sys.spec.describe(), "rank": sys.rank, "zero_rows_omitted": True,
            "rows": rows}


def full_table(sys: CoxeterSystem) -> dict:
    """Every product of two class sums, as `table_json` of rows sorted
    lexicographically by the serialized (I, J, K) subsets.  Rows with a zero
    constant are omitted; each retained row was verified against the oracle."""
    subsets = sorted(iter_subsets(sys.rank), key=one_based)
    return table_json(sys, [row for left in subsets for right in subsets
                            for row in expansion_rows(sys, left, right)])
