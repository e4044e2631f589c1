from __future__ import annotations

import random
from collections import Counter

import pytest

from coxcover import (
    AlgebraElement,
    algebra_product,
    build_fibered_graph,
    convolution_oracle,
    expansion_rows,
    full_table,
    product_expand,
    recoil_class,
    x_from_y,
    y_from_x,
)
from coxcover.gensets import bit_indices, from_bits, iter_subsets, one_based

from .support import compose, oracle_recoils, subset


def expansion(elem: AlgebraElement) -> dict[tuple[int, ...], int]:
    return {one_based(mask): c for mask, c in elem.coeffs}


def test_structure_constant_fixtures(s4, s5):
    assert build_fibered_graph(s4, subset(1), subset(3), subset(1, 3)).fiber_size == 1
    assert build_fibered_graph(s5, subset(2, 3), subset(3, 4), subset(1, 3)).fiber_size == 2
    for mask in iter_subsets(s4.rank):
        assert build_fibered_graph(s4, 0, mask, mask).fiber_size == 1
        other = mask ^ 0b111
        if other != mask:
            assert build_fibered_graph(s4, 0, mask, other).fiber_size == 0


@pytest.mark.parametrize("left, right", [
    ((), ()), ((1,), (3,)), ((2, 3), (3, 4)), ((1, 2, 3, 4), (2,)), ((1, 3), (2, 4)),
])
def test_product_routes_scan_each_pair_once(s5, monkeypatch, left, right):
    # one covering scan per product (not one per target), plus the oracle's
    # own scan in expansion_rows
    calls = 0
    multiply = s5.multiply_index

    def counting(u, v):
        nonlocal calls
        calls += 1
        return multiply(u, v)

    monkeypatch.setattr(s5, "multiply_index", counting)
    lmask, rmask = subset(*left), subset(*right)
    pairs = len(recoil_class(s5, lmask)) * len(recoil_class(s5, rmask))
    expansion_rows(s5, lmask, rmask)
    assert calls == 2 * pairs
    calls = 0
    product_expand(s5, lmask, rmask)
    assert calls == pairs


def test_product_y1_y3(s4):
    assert expansion(product_expand(s4, subset(1), subset(3))) == {
        (): 1, (1,): 1, (1, 3): 1}


def test_product_y2_y3(s4):
    # acceptance criterion 2; confirmed against the convolution oracle in
    # test_oracle_agreement and by the recount in
    # test_oracle_route_is_independent
    assert expansion(product_expand(s4, subset(2), subset(3))) == {
        (): 1, (1,): 1, (2,): 1, (1, 2): 1, (2, 3): 1}
    # Y2*Y1 mirrors only the right factor (3 -> 1); it is the value that
    # criterion 2 once recorded under the name Y2*Y3
    assert expansion(product_expand(s4, subset(2), subset(1))) == {
        (): 1, (2,): 1, (3,): 1, (2, 3): 1, (1, 2): 1}


def _mirror(mask: int, rank: int) -> int:
    """Generator i -> rank-1-i (0-based), i.e. i -> n-i in S_n, s <-> t in I_m."""
    return from_bits(rank - 1 - i for i in bit_indices(mask))


def test_product_tables_mirror_symmetric(s4, s5, i6):
    # conjugation by the longest element maps generator i to its mirror, so
    # mirroring both factors mirrors every target of the expansion
    for sys_ in (s4, s5, i6):
        r = sys_.rank
        for left in iter_subsets(r):
            for right in iter_subsets(r):
                mirrored = {_mirror(m, r): c
                            for m, c in product_expand(sys_, left, right).coeffs}
                assert product_expand(sys_, _mirror(left, r),
                                      _mirror(right, r)).as_dict() == mirrored


def test_product_dihedral(i6):
    assert expansion(product_expand(i6, subset(1), subset(2))) == {
        (): 2, (1,): 2, (2,): 2, (1, 2): 3}
    assert len(recoil_class(i6, subset(1))) == 5
    assert len(recoil_class(i6, subset(2))) == 5


def test_oracle_s3_fixture(s3):
    assert expansion(convolution_oracle(s3, subset(1), subset(1))) == {
        (): 1, (2,): 1, (1, 2): 1}


def test_full_set_squares_to_identity_class(s4, i6, b3):
    for sys_ in (s4, i6, b3):
        full = (1 << sys_.rank) - 1
        assert expansion(convolution_oracle(sys_, full, full)) == {(): 1}


def test_oracle_agreement(s3, s4, i6, b3):
    for sys_ in (s3, s4, i6, b3):
        for left in iter_subsets(sys_.rank):
            for right in iter_subsets(sys_.rank):
                assert product_expand(sys_, left, right) == \
                    convolution_oracle(sys_, left, right)


def test_counting_identity(s3, s4, i6):
    for sys_ in (s3, s4, i6):
        sizes = {m: len(recoil_class(sys_, m)) for m in iter_subsets(sys_.rank)}
        for left in iter_subsets(sys_.rank):
            for right in iter_subsets(sys_.rank):
                elem = product_expand(sys_, left, right)
                assert all(c > 0 for _, c in elem.coeffs)
                assert sum(c * sizes[m] for m, c in elem.coeffs) == \
                    sizes[left] * sizes[right]


def test_basis_change_fixtures():
    identity_class = AlgebraElement.make("Y", {0: 1})
    assert x_from_y(identity_class) == AlgebraElement.make("X", {0: 1})
    full = subset(1, 2, 3)
    accumulated = AlgebraElement.make("X", {full: 1})
    assert y_from_x(accumulated) == AlgebraElement.make(
        "Y", {m: 1 for m in iter_subsets(3)})


def test_basis_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(100):
        coeffs = {m: rng.randint(-9, 9) for m in iter_subsets(4)}
        start = AlgebraElement.make("Y", coeffs)
        assert y_from_x(x_from_y(start)) == start
        in_x = AlgebraElement.make("X", coeffs)
        assert x_from_y(y_from_x(in_x)) == in_x


def test_basis_guards():
    with pytest.raises(ValueError):
        x_from_y(AlgebraElement.make("X", {0: 1}))
    with pytest.raises(ValueError):
        y_from_x(AlgebraElement.make("Y", {0: 1}))
    with pytest.raises(ValueError):
        AlgebraElement.make("Z", {0: 1})


def _group_algebra_product(sys_, vec_a: dict[int, int], vec_b: dict[int, int]):
    """Independent full group-algebra convolution on element vectors."""
    out: Counter[int] = Counter()
    for i, ca in vec_a.items():
        for j, cb in vec_b.items():
            out[sys_.multiply_index(i, j)] += ca * cb
    return {k: v for k, v in out.items() if v}


def _class_vector(sys_, elem: AlgebraElement) -> dict[int, int]:
    vec: Counter[int] = Counter()
    for mask, c in elem.coeffs:
        for w in recoil_class(sys_, mask).members:
            vec[w] += c
    return dict(vec)


def test_algebra_product_matches_group_algebra(s3, s4):
    for sys_ in (s3, s4):
        masks = list(iter_subsets(sys_.rank))
        a = AlgebraElement.make("Y", {masks[1]: 2, masks[2]: -1})
        b = AlgebraElement.make("Y", {masks[1]: 1, masks[3]: 3})
        direct = _group_algebra_product(sys_, _class_vector(sys_, a),
                                        _class_vector(sys_, b))
        assert _class_vector(sys_, algebra_product(sys_, a, b)) == direct


def test_x_basis_product_through_y(s3):
    a = AlgebraElement.make("X", {subset(1): 1})
    b = AlgebraElement.make("X", {subset(2): 1})
    in_x = algebra_product(s3, a, b)
    assert in_x.basis == "X"
    direct = _group_algebra_product(
        s3, _class_vector(s3, y_from_x(a)), _class_vector(s3, y_from_x(b)))
    assert _class_vector(s3, y_from_x(in_x)) == direct
    with pytest.raises(ValueError):
        algebra_product(s3, a, y_from_x(b))


def test_full_table_s3(s3):
    table = full_table(s3)
    assert table.group == "S3" and table.rank == 2
    assert len(table.rows) == 24
    row = [r for r in table.rows if r.left == (1,) and r.right == (1,) and r.target == ()]
    assert len(row) == 1 and row[0].constant == 1
    keys = [(r.left, r.right, r.target) for r in table.rows]
    assert keys == sorted(keys)
    assert all(r.constant > 0 for r in table.rows)
    assert all(sum(r.partition) == r.constant for r in table.rows)


def test_full_table_contains_worked_examples(s4):
    rows = {(r.left, r.right, r.target): r.constant for r in full_table(s4).rows}
    assert {k: v for k, v in rows.items() if k[0] == (1,) and k[1] == (3,)} == {
        ((1,), (3,), ()): 1, ((1,), (3,), (1,)): 1, ((1,), (3,), (1, 3)): 1}


def test_full_table_dihedral(i6):
    rows = {(r.left, r.right, r.target): (r.constant, r.partition)
            for r in full_table(i6).rows}
    assert rows[((1,), (2,), ())] == (2, (1, 1))
    assert rows[((1,), (2,), (1, 2))] == (3, (1, 1, 1))


def test_table_json_schema(s4):
    data = full_table(s4).to_json()
    assert data["group"] == "S4" and data["rank"] == 3
    assert data["zero_rows_omitted"] is True
    first = data["rows"][0]
    assert set(first) == {"I", "J", "K", "a", "lambda", "components"}


def test_oracle_route_is_independent(s4):
    # recompute one expansion with the from-scratch composition and recoil
    # helpers, no library tables involved
    left = [p for p in (s4.elements[i] for i in recoil_class(s4, subset(2)).members)]
    right = [p for p in (s4.elements[i] for i in recoil_class(s4, subset(3)).members)]
    tally: Counter[tuple[int, ...]] = Counter()
    for u in left:
        for v in right:
            tally[oracle_recoils(compose(u, v))] += 1
    class_sizes = Counter(oracle_recoils(p) for p in s4.elements)
    got = {k: tally[k] // class_sizes[k] for k in tally}
    assert got == {(): 1, (1,): 1, (2,): 1, (1, 2): 1, (2, 3): 1}
