from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from coxcover import (
    CapExceeded,
    CoxeterSpec,
    InvalidSpec,
    InvariantViolation,
    NotADescent,
    build_system,
    coxeter,
    positional_recoils,
)
from coxcover.gensets import one_based

from .conftest import A3_MATRIX, B3_MATRIX, H3_MATRIX
from .support import compose, oracle_inversions, oracle_recoils, perm, reference_words

A2_AFFINE_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "A2_affine.json"


def chain(*orders: int) -> list[list[int]]:
    """Coxeter matrix of a linear diagram whose edges carry the given orders."""
    r = len(orders) + 1
    m = [[1 if i == j else 2 for j in range(r)] for i in range(r)]
    for i, order in enumerate(orders):
        m[i][i + 1] = m[i + 1][i] = order
    return m


D4_MATRIX = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]


def test_symmetric_4_shape(s4):
    assert len(s4) == 24
    assert s4.rank == 3
    assert s4.identity.payload == (1, 2, 3, 4)
    assert s4.longest.payload == (4, 3, 2, 1)


def test_dihedral_6_shape(i6):
    assert len(i6) == 12
    assert i6.lengths[i6.longest_index] == 6
    assert i6.format_index(i6.longest_index) == "ststst"


def test_matrix_a3_isomorphic_to_s4(a3, s4):
    assert len(a3) == 24
    # evaluate each canonical word inside S4: a generator-preserving bijection
    phi = [s4.from_word(word).index for word in a3.elements]
    assert sorted(phi) == list(range(24))
    for x in range(24):
        for y in range(24):
            image = phi[a3.multiply_index(x, y)]
            assert image == s4.multiply_index(phi[x], phi[y])


def test_enumeration_is_deterministic():
    first = build_system(CoxeterSpec.symmetric(4))
    second = build_system(CoxeterSpec.symmetric(4))
    assert first.elements == second.elements
    assert first.right_cayley == second.right_cayley
    third = build_system(CoxeterSpec.dihedral(5))
    fourth = build_system(CoxeterSpec.dihedral(5))
    assert third.elements == fourth.elements


def test_enumeration_breadth_first_lex(s4, b3):
    for sys_ in (s4, b3):
        keys = [(sys_.lengths[i], sys_.elements[i]) for i in range(len(sys_))]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "mat, message",
    [
        ([[1, 3], [2, 1]], "symmetric"),
        ([[2, 3], [3, 1]], "diagonal"),
        ([[1, 1], [1, 1]], "off-diagonal"),
        ([[1, 3, 2], [3, 1, 3]], "square"),
    ],
)
def test_invalid_matrices(mat, message):
    with pytest.raises(InvalidSpec, match=message):
        build_system(CoxeterSpec.from_matrix(mat))


def test_invalid_symmetric_and_dihedral():
    with pytest.raises(InvalidSpec):
        build_system(CoxeterSpec.symmetric(0))
    with pytest.raises(InvalidSpec):
        build_system(CoxeterSpec.dihedral(1))


def test_element_cap():
    with pytest.raises(CapExceeded):
        build_system(CoxeterSpec.symmetric(9))
    with pytest.raises(CapExceeded):
        build_system(CoxeterSpec.dihedral(6, element_cap=5))
    # the cap is a bound, not a budget: exactly |W| is fine
    assert len(build_system(CoxeterSpec.symmetric(4, element_cap=24))) == 24


def test_infinite_matrix_entry_hits_cap():
    with pytest.raises(CapExceeded):
        build_system(CoxeterSpec.from_matrix([[1, 0], [0, 1]], element_cap=50))


@pytest.mark.parametrize("name", ["A2_affine", "free", "triangle_2_3_7"])
def test_infinite_matrices_end_fast_at_default_cap(name):
    matrix = {
        "A2_affine": json.loads(A2_AFFINE_FILE.read_text())["m"],
        "free": [[1, 0], [0, 1]],
        "triangle_2_3_7": [[1, 2, 3], [2, 1, 7], [3, 7, 1]],
    }[name]
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        build_system(CoxeterSpec.from_matrix(matrix))
    assert time.perf_counter() - start < 1.0


def test_large_entries_refused_before_enumerating():
    # a pair with m(s, t) = m spans a dihedral subgroup of 2m elements
    # (huge I<m> and S<n> are covered through the CLI)
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        build_system(CoxeterSpec.from_matrix([[1, 2, 2], [2, 1, 10**6], [2, 10**6, 1]]))
    # within the cap, but too large for a float
    with pytest.raises(CapExceeded):
        build_system(CoxeterSpec.from_matrix([[1, 10**400], [10**400, 1]], element_cap=10**401))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name, matrix", [
    *((f"I{m}", [[1, m], [m, 1]]) for m in range(2, 13)),
    ("A3", A3_MATRIX), ("A4", chain(3, 3, 3)), ("B3", B3_MATRIX), ("H3", H3_MATRIX),
    ("D4", D4_MATRIX),
])
def test_root_enumeration_matches_braid_reference(name, matrix):
    system = build_system(CoxeterSpec.from_matrix(matrix))
    elements, right = reference_words(matrix)
    assert system.elements == elements
    assert system.right_cayley == right


@pytest.mark.parametrize("matrix, order, top", [
    (chain(3, 4, 3), 1152, 24),     # F4
    (chain(5, 3, 3), 14400, 60),    # H4
    ([[1, 1000], [1000, 1]], 2000, 1000),
])
def test_large_group_orders(matrix, order, top):
    system = build_system(CoxeterSpec.from_matrix(matrix))
    assert len(system) == order
    assert system.lengths[system.longest_index] == top


@pytest.mark.parametrize("cells, matrix", [
    (1.0, H3_MATRIX),          # coarse: distinct roots share a cell
    (1.0, [[1, 7], [7, 1]]),   # only the order check sees this one
    (2.0, [[1, 7], [7, 1]]),
    (1e16, H3_MATRIX),         # finer than rounding error: copies of one root split
    (1e16, [[1, 7], [7, 1]]),
])
def test_root_misidentification_is_an_invariant_violation(monkeypatch, cells, matrix):
    # the exact checks must refuse the result, never return a wrong group
    # or a false CapExceeded
    monkeypatch.setattr(coxeter, "_CELLS_PER_UNIT", cells)
    with pytest.raises(InvariantViolation, match="root identification"):
        build_system(CoxeterSpec.from_matrix(matrix))


def test_root_action_checks():
    # A1 x A1 on its four roots: s swaps roots 0 and 2, t swaps 1 and 3
    perms = [[2, 1, 0, 3], [0, 3, 2, 1]]
    coxeter._check_root_action(((1, 2), (2, 1)), perms)
    with pytest.raises(InvariantViolation, match="order 2, not 4"):
        coxeter._check_root_action(((1, 4), (4, 1)), perms)
    with pytest.raises(InvariantViolation, match="involution"):
        coxeter._check_root_action(((1, 2), (2, 1)), [[2, 0, 1, 3], [0, 3, 2, 1]])


def test_longest_element_check(monkeypatch):
    # an action that satisfies the relations but has two points too many
    monkeypatch.setattr(coxeter, "_root_action",
                        lambda spec, largest: [[2, 1, 0, 3, 4, 5], [0, 3, 2, 1, 4, 5]])
    with pytest.raises(InvariantViolation, match="longest"):
        build_system(CoxeterSpec.from_matrix([[1, 2], [2, 1]]))


def test_roots_near_a_cell_edge_are_filed_on_both_sides():
    # two copies of one root that round to either side still meet
    edge = 0.5 / coxeter._CELLS_PER_UNIT
    below = coxeter._cell_keys([edge * (1 - 1e-9)])
    above = coxeter._cell_keys([edge * (1 + 1e-9)])
    assert below[0] == (0,) and above[0] == (1,)
    assert set(below) == set(above) == {(0,), (1,)}
    assert coxeter._cell_keys([0.0, 1.0]) == [(0, round(coxeter._CELLS_PER_UNIT))]


def test_rank_one():
    a1 = build_system(CoxeterSpec.from_matrix([[1]]))
    assert a1.elements == [(), (0,)]
    assert a1.right_cayley == [[1], [0]]


def test_multiply_fixtures(s4):
    u = s4.from_oneline(perm("2134"))
    v = s4.from_oneline(perm("1243"))
    assert s4.multiply(u, v).payload == perm("2143")
    u = s4.from_oneline(perm("2314"))
    v = s4.from_oneline(perm("1423"))
    assert s4.multiply(u, v).payload == perm("2431")


def test_multiply_matches_independent_composition(s4):
    for u in s4.elements:
        for v in s4.elements:
            got = s4.multiply(s4.from_oneline(u), s4.from_oneline(v)).payload
            assert got == compose(u, v)


def test_multiply_identity(s3):
    e = s3.identity
    for i in range(len(s3)):
        w = s3.element(i)
        assert s3.multiply(e, w) == w
        assert s3.multiply(w, e) == w


def test_inverse_fixtures(s4):
    assert s4.inverse(s4.from_oneline(perm("2314"))).payload == perm("3124")
    assert s4.inverse(s4.identity) == s4.identity


def test_longest_is_an_involution(s4, i6, b3):
    for sys_ in (s4, i6, b3):
        w0 = sys_.longest
        assert sys_.multiply(w0, w0) == sys_.identity
        assert sys_.inverse(w0) == w0


def test_length_fixtures(s4):
    assert s4.length(s4.from_oneline(perm("2314"))) == 2
    assert s4.length(s4.identity) == 0
    assert s4.length(s4.longest) == 6


def test_length_equals_inversions(s5):
    for p in s5.elements:
        assert s5.lengths[s5.index[p]] == oracle_inversions(p)


def test_recoil_set_fixtures(s4, i6, b3):
    assert one_based(s4.recoil_set(s4.from_oneline(perm("2341")))) == (1,)
    assert s4.recoil_set(s4.identity) == 0
    for sys_ in (s4, i6, b3):
        assert sys_.recoil_set(sys_.longest) == (1 << sys_.rank) - 1
        assert sys_.descent_set(sys_.longest) == (1 << sys_.rank) - 1


def test_recoil_class_fixture_y1(s4):
    members = [i for i in range(len(s4)) if one_based(s4.recoils[i]) == (1,)]
    assert sorted(s4.elements[i] for i in members) == [
        perm("2134"), perm("2314"), perm("2341")]


def test_descent_set_fixtures(s3, s4):
    assert one_based(s3.descent_set(s3.from_oneline(perm("132")))) == (2,)
    assert s3.descent_set(s3.identity) == 0
    assert one_based(s4.descent_set(s4.from_oneline(perm("2413")))) == (2,)


def test_recoil_is_descent_of_inverse(s4, s5, i6, b3):
    for sys_ in (s4, s5, i6, b3):
        for i in range(len(sys_)):
            assert sys_.recoils[i] == sys_.descents[sys_.inverse_index[i]]


def test_positional_recoils_agree(s4, s5):
    for sys_ in (s4, s5):
        for i, p in enumerate(sys_.elements):
            assert positional_recoils(p) == sys_.recoils[i]
            assert oracle_recoils(p) == one_based(sys_.recoils[i])


def test_cayley_involution_and_length_step(s4, i6, b3):
    for sys_ in (s4, i6, b3):
        for table in (sys_.right_cayley, sys_.left_cayley):
            for w in range(len(sys_)):
                for s in range(sys_.rank):
                    v = table[w][s]
                    assert table[v][s] == w
                    assert abs(sys_.lengths[v] - sys_.lengths[w]) == 1


def test_extreme_lengths_unique(s4, i6, b3):
    for sys_ in (s4, i6, b3):
        assert sys_.lengths.count(0) == 1
        top = max(sys_.lengths)
        assert sys_.lengths.count(top) == 1


def test_weak_leq(s4):
    e, w0 = s4.identity, s4.longest
    for i in range(len(s4)):
        w = s4.element(i)
        assert s4.weak_leq(e, w)
        assert s4.weak_leq(w0, w) == (w == w0)
    assert s4.weak_leq(s4.from_oneline(perm("2134")), s4.from_oneline(perm("2341")))


def test_apply_exchange(s3, i6):
    assert s3.apply_exchange((0, 1, 0), 0) == (1, 0)
    assert s3.apply_exchange((0,), 0) == ()
    assert i6.apply_exchange((0, 1, 0, 1, 0, 1), 0) == (1, 0, 1, 0, 1)
    with pytest.raises(NotADescent):
        s3.apply_exchange((0,), 1)
    with pytest.raises(ValueError, match="reduced"):
        s3.apply_exchange((0, 0), 0)


def test_apply_exchange_everywhere(s4):
    # deleting the chosen letter must always produce a word for s*w
    for i in range(len(s4)):
        word = s4.reduced_word(s4.element(i))
        for s in range(s4.rank):
            if not (s4.recoils[i] >> s) & 1:
                continue
            shorter = s4.apply_exchange(word, s)
            assert len(shorter) == len(word) - 1
            assert s4.from_word(shorter).index == s4.left_cayley[i][s]


def test_reduced_word_is_lex_least_and_reduced(s4, b3):
    for sys_ in (s4, b3):
        for i in range(len(sys_)):
            word = sys_.reduced_word(sys_.element(i))
            assert len(word) == sys_.lengths[i]
            assert sys_.from_word(word).index == i
            if word:
                # no reduced word of the same element is lexicographically smaller
                recoil_bits = [s for s in range(sys_.rank) if (sys_.recoils[i] >> s) & 1]
                assert word[0] == min(recoil_bits)


def test_membership_guard(s4, s3):
    foreign = s3.identity
    with pytest.raises(ValueError, match="belong"):
        s4.multiply(foreign, s4.identity)
