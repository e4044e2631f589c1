from __future__ import annotations

from coxcover import (
    CoxeterSpec,
    alpha_oneline,
    beta_oneline,
    build_system,
    conjugated_generator,
    recoil_class,
)
from coxcover.gensets import complement, iter_subsets, one_based
from coxcover.recoil import (
    class_interval_matches,
    positional_same_class,
    same_class_edge_index,
)

from .conftest import B3_MATRIX, H3_MATRIX
from .support import (
    UnionFind, class_edges, oracle_class, oracle_class_edges, perm, perm_index,
    simple_conjugate, subset)


def test_class_y3_is_a_path(s4):
    cls = recoil_class(s4, subset(3))
    assert [s4.elements[i] for i in cls.members] == [
        perm("1243"), perm("1423"), perm("4123")]
    assert len(class_edges(s4, cls)) == 2
    degrees = sorted(len(cls.adjacency[m]) for m in cls.members)
    assert degrees == [1, 1, 2]


def test_class_y2_members(s4):
    cls = recoil_class(s4, subset(2))
    assert sorted(s4.elements[i] for i in cls.members) == sorted(
        [perm("1324"), perm("3124"), perm("1342"), perm("3142"), perm("3412")])
    assert len(class_edges(s4, cls)) == 5


def test_empty_subset_class_is_identity(s4, i6, b3):
    for sys_ in (s4, i6, b3):
        cls = recoil_class(sys_, 0)
        assert cls.members == [0]
        assert cls.alpha == cls.beta == 0


def test_classes_match_oracle(s5):
    for mask in iter_subsets(s5.rank):
        cls = recoil_class(s5, mask)
        assert sorted(s5.elements[i] for i in cls.members) == sorted(
            oracle_class(5, one_based(mask)))
        got_edges = sorted(
            (min(s5.elements[u], s5.elements[v]),
             max(s5.elements[u], s5.elements[v]), s + 1)
            for u, v, s in class_edges(s5, cls))
        assert got_edges == oracle_class_edges(5, one_based(mask))


def test_partition_and_connectivity(s4, s5, i6, b3):
    for sys_ in (s4, s5, i6, b3):
        total = 0
        for mask in iter_subsets(sys_.rank):
            cls = recoil_class(sys_, mask)
            total += len(cls.members)
            uf = UnionFind(len(sys_))
            for u, v, _ in class_edges(sys_, cls):
                uf.union(u, v)
            assert set(uf.component_ids(cls.members)) == {0}
            assert all(cls.adjacency[m] == sorted(cls.adjacency[m]) for m in cls.members)
        assert total == len(sys_)


def test_interval_property(s4, s5, i6, b3):
    for sys_ in (s4, s5, i6, b3):
        for mask in iter_subsets(sys_.rank):
            assert class_interval_matches(sys_, recoil_class(sys_, mask))


def test_extremes_formula_s12():
    mask = subset(1, 4, 5, 6, 9, 10)
    assert alpha_oneline(12, mask) == (2, 1, 3, 7, 6, 5, 4, 8, 11, 10, 9, 12)
    assert beta_oneline(12, mask) == (11, 12, 10, 7, 8, 9, 6, 5, 2, 3, 4, 1)


def test_extremes_formula_matches_scan(s4, s5):
    for sys_ in (s4, s5):
        for mask in iter_subsets(sys_.rank):
            cls = recoil_class(sys_, mask)
            assert sys_.elements[cls.alpha] == alpha_oneline(sys_.n, mask)
            assert sys_.elements[cls.beta] == beta_oneline(sys_.n, mask)


def test_extremes_generic_realization(i6, b3):
    for sys_ in (i6, b3):
        for mask in iter_subsets(sys_.rank):
            cls = recoil_class(sys_, mask)
            lo, hi = cls.alpha, cls.beta
            assert sys_.lengths[lo] == min(sys_.lengths[m] for m in cls.members)
            assert sys_.lengths[hi] == max(sys_.lengths[m] for m in cls.members)


def test_extremes_empty_subset(s4):
    cls = recoil_class(s4, 0)
    assert cls.alpha == cls.beta == 0


def test_beta_is_alpha_of_complement_times_longest(s5):
    w0 = s5.longest_index
    for mask in iter_subsets(s5.rank):
        alt = s5.elements.index(alpha_oneline(5, complement(mask, s5.rank)))
        assert s5.elements[s5.multiply_index(alt, w0)] == beta_oneline(5, mask)


def test_same_class_edge_fixtures(s4):
    assert same_class_edge_index(s4, perm_index(s4, "2143"), 1)
    assert same_class_edge_index(s4, perm_index(s4, "1243"), 1)
    for s in range(s4.rank):
        assert not same_class_edge_index(s4, 0, s)


def test_edge_criteria_agree(s4, s5, i6, b3):
    for sys_ in (s4, s5, i6, b3):
        for w in range(len(sys_)):
            for s in range(sys_.rank):
                by_recoil = same_class_edge_index(sys_, w, s)
                assert by_recoil == (conjugated_generator(sys_, w, s) is None)
                if sys_.kind == "symmetric":
                    assert by_recoil == positional_same_class(sys_, w, s)


def test_table_conjugate_matches_multiplication():
    # w s w^-1 read off the Cayley tables equals the multiplied-out conjugate
    f4 = [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
    specs = [CoxeterSpec.symmetric(n) for n in (4, 5, 6)] + [
        CoxeterSpec.from_matrix(m) for m in (B3_MATRIX, H3_MATRIX, f4)]
    for spec in specs:
        sys_ = build_system(spec)
        simple = 0
        for w in range(len(sys_)):
            for s in range(sys_.rank):
                t = simple_conjugate(sys_, w, s)
                assert t == conjugated_generator(sys_, w, s), (spec.describe(), w, s)
                simple += t is not None
        assert 0 < simple < len(sys_) * sys_.rank


def test_recoil_growth_dichotomy(s4, i6, b3):
    # lengthening by s either keeps the recoil set (conjugate not simple) or
    # adds exactly the conjugate generator
    for sys_ in (s4, i6, b3):
        for w in range(len(sys_)):
            for s in range(sys_.rank):
                ws = sys_.right_cayley[w][s]
                if sys_.lengths[ws] != sys_.lengths[w] + 1:
                    continue
                conj = conjugated_generator(sys_, w, s)
                if conj is None:
                    assert sys_.recoils[ws] == sys_.recoils[w]
                else:
                    assert sys_.recoils[ws] == sys_.recoils[w] | (1 << conj)
                    assert sys_.recoils[ws] != sys_.recoils[w]
