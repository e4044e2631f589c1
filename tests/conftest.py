from __future__ import annotations

import os

import pytest

from coxcover import CoxeterSpec, build_system

from .support import Tally

B3_MATRIX = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
A3_MATRIX = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
H3_MATRIX = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]


@pytest.fixture(scope="session")
def s3():
    return build_system(CoxeterSpec.symmetric(3))


@pytest.fixture(scope="session")
def s4():
    return build_system(CoxeterSpec.symmetric(4))


@pytest.fixture(scope="session")
def s5():
    return build_system(CoxeterSpec.symmetric(5))


@pytest.fixture(scope="session")
def i6():
    return build_system(CoxeterSpec.dihedral(6))


@pytest.fixture(scope="session")
def b3():
    return build_system(CoxeterSpec.from_matrix(B3_MATRIX))


@pytest.fixture(scope="session")
def a3():
    return build_system(CoxeterSpec.from_matrix(A3_MATRIX))


@pytest.fixture(scope="session")
def h3():
    return build_system(CoxeterSpec.from_matrix(H3_MATRIX))


@pytest.fixture
def tally(tmp_path):
    counter = Tally(tmp_path / "tally")
    yield counter
    os.close(counter.fd)
