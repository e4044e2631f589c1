from __future__ import annotations

import doctest

import pytest

from coxcover import coxeter, gensets


@pytest.mark.parametrize("module", [coxeter, gensets], ids=lambda m: m.__name__)
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0 and attempted > 0
