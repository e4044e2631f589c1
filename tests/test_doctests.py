from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

from coxcover import coxeter, gensets

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [coxeter, gensets], ids=lambda m: m.__name__)
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0 and attempted > 0


def test_readme_library_overview_runs():
    # the fenced python blocks of the section, run in order in one
    # namespace, as a reader would paste them
    section = README.read_text(encoding="utf-8").split("\n## Library overview\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "inst" in namespace
