"""The README's code runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, README, "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
