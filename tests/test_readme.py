"""The README's examples run as written, and it names public entry points
only: a private helper is described by what its rule does."""

import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)

# a name of one leading underscore, not inside a longer name: `_x` and
# `mod._x` are private, `__all__`, `x_min` and `cxrdet/__init__.py` are not
PRIVATE_NAME = re.compile(r"(?<!\w)_(?!_)\w+")


def test_python_blocks_run_in_order_in_one_namespace():
    assert len(PYTHON_BLOCKS) == 3
    namespace = {}
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].dataset_map == 1.0


def test_names_no_private_name():
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    assert [name for span in spans for name in PRIVATE_NAME.findall(span)] == []
