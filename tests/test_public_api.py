"""The public surface: every ``__all__`` name resolves, and the README's
examples run as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import twomode

MODULES = ["twomode", *(f"twomode.{info.name}" for info in pkgutil.iter_modules(twomode.__path__))]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    # a star import raises AttributeError on a stale __all__ entry
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= set(namespace)


def test_readme_python_blocks_run():
    # each fenced python block in a fresh namespace, so that an example that
    # names a deleted function fails
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
