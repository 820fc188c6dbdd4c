"""The package re-exports only the names README documents."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import xnesyl
from xnesyl.kg import KnowledgeGraph

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_documented_set():
    assert sorted(xnesyl.__all__) == ["deterministic_classify", "monumai_kg", "shap_matrix"]
    assert all(callable(getattr(xnesyl, name)) for name in xnesyl.__all__)
    assert isinstance(xnesyl.__version__, str)


_MODULES = [
    importlib.import_module(f"xnesyl.{info.name}")
    for info in pkgutil.iter_modules(xnesyl.__path__)
]


@pytest.mark.parametrize(
    "module",
    [xnesyl] + [module for module in _MODULES if hasattr(module, "__all__")],
    ids=lambda module: module.__name__,
)
def test_every_all_name_exists(module):
    # a listed name the module lacks makes `from module import *` raise
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_readme_python_snippets_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert any("from xnesyl import monumai_kg" in block for block in blocks)
    scope: dict = {}
    for block in blocks:
        exec(block, scope)
    assert isinstance(scope["kg"], KnowledgeGraph)
