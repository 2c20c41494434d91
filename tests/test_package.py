"""The package's public names: each is declared once, in the ``__all__`` of
the module that defines it, and the package re-exports those lists."""

import importlib
import pkgutil
from collections import Counter

import pytest

import cxrdet

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cxrdet.__path__))
MODULES = [importlib.import_module(f"cxrdet.{name}") for name in SUBMODULES]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_listed_name_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(cxrdet, name) is getattr(module, name), name


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_listed_classes_and_functions_are_defined_by_their_module(module):
    for name in module.__all__:
        defined_in = getattr(getattr(module, name), "__module__", module.__name__)
        assert defined_in == module.__name__, name


def test_no_name_is_listed_twice():
    counts = Counter(name for m in EXPORTING for name in m.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_public_names_are_the_lists_plus_the_submodules():
    public = {name for name in vars(cxrdet) if not name.startswith("_")}
    assert public == {name for m in EXPORTING for name in m.__all__} | set(SUBMODULES)


def test_nms_is_the_one_submodule_name_the_lists_take():
    assert {name for m in EXPORTING for name in m.__all__} & set(SUBMODULES) == {"nms"}
    module = importlib.import_module("cxrdet.nms")
    assert cxrdet.nms is module.nms
    assert callable(cxrdet.nms) and module is not cxrdet.nms
    assert module.nms_rows is cxrdet.nms_rows
