"""The package's public names, resolved from their submodules on first use."""

from __future__ import annotations

import importlib

import pytest

import grplab


def test_every_public_name_is_its_submodules_object():
    for name in grplab.__all__:
        module = importlib.import_module(f"grplab.{grplab._MODULE_OF[name]}")
        assert getattr(grplab, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from grplab import *", namespace)
    assert set(grplab.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(grplab, name) for name in grplab.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        grplab.no_such_name


def test_dir_lists_the_public_names():
    assert set(grplab.__all__) <= set(dir(grplab))
    assert "__version__" in dir(grplab)


def test_submodules_still_import_by_name():
    from grplab import counting, ramsey

    assert ramsey.Coloring is grplab.Coloring
    assert counting.count_xy_eq_z is grplab.count_xy_eq_z
