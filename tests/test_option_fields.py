"""Every dataclass field declared in the package is read somewhere.

A field that no code reads is state that silently does nothing; an
option field that only a test reads is an option the program ignores.
"""

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import vollab
from vollab.gbdt import GbdtParams
from vollab.net import NetConfig
from vollab.svr import SvrParams
from vollab.tree import TreeLimits

PACKAGE = pathlib.Path(vollab.__file__).parent
SOURCE = "\n".join(p.read_text() for p in PACKAGE.glob("*.py"))
TESTS = "\n".join(p.read_text() for p in pathlib.Path(__file__).parent.glob("*.py"))


def _package_dataclasses():
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"vollab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield cls


def _unread(cls, text):
    return [f.name for f in dataclasses.fields(cls) if not re.search(rf"\.{f.name}\b", text)]


@pytest.mark.parametrize("options", [GbdtParams, SvrParams, NetConfig, TreeLimits],
                         ids=lambda cls: cls.__name__)
def test_every_field_is_read(options):
    assert _unread(options, SOURCE) == []


def test_every_dataclass_field_is_read_by_the_package_or_its_tests():
    classes = list(_package_dataclasses())
    assert len(classes) > 20  # the scan found the package's dataclasses
    unread = {cls.__qualname__: _unread(cls, SOURCE + TESTS) for cls in classes}
    assert {name: fields for name, fields in unread.items() if fields} == {}
