"""Every field of the solver option types is read somewhere in the package.

A field that no code reads is an option that silently does nothing.
"""

import dataclasses
import pathlib
import re

import pytest

import vollab
from vollab.gbdt import GbdtParams
from vollab.net import NetConfig
from vollab.svr import SvrParams
from vollab.tree import TreeLimits

SOURCE = "\n".join(p.read_text() for p in pathlib.Path(vollab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("options", [GbdtParams, SvrParams, NetConfig, TreeLimits],
                         ids=lambda cls: cls.__name__)
def test_every_field_is_read(options):
    unread = [f.name for f in dataclasses.fields(options)
              if not re.search(rf"\.{f.name}\b", SOURCE)]
    assert unread == []
