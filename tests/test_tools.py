"""The m(8_21) fixture tool must keep working against the library."""

import importlib.util
from pathlib import Path

from ldga.cedga import m821_grid

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_m821_fixture.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("make_m821_fixture", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_m821_tool_polynomial_multiset():
    tool = load_tool()
    polys = tool.polynomial_multiset(m821_grid())
    assert tool.TARGET_POLY == {-1: 1, 0: 4, 1: 2}
    assert tool.TARGET_POLY in polys
    # the docstring's profile: exactly 2 + t and t^-1 + 4 + 2t
    distinct = {tuple(sorted(p.items())) for p in polys}
    assert distinct == {((0, 2), (1, 1)), ((-1, 1), (0, 4), (1, 2))}
