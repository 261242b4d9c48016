"""Tools outside the library must keep working against it."""

import importlib
import importlib.util
from pathlib import Path

from ldga.cedga import m821_grid

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "make_m821_fixture.py"
TRACING = REPO / "perfbench" / "tracing.py"


def load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_layers_resolve_to_library_functions():
    # `--trace 1` wraps these by name; a rename must fail here, not there
    for module, function, span, _ in load_by_path(TRACING).LAYERS:
        assert module.startswith("ldga."), span
        assert callable(getattr(importlib.import_module(module), function, None)), span


def test_tracer_counts_a_traced_pipeline():
    # `--trace 1` reads these counters off the traced calls' arguments and
    # results; a change to a traced return type must fail here, not there
    from ldga import augment, cedga, diagram, obstruct

    tracer = load_by_path(TRACING).Tracer()
    with tracer.installed():
        cedga.build_dga(diagram.resolve(diagram.grid_to_front(cedga.m821_grid())))
        obstruct.certify_nongeometric("classB_twist", n=5, schedule=[3])
        trefoil = cedga.build_dga(cedga.trefoil_projection())
        for eps in augment.enumerate_augmentations(trefoil, 2):
            augment.linearized_complex(trefoil, eps)
        twist = augment.parse_polysystem((REPO / "fixtures" / "twist_variety.sys").read_text())
        assert augment.variety_points(twist, 4) == 3  # q - 1 points on ab = -1
    for metric in ("diagram.crossings", "cedga.disks", "linhom.field_rank_cells",
                   "linhom.snf_cells", "augment.solutions", "augment.conjugate_calls"):
        assert tracer.counts.get(metric, 0) > 0, metric
    # both callers of the one solver keep a span, so its time stays attributed
    names = {span[0] for span in tracer.spans}
    assert {"augment.enumerate", "augment.variety_points"} <= names, names


def test_m821_tool_polynomial_multiset():
    tool = load_by_path(TOOL)
    polys = tool.polynomial_multiset(m821_grid())
    assert tool.TARGET_POLY == {-1: 1, 0: 4, 1: 2}
    assert tool.TARGET_POLY in polys
    # the docstring's profile: exactly 2 + t and t^-1 + 4 + 2t
    distinct = {tuple(sorted(p.items())) for p in polys}
    assert distinct == {((0, 2), (1, 1)), ((-1, 1), (0, 4), (1, 2))}


def test_m821_tool_braid_word_and_alexander_pinned():
    tool = load_by_path(TOOL)
    word = tool.find_braid_word()
    assert word == (1, 1, 1, 2, -1, -1, 2, 2)
    assert tool.braid_alexander(word) == tool.TARGET_ALEXANDER == (1, -4, 5, -4, 1)
    # unknot, trefoil, figure-eight, T(2,5)
    known = {(1, 2): (1,), (1, 1, 1, 2): (1, -1, 1), (1, -2, 1, -2): (1, -3, 1),
             (1, 1, 1, 1, 1, 2): (1, -1, 1, -1, 1)}
    for w, alexander in known.items():
        assert tool.braid_closure_is_knot(w)
        assert tool.braid_alexander(w) == alexander, w


def test_m821_tool_bracket_invariant_pinned():
    tool = load_by_path(TOOL)
    assert tool.grid_invariant(m821_grid()) == (
        (-22, -2), (-14, -1), (-6, 1), (2, 1), (6, -1),
    )
