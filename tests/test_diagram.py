import json
import random

import pytest

from ldga.diagram import (
    CROSS,
    DiagramError,
    FrontDiagram,
    GridDiagram,
    LCUSP,
    RCUSP,
    grid_to_front,
    parse_grid,
    resolve,
)


def unknot_grid():
    return GridDiagram(2, (0, 1), (1, 0))


def trefoil_front_events():
    return [(LCUSP, 0), (LCUSP, 2), (CROSS, 1), (CROSS, 1), (CROSS, 1),
            (RCUSP, 2), (RCUSP, 0)]


# ---------------------------------------------------------------------------
# grid parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_grid():
    g = parse_grid('{"size": 2, "X": [0, 1], "O": [1, 0]}')
    assert g.size == 2
    assert g.components() == 1


def test_parse_collision_rejected():
    with pytest.raises(DiagramError, match="collide"):
        parse_grid('{"size": 2, "X": [0, 1], "O": [0, 1]}')


def test_parse_non_permutation_rejected():
    with pytest.raises(DiagramError, match="permutation"):
        parse_grid('{"size": 2, "X": [0, 0], "O": [1, 0]}')


def test_parse_size_mismatch_rejected():
    with pytest.raises(DiagramError):
        parse_grid('{"size": 3, "X": [0, 1], "O": [1, 0]}')


def test_parse_bad_json_rejected():
    with pytest.raises(DiagramError, match="JSON"):
        parse_grid("not json")
    with pytest.raises(DiagramError, match="missing"):
        parse_grid('{"size": 2}')


@pytest.mark.parametrize(
    "text",
    [
        '{"size": true, "X": [0, 1], "O": [1, 0]}',
        '{"size": 2, "X": [true, false], "O": [false, true]}',
        '{"size": 2, "X": [0, 1], "O": [true, 0]}',
    ],
    ids=["size", "X and O", "O"],
)
def test_parse_booleans_rejected(text):
    # JSON true/false load as Python bools, which are ints
    with pytest.raises(DiagramError, match="integer"):
        parse_grid(text)


def test_m821_fixture_is_a_knot():
    from ldga.cedga import m821_grid

    g = m821_grid()
    assert g.components() == 1


# ---------------------------------------------------------------------------
# grid -> front
# ---------------------------------------------------------------------------

def test_minimal_grid_front():
    front = grid_to_front(unknot_grid())
    kinds = [ev.kind for ev in front.events]
    assert kinds.count(LCUSP) == 1
    assert kinds.count(RCUSP) == 1
    assert kinds.count(CROSS) == 0
    assert (front.tb, front.rotation_number) == (-1, 0)


def test_m821_front_rotation_zero():
    from ldga.cedga import m821_grid

    front = grid_to_front(m821_grid())
    assert front.rotation_number == 0
    assert front.tb == 1


def test_multi_component_grid_rejected():
    g = GridDiagram(4, (0, 1, 2, 3), (1, 0, 3, 2))
    assert g.components() == 2
    with pytest.raises(DiagramError, match="components"):
        grid_to_front(g)


def _random_knot_grid(rng, n):
    while True:
        x = list(range(n))
        o = list(range(n))
        rng.shuffle(x)
        rng.shuffle(o)
        if any(a == b for a, b in zip(x, o)):
            continue
        g = GridDiagram(n, tuple(x), tuple(o))
        if g.components() == 1:
            return g


@pytest.mark.parametrize("seed", range(8))
def test_random_grid_front_properties(seed):
    rng = random.Random(seed)
    g = _random_knot_grid(rng, rng.choice([4, 5, 6, 7]))
    front = grid_to_front(g)
    assert front.n_left_cusps == front.n_right_cusps
    assert front.n_right_cusps >= 1
    # determinism: same input bytes give identical outputs
    again = grid_to_front(parse_grid(g.to_json()))
    assert [ev.kind for ev in again.events] == [ev.kind for ev in front.events]
    assert (again.tb, again.rotation_number) == (front.tb, front.rotation_number)


def test_reversing_orientation_negates_r():
    # the zigzag stabilized unknot, walked with arc 0 heading west
    events = [(LCUSP, 0), (LCUSP, 1), (RCUSP, 0), (RCUSP, 0)]
    front, west = FrontDiagram(events), FrontDiagram(events, east=False)
    assert (front.tb, front.rotation_number) == (-2, -1)
    assert (west.tb, west.rotation_number) == (-2, 1)


def test_swapping_x_and_o_reverses_the_grid_orientation():
    # X <-> O keeps every segment and reverses the knot: tb holds, r flips
    for seed in range(1000):
        rng = random.Random(seed)
        g = _random_knot_grid(rng, rng.choice([4, 5, 6, 7, 8]))
        front, swapped = grid_to_front(g), grid_to_front(GridDiagram(g.size, g.O, g.X))
        assert swapped.tb == front.tb, seed
        assert swapped.rotation_number == -front.rotation_number, seed


# ---------------------------------------------------------------------------
# fronts from explicit events
# ---------------------------------------------------------------------------

def test_trefoil_front_invariants():
    front = FrontDiagram(trefoil_front_events())
    assert (front.tb, front.rotation_number) == (1, 0)
    assert front.maslov is not None


def test_front_must_close():
    with pytest.raises(DiagramError, match="close"):
        FrontDiagram([(LCUSP, 0)])


def test_front_bad_level_rejected():
    with pytest.raises(DiagramError):
        FrontDiagram([(LCUSP, 3)])


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def test_resolve_minimal_unknot():
    proj = resolve(grid_to_front(unknot_grid()))
    assert len(proj.crossings) == 1
    assert proj.crossings[0].degree == 1
    assert proj.crossings[0].name == "e1"  # the right cusp


def test_resolve_cusp_crossings_degree_one():
    from ldga.cedga import m821_grid

    proj = resolve(grid_to_front(m821_grid()))
    for c in proj.crossings:
        if c.name.startswith("e"):  # a right cusp
            assert c.degree == 1


def test_resolve_rejects_nonzero_rotation():
    # a stabilized unknot: zigzag front with rotation number -1
    events = [(LCUSP, 0), (LCUSP, 1), (RCUSP, 0), (RCUSP, 0)]
    front = FrontDiagram(events)
    assert front.maslov is None
    assert front.rotation_number != 0
    with pytest.raises(DiagramError, match="rotation"):
        resolve(front)


def euler_sum(proj):
    """Sum of (-1)^deg over the crossings; a front's resolution gives its tb."""
    return sum(-1 if c.degree % 2 else 1 for c in proj.crossings)


@pytest.mark.parametrize("seed", range(8))
def test_degree_writhe_bookkeeping(seed):
    rng = random.Random(100 + seed)
    g = _random_knot_grid(rng, rng.choice([4, 5, 6]))
    front = grid_to_front(g)
    if front.maslov is None:
        return
    assert euler_sum(resolve(front)) == front.tb


def test_trefoil_resolution_degrees():
    front = FrontDiagram(trefoil_front_events())
    proj = resolve(front)
    degs = sorted(c.degree for c in proj.crossings)
    assert degs == [0, 0, 0, 1, 1]
    assert euler_sum(proj) == front.tb
