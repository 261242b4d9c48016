"""Grid diagrams, front diagrams and Lagrangian-projection diagrams.

A grid is rotated 45 degrees counterclockwise to produce a front: vertical
grid segments become slope -1 strands, horizontals slope +1, marker corners
become cusps or smooth turns.  Fronts are stored as left-to-right event
sequences over a bottom-up strand list:

    ("lcusp", i)  two strands born at levels i, i+1
    ("rcusp", i)  the strands at levels i, i+1 die
    ("cross", i)  the strands at levels i, i+1 cross

At a front crossing the strand entering at the upper level is the
over-strand (it has the lesser slope).  Resolving a front (Ng) keeps the
events and grades them: each front crossing stays a crossing, each left
cusp is smoothed, and each right cusp becomes a crossing of degree 1 whose
loop closes it.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from ._record import Record, set_fields
from .algebra import Generator
from .errors import DGAValidationError, DiagramError


# ---------------------------------------------------------------------------
# Grid diagrams
# ---------------------------------------------------------------------------

class GridDiagram(Record, frozen=True):
    """X and O both give the column of the marker in each row (rows bottom-up)."""

    __slots__ = ("size", "X", "O")

    def __init__(self, size: int, X: tuple[int, ...], O: tuple[int, ...]):
        if size < 2:
            raise DiagramError(f"grid size must be >= 2, got {size}")
        for name, perm in (("X", X), ("O", O)):
            if len(perm) != size or sorted(perm) != list(range(size)):
                raise DiagramError(f"{name} is not a permutation of 0..{size - 1}: {perm}")
        for i in range(size):
            if X[i] == O[i]:
                raise DiagramError(f"X and O collide in row {i}")
        set_fields(self, size, X, O)

    def row_of_x(self, col: int) -> int:
        return self.X.index(col)

    def row_of_o(self, col: int) -> int:
        return self.O.index(col)

    def components(self) -> int:
        seen = set()
        count = 0
        for start in range(self.size):
            if start in seen:
                continue
            count += 1
            row = start
            while row not in seen:
                seen.add(row)
                row = self.row_of_x(self.O[row])
        return count

    def to_json(self) -> str:
        return json.dumps({"size": self.size, "X": list(self.X), "O": list(self.O)})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is a bool


def parse_grid(text: str) -> GridDiagram:
    """Parse the {"size": N, "X": [..], "O": [..]} grid file format."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an integer of over 4300 digits, deep nesting
        raise DiagramError(f"grid file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DiagramError("grid file must contain a single JSON object")
    missing = {"size", "X", "O"} - set(data)
    if missing:
        raise DiagramError(f"grid file missing keys: {sorted(missing)}")
    if not _is_int(data["size"]):
        raise DiagramError("grid size must be an integer")
    for key in ("X", "O"):
        if not (isinstance(data[key], list) and all(_is_int(v) for v in data[key])):
            raise DiagramError(f"grid {key} must be a list of integers")
    return GridDiagram(data["size"], tuple(data["X"]), tuple(data["O"]))


# ---------------------------------------------------------------------------
# Front diagrams from event sequences
# ---------------------------------------------------------------------------

LCUSP = "lcusp"
RCUSP = "rcusp"
CROSS = "cross"


class FrontEvent(Record, frozen=True):
    """The arc tokens (upper, lower) entering the event are assigned during replay."""

    __slots__ = ("kind", "level", "upper_arc", "lower_arc")

    def __init__(self, kind: str, level: int, upper_arc: int = -1, lower_arc: int = -1):
        set_fields(self, kind, level, upper_arc, lower_arc)


class FrontDiagram:
    """A front as a validated event sequence with arc and orientation data.

    Arcs are the maximal cusp-free strand runs, each x-monotone; the arcs
    born at the k-th left cusp are 2k (lower) and 2k + 1 (upper), so arc 0
    is the lower strand of the first left cusp.  One walk per component
    visits the arcs in knot order, alternately east and west, from its
    lowest arc with the heading ``east`` (for a knot: the heading of arc 0,
    which fixes the orientation).  Crossing a cusp from its upper arc to its
    lower arc is a down cusp and lowers the Maslov potential mu by 1; the
    other way is an up cusp and raises it by 1.  So the walk gives every
    arc its direction and mu, r = (down - up) / 2, and mu solves
    mu(upper) = mu(lower) + 1 at every cusp exactly when each walk closes
    at mu = 0.
    """

    def __init__(self, events: Sequence[tuple[str, int]], east: bool = True):
        self._walk(self._replay(events), east)

    # -- construction ------------------------------------------------------

    def _replay(self, raw_events) -> dict[tuple[int, str], tuple[int, int]]:
        """Validate the events and name the arcs.

        Returns the cusps as a map (arc, heading) -> (the arc across the
        cusp at that end, the change of mu on crossing it).
        """
        active: list[int] = []  # arc tokens, bottom-up
        next_arc = 0
        events: list[FrontEvent] = []
        across: dict[tuple[int, str], tuple[int, int]] = {}
        for kind, level in raw_events:
            if kind == LCUSP:
                if not 0 <= level <= len(active):
                    raise DiagramError(f"left cusp level {level} out of range")
                lower, upper = next_arc, next_arc + 1
                next_arc += 2
                active[level:level] = [lower, upper]
            elif kind == RCUSP:
                if not 0 <= level < len(active) - 1:
                    raise DiagramError(f"right cusp level {level} out of range")
                lower, upper = active[level], active[level + 1]
                del active[level : level + 2]
            elif kind == CROSS:
                if not 0 <= level < len(active) - 1:
                    raise DiagramError(f"crossing level {level} out of range")
                lower, upper = active[level], active[level + 1]
                active[level], active[level + 1] = upper, lower
            else:
                raise DiagramError(f"unknown front event kind {kind!r}")
            events.append(FrontEvent(kind, level, upper, lower))
            if kind != CROSS:
                heading = "W" if kind == LCUSP else "E"
                across[upper, heading] = (lower, -1)
                across[lower, heading] = (upper, +1)
        if active:
            raise DiagramError(f"front does not close up; {len(active)} strands left open")
        if next_arc == 0:
            raise DiagramError("empty front")
        self.events = events
        self.n_arcs = next_arc
        self.n_left_cusps = self.n_right_cusps = next_arc // 2
        return across

    def _walk(self, across, east: bool):
        direction: dict[int, str] = {}
        mu: dict[int, int] = {}
        closed = True
        net = 0  # up cusps - down cusps
        for start in range(0, self.n_arcs, 2):
            if start in direction:
                continue
            arc, heading, level = start, "E" if east else "W", 0
            while arc not in direction:
                direction[arc], mu[arc] = heading, level
                arc, step = across[arc, heading]
                level += step
                heading = "W" if heading == "E" else "E"
            closed = closed and level == 0
            net += level
        self.arc_direction = direction
        self.maslov = mu if closed else None
        self.rotation_number = -net // 2  # a walk crosses an even number of cusps
        self.writhe = sum(
            1 if direction[ev.upper_arc] == direction[ev.lower_arc] else -1
            for ev in self.events if ev.kind == CROSS
        )

    # -- queries -----------------------------------------------------------

    @property
    def tb(self) -> int:
        return self.writhe - self.n_right_cusps


# ---------------------------------------------------------------------------
# Grid -> front
# ---------------------------------------------------------------------------

def grid_to_front(grid: GridDiagram) -> FrontDiagram:
    """Rotate the grid 45 degrees counterclockwise and read off the front.

    A marker or crossing at (c, r) goes to (x, y) = (c - r, c + r), so column
    c's vertical is the strand y = 2c - x and row r's horizontal is y = x + 2r.
    Events are the corners and crossings in (x, y) order, and an event's level
    is the number of live strands passing below it; a strand through the event
    is not counted.  Verticals keep their grid over-crossing role: they become
    the lesser-slope (over) strands at front crossings.  A corner starts the
    strands that leave it east and ends the others.  The front is oriented as
    the grid: columns run O -> X.
    """
    if grid.components() != 1:
        raise DiagramError(f"grid has {grid.components()} components; knots only")
    n = grid.size
    rows = [sorted((grid.row_of_x(c), grid.row_of_o(c))) for c in range(n)]
    cols = [sorted((grid.X[r], grid.O[r])) for r in range(n)]
    points = [(c, r) for r in range(n) for c in cols[r]] + [
        (c, r) for c in range(n) for r in range(rows[c][0] + 1, rows[c][1])
        if cols[r][0] < c < cols[r][1]]
    events = sorted((c - r, c + r, c, r) for c, r in points)
    live: set[tuple[int, int]] = set()  # strands y = slope * x + intercept
    out: list[tuple[str, int]] = []
    for x, y, c, r in events:
        level = sum(slope * x + intercept < y for slope, intercept in live)
        if c not in cols[r]:
            out.append((CROSS, level))
            continue
        v_east, h_east = r == rows[c][1], c == cols[r][0]
        for strand, east in (((-1, 2 * c), v_east), ((1, 2 * r), h_east)):
            if east:
                live.add(strand)
            else:
                live.discard(strand)
        if v_east == h_east:
            out.append((LCUSP if v_east else RCUSP, level))
    if live:
        raise DiagramError("sweep finished with open strands")
    _, _, c0, r0 = events[0]  # arc 0 is this corner's vertical: east iff it leaves an O
    return FrontDiagram(out, east=grid.O[r0] == c0)


# ---------------------------------------------------------------------------
# Resolution: the crossings of the Lagrangian projection, with their degrees
# ---------------------------------------------------------------------------

class ProjectionDiagram(Record, frozen=True):
    """Resolved diagram: a front and its graded crossings.

    crossings are the generators of the diagram's DGA, in event order: one
    per front crossing (c1, c2, ...) or right cusp (e1, e2, ...); left cusps
    are smoothed and carry none.
    """

    __slots__ = ("front", "crossings")

    def __init__(self, front: FrontDiagram, crossings: tuple[Generator, ...]):
        set_fields(self, front, crossings)


def resolve(front: FrontDiagram) -> ProjectionDiagram:
    """Ng resolution with Z-gradings from the Maslov potential."""
    if front.maslov is None:
        raise DiagramError(
            f"front has rotation number {front.rotation_number} != 0; no Z-grading"
        )
    mu = front.maslov
    crossings: list[Generator] = []
    n_front = n_cusp = 0
    for ev in front.events:
        if ev.kind == CROSS:
            n_front += 1
            crossings.append(Generator(f"c{n_front}", mu[ev.upper_arc] - mu[ev.lower_arc]))
        elif ev.kind == RCUSP:
            n_cusp += 1
            crossings.append(Generator(f"e{n_cusp}", 1))
    # tripwire: the sum of (-1)^degree is tb; a front crossing counts its sign
    # and a right cusp's crossing, of degree 1, counts -1
    signs = sum(-1 if c.degree % 2 else 1 for c in crossings)
    if signs != front.tb:
        raise DGAValidationError(f"resolution breaks the degree/writhe identity: sum of "
                                 f"(-1)^degree is {signs}, tb is {front.tb}")
    return ProjectionDiagram(front, tuple(crossings))
