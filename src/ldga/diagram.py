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
from .errors import DiagramError


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
        self.n_components = net = 0  # net: up cusps - down cusps
        for start in range(0, self.n_arcs, 2):
            if start in direction:
                continue
            self.n_components += 1
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

    Verticals keep their grid over-crossing role: they become the lesser
    slope (over) strands at front crossings.  Event order is the rotated
    x-order, made total by the lexicographic key (c - r, c + r), which is
    injective.  The front is oriented as the grid: columns run O -> X.
    """
    if grid.components() != 1:
        raise DiagramError(f"grid has {grid.components()} components; knots only")
    n = grid.size

    verticals = {}  # column -> (row_low, row_high)
    for c in range(n):
        r1, r2 = grid.row_of_x(c), grid.row_of_o(c)
        verticals[c] = (min(r1, r2), max(r1, r2))
    horizontals = {}  # row -> (col_low, col_high)
    for r in range(n):
        c1, c2 = grid.X[r], grid.O[r]
        horizontals[r] = (min(c1, c2), max(c1, c2))

    def key(c: int, r: int) -> tuple[int, int]:
        return (c - r, c + r)

    events_in = []
    for r in range(n):
        for c in (grid.X[r], grid.O[r]):
            events_in.append((key(c, r), "corner", c, r))
    for c, (rlo, rhi) in verticals.items():
        for r in range(rlo + 1, rhi):
            clo, chi = horizontals[r]
            if clo < c < chi:
                events_in.append((key(c, r), "crossing", c, r))
    events_in.sort()

    # the first event is the first left cusp, whose lower strand (arc 0) is
    # its column's vertical: it heads east iff it leaves this corner as an O
    _, _, c0, r0 = events_in[0]
    east = grid.O[r0] == c0

    # sweep state: strand ids ('v', c) or ('h', r), bottom-up
    active: list[tuple[str, int]] = []
    out_events: list[tuple[str, int]] = []

    def above(s1, s2, now) -> bool:
        """Is strand s1 above s2 at sweep position just after `now`?"""
        k1, a = s1
        k2, b = s2
        if k1 == k2 == "v":
            return a > b
        if k1 == k2 == "h":
            return a > b
        if k1 == "v":
            return key(a, b) > now
        return key(b, a) <= now

    def insert_sorted(strand, now) -> int:
        lo = 0
        while lo < len(active) and above(strand, active[lo], now):
            lo += 1
        return lo

    for now, kind, c, r in events_in:
        if kind == "crossing":
            vs, hs = ("v", c), ("h", r)
            iv, ih = active.index(vs), active.index(hs)
            if iv != ih + 1:
                raise DiagramError("crossing strands not adjacent; sweep inconsistent")
            active[ih], active[iv] = vs, hs
            out_events.append((CROSS, ih))
            continue
        # corner at marker (c, r): vertical goes to vr, horizontal to hc
        vlo, vhi = verticals[c]
        vr = vhi if r == vlo else vlo
        clo, chi = horizontals[r]
        hc = chi if c == clo else clo
        v_east = vr < r      # extends east iff heading down in the grid
        h_east = hc > c
        vs, hs = ("v", c), ("h", r)
        if v_east and h_east:
            # left cusp: h sits above v just east of the corner
            iv = insert_sorted(vs, now)
            ih = insert_sorted(hs, now)
            if iv != ih:
                raise DiagramError("left cusp insertion inconsistent")
            active[iv:iv] = [vs, hs]
            out_events.append((LCUSP, iv))
        elif not v_east and not h_east:
            iv, ih = active.index(vs), active.index(hs)
            if iv != ih + 1:
                raise DiagramError("right cusp strands not adjacent")
            del active[ih : ih + 2]
            out_events.append((RCUSP, ih))
        else:
            incoming, outgoing = (hs, vs) if v_east else (vs, hs)
            i = active.index(incoming)
            active[i] = outgoing
    if active:
        raise DiagramError("sweep finished with open strands")
    return FrontDiagram(out_events, east)


# ---------------------------------------------------------------------------
# Resolution: the crossings of the Lagrangian projection, with their degrees
# ---------------------------------------------------------------------------

class Crossing(Record, frozen=True):
    __slots__ = ("name", "degree")

    def __init__(self, name: str, degree: int):
        set_fields(self, name, degree)


class ProjectionDiagram(Record, frozen=True):
    """Resolved diagram: a front and its graded crossings.

    crossings are in event order, one per front crossing (c1, c2, ...) or
    right cusp (e1, e2, ...); left cusps are smoothed and carry none.
    """

    __slots__ = ("front", "crossings")

    def __init__(self, front: FrontDiagram, crossings: tuple[Crossing, ...]):
        set_fields(self, front, crossings)


def resolve(front: FrontDiagram) -> ProjectionDiagram:
    """Ng resolution with Z-gradings from the Maslov potential."""
    if front.maslov is None:
        raise DiagramError(
            f"front has rotation number {front.rotation_number} != 0; no Z-grading"
        )
    mu = front.maslov
    crossings: list[Crossing] = []
    n_front = n_cusp = 0
    for ev in front.events:
        if ev.kind == CROSS:
            n_front += 1
            crossings.append(Crossing(f"c{n_front}", mu[ev.upper_arc] - mu[ev.lower_arc]))
        elif ev.kind == RCUSP:
            n_cusp += 1
            crossings.append(Crossing(f"e{n_cusp}", 1))
    return ProjectionDiagram(front, tuple(crossings))
