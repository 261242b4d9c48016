"""Grid diagrams, front diagrams and Lagrangian-projection diagrams.

A grid is rotated 45 degrees counterclockwise to produce a front: vertical
grid segments become slope -1 strands, horizontals slope +1, marker corners
become cusps or smooth turns.  Fronts are stored as left-to-right event
sequences over a bottom-up strand list:

    ("lcusp", i)  two strands born at levels i, i+1
    ("rcusp", i)  the strands at levels i, i+1 die
    ("cross", i)  the strands at levels i, i+1 cross

At a front crossing the strand entering at the upper level is the
over-strand (it has the lesser slope).  Resolving a front keeps front
crossings, smooths left cusps, and replaces each right cusp by a new
crossing of degree 1 followed by a cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence


class DiagramError(ValueError):
    """Malformed grid/front input or an unsupported diagram shape."""


# ---------------------------------------------------------------------------
# Grid diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridDiagram:
    """X and O both give the column of the marker in each row (rows bottom-up)."""

    size: int
    X: tuple[int, ...]
    O: tuple[int, ...]

    def __post_init__(self):
        n = self.size
        if n < 2:
            raise DiagramError(f"grid size must be >= 2, got {n}")
        for name, perm in (("X", self.X), ("O", self.O)):
            if len(perm) != n or sorted(perm) != list(range(n)):
                raise DiagramError(f"{name} is not a permutation of 0..{n - 1}: {perm}")
        for i in range(n):
            if self.X[i] == self.O[i]:
                raise DiagramError(f"X and O collide in row {i}")

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


def parse_grid(text: str) -> GridDiagram:
    """Parse the {"size": N, "X": [..], "O": [..]} grid file format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"grid file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DiagramError("grid file must contain a single JSON object")
    missing = {"size", "X", "O"} - set(data)
    if missing:
        raise DiagramError(f"grid file missing keys: {sorted(missing)}")
    if not isinstance(data["size"], int):
        raise DiagramError("grid size must be an integer")
    for key in ("X", "O"):
        if not (isinstance(data[key], list) and all(isinstance(v, int) for v in data[key])):
            raise DiagramError(f"grid {key} must be a list of integers")
    return GridDiagram(data["size"], tuple(data["X"]), tuple(data["O"]))


# ---------------------------------------------------------------------------
# Front diagrams from event sequences
# ---------------------------------------------------------------------------

LCUSP = "lcusp"
RCUSP = "rcusp"
CROSS = "cross"


@dataclass(frozen=True)
class FrontEvent:
    kind: str
    level: int
    # arc tokens, assigned during replay: (upper, lower) entering the event
    upper_arc: int = -1
    lower_arc: int = -1


class FrontDiagram:
    """A front as a validated event sequence with arc and orientation data.

    Arcs are the maximal cusp-free strand runs; every arc is x-monotone in
    this model and the knot walk traverses arcs alternately east and west.
    """

    def __init__(self, events: Sequence[tuple[str, int]], labels: dict[int, str] | None = None):
        self.raw_events = [(kind, level) for kind, level in events]
        self.crossing_labels = dict(labels or {})
        self._replay()
        self._orient()
        self._maslov()

    # -- construction ------------------------------------------------------

    def _replay(self):
        active: list[int] = []  # arc tokens, bottom-up
        next_arc = 0
        events: list[FrontEvent] = []
        births: dict[int, str] = {}
        cusp_pairs: list[tuple[int, int]] = []  # (upper, lower) at each cusp
        for kind, level in self.raw_events:
            if kind == LCUSP:
                if not 0 <= level <= len(active):
                    raise DiagramError(f"left cusp level {level} out of range")
                lower, upper = next_arc, next_arc + 1
                next_arc += 2
                active[level:level] = [lower, upper]
                events.append(FrontEvent(LCUSP, level, upper, lower))
                cusp_pairs.append((upper, lower))
            elif kind == RCUSP:
                if not 0 <= level < len(active) - 1:
                    raise DiagramError(f"right cusp level {level} out of range")
                lower, upper = active[level], active[level + 1]
                del active[level : level + 2]
                events.append(FrontEvent(RCUSP, level, upper, lower))
                cusp_pairs.append((upper, lower))
            elif kind == CROSS:
                if not 0 <= level < len(active) - 1:
                    raise DiagramError(f"crossing level {level} out of range")
                lower, upper = active[level], active[level + 1]
                active[level], active[level + 1] = upper, lower
                events.append(FrontEvent(CROSS, level, upper, lower))
            else:
                raise DiagramError(f"unknown front event kind {kind!r}")
        if active:
            raise DiagramError(f"front does not close up; {len(active)} strands left open")
        self.events = events
        self.n_arcs = next_arc
        self.cusp_pairs = cusp_pairs
        if self.n_arcs == 0:
            raise DiagramError("empty front")

        parent = list(range(self.n_arcs))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for upper, lower in cusp_pairs:
            parent[find(upper)] = find(lower)
        self.n_components = len({find(a) for a in range(self.n_arcs)})

    def _orient(self):
        """Walk the knot; arcs get directions E/W alternating through cusps."""
        # each arc meets exactly two cusps (its west and east endpoint)
        west_partner: dict[int, int] = {}
        east_partner: dict[int, int] = {}
        for ev in self.events:
            if ev.kind == LCUSP:
                west_partner[ev.upper_arc] = ev.lower_arc
                west_partner[ev.lower_arc] = ev.upper_arc
            elif ev.kind == RCUSP:
                east_partner[ev.upper_arc] = ev.lower_arc
                east_partner[ev.lower_arc] = ev.upper_arc
        direction: dict[int, str] = {}
        for start in range(self.n_arcs):
            if start in direction:
                continue
            arc, d = start, "E"
            while arc not in direction:
                direction[arc] = d
                arc = east_partner[arc] if d == "E" else west_partner[arc]
                d = "W" if d == "E" else "E"
        self.arc_direction = direction

        down = up = 0
        for upper, lower in self.cusp_pairs:
            if direction[upper] == direction[lower]:
                raise DiagramError("orientation walk failed at a cusp")
        for ev in self.events:
            if ev.kind == RCUSP:
                # arriving east along the E-directed arc
                if self.arc_direction[ev.upper_arc] == "E":
                    down += 1
                else:
                    up += 1
            elif ev.kind == LCUSP:
                # arriving west along the W-directed arc
                if self.arc_direction[ev.upper_arc] == "W":
                    down += 1
                else:
                    up += 1
        if (down - up) % 2:
            raise DiagramError("cusp parity violation")
        self.rotation_number = (down - up) // 2

        writhe = 0
        for ev in self.events:
            if ev.kind == CROSS:
                same = self.arc_direction[ev.upper_arc] == self.arc_direction[ev.lower_arc]
                writhe += 1 if same else -1
        self.writhe = writhe
        self.n_right_cusps = sum(1 for ev in self.events if ev.kind == RCUSP)
        self.n_left_cusps = sum(1 for ev in self.events if ev.kind == LCUSP)

    def _maslov(self):
        """Solve mu(upper) = mu(lower) + 1 over all cusps; exists iff r = 0."""
        mu: dict[int, int] = {}
        adj: dict[int, list[tuple[int, int]]] = {a: [] for a in range(self.n_arcs)}
        for upper, lower in self.cusp_pairs:
            adj[upper].append((lower, -1))
            adj[lower].append((upper, +1))
        consistent = True
        for start in range(self.n_arcs):
            if start in mu:
                continue
            mu[start] = 0
            stack = [start]
            while stack:
                a = stack.pop()
                for b, delta in adj[a]:
                    want = mu[a] + delta
                    if b in mu:
                        if mu[b] != want:
                            consistent = False
                    else:
                        mu[b] = want
                        stack.append(b)
        self.maslov = mu if consistent else None

    # -- queries -----------------------------------------------------------

    @property
    def tb(self) -> int:
        return self.writhe - self.n_right_cusps

    def reversed_orientation_invariants(self) -> tuple[int, int]:
        """(tb, r) for the opposite orientation."""
        return self.tb, -self.rotation_number


def classical_invariants(front: FrontDiagram) -> tuple[int, int]:
    """Thurston-Bennequin and rotation numbers of the front."""
    return front.tb, front.rotation_number


# ---------------------------------------------------------------------------
# Grid -> front
# ---------------------------------------------------------------------------

def grid_to_front(grid: GridDiagram) -> FrontDiagram:
    """Rotate the grid 45 degrees counterclockwise and read off the front.

    Verticals keep their grid over-crossing role: they become the lesser
    slope (over) strands at front crossings.  Event order is the rotated
    x-order, made total by the lexicographic key (c - r, c + r).
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
    for (k1, *_), (k2, *_) in zip(events_in, events_in[1:]):
        if k1 == k2:
            raise DiagramError("event key collision; grid data degenerate")

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
    return FrontDiagram(out_events)


# ---------------------------------------------------------------------------
# Resolution: front -> Lagrangian projection events
# ---------------------------------------------------------------------------

BIRTH = "birth"
CAP = "cap"


@dataclass(frozen=True)
class Crossing:
    name: str
    degree: int
    kind: str  # "front" or "cusp"


@dataclass(frozen=True)
class ProjectionDiagram:
    """Resolved diagram: births, crossings (with degrees) and caps.

    events: ("birth", i) | ("cross", i, name) | ("cap", i), with i the lower
    of the two strand levels involved, bottom-up.
    """

    events: tuple[tuple, ...]
    crossings: tuple[Crossing, ...]
    tb: int
    rotation: int

    def euler_writhe_check(self) -> bool:
        """Sum of (-1)^deg over crossings equals tb (cusp crossings count +1)."""
        total = sum((-1) ** c.degree for c in self.crossings)
        return total == self.tb


def resolve(front: FrontDiagram) -> ProjectionDiagram:
    """Ng resolution with Z-gradings from the Maslov potential."""
    if front.maslov is None:
        raise DiagramError(
            f"front has rotation number {front.rotation_number} != 0; no Z-grading"
        )
    mu = front.maslov
    events: list[tuple] = []
    crossings: list[Crossing] = []
    n_front = 0
    n_cusp = 0
    for ev in front.events:
        if ev.kind == LCUSP:
            events.append((BIRTH, ev.level))
        elif ev.kind == CROSS:
            n_front += 1
            label = front.crossing_labels.get(n_front - 1, f"c{n_front}")
            deg = mu[ev.upper_arc] - mu[ev.lower_arc]
            crossings.append(Crossing(label, deg, "front"))
            events.append((CROSS, ev.level, label))
        elif ev.kind == RCUSP:
            n_cusp += 1
            label = f"e{n_cusp}"
            crossings.append(Crossing(label, 1, "cusp"))
            events.append((CROSS, ev.level, label))
            events.append((CAP, ev.level))
    return ProjectionDiagram(
        tuple(events), tuple(crossings), front.tb, front.rotation_number
    )
