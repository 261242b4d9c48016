"""Immersed-disk enumeration over graded fronts by a finger sweep.

A disk of the differential has one positive corner and convex negative
corners (Ng, "Computable Legendrian invariants", Topology 2003).  Swept
from left to right over the front's events, each fiber of the disks found
here is one vertical interval between two strands.  A disk starts at a left
cusp as the interval on the cusp's two strands, and the interval is carried
east one event at a time:

  * over a left cusp it shifts with the strands; a cusp inside it passes
    through its interior;
  * at a crossing just outside its top or bottom, that end either follows
    its strand, widening the interval, or turns there as a negative corner;
    at a crossing just inside, the end follows its strand;
  * a right cusp passes it only when the cusp lies outside the interval or
    strictly inside it, and kills it otherwise;
  * when the interval spans the gap of a crossing or a right cusp exactly,
    the disk closes there as its positive corner.

A right cusp e_k is the crossing that Ng's resolution puts just west of the
cusp's cap.  An interval with an end on either of its strands cannot pass
the cap, so no disk turns at e_k and no word contains it.

Read counterclockwise from the positive corner, the boundary word is the
top corners from east to west, then the bottom corners from west to east.
Each right cusp adds one more disk: the loop between its crossing and its
cap, with the empty word.  Disks whose fiber is two intervals somewhere are
not enumerated; finding them is item 4 of ROADMAP.md.  The
caller checks every disk against the index identity
deg(a) - sum deg(b_i) = 1, and the assembled DGA against d^2 = 0.

Dead states are memoized.  A state's subtree reads only the event index
and the interval's two ends, never the corners taken to reach it, so a
state whose (event, bottom, top) once yielded no disk yields none again.
Without the memo, dead paths through a twist region grow like the
Fibonacci numbers.  The budget counts every step of the sweep, memo hits
included.
"""

from __future__ import annotations

from collections import Counter

from .diagram import LCUSP, RCUSP, ProjectionDiagram
from .errors import DiskBudgetExceeded

DEFAULT_DISK_BUDGET = 500_000


class _Search:
    def __init__(self, diagram: ProjectionDiagram, budget: int | None):
        self.events = diagram.front.events
        names = iter(c.name for c in diagram.crossings)  # in event order
        self.names = [None if ev.kind == LCUSP else next(names) for ev in self.events]
        self.budget = DEFAULT_DISK_BUDGET if budget is None else budget
        self.steps = 0
        # each right cusp's loop, with the empty word
        self.found: list[tuple[str, tuple[str, ...]]] = [
            (name, ()) for ev, name in zip(self.events, self.names) if ev.kind == RCUSP
        ]
        self.dead: set[tuple[int, int, int]] = set()

    def run(self) -> None:
        """Enumerate the disks of every crossing into ``found``.

        A state is (event, bottom, top, tops, bottoms), its corners listed west
        to east.  The sweep keeps its own stack, so a long front meets the
        budget, not Python's recursion limit: it carries a state on to its
        first child and pushes the second, above the state's marker (None,
        key, disks found so far, None, None).  Popped, the marker marks the
        state dead if the state's subtree found no disk.
        """
        events, names, found, dead = self.events, self.names, self.found, self.dead
        budget, steps = self.budget, self.steps
        stack = [(idx + 1, ev.level, ev.level + 1, (), ())
                 for idx, ev in reversed(list(enumerate(events))) if ev.kind == LCUSP]
        push, pop = stack.append, stack.pop
        while stack:
            idx, bottom, top, tops, bottoms = pop()
            if tops is None:  # a marker: bottom is the state's key, top the disks before it
                if len(found) == top:
                    dead.add(bottom)
                continue
            while True:
                steps += 1
                if steps > budget:
                    self.steps = steps
                    per = Counter(name for name, _ in found)
                    at = ", ".join(f"{name}: {k}" for name, k in sorted(per.items()))
                    raise DiskBudgetExceeded(
                        f"disk search exceeded its budget of {budget} steps at sweep event "
                        f"{idx} of {len(events)}; disks found so far: {len(found)}"
                        f"{f' ({at})' if at else ''}; raise --budget to search further"
                    )
                key = (idx, bottom, top)
                if key in dead:
                    break
                ev, name = events[idx], names[idx]
                kind, i = ev.kind, ev.level
                if bottom == i and top == i + 1 and kind != LCUSP:
                    found.append((name, tops[::-1] + bottoms))
                    break
                if kind == RCUSP and not (top < i or bottom > i + 1 or (bottom < i and top > i + 1)):
                    dead.add(key)
                    break
                push((None, key, len(found), None, None))
                idx += 1
                if kind == LCUSP:
                    bottom, top = bottom + 2 * (bottom >= i), top + 2 * (top >= i)
                elif kind == RCUSP:
                    bottom, top = bottom - 2 * (bottom > i), top - 2 * (top > i)
                elif top == i:  # the end follows its strand first, then turns
                    push((idx, bottom, i, tops + (name,), bottoms))
                    top = i + 1
                elif bottom == i + 1:
                    push((idx, i + 1, top, tops, bottoms + (name,)))
                    bottom = i
                else:  # an end at a crossing just inside follows its strand
                    bottom, top = i + 1 if bottom == i else bottom, i if top == i + 1 else top
        self.steps = steps


def boundary_words(
    diagram: ProjectionDiagram,
    budget: int | None = None,
) -> list[tuple[str, tuple[str, ...]]]:
    """All immersed one-positive-corner disks, as (crossing, word) pairs.

    The crossing is the disk's positive corner; its word lists the negative
    corners counterclockwise starting after it.  Multiplicity is preserved.
    The budget caps the steps of the one sweep that finds them all.
    """
    search = _Search(diagram, budget)
    search.run()
    return search.found
