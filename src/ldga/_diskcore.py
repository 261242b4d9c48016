"""Immersed-disk enumeration over resolved diagrams by fiber sweeping.

A disk over the diagram is reconstructed from its fibers over a left-to-
right sweep line: a fiber is a union of vertical intervals with pairwise
disjoint interiors, each bounded below and above by strands carrying the
disk's boundary.  Events transform states:

  * crossings let an interval endpoint pass through or make a convex
    negative corner (south corners for intervals under the crossing, north
    corners for intervals above); the interval spanning exactly the
    crossing gap can only die as a west positive corner, and a new such
    interval can only be born as the east positive corner;
  * a left cusp can open a new finger, and an interval covering the cusp
    may split around it (the disk's boundary rounds the cusp from inside);
  * a cap closes the exact gap interval, or merges the two intervals
    flanking it (the boundary rounds the cap from inside); rounding a cusp
    or cap from outside would be a reflex boundary point and is rejected.

Merging two sheets that are already connected through the past would
create an annulus instead of a disk, so each interval carries the label
of its connected component and such merges are rejected; at the end a
single component must remain.  The boundary word is read off by
traversing arc joints counterclockwise from the positive corner.  Every
produced disk is checked against the index identity
deg(a) - sum deg(b_i) = 1 by the caller.

One depth-first sweep finds the disks of every crossing.  While no
positive corner is placed, each crossing may open one as an east corner, a
new interval spanning exactly the crossing gap, or close the gap interval
as a west corner; the context records that crossing, and from then on no
transition reads it.  Each branch of the sweep carries a search context,
a dict:

  * ``joints`` maps a boundary arc to ``(letter, next arc)``, where the
    letter is the crossing of a negative corner, ``None`` where the arc
    turns at a cusp or cap, or ``"POS"`` at the positive corner;
  * ``start`` is the arc leaving the positive corner, and ``corner`` is
    that corner's crossing, ``None`` until the corner is placed;
  * ``comps`` counts the components opened and not merged away, those
    with an interval left and the orphans without one.

Sibling branches share their parent's context, so a branch that changes
it first copies it with ``_Search._fork``.  Arc and component ids come
from one counter per search, so no two branches need to agree on them.
A finger and the east positive corner open a new component; a split at
a left cusp keeps the component of the interval it splits, and a merge
at a cap relabels the lower interval's component to the upper one's in
every interval it carries on.  So two active intervals share a label
exactly when their sheets are connected through the past.

Each disk is found once, on the one path that traces it.  Before its
positive corner, every crossing offers both corner options next to its
other transitions, so no disk is cut off before its corner is reached; a
path places at most one corner, so no disk is read twice; and after the
corner, no transition reads which crossing holds it.

Dead states are memoized.  A state is dead when its subtree yields no
disk; the sweep keeps, per event index, the keys of the states found
dead, and a state whose key is there is not explored again.  The key of a
state before event ``idx`` is:

  * the ``(bottom, top)`` of each interval, in sweep order;
  * the partition of those intervals by component;
  * the number of orphaned components, those with no interval left,
    capped at 2;
  * whether the positive corner is placed.

Two states with one key have the same subtree shape, so they are dead
together:

  * every transition reads only interval positions, whether the corner
    is placed and whether two active intervals share a component; the
    partition after a transition follows from the partition before it;
  * acceptance at the end reads only whether the state is empty, whether
    the corner is placed and whether exactly one component remains;
  * an orphaned component has no interval to merge through, so it stays
    a component to the end: one orphan fails unless the state empties
    with no other component, and two or more always fail, so counts past
    2 need not be told apart;
  * arc and component ids, joints, ``start`` and which crossing holds the
    corner shape only the word read on success, and which crossing it
    belongs to; a dead subtree reads no word, so skipping it leaves
    ``found``, and its order, unchanged.

The tripwires are unaffected: the straddle check of ``_do_birth`` reads
only positions, so a state whose key is dead raised nothing the first
time and raises nothing now, and ``_read_word`` runs only on found disks.
The budget counts every ``_dfs`` step of the sweep, memo hits included.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import count
from typing import NamedTuple

from .diagram import BIRTH, CAP, DiagramError, ProjectionDiagram

DEFAULT_DISK_BUDGET = 500_000


class DiskBudgetExceeded(RuntimeError):
    """The disk search ran past its step budget."""


class DiskSearchError(RuntimeError):
    """Internal inconsistency while enumerating disks (convention tripwire)."""


class _Interval(NamedTuple):
    bottom: int
    top: int
    bottom_arc: int
    top_arc: int
    comp: int


def _shift(iv: _Interval, at: int, by: int, comp: int) -> _Interval:
    """iv in component comp, its endpoints at or above level `at` moved by `by`."""
    b = iv.bottom + by if iv.bottom >= at else iv.bottom
    t = iv.top + by if iv.top >= at else iv.top
    return _Interval(b, t, iv.bottom_arc, iv.top_arc, comp)


class _Search:
    def __init__(self, diagram: ProjectionDiagram, budget: int | None):
        self.events = list(diagram.events)
        n = 0
        for ev in self.events:
            if ev[0] == BIRTH:
                n += 2
            elif ev[0] == CAP:
                n -= 2
        if n != 0:
            raise DiagramError("resolved diagram does not close up")
        self.budget = DEFAULT_DISK_BUDGET if budget is None else budget
        self.steps = 0
        self.found: list[tuple[str, tuple[str, ...]]] = []
        self.dead: list[set[bytes]] = [set() for _ in self.events]
        self.ids = count()  # arc and component ids, unique across the sweep

    # -- the search context -------------------------------------------------

    @staticmethod
    def _fork(ctx: dict) -> dict:
        """A copy of ctx to mutate on one branch."""
        out = ctx.copy()
        out["joints"] = ctx["joints"].copy()
        return out

    def _open_cusp(self, ctx: dict, comp: int | None = None):
        """Fork ctx for a sheet opening at a cusp: (ctx, top arc, bottom arc, comp).

        The sheet opens a new component, or stays in `comp` when it splits
        off an interval covering the cusp.
        """
        out = self._fork(ctx)
        t_arc, b_arc = next(self.ids), next(self.ids)
        out["joints"][t_arc] = (None, b_arc)
        if comp is None:
            comp = next(self.ids)
            out["comps"] += 1
        return out, t_arc, b_arc, comp

    @staticmethod
    def _key(state: tuple[_Interval, ...], ctx: dict) -> bytes:
        """The memo key of a state (see the module docstring); idx picks the set."""
        labels: dict[int, int] = {}  # component -> block of the partition
        key: list[int] = []
        for bottom, top, _, _, comp in state:
            key += (bottom, top, labels.setdefault(comp, len(labels)))
        key += (min(ctx["comps"] - len(labels), 2), ctx["corner"] is not None)
        return array("I", key).tobytes()

    # -- the sweep ----------------------------------------------------------

    def run(self) -> None:
        """Enumerate the disks of every crossing into ``found``."""
        self._dfs(0, (), {"joints": {}, "start": None, "corner": None, "comps": 0})

    def _dfs(self, idx: int, state: tuple[_Interval, ...], ctx: dict):
        self.steps += 1
        if self.steps > self.budget:
            per = Counter(name for name, _ in self.found)
            at = ", ".join(f"{name}: {k}" for name, k in sorted(per.items()))
            raise DiskBudgetExceeded(
                f"disk search exceeded its budget of {self.budget} steps at sweep "
                f"event {idx} of {len(self.events)}; disks found so far: "
                f"{len(self.found)}{f' ({at})' if at else ''}; raise --budget to search further"
            )
        if idx == len(self.events):
            if not state and ctx["corner"] is not None and ctx["comps"] == 1:
                self.found.append((ctx["corner"], self._read_word(ctx)))
            return
        key = self._key(state, ctx)
        dead = self.dead[idx]
        if key in dead:
            return
        found = len(self.found)
        ev = self.events[idx]
        kind, level = ev[0], ev[1]
        if kind == BIRTH:
            self._do_birth(idx, level, state, ctx)
        elif kind == CAP:
            self._do_cap(idx, level, state, ctx)
        else:
            self._do_cross(idx, level, ev[2], state, ctx)
        if len(self.found) == found:
            dead.add(key)

    # -- event handlers -------------------------------------------------

    def _do_birth(self, idx, i, state, ctx):
        straddlers = [
            iv for iv in state if iv.bottom <= i - 1 and iv.top >= i
        ]
        others = [iv for iv in state if iv not in straddlers]
        if len(straddlers) > 1:
            raise DiskSearchError("overlapping sheets straddle a cusp")
        base = [_shift(iv, i, 2, iv.comp) for iv in others]
        variants: list[tuple[list[_Interval], dict]] = []
        if straddlers:
            iv = straddlers[0]
            # pass: the cusp point sits in the disk's interior
            variants.append(([*base, _shift(iv, i, 2, iv.comp)], ctx))
            # split: the boundary rounds the cusp from inside
            ctx2, t_lo, b_hi, _ = self._open_cusp(ctx, iv.comp)
            lower = _Interval(iv.bottom, i, iv.bottom_arc, t_lo, iv.comp)
            upper = _Interval(i + 1, iv.top + 2, b_hi, iv.top_arc, iv.comp)
            variants.append(([*base, lower, upper], ctx2))
        else:
            variants.append((base, ctx))

        for cur, cur_ctx in variants:
            self._next(idx, cur, cur_ctx)
            # optionally open a finger hugging the new cusp
            ctx3, t_arc, b_arc, comp = self._open_cusp(cur_ctx)
            self._next(idx, [*cur, _Interval(i, i + 1, b_arc, t_arc, comp)], ctx3)

    def _do_cap(self, idx, i, state, ctx):
        tops = []
        bottoms = []
        exact = []
        rest = []
        for iv in state:
            if iv.bottom == i and iv.top == i + 1:
                exact.append(iv)
            elif iv.top == i + 1 and iv.bottom < i:
                tops.append(iv)
            elif iv.bottom == i and iv.top > i + 1:
                bottoms.append(iv)
            elif iv.top == i or iv.bottom == i + 1:
                return  # boundary would round the cap from outside
            else:
                rest.append(iv)
        if len(tops) != len(bottoms) or len(tops) > 1 or len(exact) > 1:
            return
        new_state = []
        relabel = {}  # the merged-away component -> the one it joins
        if exact or tops:
            ctx = self._fork(ctx)
        for iv in exact:
            ctx["joints"][iv.bottom_arc] = (None, iv.top_arc)
        for lower, upper in zip(tops, bottoms):
            if lower.comp == upper.comp:
                return  # merging sheets already connected: annulus, not a disk
            relabel[lower.comp] = upper.comp
            ctx["comps"] -= 1
            ctx["joints"][upper.bottom_arc] = (None, lower.top_arc)
            new_state.append(
                _Interval(lower.bottom, upper.top - 2, lower.bottom_arc, upper.top_arc,
                          upper.comp)
            )
        # no endpoint in rest sits at i or i + 1
        new_state.extend(_shift(iv, i, -2, relabel.get(iv.comp, iv.comp)) for iv in rest)
        self._next(idx, new_state, ctx)

    def _do_cross(self, idx, i, name, state, ctx):
        # an option is "positive_death", "corner_s", "corner_n", or the new
        # (bottom, top) of an interval whose endpoint passes the crossing
        choosers = []
        fixed = []
        for iv in state:
            b, t = iv.bottom, iv.top
            if b == i and t == i + 1:
                if ctx["corner"] is not None:
                    return  # the gap interval pinches; no other transition
                choosers.append((iv, ("positive_death",)))
            elif t == i and b < i:
                choosers.append((iv, ((b, i + 1), "corner_s")))
            elif b == i + 1 and t > i + 1:
                choosers.append((iv, ((i, t), "corner_n")))
            elif t == i + 1 and b < i:
                choosers.append((iv, ((b, i),)))
            elif b == i and t > i + 1:
                choosers.append((iv, ((i + 1, t),)))
            else:
                fixed.append(iv)

        # every combination of options, the first chooser varying slowest
        branches = [(fixed, ctx)]
        for iv, options in choosers:
            grown = []
            for acc, ctx_now in branches:
                for opt in options:
                    if opt == "positive_death":
                        ctx2 = self._fork(ctx_now)
                        ctx2["joints"][iv.bottom_arc] = ("POS", None)
                        ctx2.update(start=iv.top_arc, corner=name)
                        grown.append((acc, ctx2))
                        continue
                    if opt == "corner_s":
                        ctx2, t_e = self._fork(ctx_now), next(self.ids)
                        ctx2["joints"][t_e] = (name, iv.top_arc)
                        new = _Interval(iv.bottom, i, iv.bottom_arc, t_e, iv.comp)
                    elif opt == "corner_n":
                        ctx2, b_e = self._fork(ctx_now), next(self.ids)
                        ctx2["joints"][iv.bottom_arc] = (name, b_e)
                        new = _Interval(i + 1, iv.top, b_e, iv.top_arc, iv.comp)
                    else:
                        ctx2 = ctx_now
                        new = _Interval(*opt, iv.bottom_arc, iv.top_arc, iv.comp)
                    grown.append(([*acc, new], ctx2))
            branches = grown

        for acc, ctx_now in branches:
            self._next(idx, acc, ctx_now)
            if ctx_now["corner"] is None:
                # the positive corner may open east of this crossing
                ctx2 = self._fork(ctx_now)
                b_arc, t_arc, comp = next(self.ids), next(self.ids), next(self.ids)
                ctx2["joints"][t_arc] = ("POS", None)
                ctx2.update(start=b_arc, corner=name, comps=ctx2["comps"] + 1)
                self._next(idx, [*acc, _Interval(i, i + 1, b_arc, t_arc, comp)], ctx2)

    def _next(self, idx, state_list, ctx):
        state = tuple(sorted(state_list, key=lambda iv: (iv.bottom, iv.top)))
        for a, b in zip(state, state[1:]):
            if b.bottom < a.top:
                return  # overlapping sheets are outside this model
        self._dfs(idx + 1, state, ctx)

    def _read_word(self, ctx) -> tuple[str, ...]:
        joints = ctx["joints"]
        arc = ctx["start"]
        word = []
        steps = 0
        while True:
            steps += 1
            if steps > len(joints) + 2:
                raise DiskSearchError("boundary traversal does not close")
            letter, nxt = joints[arc]
            if letter == "POS":
                break
            if letter is not None:
                word.append(letter)
            arc = nxt
        if steps != len(joints):
            raise DiskSearchError("disconnected boundary survived the checks")
        return tuple(word)


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
