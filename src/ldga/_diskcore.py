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
create an annulus instead of a disk, so lineages are tracked with a
union-find and such merges are rejected; at the end the lineage forest
must be a single tree.  The boundary word is read off by traversing arc
joints counterclockwise from the positive corner.  Every produced disk is
checked against the index identity deg(a) - sum deg(b_i) = 1 by the caller.

One depth-first sweep finds the disks of every crossing.  While no
positive corner is placed, each crossing may open one as an east corner, a
new interval spanning exactly the crossing gap, or close the gap interval
as a west corner; the context records that crossing, and from then on no
transition reads it.  Each branch of the sweep carries a search context,
a dict:

  * ``joints`` maps a boundary arc to ``(letter, next arc)``, where the
    letter is the crossing of a negative corner, ``None`` where the arc
    turns at a cusp or cap, or ``"POS"`` at the positive corner;
  * ``uf`` is the lineage union-find, mapping a lineage to its parent;
  * ``next`` is the first unused id; arcs and lineages draw from it;
  * ``start`` is the arc leaving the positive corner, ``corner`` is that
    corner's crossing, and ``pos`` says whether the corner is placed yet;
  * ``comps`` counts the lineage components, the trees of ``uf``.

Sibling branches share their parent's context, so a branch that changes
it first copies it with ``_Search._fork``, which also hands out fresh ids.
Every lineage enters ``uf`` when its sheet opens (a finger or a split at
a left cusp, or the east positive corner), so ``_find`` never meets an
unregistered lineage.  A finger and the east positive corner open a new
component; a split joins the tree of the interval it splits, and a merge
at a cap joins two trees into one.

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
  * the partition of those intervals by lineage root;
  * the number of orphaned components, those with no interval left,
    capped at 2;
  * ``pos``.

Two states with one key have the same subtree shape, so they are dead
together:

  * every transition reads only interval positions, ``pos`` and whether
    two active intervals share a root; the partition after a transition
    follows from the partition before it;
  * acceptance at the end reads only whether the state is empty, ``pos``
    and whether exactly one component remains;
  * an orphaned component has no interval to merge through, so it stays
    a component to the end: one orphan fails unless the state empties
    with no other component, and two or more always fail, so counts past
    2 need not be told apart;
  * arc ids, joints, ``start`` and ``corner`` shape only the word read on
    success, and which crossing it belongs to; a dead subtree reads no
    word, so skipping it leaves ``found``, and its order, unchanged.

The tripwires are unaffected: the straddle check of ``_do_birth`` reads
only positions, so a state whose key is dead raised nothing the first
time and raises nothing now, and ``_read_word`` runs only on found disks.
The budget counts every ``_dfs`` step of the sweep, memo hits included.
"""

from __future__ import annotations

from array import array
from collections import Counter
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
    lineage: int


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

    # -- the search context -------------------------------------------------

    @staticmethod
    def _find(uf: dict, x: int) -> int:
        while uf[x] != x:
            x = uf[x]
        return x

    @staticmethod
    def _fork(ctx: dict, fresh: int = 0) -> tuple[dict, range]:
        """A copy of ctx to mutate on one branch, and `fresh` new ids."""
        out = ctx.copy()
        out["joints"] = ctx["joints"].copy()
        out["uf"] = ctx["uf"].copy()
        first = ctx["next"]
        out["next"] = first + fresh
        return out, range(first, first + fresh)

    def _open_cusp(self, ctx: dict, parent: int | None = None):
        """Fork ctx for a sheet opening at a cusp: (ctx, top arc, bottom arc, lineage).

        The new lineage is its own root, or joins `parent`'s tree when the
        sheet splits off an interval covering the cusp.
        """
        out, (t_arc, b_arc, lin) = self._fork(ctx, 3)
        out["joints"][t_arc] = (None, b_arc)
        if parent is None:
            out["uf"][lin] = lin
            out["comps"] += 1
        else:
            out["uf"][lin] = self._find(out["uf"], parent)
        return out, t_arc, b_arc, lin

    def _key(self, state: tuple[_Interval, ...], ctx: dict) -> bytes:
        """The memo key of a state (see the module docstring); idx picks the set."""
        uf = ctx["uf"]
        labels: dict[int, int] = {}  # lineage root -> block of the partition
        key: list[int] = []
        for bottom, top, _, _, root in state:
            while uf[root] != root:  # _find, inlined: this runs at every step
                root = uf[root]
            key += (bottom, top, labels.setdefault(root, len(labels)))
        key += (min(ctx["comps"] - len(labels), 2), ctx["pos"])
        return array("I", key).tobytes()

    # -- the sweep ----------------------------------------------------------

    def run(self) -> None:
        """Enumerate the disks of every crossing into ``found``."""
        self._dfs(0, (), {"joints": {}, "uf": {}, "next": 0, "start": None,
                          "corner": None, "pos": False, "comps": 0})

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
            if not state and ctx["pos"] and ctx["comps"] == 1:
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

        def shift(iv: _Interval) -> _Interval:
            b = iv.bottom + 2 if iv.bottom >= i else iv.bottom
            t = iv.top + 2 if iv.top >= i else iv.top
            return _Interval(b, t, iv.bottom_arc, iv.top_arc, iv.lineage)

        base = [shift(iv) for iv in others]
        variants: list[tuple[list[_Interval], dict]] = []
        if straddlers:
            iv = straddlers[0]
            # pass: the cusp point sits in the disk's interior
            variants.append(([*base, shift(iv)], ctx))
            # split: the boundary rounds the cusp from inside
            ctx2, t_lo, b_hi, lin = self._open_cusp(ctx, iv.lineage)
            lower = _Interval(iv.bottom, i, iv.bottom_arc, t_lo, iv.lineage)
            upper = _Interval(i + 1, iv.top + 2, b_hi, iv.top_arc, lin)
            variants.append(([*base, lower, upper], ctx2))
        else:
            variants.append((base, ctx))

        for cur, cur_ctx in variants:
            self._next(idx, cur, cur_ctx)
            # optionally open a finger hugging the new cusp
            ctx3, t_arc, b_arc, lin = self._open_cusp(cur_ctx)
            self._next(idx, [*cur, _Interval(i, i + 1, b_arc, t_arc, lin)], ctx3)

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
        if exact or tops:
            ctx, _ = self._fork(ctx)
        for iv in exact:
            ctx["joints"][iv.bottom_arc] = (None, iv.top_arc)
        for lower, upper in zip(tops, bottoms):
            root = self._find(ctx["uf"], lower.lineage)
            other = self._find(ctx["uf"], upper.lineage)
            if root == other:
                return  # merging sheets already connected: annulus, not a disk
            ctx["uf"][root] = other
            ctx["comps"] -= 1
            ctx["joints"][upper.bottom_arc] = (None, lower.top_arc)
            new_state.append(
                _Interval(lower.bottom, upper.top - 2, lower.bottom_arc, upper.top_arc,
                          lower.lineage)
            )

        def shift(iv: _Interval) -> _Interval:
            b = iv.bottom - 2 if iv.bottom > i + 1 else iv.bottom
            t = iv.top - 2 if iv.top > i + 1 else iv.top
            return _Interval(b, t, iv.bottom_arc, iv.top_arc, iv.lineage)

        new_state.extend(shift(iv) for iv in rest)
        self._next(idx, new_state, ctx)

    def _do_cross(self, idx, i, name, state, ctx):
        # an option is "positive_death", "corner_s", "corner_n", or the new
        # (bottom, top) of an interval whose endpoint passes the crossing
        choosers = []
        fixed = []
        for iv in state:
            b, t = iv.bottom, iv.top
            if b == i and t == i + 1:
                if ctx["pos"]:
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
                        ctx2, _ = self._fork(ctx_now)
                        ctx2["joints"][iv.bottom_arc] = ("POS", None)
                        ctx2.update(start=iv.top_arc, corner=name, pos=True)
                        grown.append((acc, ctx2))
                        continue
                    if opt == "corner_s":
                        ctx2, (t_e,) = self._fork(ctx_now, 1)
                        ctx2["joints"][t_e] = (name, iv.top_arc)
                        new = _Interval(iv.bottom, i, iv.bottom_arc, t_e, iv.lineage)
                    elif opt == "corner_n":
                        ctx2, (b_e,) = self._fork(ctx_now, 1)
                        ctx2["joints"][iv.bottom_arc] = (name, b_e)
                        new = _Interval(i + 1, iv.top, b_e, iv.top_arc, iv.lineage)
                    else:
                        ctx2 = ctx_now
                        new = _Interval(*opt, iv.bottom_arc, iv.top_arc, iv.lineage)
                    grown.append(([*acc, new], ctx2))
            branches = grown

        for acc, ctx_now in branches:
            self._next(idx, acc, ctx_now)
            if not ctx_now["pos"]:
                # the positive corner may open east of this crossing
                ctx2, (b_arc, t_arc, lin) = self._fork(ctx_now, 3)
                ctx2["joints"][t_arc] = ("POS", None)
                ctx2["uf"][lin] = lin
                ctx2.update(start=b_arc, corner=name, pos=True, comps=ctx2["comps"] + 1)
                self._next(idx, [*acc, _Interval(i, i + 1, b_arc, t_arc, lin)], ctx2)

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
