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
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BIRTH, CAP, DiagramError, ProjectionDiagram

DEFAULT_DISK_BUDGET = 500_000


class DiskBudgetExceeded(RuntimeError):
    """The disk search ran past its step budget."""


class DiskSearchError(RuntimeError):
    """Internal inconsistency while enumerating disks (convention tripwire)."""


@dataclass(frozen=True)
class _Interval:
    bottom: int
    top: int
    bottom_arc: int
    top_arc: int
    lineage: int


class _Search:
    def __init__(self, diagram: ProjectionDiagram, crossing: str, budget: int | None):
        self.events = list(diagram.events)
        n = 0
        self.anchor = None
        for idx, ev in enumerate(self.events):
            if ev[0] == BIRTH:
                n += 2
            elif ev[0] == CAP:
                n -= 2
            elif ev[2] == crossing:
                self.anchor = idx
        if n != 0:
            raise DiagramError("resolved diagram does not close up")
        if self.anchor is None:
            raise KeyError(f"no crossing named {crossing!r}")
        self.crossing = crossing
        self.budget = DEFAULT_DISK_BUDGET if budget is None else budget
        self.found: list[tuple[str, ...]] = []

    # -- union-find over sheet lineages ------------------------------------

    @staticmethod
    def _find(uf: dict, x: int) -> int:
        while uf[x] != x:
            x = uf[x]
        return x

    def _union(self, uf: dict, a: int, b: int) -> dict | None:
        """Returns a new union-find, or None when a and b are already joined."""
        ra, rb = self._find(uf, a), self._find(uf, b)
        if ra == rb:
            return None
        out = dict(uf)
        out[ra] = rb
        return out

    # -- the sweep ----------------------------------------------------------

    def run(self, anchor_side: str) -> None:
        """Enumerate disks whose positive corner opens east or west."""
        self.anchor_side = anchor_side
        self._dfs(0, (), {"joints": {}, "uf": {}, "next": 0, "start": None, "pos": False})

    def _dfs(self, idx: int, state: tuple[_Interval, ...], ctx: dict):
        self.budget -= 1
        if self.budget < 0:
            raise DiskBudgetExceeded(
                f"disk search for {self.crossing!r} exceeded its step budget; "
                f"raise --budget to search further"
            )
        if idx == len(self.events):
            if state or not ctx["pos"]:
                return
            roots = {self._find(ctx["uf"], x) for x in ctx["uf"]}
            if len(roots) != 1:
                return
            self.found.append(self._read_word(ctx))
            return
        ev = self.events[idx]
        kind, level = ev[0], ev[1]
        if kind == BIRTH:
            self._do_birth(idx, level, state, ctx)
        elif kind == CAP:
            self._do_cap(idx, level, state, ctx)
        else:
            self._do_cross(idx, level, ev[2], state, ctx)

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
            ctx2 = dict(ctx)
            ctx2["joints"] = dict(ctx["joints"])
            ctx2["uf"] = dict(ctx["uf"])
            t_lo = ctx2["next"]
            b_hi = t_lo + 1
            lin = t_lo + 2
            ctx2["next"] = t_lo + 3
            ctx2["joints"][t_lo] = (None, b_hi)
            ctx2["uf"].setdefault(iv.lineage, iv.lineage)
            ctx2["uf"][lin] = lin
            # a fresh lineage can never be pre-connected to its parent
            ctx2["uf"] = self._union(ctx2["uf"], lin, iv.lineage)
            lower = _Interval(iv.bottom, i, iv.bottom_arc, t_lo, iv.lineage)
            upper = _Interval(i + 1, iv.top + 2, b_hi, iv.top_arc, lin)
            variants.append(([*base, lower, upper], ctx2))
        else:
            variants.append((base, ctx))

        for cur, cur_ctx in variants:
            self._next(idx, cur, cur_ctx)
            # optionally open a finger hugging the new cusp
            ctx3 = dict(cur_ctx)
            ctx3["joints"] = dict(cur_ctx["joints"])
            ctx3["uf"] = dict(cur_ctx["uf"])
            t_arc = ctx3["next"]
            b_arc = t_arc + 1
            lin = t_arc + 2
            ctx3["next"] = t_arc + 3
            ctx3["joints"][t_arc] = (None, b_arc)
            ctx3["uf"][lin] = lin
            finger = _Interval(i, i + 1, b_arc, t_arc, lin)
            self._next(idx, [*cur, finger], ctx3)

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
        if len(tops) != len(bottoms) or len(tops) > 1:
            return
        ctx2 = ctx
        new_state = []
        if exact:
            if len(exact) > 1:
                return
            iv = exact[0]
            ctx2 = dict(ctx2)
            ctx2["joints"] = dict(ctx2["joints"])
            ctx2["joints"][iv.bottom_arc] = (None, iv.top_arc)
            if iv.lineage not in ctx2["uf"]:
                ctx2["uf"] = dict(ctx2["uf"])
                ctx2["uf"][iv.lineage] = iv.lineage
        if tops:
            lower, upper = tops[0], bottoms[0]
            ctx2 = dict(ctx2)
            ctx2["joints"] = dict(ctx2["joints"])
            ctx2["uf"] = dict(ctx2["uf"])
            for lin in (lower.lineage, upper.lineage):
                ctx2["uf"].setdefault(lin, lin)
            joined = self._union(ctx2["uf"], lower.lineage, upper.lineage)
            if joined is None:
                return  # merging sheets already connected: annulus, not a disk
            ctx2["uf"] = joined
            ctx2["joints"][upper.bottom_arc] = (None, lower.top_arc)
            new_state.append(
                _Interval(lower.bottom, upper.top - 2, lower.bottom_arc, upper.top_arc,
                          lower.lineage)
            )

        def shift(iv: _Interval) -> _Interval:
            b = iv.bottom - 2 if iv.bottom > i + 1 else iv.bottom
            t = iv.top - 2 if iv.top > i + 1 else iv.top
            return _Interval(b, t, iv.bottom_arc, iv.top_arc, iv.lineage)

        new_state.extend(shift(iv) for iv in rest)
        self._next(idx, new_state, ctx2)

    def _do_cross(self, idx, i, name, state, ctx):
        is_anchor = idx == self.anchor
        choosers = []
        fixed = []
        for iv in state:
            b, t = iv.bottom, iv.top
            if b == i and t == i + 1:
                if is_anchor and self.anchor_side == "W" and not ctx["pos"]:
                    choosers.append((iv, ("positive_death",)))
                else:
                    return  # the gap interval pinches; no other transition
            elif t == i and b < i:
                choosers.append((iv, ("pass_top_up", "corner_s")))
            elif b == i + 1 and t > i + 1:
                choosers.append((iv, ("pass_bottom_down", "corner_n")))
            elif t == i + 1 and b < i:
                choosers.append((iv, ("pass_top_down",)))
            elif b == i and t > i + 1:
                choosers.append((iv, ("pass_bottom_up",)))
            else:
                fixed.append(iv)

        def expand(k: int, acc: list[_Interval], ctx_now: dict, pos_used: bool):
            if k == len(choosers):
                if is_anchor and self.anchor_side == "E" and not ctx_now["pos"] and not pos_used:
                    # the positive corner must open exactly here
                    ctx2 = dict(ctx_now)
                    ctx2["joints"] = dict(ctx_now["joints"])
                    ctx2["uf"] = dict(ctx_now["uf"])
                    b_arc = ctx2["next"]
                    t_arc = b_arc + 1
                    lin = b_arc + 2
                    ctx2["next"] = b_arc + 3
                    ctx2["joints"][t_arc] = ("POS", None)
                    ctx2["start"] = b_arc
                    ctx2["uf"][lin] = lin
                    ctx2["pos"] = True
                    new_iv = _Interval(i, i + 1, b_arc, t_arc, lin)
                    self._next(idx, [*acc, new_iv], ctx2)
                    return
                self._next(idx, acc, ctx_now)
                return
            iv, options = choosers[k]
            for opt in options:
                if opt == "positive_death":
                    ctx2 = dict(ctx_now)
                    ctx2["joints"] = dict(ctx_now["joints"])
                    ctx2["joints"][iv.bottom_arc] = ("POS", None)
                    ctx2["start"] = iv.top_arc
                    ctx2["pos"] = True
                    if iv.lineage not in ctx2["uf"]:
                        ctx2["uf"] = dict(ctx2["uf"])
                        ctx2["uf"][iv.lineage] = iv.lineage
                    expand(k + 1, acc, ctx2, True)
                elif opt == "pass_top_up":
                    expand(k + 1, [*acc, _Interval(iv.bottom, i + 1, iv.bottom_arc, iv.top_arc, iv.lineage)], ctx_now, pos_used)
                elif opt == "pass_top_down":
                    expand(k + 1, [*acc, _Interval(iv.bottom, i, iv.bottom_arc, iv.top_arc, iv.lineage)], ctx_now, pos_used)
                elif opt == "pass_bottom_down":
                    expand(k + 1, [*acc, _Interval(i, iv.top, iv.bottom_arc, iv.top_arc, iv.lineage)], ctx_now, pos_used)
                elif opt == "pass_bottom_up":
                    expand(k + 1, [*acc, _Interval(i + 1, iv.top, iv.bottom_arc, iv.top_arc, iv.lineage)], ctx_now, pos_used)
                elif opt == "corner_s":
                    ctx2 = dict(ctx_now)
                    ctx2["joints"] = dict(ctx_now["joints"])
                    t_e = ctx2["next"]
                    ctx2["next"] = t_e + 1
                    ctx2["joints"][t_e] = (name, iv.top_arc)
                    expand(k + 1, [*acc, _Interval(iv.bottom, i, iv.bottom_arc, t_e, iv.lineage)], ctx2, pos_used)
                elif opt == "corner_n":
                    ctx2 = dict(ctx_now)
                    ctx2["joints"] = dict(ctx_now["joints"])
                    b_e = ctx2["next"]
                    ctx2["next"] = b_e + 1
                    ctx2["joints"][iv.bottom_arc] = (name, b_e)
                    expand(k + 1, [*acc, _Interval(i + 1, iv.top, b_e, iv.top_arc, iv.lineage)], ctx2, pos_used)

        expand(0, fixed, ctx, False)

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
    crossing: str,
    budget: int | None = None,
) -> list[tuple[str, ...]]:
    """All immersed one-positive-corner disk words at `crossing`.

    Words list the negative corners counterclockwise starting after the
    positive corner; multiplicity is preserved.
    """
    search = _Search(diagram, crossing, budget)
    search.run("E")
    search.run("W")
    return search.found
