#!/usr/bin/env python3
"""Generate and validate the m(8_21) grid fixture.

Pipeline:
  1. scan 3-braid words of length 8 for the Alexander polynomial
     1 - 4t + 5t^2 - 4t^3 + t^4 (determinant 15) and pick a witness word;
  2. turn the braid closure into a grid diagram (vertical moves carry the
     over strand, trace closure routed below the braid block);
  3. simulated annealing over knot-type-preserving grid moves (cyclic
     translations, commutations, stabilizations/destabilizations), each
     stab/destab candidate validated by a Kauffman-bracket transfer check,
     maximizing the Thurston-Bennequin number of the induced front;
  4. accept a grid once tb = 1, r = 0 and the linearized-homology
     polynomial multiset of its F2 DGA contains t^-1 + 4 + 2t; both the
     grid and its mirror reflection are annealed, since only one mirror
     carries tb = 1 representatives.

The knot carries more than one (tb, r) = (1, 0) Legendrian class (distinct
runs can land on representatives with different augmentation counts and
polynomial multisets, all containing t^-1 + 4 + 2t).  The committed
fixture is a representative with exactly the two distinct polynomials
2 + t and t^-1 + 4 + 2t; --install only overwrites the repository fixture
when a candidate has that profile.

The Kauffman-bracket smoothing weights are fixed arbitrarily; the bracket
is used only to compare two presentations of the same candidate knot, so
only consistency matters.  Run from the repository root:

    python tools/make_m821_fixture.py [--seed N] [--out fixtures/m821.json]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ldga.algebra import ZT, Laurent
from ldga.augment import enumerate_augmentations, linearized_complex
from ldga.cedga import build_dga
from ldga.diagram import (
    CROSS,
    GridDiagram,
    LCUSP,
    RCUSP,
    grid_to_front,
    resolve,
)
from ldga.linhom import homology_field, poincare

TARGET_ALEXANDER = (1, -4, 5, -4, 1)
TARGET_POLY = {-1: 1, 0: 4, 1: 2}


# ---------------------------------------------------------------------------
# Alexander polynomials of 3-braid closures (reduced Burau)
# ---------------------------------------------------------------------------

_ONE, _ZERO = ZT.one, ZT.zero
_T, _TI = ZT.t_power(1), ZT.t_power(-1)
_BURAU = {
    1: [[ZT.neg(_T), _ONE], [_ZERO, _ONE]],
    2: [[_ONE, _ZERO], [_T, ZT.neg(_T)]],
    -1: [[ZT.neg(_TI), _TI], [_ZERO, _ONE]],
    -2: [[_ONE, _ZERO], [_ONE, ZT.neg(_TI)]],
}
_PERM = {1: (1, 0, 2), 2: (0, 2, 1), -1: (1, 0, 2), -2: (0, 2, 1)}


def braid_closure_is_knot(word) -> bool:
    p = (0, 1, 2)
    for g in word:
        q = _PERM[g]
        p = tuple(p[q[i]] for i in range(3))
    seen = {0}
    x = p[0]
    while x not in seen:
        seen.add(x)
        x = p[x]
    return len(seen) == 3


def braid_alexander(word):
    add, mul, neg = ZT.add, ZT.mul, ZT.neg
    m = [[_ONE, _ZERO], [_ZERO, _ONE]]
    for g in word:
        s = _BURAU[g]
        m = [[add(mul(row[0], s[0][j]), mul(row[1], s[1][j])) for j in (0, 1)] for row in m]
    # det(I - M) = (1 - m00)(1 - m11) - m01 m10
    det = add(
        mul(add(_ONE, neg(m[0][0])), add(_ONE, neg(m[1][1]))), neg(mul(m[0][1], m[1][0]))
    ).as_dict()
    if not det:
        return ()
    lo = min(det)
    coeffs = [det.get(e, 0) for e in range(lo, max(det) + 1)]
    # divide by 1 + t + t^2 (exactly)
    quot = [0] * (len(coeffs) - 2)
    rem = coeffs[:]
    for i in range(len(rem) - 1, 1, -1):
        c = rem[i]
        quot[i - 2] = c
        rem[i] -= c
        rem[i - 1] -= c
        rem[i - 2] -= c
    if any(rem[:2]):
        return None
    while quot and quot[-1] == 0:
        quot.pop()
    while quot and quot[0] == 0:
        quot.pop(0)
    if not quot:
        return ()
    if quot[0] < 0:
        quot = [-c for c in quot]
    return tuple(quot)


def find_braid_word():
    for word in product([1, -1, 2, -2], repeat=8):
        if not braid_closure_is_knot(word):
            continue
        if braid_alexander(word) == TARGET_ALEXANDER:
            return word
    raise RuntimeError("no braid word with the target Alexander polynomial")


# ---------------------------------------------------------------------------
# Braid closure -> grid
# ---------------------------------------------------------------------------

def braid_to_grid(word, n=3) -> GridDiagram:
    used_y = set()

    def fresh_between(lo, hi):
        y = (lo + hi) / 2
        while y in used_y:
            y = (y + lo) / 2
        used_y.add(y)
        return y

    ys = [Fraction(i) for i in range(n)]
    used_y.update(ys)
    start_y = list(ys)
    verts = []
    runs = []
    run_start = [Fraction(-(p + 1)) for p in range(n)]  # west ends at closure x
    xs = Fraction(1)
    for g in word:
        i = abs(g) - 1
        pos_over = i if g > 0 else i + 1
        y_over, y_stay = ys[pos_over], ys[i + 1 if g > 0 else i]
        if g > 0:
            hi = ys[i + 2] if i + 2 < n else y_stay + 1
            y_new = fresh_between(y_stay, hi)
        else:
            lo = ys[i - 1] if i - 1 >= 0 else y_stay - 1
            y_new = fresh_between(lo, y_stay)
        x = xs
        xs += 1
        runs.append((y_over, run_start[pos_over], x))
        verts.append((x, y_over, y_new))
        ys[pos_over] = y_new
        run_start[pos_over] = x
        if ys[i] > ys[i + 1]:
            ys[i], ys[i + 1] = ys[i + 1], ys[i]
            run_start[i], run_start[i + 1] = run_start[i + 1], run_start[i]
    x_end = xs
    for p in range(n):
        xe = x_end + p
        yb = Fraction(-(p + 1))
        xw = Fraction(-(p + 1))
        runs.append((ys[p], run_start[p], xe))
        verts.append((xe, ys[p], yb))
        runs.append((yb, xw, xe))
        verts.append((xw, yb, start_y[p]))
    rows = sorted(runs, key=lambda r: r[0])
    cols = sorted(verts, key=lambda v: v[0])
    ylist = [r[0] for r in rows]
    xlist = [v[0] for v in cols]
    if len(set(ylist)) != len(ylist) or len(set(xlist)) != len(xlist):
        raise RuntimeError("degenerate rectilinear closure")
    yi = {y: i for i, y in enumerate(ylist)}
    xi = {x: j for j, x in enumerate(xlist)}
    N = len(rows)
    X = [None] * N
    O = [None] * N
    for (x, y1, y2) in cols:
        X[yi[y1]] = xi[x]
        O[yi[y2]] = xi[x]
    return GridDiagram(N, tuple(X), tuple(O))


# ---------------------------------------------------------------------------
# Kauffman bracket transfer over Morse event diagrams
# ---------------------------------------------------------------------------

def _poly_add_into(acc, key, poly):
    acc[key] = ZT.add(acc.get(key, ZT.zero), poly)
    if ZT.is_zero(acc[key]):
        del acc[key]


DELTA = Laurent.from_dict({2: -1, -2: -1})  # -A^2 - A^-2
A_POS = ZT.t_power(1)
A_NEG = ZT.t_power(-1)


def _reindex_birth(match, i):
    out = {}
    for a, b in match.items():
        out[a + 2 if a >= i else a] = b + 2 if b >= i else b
    out[i] = i + 1
    out[i + 1] = i
    return out


def _close_pair(match, i, weight):
    """Join the partners of i and i+1; returns (new match, delta factor)."""
    a, b = match[i], match[i + 1]
    new = {k: v for k, v in match.items() if k not in (i, i + 1)}
    if a == i + 1:
        factor = DELTA
    else:
        new[a] = b
        new[b] = a
        factor = _ONE
    out = {}
    for k, v in new.items():
        out[k - 2 if k > i + 1 else k] = v - 2 if v > i + 1 else v
    return out, ZT.mul(weight, factor)


def _turnback(match, i, weight):
    """West cup joining i, i+1; the pair reopens immediately to the east."""
    a, b = match[i], match[i + 1]
    if a == i + 1:
        return dict(match), ZT.mul(weight, DELTA)
    new = dict(match)
    new[a] = b
    new[b] = a
    new[i] = i + 1
    new[i + 1] = i
    return new, weight


def kauffman_invariant(events) -> tuple:
    """(-A)^(-3w) * bracket for a Morse diagram with explicit over data.

    events: (kind, level) for lcusp/rcusp, (kind, level, over, sign) for
    crossings with over in {"upper", "lower"} and sign the crossing sign.
    Returns a hashable normal form.
    """
    states = {(): _ONE}
    writhe = 0

    def freeze(m):
        return tuple(sorted(m.items()))

    for ev in events:
        kind, level = ev[0], ev[1]
        new_states: dict = {}
        if kind == LCUSP:
            for key, w in states.items():
                m = _reindex_birth(dict(key), level)
                _poly_add_into(new_states, freeze(m), w)
        elif kind == RCUSP:
            for key, w in states.items():
                m, w2 = _close_pair(dict(key), level, w)
                _poly_add_into(new_states, freeze(m), w2)
        else:
            over, sign = ev[2], ev[3]
            writhe += sign
            ca, cb = (A_POS, A_NEG) if over == "lower" else (A_NEG, A_POS)
            for key, w in states.items():
                _poly_add_into(new_states, key, ZT.mul(w, ca))
                m, w2 = _turnback(dict(key), level, ZT.mul(w, cb))
                _poly_add_into(new_states, freeze(m), w2)
        states = new_states
    if set(states) - {()}:
        raise RuntimeError("diagram did not close up in the bracket transfer")
    bracket = states.get((), ZT.zero)
    norm = Laurent(((-3 * writhe, -1 if writhe % 2 else 1),))
    return ZT.mul(bracket, norm).terms


def grid_events_with_signs(grid: GridDiagram):
    front = grid_to_front(grid)
    out = []
    for ev in front.events:
        if ev.kind == CROSS:
            same = front.arc_direction[ev.upper_arc] == front.arc_direction[ev.lower_arc]
            out.append((CROSS, ev.level, "upper", 1 if same else -1))
        else:
            out.append((ev.kind, ev.level))
    return out


def grid_invariant(grid: GridDiagram):
    return kauffman_invariant(grid_events_with_signs(grid))


def braid_events(word, n=3):
    """Flat trace closure of a braid as a Morse event diagram."""
    events = [(LCUSP, i) for i in range(n)]
    # positions p = 0..n-1 live at levels n-1+... after nesting: strand p at
    # level n - 1 + (p + 1) = n + p;   returns occupy levels 0..n-1.
    for g in word:
        i = abs(g) - 1
        level = n + i  # braid position p occupies level n + p
        over = "lower" if g > 0 else "upper"
        # both braid strands head east; with the det(d_over, d_under) sign
        # rule a lower-over crossing of parallel strands is negative
        events.append((CROSS, level, over, -1 if g > 0 else 1))
    events += [(RCUSP, i) for i in range(n - 1, -1, -1)]
    return events


# ---------------------------------------------------------------------------
# Grid moves
# ---------------------------------------------------------------------------

def translate_rows(g: GridDiagram) -> GridDiagram:
    return GridDiagram(g.size, g.X[1:] + g.X[:1], g.O[1:] + g.O[:1])


def translate_cols(g: GridDiagram) -> GridDiagram:
    n = g.size
    return GridDiagram(
        n,
        tuple((x - 1) % n for x in g.X),
        tuple((o - 1) % n for o in g.O),
    )


def _interleaved(a1, b1, a2, b2) -> bool:
    lo1, hi1 = min(a1, b1), max(a1, b1)
    lo2, hi2 = min(a2, b2), max(a2, b2)
    if len({lo1, hi1, lo2, hi2}) < 4:
        return True
    if hi1 < lo2 or hi2 < lo1:
        return False
    if lo1 < lo2 and hi2 < hi1:
        return False
    if lo2 < lo1 and hi1 < hi2:
        return False
    return True


def commute_rows(g: GridDiagram, r: int) -> GridDiagram | None:
    r2 = r + 1
    if r2 >= g.size:
        return None
    if _interleaved(g.X[r], g.O[r], g.X[r2], g.O[r2]):
        return None
    X = list(g.X)
    O = list(g.O)
    X[r], X[r2] = X[r2], X[r]
    O[r], O[r2] = O[r2], O[r]
    return GridDiagram(g.size, tuple(X), tuple(O))


def commute_cols(g: GridDiagram, c: int) -> GridDiagram | None:
    c2 = c + 1
    if c2 >= g.size:
        return None
    rx1, ro1 = g.row_of_x(c), g.row_of_o(c)
    rx2, ro2 = g.row_of_x(c2), g.row_of_o(c2)
    if _interleaved(rx1, ro1, rx2, ro2):
        return None

    def swap(col):
        if col == c:
            return c2
        if col == c2:
            return c
        return col

    return GridDiagram(g.size, tuple(swap(x) for x in g.X), tuple(swap(o) for o in g.O))


def destabilize_candidates(g: GridDiagram):
    """Merges of adjacent row and column pairs holding exactly 3 markers."""
    n = g.size
    markers = {}
    for r in range(n):
        markers[(r, g.X[r])] = "X"
        markers[(r, g.O[r])] = "O"
    for r in range(n - 1):
        for c in range(n - 1):
            block = [
                (rr, cc)
                for rr in (r, r + 1)
                for cc in (c, c + 1)
                if (rr, cc) in markers
            ]
            if len(block) != 3:
                continue
            outside_row = [
                (rr, cc) for (rr, cc) in markers if rr in (r, r + 1) and cc not in (c, c + 1)
            ]
            outside_col = [
                (rr, cc) for (rr, cc) in markers if cc in (c, c + 1) and rr not in (r, r + 1)
            ]
            if len(outside_row) != 1 or len(outside_col) != 1:
                continue
            t_row = markers[outside_row[0]]
            t_col = markers[outside_col[0]]
            if t_row != t_col:
                continue
            merged_type = "X" if t_row == "O" else "O"
            new_n = n - 1

            def shrink_row(rr):
                return rr if rr <= r else rr - 1

            def shrink_col(cc):
                return cc if cc <= c else cc - 1

            new_markers = {}
            ok = True
            for (rr, cc), t in markers.items():
                if (rr, cc) in block:
                    continue
                new_markers[(shrink_row(rr), shrink_col(cc))] = t
            new_markers[(r, c)] = merged_type
            X = [None] * new_n
            O = [None] * new_n
            for (rr, cc), t in new_markers.items():
                arr = X if t == "X" else O
                if arr[rr] is not None:
                    ok = False
                    break
                arr[rr] = cc
            if not ok or any(v is None for v in X) or any(v is None for v in O):
                continue
            try:
                cand = GridDiagram(new_n, tuple(X), tuple(O))
            except Exception:
                continue
            if cand.components() == 1:
                yield cand


def stabilize_candidates(g: GridDiagram, rng: random.Random, tries: int = 6):
    """Random 3-marker splits of one marker; caller validates by bracket."""
    n = g.size
    for _ in range(tries):
        r = rng.randrange(n)
        c = rng.choice([g.X[r], g.O[r]])
        grow_r = rng.randrange(2)
        grow_c = rng.randrange(2)

        def grow_row(rr):
            return rr + 1 if rr > r or (rr == r and grow_r) else rr

        def grow_col(cc):
            return cc + 1 if cc > c or (cc == c and grow_c) else cc

        markers = {}
        for rr in range(n):
            markers[(grow_row(rr), grow_col(g.X[rr]))] = "X"
            markers[(grow_row(rr), grow_col(g.O[rr]))] = "O"
        old_t = markers.pop((grow_row(r), grow_col(c)))
        other = "O" if old_t == "X" else "X"
        corners = [(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)]
        empty = corners[rng.randrange(4)]
        fill = [p for p in corners if p != empty]
        # two cells of old type, one of the other, subject to one-per-line
        for assignment in ([old_t, old_t, other], [old_t, other, old_t], [other, old_t, old_t]):
            trial = dict(markers)
            bad = False
            for p, t in zip(fill, assignment):
                if p in trial:
                    bad = True
                    break
                trial[p] = t
            if bad:
                continue
            X = [None] * (n + 1)
            O = [None] * (n + 1)
            for (rr, cc), t in trial.items():
                arr = X if t == "X" else O
                if arr[rr] is not None:
                    bad = True
                    break
                arr[rr] = cc
            if bad or any(v is None for v in X) or any(v is None for v in O):
                continue
            try:
                cand = GridDiagram(n + 1, tuple(X), tuple(O))
            except Exception:
                continue
            if cand.components() == 1:
                yield cand


def mirror_grid(g: GridDiagram) -> GridDiagram:
    n = g.size
    return GridDiagram(
        n,
        tuple(n - 1 - x for x in g.X),
        tuple(n - 1 - o for o in g.O),
    )


# ---------------------------------------------------------------------------
# Objective and annealing
# ---------------------------------------------------------------------------

def front_stats(g: GridDiagram):
    f = grid_to_front(g)
    return f.tb, f.rotation_number


def polynomial_multiset(grid: GridDiagram):
    front = grid_to_front(grid)
    proj = resolve(front)
    dga = build_dga(proj)
    return [
        poincare(homology_field(linearized_complex(dga, eps))).as_dict()
        for eps in enumerate_augmentations(dga, 2)
    ]


def anneal(grid: GridDiagram, reference, rng: random.Random, max_steps=30000, max_size=16):
    cur = grid
    cur_tb, cur_r = front_stats(cur)
    best = (cur_tb, cur)
    temp0 = 2.5
    for step in range(max_steps):
        temp = temp0 * (1 - step / max_steps) + 0.05
        kind = rng.random()
        cand = None
        if kind < 0.3:
            cand = translate_rows(cur) if rng.random() < 0.5 else translate_cols(cur)
        elif kind < 0.6:
            idx = rng.randrange(cur.size - 1)
            cand = commute_rows(cur, idx) if rng.random() < 0.5 else commute_cols(cur, idx)
        elif kind < 0.9:
            options = list(destabilize_candidates(cur))
            rng.shuffle(options)
            for option in options:
                if grid_invariant(option) == reference:
                    cand = option
                    break
        else:
            if cur.size < max_size:
                for option in stabilize_candidates(cur, rng):
                    if grid_invariant(option) == reference:
                        cand = option
                        break
        if cand is None:
            continue
        cand_tb, cand_r = front_stats(cand)
        delta = (cand_tb - cur_tb) - 0.1 * (cand.size - cur.size)
        if delta >= 0 or rng.random() < pow(2.718, delta / temp):
            cur, cur_tb, cur_r = cand, cand_tb, cand_r
            if cur_tb > best[0]:
                best = (cur_tb, cur)
            if cur_tb == 1 and cur_r == 0:
                return cur, best
    return None, best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="/tmp/m821_candidate.json")
    ap.add_argument("--restarts", type=int, default=40)
    ap.add_argument("--steps", type=int, default=12000)
    ap.add_argument(
        "--install",
        action="store_true",
        help="overwrite fixtures/m821.json and the package data copy",
    )
    args = ap.parse_args()

    word = find_braid_word()
    print(f"braid word: {word}")
    base = braid_to_grid(word)
    print(f"grid size {base.size}, components {base.components()}")

    ref_braid = kauffman_invariant(braid_events(word))
    ref_grid = grid_invariant(base)
    print("bracket(braid) == bracket(grid):", ref_braid == ref_grid)
    if ref_braid != ref_grid:
        raise SystemExit("braid/grid bracket mismatch; construction is broken")

    mirrored = mirror_grid(base)
    ref_mirror = grid_invariant(mirrored)
    candidates = [(base, ref_grid, "plain"), (mirrored, ref_mirror, "mirror")]

    rng = random.Random(args.seed)
    t0 = time.time()
    for attempt in range(args.restarts):
        for start, ref, tag in candidates:
            hit, best = anneal(start, ref, rng, max_steps=args.steps)
            print(
                f"[{time.time() - t0:7.1f}s] attempt {attempt} ({tag}): "
                f"best tb {best[0]}, hit={'yes' if hit else 'no'}"
            )
            if hit is None:
                continue
            if grid_invariant(hit) != ref:
                print("  rejected: bracket drifted")
                continue
            polys = polynomial_multiset(hit)
            print(f"  tb=1 r=0 grid size {hit.size}; polynomials: {polys}")
            # different tb=1, r=0 Legendrian classes of this knot exist; the
            # committed representative is the one with exactly two distinct
            # polynomials {2 + t, t^-1 + 4 + 2t}
            distinct = {tuple(sorted(p.items())) for p in polys}
            if TARGET_POLY in polys:
                out = Path(args.out)
                out.write_text(hit.to_json() + "\n")
                print(f"candidate written to {out} ({len(distinct)} distinct polynomials)")
                print(f"X = {hit.X}\nO = {hit.O}")
                if args.install and len(distinct) == 2:
                    repo = Path(__file__).resolve().parents[1]
                    for dest in (repo / "fixtures/m821.json",
                                 repo / "src/ldga/fixtures/m821.json"):
                        dest.write_text(hit.to_json() + "\n")
                    print("installed as the committed fixture")
                elif args.install:
                    print("not installed: wrong polynomial-multiset profile; rerun")
                    continue
                return 0
            print("  polynomial multiset misses the target; continuing")
    print("no fixture found; try more restarts/steps")
    return 1


if __name__ == "__main__":
    sys.exit(main())
