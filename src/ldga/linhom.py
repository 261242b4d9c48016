"""Linearized complexes and their homology over finite fields and over Z.

Matrices are lists of rows with exact entries (Python ints; finite-field
entries use the table arithmetic from :mod:`ldga.algebra`).  Integer homology
goes through a sparse Smith normal form, once per stored matrix (spun
homology comes from :mod:`ldga.spin`, not a spun complex).  It returns explicit
unimodular transforms U and V, so that U*A*V = D is re-verified by the test
suite; it is not re-verified at run time.  Homology over GF(p) of an
integral complex follows from its integral homology by universal
coefficients (``homology_mod_p``), with no second elimination.

Graded modules are the one record for homology: a Poincare polynomial is
the ``algebra.Laurent`` of a field module's dimensions, and a filling
profile (``obstruct.seidel_profile``) is a homological module.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress

from ._record import Record, set_field
from .algebra import GF, ZZ, FiniteField, Laurent, Ring
from .errors import DGAValidationError

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# Plain matrix helpers
# ---------------------------------------------------------------------------

def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix, gf: FiniteField | None = None) -> Matrix:
    """Product of integer matrices, or of GF(q) matrices when a field is given."""
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    n, k, m = len(a), len(b), len(b[0])
    out = zero_matrix(n, m)
    for i in range(n):
        for s in range(k):
            x = a[i][s]
            if x:
                row_b = b[s]
                row = out[i]
                if gf is None:
                    for j in range(m):
                        row[j] += x * row_b[j]
                else:
                    add, mul_x = gf.add_table, gf.mul_table[x]
                    for j in range(m):
                        row[j] = add[row[j]][mul_x[row_b[j]]]
    return out


def mat_shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

class SmithForm(Record):
    __slots__ = ("d", "u", "v", "diagonal")

    def __init__(self, d: Matrix, u: Matrix, v: Matrix, diagonal: list[int]):
        self.d = d
        self.u = u  # rows transform
        self.v = v  # columns transform
        self.diagonal = diagonal

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(a: Matrix) -> SmithForm:
    """Diagonalize an integer matrix: U*A*V = D with U, V unimodular.

    Works on sparse rows: each row of D is a dict col -> value, ``at`` maps
    a column to the rows with a nonzero there, U is kept as sparse rows and
    V as sparse columns (the rows of V^T).  Pivot = an entry of least
    nonzero absolute value, scanning the unfinished rows in index order and
    stopping at 1.  Each step clears the pivot column by euclidean row
    operations, then the pivot row; the column is clear by then, so a
    column operation touches only the pivot row and V^T.  A nonzero
    remainder is strictly smaller than the pivot and forces a rescan, which
    gives termination.  A pivot is final once its row and column are clear
    and it divides every unfinished row, which gives the divisibility chain
    d1 | d2 | ... in one pass; a row it does not divide is added into the
    pivot row, whose clearing then leaves a smaller remainder.  D, U and V
    are built dense once at the end, with pivot t moved to (t, t) and the
    diagonal made nonnegative.
    """
    rows, cols = mat_shape(a)
    d = [{j: row[j] for j in compress(range(cols), row)} for row in a]
    at: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(d):
        for j in row:
            at[j].add(i)
    u = [{i: 1} for i in range(rows)]
    vt = [{j: 1} for j in range(cols)]

    def axpy(dst: dict[int, int], src: dict[int, int], mult: int) -> None:
        for k, y in src.items():
            x = dst.get(k, 0) + mult * y
            if x:
                dst[k] = x
            else:
                del dst[k]

    def add_row(src: int, dst: int, mult: int) -> None:
        row = d[dst]
        for j, y in d[src].items():
            x = row.get(j)
            if x is None:
                row[j] = mult * y
                at[j].add(dst)
            else:
                x += mult * y
                if x:
                    row[j] = x
                else:
                    del row[j]
                    at[j].discard(dst)
        axpy(u[dst], u[src], mult)

    def clear_row(r: int, c: int, p: int) -> bool:
        """Column operations against the cleared pivot column c; True on a remainder."""
        prow = d[r]
        remainder = False
        for j in [j for j in prow if j != c]:
            q, x = divmod(prow[j], p)
            if x:
                prow[j] = x
                remainder = True
            else:
                del prow[j]
                at[j].discard(r)
            if q:
                axpy(vt[j], vt[c], -q)
        return remainder

    live = [i for i in range(rows) if d[i]]  # unfinished nonzero rows, in index order
    pivots: list[tuple[int, int]] = []
    while True:
        pivot = None
        best = 0
        for i in live:
            for j, x in d[i].items():
                if x == 1 or x == -1:
                    pivot, best = (i, j), 1
                    break
                if not best or abs(x) < best:
                    pivot, best = (i, j), abs(x)
            if best == 1:
                break
        if pivot is None:
            break
        r, c = pivot
        p = d[r][c]

        remainder = False
        for i in [i for i in at[c] if i != r]:
            add_row(r, i, -(d[i][c] // p))
            if c in d[i]:
                remainder = True
            elif not d[i]:
                live.remove(i)
        if remainder or clear_row(r, c, p):
            continue

        if best != 1:
            bad = next((i for i in live if i != r and any(x % p for x in d[i].values())), None)
            if bad is not None:
                add_row(bad, r, 1)
                clear_row(r, c, p)
                continue
        live.remove(r)
        pivots.append((r, c))

    pivot_rows = [r for r, _ in pivots]
    pivot_cols = [c for _, c in pivots]
    row_order = pivot_rows + sorted(set(range(rows)).difference(pivot_rows))
    col_order = pivot_cols + sorted(set(range(cols)).difference(pivot_cols))
    signs = [1 if d[r][c] > 0 else -1 for r, c in pivots]
    diag = [abs(d[r][c]) for r, c in pivots] + [0] * (min(rows, cols) - len(pivots))
    dd = zero_matrix(rows, cols)
    for t, x in enumerate(diag):
        dd[t][t] = x
    uu = zero_matrix(rows, rows)
    for t, r in enumerate(row_order):
        sign = signs[t] if t < len(signs) else 1
        for k, x in u[r].items():
            uu[t][k] = sign * x
    vv = zero_matrix(cols, cols)
    for t, c in enumerate(col_order):
        for k, x in vt[c].items():
            vv[k][t] = x
    return SmithForm(dd, uu, vv, diag)


# ---------------------------------------------------------------------------
# Field elimination
# ---------------------------------------------------------------------------

def field_rank(ring: FiniteField, a: Matrix) -> int:
    """Rank over GF(q): XOR elimination on bitset rows for q = 2, else
    row reduction to echelon form through the field's tables."""
    if ring is GF(2):
        pivots: dict[int, int] = {}  # lowest set bit -> reduced row
        for row in a:
            bits = sum(1 << j for j, x in enumerate(row) if x)
            while bits:
                low = bits & -bits
                pivot = pivots.get(low)
                if pivot is None:
                    pivots[low] = bits
                    break
                bits ^= pivot
        return len(pivots)
    add, neg, mul, inv = ring.add_table, ring.neg_table, ring.mul_table, ring.inv_table
    rows, cols = mat_shape(a)
    m = [row[:] for row in a]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        scale = mul[inv[m[rank][col]]]
        prow = [scale[x] for x in m[rank]]
        for i in range(rank + 1, rows):
            f = m[i][col]
            if f:
                minus_f = mul[neg[f]]
                m[i] = [add[x][minus_f[y]] for x, y in zip(m[i], prow)]
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Complexes and graded modules
# ---------------------------------------------------------------------------

HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"


class LinearizedComplex(Record, frozen=True):
    """Per-degree bases with the degree-lowering differential d -> d-1.

    ``matrices[d]`` maps basis(d) to basis(d-1): shape (len(basis(d-1)),
    len(basis(d))), columns indexed by degree-d generators.  No code writes
    into a stored matrix (elimination works on copies).
    """

    __slots__ = ("ring", "bases", "matrices")

    def __init__(self, ring: Ring, bases: Mapping[int, tuple[str, ...]],
                 matrices: Mapping[int, Matrix]):
        bases, matrices = dict(bases), dict(matrices)
        for d, m in matrices.items():
            want = (len(bases.get(d - 1, ())), len(bases.get(d, ())))
            if mat_shape(m) != want:
                raise ValueError(f"matrix at degree {d} has shape {mat_shape(m)}, expected {want}")
        set_field(self, "ring", ring)
        set_field(self, "bases", bases)
        set_field(self, "matrices", matrices)

    def degrees(self) -> list[int]:
        return sorted(self.bases)

    def dim(self, d: int) -> int:
        return len(self.bases.get(d, ()))

    def check_composition(self):
        """Consecutive stored matrices must compose to zero; a missing one is zero."""
        gf = self.ring if isinstance(self.ring, FiniteField) else None
        for d, m1 in self.matrices.items():  # C_d -> C_{d-1}
            m2 = self.matrices.get(d + 1)     # C_{d+1} -> C_d
            if m2 is not None and any(x for row in mat_mul(m1, m2, gf) for x in row):
                raise DGAValidationError(f"differential does not square to zero at degree {d}")


class GradedModule(Record, frozen=True):
    """Per-degree free rank and torsion orders, with a variance tag.

    ``ring_tag`` is "Z" or "F<q>", ``variance`` HOMOLOGICAL or COHOMOLOGICAL.
    """

    __slots__ = ("ring_tag", "variance", "entries")

    def __init__(self, ring_tag: str, variance: str,
                 entries: Mapping[int, tuple[int, tuple[int, ...]]] | None = None):
        items = dict(entries or ()).items()
        clean = {d: (free, tuple(tor)) for d, (free, tor) in items if free or tor}
        set_field(self, "ring_tag", ring_tag)
        set_field(self, "variance", variance)
        set_field(self, "entries", clean)

    @property
    def is_field(self) -> bool:
        return self.ring_tag != "Z"

    def free_rank(self, d: int) -> int:
        return self.entries.get(d, (0, ()))[0]

    def torsion(self, d: int) -> tuple[int, ...]:
        return self.entries.get(d, (0, ()))[1]

    def dims(self) -> dict[int, int]:
        if not self.is_field:
            raise ValueError("dims() requires field coefficients")
        return {d: free for d, (free, _) in sorted(self.entries.items())}

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def describe(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for d in self.degrees():
            free, tor = self.entries[d]
            if self.is_field:
                parts.append(f"H_{d} = {self.ring_tag}^{free}")
            else:
                pieces = [f"Z^{free}"] if free else []
                pieces += [f"Z/{k}" for k in tor]
                parts.append(f"H_{d} = " + (" + ".join(pieces) or "0"))
        return ", ".join(parts)


def module_to_jsonable(h: GradedModule):
    return {
        "ring": h.ring_tag,
        "variance": h.variance,
        "entries": {str(d): [f, list(t)] for d, (f, t) in sorted(h.entries.items())},
    }


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

def _homology(cx: LinearizedComplex, rank_and_torsion) -> GradedModule:
    """H_d has free rank dim C_d - rank(d: d -> d-1) - rank(d: d+1 -> d) and
    the torsion orders of d: d+1 -> d, as rank_and_torsion reads them off
    each stored matrix once."""
    cx.check_composition()
    boundaries = {d: rank_and_torsion(m) for d, m in cx.matrices.items()}
    entries = {}
    for d in cx.degrees():
        r_in, torsion = boundaries.get(d + 1, (0, ()))
        entries[d] = (cx.dim(d) - boundaries.get(d, (0, ()))[0] - r_in, torsion)
    return GradedModule(cx.ring.name, HOMOLOGICAL, entries)


def homology_field(cx: LinearizedComplex) -> GradedModule:
    """Homology over GF(q): ranks by ``field_rank``, no torsion."""
    ring = cx.ring
    if not isinstance(ring, FiniteField):
        raise ValueError("homology_field needs finite-field coefficients")
    return _homology(cx, lambda m: (field_rank(ring, m), ()))


def homology_integral(cx: LinearizedComplex) -> GradedModule:
    """Smith normal form homology: free ranks and torsion per degree."""
    if cx.ring is not ZZ:
        raise ValueError("homology_integral needs integer coefficients")

    def rank_and_torsion(m: Matrix) -> tuple[int, tuple[int, ...]]:
        snf = smith_normal_form(m)
        return snf.rank, tuple(x for x in snf.diagonal if x > 1)

    return _homology(cx, rank_and_torsion)


def uct_dualize(h: GradedModule) -> GradedModule:
    """Universal coefficients: H^d free = H_d free, H^d torsion = H_{d-1} torsion."""
    if h.is_field:
        raise ValueError("uct_dualize expects an integral homology module")
    if h.variance != HOMOLOGICAL:
        raise ValueError("uct_dualize expects homological input")
    entries: dict[int, tuple[int, tuple[int, ...]]] = {}
    degrees = set(h.degrees()) | {d + 1 for d in h.degrees()}
    for d in sorted(degrees):
        free = h.free_rank(d)
        tor = h.torsion(d - 1)
        if free or tor:
            entries[d] = (free, tor)
    return GradedModule("Z", COHOMOLOGICAL, entries)


def homology_mod_p(h: GradedModule, p: int) -> GradedModule:
    """H(C; F_p) of a free complex C from its integral homology H(C; Z).

    Universal coefficients: dim H_d(C; F_p) = free rank of H_d + the number
    of torsion orders of H_d divisible by p + the number of those of
    H_{d-1} (the Tor term).  ``p`` must be prime.
    """
    if h.is_field or h.variance != HOMOLOGICAL:
        raise ValueError("homology_mod_p expects an integral homology module")
    if GF(p).s != 1:
        raise ValueError(f"homology_mod_p needs a prime, got {p}")

    def divisible(torsion: tuple[int, ...]) -> int:
        return sum(1 for k in torsion if k % p == 0)

    entries = {}
    for d in sorted(set(h.degrees()) | {d + 1 for d in h.degrees()}):
        dim = h.free_rank(d) + divisible(h.torsion(d)) + divisible(h.torsion(d - 1))
        if dim:
            entries[d] = (dim, ())
    return GradedModule(f"F{p}", HOMOLOGICAL, entries)


def as_cohomological(h: GradedModule) -> GradedModule:
    """Over a field the dual complex has the same dimensions degreewise."""
    if not h.is_field:
        raise ValueError("field modules only; integral modules go through uct_dualize")
    return GradedModule(h.ring_tag, COHOMOLOGICAL, dict(h.entries))


def poincare(h: GradedModule) -> Laurent:
    """Sum of dim H^d t^d (cohomological convention), in Z[t, t^-1]."""
    if not h.is_field:
        raise ValueError("Poincare polynomials need field coefficients")
    return Laurent.from_dict(h.dims())
