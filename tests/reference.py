"""Reference helpers that only the tests use.

Each is an independent, plainly written check on the library's answers:
an exact determinant for the SNF certificates, entrywise reduction of an
integral complex into GF(q), powers in GF(q), and an augmentation applied
to one element of a field DGA.
"""

from collections import defaultdict

from ldga.algebra import DGA, GF, DGAValidationError, Element, FiniteField, IntegerRing
from ldga.augment import Augmentation, _eval_terms, _validated
from ldga.linhom import LinearizedComplex, Matrix


def integer_determinant(a: Matrix) -> int:
    """Fraction-free (Bareiss) determinant; exact for integer matrices."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(m: Matrix) -> bool:
    return abs(integer_determinant(m)) == 1


def reduce_complex_mod_p(cx: LinearizedComplex, q: int) -> LinearizedComplex:
    """Reduce an integral complex into GF(q) entrywise."""
    ring = GF(q)
    if not isinstance(cx.ring, IntegerRing):
        raise ValueError("expected an integral complex")
    mats = {
        d: [[ring.from_int(x) for x in row] for row in m]
        for d, m in cx.matrices.items()
    }
    return LinearizedComplex(ring, dict(cx.bases), mats)


def field_pow(f: FiniteField, a, k: int):
    """a^k in f by repeated squaring."""
    out, base = 1, a
    while k:
        if k & 1:
            out = f.mul(out, base)
        base = f.mul(base, base)
        k >>= 1
    return out


def evaluate(eps: Augmentation, dga: DGA, el: Element) -> int:
    """Apply the augmentation to an element of a field DGA."""
    values = defaultdict(int, eps.values)
    return _eval_terms(eps.field, dga.degree_zero_monomials(el), values)


def conjugate_by_walk(fdga: DGA, eps: Augmentation) -> DGA:
    """The conjugate by a valid eps: node values as dicts, then ``validate``."""
    ring = eps.field
    add, mul = ring.add_table, ring.mul_table
    shift = {name: mul[v] for name, v in eps.values if v}  # is_valid vetted the names
    nodes, roots = fdga.suffix_dag
    values: list[dict] = []
    for const, children in nodes:
        acc = {(): const} if const else {}  # then distinct first letters: no collisions
        acc.update({(g,) + w: c for g, child in children for w, c in values[child].items()})
        for g, child in children:
            if (times_v := shift.get(g)) is not None:
                for w, c in values[child].items():
                    acc[w] = s = add[acc[w]][times_v[c]] if w in acc else times_v[c]
                    if not s:
                        del acc[w]
        values.append(acc)
    diff = {}
    for name, root in roots.items():
        if () in values[root]:
            raise DGAValidationError("conjugation left a constant term")
        diff[name] = Element(ring, tuple(sorted(values[root].items())))
    return _validated(fdga.with_differential(diff))
