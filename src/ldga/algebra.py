"""Exact coefficient arithmetic and free noncommutative graded DGAs.

Coefficient rings: ``ZZ``, ``ZT`` = Z[t, t^-1] and small finite fields
``GF(q)``, each one object that copy and pickle keep, so rings compare by
identity.  Algebra elements are finite sums of noncommutative words in named
generators, immutable, kept in a canonical normal form so that equality is a
plain syntactic comparison, and printed in the DSL's term syntax.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property, lru_cache, reduce
from operator import or_

from ._polytext import quote
from ._record import Record, set_field, set_fields
from .errors import CoefficientError, DGAValidationError


# ---------------------------------------------------------------------------
# Coefficient rings
# ---------------------------------------------------------------------------

# Fixed irreducible polynomials (low-degree coefficients first, over F_p)
# realizing GF(p^s).  One fixed choice per (p, s); see docs/fields.md.
_IRREDUCIBLES = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}

_SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


class Ring:
    """Common interface: elements are plain hashable Python values.

    Each subclass implements ``add``, ``neg``, ``mul`` and ``from_int``;
    integers become ring elements only through ``from_int``.
    """

    name = "ring"
    zero: object
    one: object

    def is_zero(self, a) -> bool:
        return a == self.zero

    def __repr__(self):
        return self.name

    def __reduce__(self):  # copy and pickle return the one ZZ or ZT
        return "ZZ" if isinstance(self, IntegerRing) else "ZT"


class IntegerRing(Ring):
    name = "Z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return n


class Laurent(Record, frozen=True):
    """Finitely supported integer map exponent -> coefficient, as sorted pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        set_field(self, "terms", terms)

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "Laurent":
        return Laurent(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def at_minus_one(self) -> int:
        """The integer value at t = -1."""
        return sum(-c if e % 2 else c for e, c in self.terms)

    def __str__(self):
        """Poincare style, as ``t^-1 + 4 + 2t`` or ``3 - 2t^2``; ``_polytext`` reads it back."""
        out = ""
        for e, c in self.terms:
            tpow = "" if e == 0 else "t" if e == 1 else f"t^{e}"
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            out += (str(abs(c)) if abs(c) != 1 or not tpow else "") + tpow
        return out or "0"


class LaurentRing(Ring):
    name = "Z[t]"
    zero = Laurent(())
    one = Laurent(((0, 1),))

    def add(self, a: Laurent, b: Laurent):
        d = a.as_dict()
        for e, c in b.terms:
            d[e] = d.get(e, 0) + c
        return Laurent.from_dict(d)

    def neg(self, a: Laurent):
        return Laurent(tuple((e, -c) for e, c in a.terms))

    def mul(self, a: Laurent, b: Laurent):
        d: dict[int, int] = {}
        for e1, c1 in a.terms:
            for e2, c2 in b.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return Laurent.from_dict(d)

    def from_int(self, n):
        return Laurent.from_dict({0: n})

    def t_power(self, k: int) -> Laurent:
        return Laurent(((k, 1),))


class FiniteField(Ring):
    """GF(p^s) with elements encoded as integers 0..q-1 (base-p digit vectors).

    Supported orders: p in {2,3,5,7,11,13} with s = 1, plus 4, 8, 16 and 9
    through the fixed irreducibles above.  Addition, negation,
    multiplication and inversion are lookups in tables built when the field
    is constructed; the cached :func:`GF` is the only constructor.
    """

    zero = 0
    one = 1

    def __init__(self, q: int):
        p, s = _prime_power(q)
        if p not in _SUPPORTED_PRIMES:
            raise CoefficientError(f"unsupported field characteristic {p}")
        if s > 1 and (p, s) not in _IRREDUCIBLES:
            raise CoefficientError(f"no stored irreducible for GF({q})")
        self.q = q
        self.p = p
        self.s = s
        self.name = f"F{q}"
        self.add_table, self.neg_table, self.mul_table = _field_tables(p, s)
        self.inv_table = (None,) + tuple(row.index(1) for row in self.mul_table[1:])

    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n):
        return n % self.p

    def elements(self) -> range:
        return range(self.q)

    def __reduce__(self):  # copy and pickle return the cached GF(q)
        return GF, (self.q,)


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise CoefficientError(f"field order must be >= 2, got {quote(str(q))}")
    for p in _SUPPORTED_PRIMES + (17, 19, 23):
        if q % p == 0:
            s = 0
            m = q
            while m % p == 0:
                m //= p
                s += 1
            if m != 1:
                raise CoefficientError(f"{quote(str(q))} is not a prime power")
            return p, s
    raise CoefficientError(f"{quote(str(q))} is not a supported prime power")


def _field_tables(p: int, s: int) -> tuple[tuple, tuple, tuple]:
    """The add, neg and mul tables of GF(p^s) on the codes 0..p^s - 1.

    Code a is the polynomial whose coefficient of x^i is the i-th base-p digit
    of a, so add and neg work digitwise.  Row a of mul takes b to the sum of
    b_i * (a x^i) over the digits b_i of b: it grows one digit at a time, each
    block adding a x^i to the one before.  a -> a x shifts the digits up and
    folds x^s through the stored irreducible.
    """
    q = p**s
    weights = [p**i for i in range(s)]
    digits = [[a // w % p for w in weights] for a in range(q)]
    irz = _IRREDUCIBLES.get((p, s), ())  # none for a prime field, where x is not needed

    def code(ds) -> int:
        return sum(d % p * w for d, w in zip(ds, weights))

    add = tuple(tuple(code(map(int.__add__, da, db)) for db in digits) for da in digits)
    neg = tuple(code(-d for d in da) for da in digits)
    times_x = [code([lo - d[-1] * f for lo, f in zip([0] + d[:-1], irz)]) for d in digits]
    mul = []
    for a in range(q):
        row, shift = [0], a  # row: a*b for b < w; shift: a x^i, where w = p^i
        for w in weights:
            for _ in range(1, p):
                row += [add[c][shift] for c in row[-w:]]
            shift = times_x[shift]
        mul.append(tuple(row))
    return add, neg, tuple(mul)


ZZ = IntegerRing()
ZT = LaurentRing()


@lru_cache(maxsize=None)
def GF(q: int) -> FiniteField:
    return FiniteField(q)


# ---------------------------------------------------------------------------
# Words and elements of the free algebra
# ---------------------------------------------------------------------------

Word = tuple[str, ...]  # ordered generator names; () is the unit


class Element(Record, frozen=True):
    """Normal-form sum of words: mapping word -> nonzero coefficient.

    Coefficients are elements of ``ring`` and are stored as given.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: tuple[tuple[Word, object], ...]):
        set_field(self, "ring", ring)
        set_field(self, "terms", terms)

    @staticmethod
    def build(ring: Ring, data: Mapping[Word, object]) -> "Element":
        clean = {}
        for w, c in data.items():
            if not ring.is_zero(c):
                clean[tuple(w)] = c
        return Element(ring, tuple(sorted(clean.items(), key=lambda kv: kv[0])))

    @staticmethod
    def sum(ring: Ring, pairs: Iterable[tuple[Word, object]]) -> "Element":
        """Normal form of a sum of (word, coefficient) pairs.

        Equal words are summed with ``ring.add``, then ``build`` drops zeros
        and sorts.
        """
        acc: dict[Word, object] = {}
        add = ring.add
        for w, c in pairs:
            acc[w] = add(acc[w], c) if w in acc else c
        return Element.build(ring, acc)

    @staticmethod
    def zero(ring: Ring) -> "Element":
        return Element(ring, ())

    @staticmethod
    def unit(ring: Ring, coeff=None) -> "Element":
        return Element.build(ring, {(): ring.one if coeff is None else coeff})

    @staticmethod
    def generator(ring: Ring, name: str, coeff=None) -> "Element":
        return Element.build(ring, {(name,): ring.one if coeff is None else coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        # in normal form the empty word sorts first
        if self.terms and not self.terms[0][0]:
            return self.terms[0][1]
        return self.ring.zero

    def add(self, other: "Element") -> "Element":
        _check_rings(self, other)
        return Element.sum(self.ring, self.terms + other.terms)

    def __str__(self):
        """DSL term syntax, as ``t^-1*a - 2*t*b``; ``cedga.load_dsl`` reads it back."""
        out = ""
        for w, c in self.terms:
            for e, n in c.terms if isinstance(c, Laurent) else ((0, c),):  # a term per t^e
                factors = [*([] if e == 0 else ["t" if e == 1 else f"t^{e}"]), *w]
                if out:
                    out += " - " if n < 0 else " + "
                elif n < 0:
                    out = "-"
                out += "*".join(factors if abs(n) == 1 and factors else [str(abs(n)), *factors])
        return out or "0"


def gf2_masks(terms: Iterable[tuple[Word, object]], bits: Mapping[str, int]) -> list[int]:
    """The monomials that GF(2) terms sum over, each as the OR of its letters' bits.

    x^2 = x on GF(2), so a word is 1 at a point exactly when each of its
    letters is, whatever their order or repeats.  Terms with coefficient 0
    drop out, and so do two terms with one mask.
    """
    odd: set[int] = set()
    for word, coeff in terms:
        if coeff:
            odd ^= {reduce(or_, map(bits.__getitem__, word), 0)}
    return sorted(odd)


def _check_rings(x: Element, y: Element):
    if x.ring is not y.ring:
        raise CoefficientError(f"mixing coefficients {x.ring} and {y.ring}")


def multiply(x: Element, y: Element) -> Element:
    """Noncommutative product, unit = empty word."""
    _check_rings(x, y)
    mul = x.ring.mul
    return Element.sum(
        x.ring,
        ((w1 + w2, mul(c1, c2)) for w1, c1 in x.terms for w2, c2 in y.terms),
    )


# ---------------------------------------------------------------------------
# DGAs
# ---------------------------------------------------------------------------

class Generator(Record, frozen=True):
    __slots__ = ("name", "degree")

    def __init__(self, name: str, degree: int):
        set_fields(self, name, degree)


class DGA(Record, frozen=True):
    """Free noncommutative unital graded algebra with a differential.

    The differential is recorded on generators and extended by linearity and
    the graded Leibniz rule d(vw) = (dv)w + (-1)^|v| v(dw).
    """

    __slots__ = ("ring", "generators", "differential", "__dict__")  # __dict__: the caches

    def __init__(self, ring: Ring, generators: tuple[Generator, ...],
                 differential: Mapping[str, Element] | None = None):
        differential = {} if differential is None else differential
        names = {g.name for g in generators}
        if len(names) != len(generators):
            raise ValueError(f"duplicate generator names in {[g.name for g in generators]}")
        unknown = differential.keys() - names
        if unknown:
            raise ValueError(f"differential of unknown generators {sorted(unknown)}")
        set_field(self, "ring", ring)
        set_field(self, "generators", generators)
        set_field(self, "differential", {k: v for k, v in differential.items() if v.terms})

    @cached_property
    def degrees(self) -> dict[str, int]:
        """Name -> degree, built once per DGA (callers must not mutate it)."""
        return {g.name: g.degree for g in self.generators}

    @cached_property
    def layout(self) -> tuple[dict[int, tuple[str, ...]], dict[int, dict[str, int]]]:
        """(bases, positions), built once per DGA (callers must not mutate it).

        ``bases[d]`` is the degree-d basis sorted by name and ``positions[d]``
        maps each name of degree d to its index there.
        """
        by_degree: dict[int, list[str]] = {}
        for g in self.generators:
            by_degree.setdefault(g.degree, []).append(g.name)
        bases = {d: tuple(sorted(by_degree[d])) for d in sorted(by_degree)}
        positions = {d: {name: i for i, name in enumerate(b)} for d, b in bases.items()}
        return bases, positions

    def with_differential(self, differential: Mapping[str, Element]) -> DGA:
        """The same generators with another differential.

        The result shares this DGA's ``degrees`` and ``layout``, which
        depend on the generators alone; every other cache is its own.
        """
        out = DGA(self.ring, self.generators, differential)
        # cached_property reads the instance dict first: seed the two shared caches
        out.__dict__.update(degrees=self.degrees, layout=self.layout)
        return out

    @cached_property
    def field_copies(self) -> dict[int, DGA]:
        """q -> this DGA over GF(q), filled by ``augment`` on first use."""
        return {}

    @cached_property
    def conjugation_plans(self) -> dict:
        """Support -> ``augment``'s conjugation plan over this field DGA, filled on first use."""
        return {}

    @cached_property
    def _zero(self) -> Element:
        return Element.zero(self.ring)

    @cached_property
    def augmentation_system(self) -> list[list[tuple[Word, object]]]:
        """The degree-0 monomials of each nonzero d(g), in generator order.

        eps(d g) = 0 are the equations of an augmentation; built once per
        DGA and shared by ``augment``'s solver, its recheck and ``conjugate``.
        """
        system = []
        for g in self.generators:
            terms = self.degree_zero_monomials(self.diff_of(g.name))
            if terms:
                system.append(terms)
        return system

    @cached_property
    def augmentation_masks(self) -> tuple[dict[str, int], list[list[int]]]:
        """``augmentation_system`` over GF(2) as monomial bit masks: (bits, equations).

        ``bits[name]`` is 1 << i for the i-th degree-0 generator by name, and
        each equation is ``gf2_masks`` of its terms.  Built once per DGA for
        ``augment``'s recheck.
        """
        bits = {name: 1 << i for i, name in enumerate(sorted(self.generators_of_degree(0)))}
        return bits, [gf2_masks(eq, bits) for eq in self.augmentation_system]

    @cached_property
    def suffix_dag(self) -> tuple[list[tuple[object, tuple[tuple[str, int], ...]]], dict[str, int]]:
        """Every nonzero d(g) as one hash-consed suffix DAG: (nodes, roots).

        The trie of d(g)'s words is interned bottom-up by (coefficient of the
        word ending at a node, sorted (letter, child id) pairs) into one node
        table, children first; ``roots[name]`` is d(name)'s root.  Built once
        per DGA for ``augment.conjugate``; ``with_differential`` shares none.
        """
        zero, ids, roots = self.ring.zero, {}, {}
        for name, dg in self.differential.items():
            trie = [zero, {}]
            for word, coeff in dg.terms:
                node = trie
                for letter in word:
                    node = node[1].setdefault(letter, [zero, {}])
                node[0] = coeff
            order, stack = [], [trie]
            while stack:  # a parent is listed before its children
                order.append(node := stack.pop())
                stack.extend(node[1].values())
            for node in reversed(order):
                key = (node[0], tuple(sorted((g, child[2]) for g, child in node[1].items())))
                node.append(ids.setdefault(key, len(ids)))
            roots[name] = trie[2]
        return list(ids), roots

    def generators_of_degree(self, d: int) -> list[str]:
        return [g.name for g in self.generators if g.degree == d]

    def degree_zero_monomials(self, el: Element) -> list[tuple[Word, object]]:
        """The terms of el that eps can see: monomials in degree-0 generators."""
        degs = self.degrees
        return [(w, c) for w, c in el.terms if all(degs[g] == 0 for g in w)]

    def diff_of(self, name: str) -> Element:
        dg = self.differential.get(name)
        if dg is not None:
            return dg
        if name not in self.degrees:
            raise KeyError(f"unknown generator {name!r}")
        return self._zero

    def word_degree(self, w: Word) -> int:
        degs = self.degrees
        try:
            return sum(degs[g] for g in w)
        except KeyError as exc:
            raise KeyError(f"unknown generator {exc.args[0]!r} in word {w}") from exc


def _leibniz(
    dga: DGA, terms: Iterable[tuple[Word, object]], word_degrees: list[int] | None = None
) -> dict[Word, object]:
    """d of a sum of terms by linearity and Leibniz, as word -> coefficient.

    Like words are added in the ring: through a finite field's
    ``add_table``/``mul_table``/``neg_table``, through ``add``/``mul``/``neg``
    for Z and Z[t].  Zero sums are kept.  A term none of whose letters has a
    differential contributes nothing and is skipped whole.  Given a list
    ``word_degrees``, the walk appends each term's word degree to it, in
    order: the sign bookkeeping sums it for the terms it walks anyway.
    """
    ring = dga.ring
    tables = isinstance(ring, FiniteField)
    if tables:
        add_t, mul_t, neg = ring.add_table, ring.mul_table, ring.neg_table.__getitem__
    else:
        add, mul, neg = ring.add, ring.mul, ring.neg
    degs = dga.degrees
    diff = dga.differential
    has_diff = diff.keys()
    acc: dict[Word, object] = {}
    for w, c in terms:
        if has_diff.isdisjoint(w):
            if word_degrees is not None:
                word_degrees.append(sum(map(degs.__getitem__, w)))
            continue
        prefix_deg = 0
        for i, g in enumerate(w):
            dg = diff.get(g)
            if dg is not None:
                head, tail = w[:i], w[i + 1 :]
                signed = neg(c) if prefix_deg % 2 else c
                if tables:
                    times = mul_t[signed]
                    for wg, cg in dg.terms:
                        key = head + wg + tail
                        coeff = times[cg]
                        acc[key] = add_t[acc[key]][coeff] if key in acc else coeff
                else:
                    for wg, cg in dg.terms:
                        key = head + wg + tail
                        coeff = mul(signed, cg)
                        acc[key] = add(acc[key], coeff) if key in acc else coeff
            prefix_deg += degs[g]
        if word_degrees is not None:
            word_degrees.append(prefix_deg)
    return acc


def apply_differential(dga: DGA, x: Element) -> Element:
    """Extend the generator differential to x by linearity and Leibniz."""
    degs = dga.degrees
    for w, _ in x.terms:
        for g in w:
            if g not in degs:
                raise KeyError(f"unknown generator {g!r}")
    return Element.build(dga.ring, _leibniz(dga, x.terms))


def validate(dga: DGA) -> list[str]:
    """The violations of degree purity in every d(g), and of d(d(g)) = 0.

    One line per violation, empty for a valid DGA; ``check`` raises them.
    One ``_leibniz`` walk per d(g) gives both: the degree of every term,
    and d(d(g)) summed in a plain dict (on a finite field's tables), tested
    for zero there.  ``apply_differential`` builds an ``Element`` only to
    print a violation.  A conjugated DGA shares its degree table with the
    DGA it came from.
    """
    violations = []
    is_zero = dga.ring.is_zero
    for g in dga.generators:
        dg = dga.differential.get(g.name)
        if dg is None:
            continue
        target = g.degree - 1
        word_degrees: list[int] = []
        try:
            dd = _leibniz(dga, dg.terms, word_degrees)
        except KeyError:
            for w, _ in dg.terms:
                dga.word_degree(w)  # raises, naming the letter and its word
            raise
        if word_degrees.count(target) != len(word_degrees):
            for (w, _), wd in zip(dg.terms, word_degrees):
                if wd != target:
                    violations.append(
                        f"d({g.name}) term {'*'.join(w) or '1'} has degree {wd}, "
                        f"expected {target}"
                    )
        if not all(map(is_zero, dd.values())):
            violations.append(f"d(d({g.name})) = {apply_differential(dga, dg)} != 0")
    return violations


def check(dga: DGA, error: type[Exception] = DGAValidationError,
          what: str = "DGA fails validation") -> DGA:
    """The DGA itself, or error naming what failed and each of ``validate``'s lines."""
    if violations := validate(dga):
        raise error(f"{what}: invalid:\n" + "\n".join(f"  - {v}" for v in violations))
    return dga


# ---------------------------------------------------------------------------
# Coefficient changes
# ---------------------------------------------------------------------------

def reduce_scalar(ring_from: Ring, ring_to: Ring, value):
    """Map a scalar into ring_to; t goes to -1 when leaving Z[t, t^-1]."""
    if ring_from is ring_to:
        return value
    if ring_from is ZZ:
        return ring_to.from_int(value)
    if ring_from is ZT:
        return ring_to.from_int(value.at_minus_one())
    if isinstance(ring_from, FiniteField) and isinstance(ring_to, FiniteField):
        if ring_from.q == ring_to.p:
            return value  # the codes 0..p-1 encode the prime subfield
    raise CoefficientError(f"no coefficient map {ring_from} -> {ring_to}")


def change_coefficients(dga: DGA, ring_to: Ring) -> DGA:
    """Push a DGA into another coefficient ring (t specializes to -1)."""
    diff = {
        name: Element.sum(
            ring_to, ((w, reduce_scalar(dga.ring, ring_to, c)) for w, c in el.terms)
        )
        for name, el in dga.differential.items()
    }
    return DGA(ring_to, dga.generators, diff)
