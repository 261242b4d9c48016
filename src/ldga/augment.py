"""Graded augmentations over finite fields and augmentation-variety counts.

An augmentation assigns field values to the degree-0 generators (t, when
present, is pinned to -1) so that eps(d g) = 0 for every generator; a value
on any other name is an error.  The equations are one list per field DGA,
``DGA.augmentation_system``, shared by the solver and the recheck of every
solution, ``Augmentation.is_valid``.  ``conjugate`` checks only eps's
names first: g's conjugate has constant term eps(d g), so a nonzero one
is the check, and ``is_valid`` then says whose fault it is.  Over
GF(2), where x^2 = x, a monomial is the bit mask of its letters
(``gf2_masks``), and an equation's value at a point is the parity of its
masks whose letters are all 1: the solver files each equation in this
form, and the recheck reads the DGA's cached ``augmentation_masks``.
``conjugate`` evaluates ``DGA.suffix_dag``, the field DGA's differentials
as one hash-consed DAG of shared suffixes, once per augmentation, so a
suffix common to many words is expanded once.  The conjugated DGA shares
the field DGA's degrees and layout.  Over GF(q), q > 2, the augmentations
with one support (where eps != 0) give the same words with other
coefficients, so the walk and validate's degree and d^2 = 0 checks are
compiled once per support (at most one plan per subset of the degree-0
generators, kept on the field DGA); the compiled check is exact on every
term.  Over GF(2) ``validate`` checks the walk, whose node values are word
sets; the tests check every plan against an any-field walk.  The one
solver, ``_backtrack``, takes the generators in one fixed order and files
each equation under the last of its generators there, where the equation
either solves that generator, when linear in it, or is evaluated (over
GF(2) every equation is linear in it); one iterator per depth replaces
recursion.  The tests check it against a plain scan of every assignment.
Variety point counts of polynomial systems go through the same solver.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Sequence
from functools import reduce
from operator import or_

from ._polytext import parse_poly, quote, tokenize
from ._record import Record, set_field, set_fields
from .algebra import (
    DGA,
    DGAValidationError,
    Element,
    FiniteField,
    GF,
    change_coefficients,
    gf2_masks,
    validate,
)
from .errors import AugmentationError
from .linhom import LinearizedComplex


class Augmentation(Record, frozen=True):
    """Values on degree-0 generators; everything else is sent to zero.

    ``values`` are sorted by generator name.  t, when the DGA has it, is -1
    in the field for every augmentation, so no augmentation stores it.
    """

    __slots__ = ("field", "values")

    def __init__(self, field: FiniteField, values: tuple[tuple[str, int], ...]):
        set_field(self, "field", field)
        set_field(self, "values", values)

    @staticmethod
    def build(field: FiniteField, values: dict[str, int]):
        return Augmentation(field, tuple(sorted((k, v) for k, v in values.items() if v)))

    def is_valid(self, dga: DGA) -> bool:
        """eps(d g) = 0 for every generator, read off the cached system of dga over eps's field.

        A value on a name that is not a degree-0 generator raises (``_check_names``).
        Over GF(2) an equation of ``augmentation_masks`` is the parity of its
        masks that miss every generator at 0.
        """
        fdga = _field_dga(dga, self.field.q)
        _check_names(fdga, self)
        if self.field.q == 2:
            bits, system = fdga.augmentation_masks
            zeros = (1 << len(bits)) - 1 - sum(bits[name] for name, v in self.values if v)
            return not any(_parity(zeros, masks) for masks in system)
        values = defaultdict(int, self.values)
        return not any(_eval_terms(self.field, eq, values) for eq in fdga.augmentation_system)


def _check_names(dga: DGA, eps: Augmentation) -> None:
    """Raise ``AugmentationError`` if eps is nonzero on a name that is not a degree-0 generator."""
    stray = [name for name, v in eps.values if v and dga.degrees.get(name) != 0]
    if stray:
        raise AugmentationError(
            f"augmentation gives values to {', '.join(stray)}, which are not degree-0 generators"
        )


def _field_dga(dga: DGA, q: int) -> DGA:
    """The DGA over GF(q), pushed once per (DGA, q) and kept on the DGA."""
    if dga.ring is GF(q):
        return dga
    if q not in dga.field_copies:
        dga.field_copies[q] = change_coefficients(dga, GF(q))
    return dga.field_copies[q]


def enumerate_augmentations(dga: DGA, q: int) -> list[Augmentation]:
    """All graded augmentations of the DGA into GF(q), in canonical order."""
    ring = GF(q)
    fdga = _field_dga(dga, q)
    unknowns = sorted(fdga.generators_of_degree(0))
    sols = _backtrack(ring, unknowns, fdga.augmentation_system)
    sols.sort(key=lambda a: tuple(a[u] for u in unknowns))
    out = [Augmentation.build(ring, s) for s in sols]
    for aug in out:
        if not aug.is_valid(fdga):
            raise DGAValidationError("solver produced an invalid augmentation")
    return out


def _eval_terms(ring: FiniteField, terms, values) -> int:
    """Sum of the terms (word, coeff) at values[letter] for every letter."""
    add, mul = ring.add_table, ring.mul_table
    total = 0
    for word, coeff in terms:
        prod = coeff
        for g in word:
            prod = mul[prod][values[g]]
            if not prod:
                break
        else:
            total = add[total][prod]
    return total


def _parity(zeros: int, masks: list[int]) -> int:
    """The GF(2) sum of the monomials ``masks`` where the bits of zeros are 0, the rest 1."""
    return sum(1 for m in masks if not m & zeros) & 1


def _backtrack(ring: FiniteField, unknowns: list[str], equations) -> list[dict[str, int]]:
    """Every assignment of the unknowns that zeroes every equation.

    Variables are indexed in order of how many equations mention them, ties
    by name, and each equation is filed under the last of its variables.
    Depth i takes the values of x_i that zero every equation filed there:
    the first one linear in x_i at the values so far, c*x_i + d, solves
    x_i = -d/c (c = 0 leaves every value if d = 0, none otherwise), and the
    rest are evaluated.  Over GF(2), where x^2 = x, every equation is
    linear in its last variable: ``gf2_masks`` compiles it, and it is filed
    under its highest bit i as two mask lists, the monomials with x_i (bit
    i cleared) and those without.  c and d are then the parities of the
    masks in each list that miss every x_j = 0 so far, and depth i yields
    {d}, {0, 1} or nothing with no table lookup.  One candidate iterator
    per depth drives the search.
    """
    add, neg, mul, inv = ring.add_table, ring.neg_table, ring.mul_table, ring.inv_table
    mentions = [{g for word, _ in eq for g in word} for eq in equations]
    counts = Counter(g for names in mentions for g in names)
    order = sorted(unknowns, key=lambda u: (-counts[u], u))
    index = {u: i for i, u in enumerate(order)}
    vals = [0] * len(order)
    filed: list[list] = [[] for _ in order]
    binary = ring.q == 2
    if binary:
        bits = {u: 1 << i for u, i in index.items()}
        for eq in equations:
            masks = gf2_masks(eq, bits)
            i = reduce(or_, masks, 0).bit_length() - 1
            if i >= 0:
                bit = 1 << i
                filed[i].append(([m ^ bit for m in masks if m & bit],
                                 [m for m in masks if not m & bit]))
            elif masks:
                return []  # the constant 1
    else:
        for names, eq in zip(mentions, equations):
            terms = [(tuple(index[g] for g in word), coeff) for word, coeff in eq]
            if names:
                filed[max(index[g] for g in names)].append(terms)
            elif _eval_terms(ring, terms, vals):
                return []  # a nonzero constant equation

    def split(terms, y: int) -> tuple[int, int] | None:
        """(c, d) with terms = c*y + d at vals, or None if y is not linear."""
        c = d = 0
        for word, coeff in terms:
            prod, hits = coeff, 0
            for x in word:
                if x == y:
                    hits += 1
                elif not (prod := mul[prod][vals[x]]):
                    break  # a zero term, however often y occurs in it
            else:
                if hits > 1 and prod:
                    return None
                if hits:
                    c = add[c][prod]
                else:
                    d = add[d][prod]
        return c, d

    def candidates(i: int):
        """The values of x_i that zero every equation filed under it."""
        checks, options = filed[i], ring.elements()
        for k, terms in enumerate(checks):
            if (cd := split(terms, i)) is not None:
                c, d = cd
                if c:
                    options = (mul[inv[c]][neg[d]],)
                elif d:
                    return
                checks = checks[:k] + checks[k + 1:]
                break
        for v in options:
            vals[i] = v
            if not any(_eval_terms(ring, terms, vals) for terms in checks):
                yield v

    zeros = [0] * len(order)  # zeros[i]: the bits of x_0 .. x_{i-1} at 0

    def binary_candidates(i: int):
        """The values of x_i that zero every c*x_i + d filed under it."""
        if i:
            zeros[i] = zeros[i - 1] | (not vals[i - 1]) << (i - 1)
        zero_ok = one_ok = True
        for with_x, without in filed[i]:
            d = _parity(zeros[i], without)
            zero_ok = zero_ok and not d
            one_ok = one_ok and _parity(zeros[i], with_x) == d
        if zero_ok:
            yield 0
        if one_ok:
            yield 1

    if not order:
        return [{}]
    step = binary_candidates if binary else candidates
    sols: list[dict[str, int]] = []
    its = [step(0)]
    while its:
        i = len(its) - 1
        vals[i] = next(its[i], None)
        if vals[i] is None:
            its.pop()
        elif i + 1 < len(order):
            its.append(step(i + 1))
        else:
            sols.append(dict(zip(order, vals)))
    return sols


# ---------------------------------------------------------------------------
# Conjugation and linearization
# ---------------------------------------------------------------------------

def conjugate(dga: DGA, eps: Augmentation) -> DGA:
    """Differential conjugated by c -> c + eps(c); kills constant terms.

    Evaluates the field DGA's ``suffix_dag`` children first, so a shared
    suffix is expanded once.  Each root gives one d(g) ``Element``; the
    result shares the field DGA's generators, degrees and layout.  Over
    GF(2), where eps is its own support and a plan would never be reused,
    ``_conjugate_by_walk`` does this and ``validate`` checks it: a node's
    value is the set of its words, its constant word and each child's words
    with the letter prepended, and, where eps(letter) = 1, the child's set
    added by symmetric difference.  Over GF(q), q > 2, the plan of eps's
    support, compiled on first use into ``conjugation_plans``, does both.
    eps's names are checked first; then each conjugate's constant term,
    eps(d g), is the check of eps itself (``_constant_term_error``).
    """
    fdga = _field_dga(dga, eps.field.q)
    _check_names(fdga, eps)
    if eps.field.q == 2:
        return _conjugate_by_walk(fdga, eps)
    support = frozenset(name for name, v in eps.values if v)
    plan = fdga.conjugation_plans.get(support)
    if plan is None:
        plan = fdga.conjugation_plans[support] = _compile_plan(fdga, support)
    return _apply_plan(plan, fdga, eps)


def _constant_term_error(fdga: DGA, eps: Augmentation) -> Exception:
    """The error for a constant term in eps's conjugate: eps's own when it fails the recheck."""
    if eps.is_valid(fdga):
        return DGAValidationError("conjugation left a constant term")
    return AugmentationError("augmentation does not satisfy eps after d = 0")


def _validated(out: DGA) -> DGA:
    report = validate(out)
    if not report.ok:
        raise DGAValidationError(f"conjugated DGA failed validation: {report}")
    return out


def _conjugate_by_walk(fdga: DGA, eps: Augmentation) -> DGA:
    """The conjugate by eps over GF(2): node values as word sets, then ``validate``."""
    support = {name for name, v in eps.values if v}  # _check_names vetted the names
    nodes, roots = fdga.suffix_dag
    values: list[set] = []
    for const, children in nodes:
        acc = {()} if const else set()  # then distinct first letters: no collisions
        acc.update([(g,) + w for g, child in children for w in values[child]])
        for g, child in children:
            if g in support:
                acc ^= values[child]
        values.append(acc)
    diff = {}
    for name, root in roots.items():
        if () in values[root]:
            raise _constant_term_error(fdga, eps)
        diff[name] = Element(eps.field, tuple([(w, 1) for w in sorted(values[root])]))
    return _validated(fdga.with_differential(diff))


def _compile_plan(fdga: DGA, support: frozenset) -> tuple:
    """The suffix-DAG walk and validate's check for every eps with this support.

    Each value the walk makes gets a number, ``init`` holding its value
    before the ops: 0 is zero, a node's constant is itself, and a word
    copied from a child keeps the child's number, so only the merges
    through support letters make new numbers.  Those sums start at 0, and
    ``ops`` fills them in walk order by flat triples (sum, term, row):
    sum += row * term, where row i > 0 is eps(letters[i - 1]) and row 0 is
    1.  A word numbered 0 is zero for every eps with this support and is
    left out.  Each generator keeps its root's constant, the root's other
    (word, number) pairs in normal-form order, and the numbers whose word
    is not of degree |g| - 1 (or names no generator).  ``leibniz`` has one
    flat quadruple (acc, s, t, odd) per term of d(d(g)) as ``_leibniz``
    expands it: for a word u x v of d(g) numbered s, with d(x) != 0, and a
    word w of d(x) numbered t, (-1)^|u| s*t goes to u w v's accumulator.
    """
    nodes, roots = fdga.suffix_dag
    degs = fdga.degrees
    letters = sorted(support)
    row = {g: i for i, g in enumerate(letters, 1)}
    init, ops = [0], []
    slots: list[dict] = []  # each node's nonzero words -> number, for compiling only
    for const, children in nodes:
        words = {}
        if const:
            words[()] = len(init)
            init.append(const)
        for g, child in children:
            words.update({(g, *w): v for w, v in slots[child].items()})
        first = len(init)  # numbers from here on are this node's sums
        for g, child in children:
            for w, v in slots[child].items() if g in support else ():
                sum_v = words.get(w, 0)
                if sum_v < first:  # a new sum: 0, plus the word's value so far
                    if sum_v:
                        ops += (len(init), sum_v, 0)
                    words[w] = sum_v = len(init)
                    init.append(0)
                ops += (sum_v, v, row[g])
        slots.append(words)
    gens, leibniz, n_acc = [], [], 0
    for name, r in roots.items():
        target = degs[name] - 1
        terms = sorted(slots[r].items())
        wrong = [v for w, v in terms if not degs.keys() >= set(w)
                 or sum(map(degs.__getitem__, w)) != target]
        gens.append((name, slots[r].get((), 0), [t for t in terms if t[0]], wrong))
        acc: dict = {}  # d(d(name))'s words -> accumulator
        for w, s in terms:
            if s in wrong:
                continue  # zero, or the check trips whatever d(d(name)) is
            prefix = 0
            for i, x in enumerate(w):
                for wx, t in slots[roots[x]].items() if x in roots else ():
                    a = n_acc + acc.setdefault(w[:i] + wx + w[i + 1:], len(acc))
                    leibniz += (a, s, t, prefix % 2)
                prefix += degs[x]
        n_acc += len(acc)
    return letters, init, ops, gens, leibniz, n_acc


def _apply_plan(plan, fdga: DGA, eps: Augmentation) -> DGA:
    """The conjugate by an eps whose support the plan was compiled for.

    A nonzero wrong-degree value or a nonzero d(d(g)) accumulator trips the
    check, and then ``validate`` writes the message.
    """
    letters, init, ops, gens, leibniz, n_acc = plan
    ring = eps.field
    add, neg, mul = ring.add_table, ring.neg_table, ring.mul_table
    eps_of = dict(eps.values)
    rows = [mul[1], *(mul[eps_of[g]] for g in letters)]
    vals = init[:]
    it = iter(ops)
    for v, term, i in zip(it, it, it):
        if c := vals[term]:
            vals[v] = add[vals[v]][rows[i][c]]
    diff = {}
    for name, const, terms, _ in gens:
        if vals[const]:
            raise _constant_term_error(fdga, eps)
        diff[name] = Element(ring, tuple([(w, c) for w, v in terms if (c := vals[v])]))
    out = fdga.with_differential(diff)
    acc = [0] * n_acc
    it = iter(leibniz)
    for a, s, t, odd in zip(it, it, it, it):
        if c := mul[vals[s]][vals[t]]:
            acc[a] = add[acc[a]][neg[c] if odd else c]
    if any(acc) or any(vals[v] for *_, wrong in gens for v in wrong):
        return _validated(out)
    return out


def linear_part(dga: DGA) -> LinearizedComplex:
    """Word-length-1 part of a differential with no constant terms.

    Bases and positions come from the DGA's cached ``layout``.
    """
    ring = dga.ring
    bases, positions = dga.layout
    mats = {d: [[0] * len(b) for _ in bases[d - 1]] for d, b in bases.items() if d - 1 in bases}
    diffs = []
    for g in dga.generators:
        dg = dga.differential.get(g.name)
        if dg is not None:
            c = dg.constant_term()
            if not ring.is_zero(c):
                raise AugmentationError(
                    f"d({g.name}) has constant term {c}; conjugate by an augmentation first"
                )
            if g.degree in mats:
                diffs.append((g.degree, g.name, dg))
    for d, name, dg in diffs:
        m, rix, j = mats[d], positions[d - 1], positions[d][name]
        for word, coeff in dg.terms:
            if len(word) == 1:
                m[rix[word[0]]][j] = coeff
    return LinearizedComplex(ring, bases, mats)


def linearized_complex(dga: DGA, eps: Augmentation) -> LinearizedComplex:
    """Linearized complex of the DGA at eps over eps's field."""
    return linear_part(conjugate(dga, eps))


# ---------------------------------------------------------------------------
# Polynomial systems and variety point counts
# ---------------------------------------------------------------------------

class PolySystem(Record, frozen=True):
    """Polynomial equations over a finite field in named variables.

    Each equation is a sum of terms (coefficient, ((var, power), ...)); the
    coefficient is an integer reduced into the field at evaluation time.
    """

    __slots__ = ("variables", "equations")

    def __init__(self, variables: tuple[str, ...],
                 equations: tuple[tuple[tuple[int, tuple[tuple[str, int], ...]], ...], ...]):
        declared = set()
        for var in variables:
            if var in declared:
                raise AugmentationError(f"variable {quote(var)} declared twice")
            declared.add(var)
        for eq in equations:
            for _, powers in eq:
                for var, _ in powers:
                    if var not in declared:
                        raise AugmentationError(f"equation uses undeclared variable {quote(var)}")
        set_fields(self, variables, equations)


def parse_polysystem(text: str) -> PolySystem:
    """Parse `var a b; eq a*b + 1; eq ...;` system files; # comments allowed."""

    def error(line, col, message):
        return AugmentationError(f"line {line}, column {col}: {message}")

    tokens = tokenize(text, error)
    variables: list[str] = []
    equations = []
    i = 0
    while tokens[i][2]:
        line, col, head = tokens[i]
        if head == "var":
            start = i = i + 1
            while tokens[i][2].isidentifier():
                i += 1
            if i == start:
                raise error(line, col, "expected: var <name> {<name>}")
            variables += [name for _, _, name in tokens[start:i]]
        elif head == "eq":
            terms, i = parse_poly(tokens, i + 1, error, stop=(";", ""))
            equations.append(tuple(_monomial(c, powers, error) for c, powers in terms))
        elif head != ";":
            raise error(line, col, f"bad statement {quote(head)} (want var/eq)")
        line, col, end = tokens[i]
        if end not in (";", ""):
            raise error(line, col, f"expected ';', got {quote(end)}")
        i += end == ";"
    return PolySystem(tuple(variables), tuple(equations))


def _monomial(coeff: int, powers, error):
    """A term of a system, its names folded into commutative powers."""
    exponents: dict[str, int] = {}
    for line, col, name, k in powers:
        if k is not None and k < 0:
            raise error(line, col, f"negative exponent on {quote(name)}")
        exponents[name] = exponents.get(name, 0) + (1 if k is None else k)
    return coeff, tuple(sorted(exponents.items()))


def variety_points(system: PolySystem, q: int) -> int:
    """Exact number of GF(q) solutions, counted by the augmentation solver.

    Each term becomes a (word, coefficient) pair: x^k is the letter x
    repeated ((k - 1) mod (q - 1)) + 1 times for k >= 1, which is x^k on all
    of GF(q), and the integer coefficient enters through from_int.
    """
    ring = GF(q)
    equations = [
        [
            (tuple(var for var, k in powers for _ in range(k and (k - 1) % (q - 1) + 1)),
             ring.from_int(coeff))
            for coeff, powers in eq
        ]
        for eq in system.equations
    ]
    return len(_backtrack(ring, list(system.variables), equations))


def roots_of_unity_count(k: int, q: int) -> int:
    """|{x in GF(q) : x^k = 1}| = gcd(k', q - 1), char factors stripped from k."""
    if k <= 0:
        raise AugmentationError(f"k must be positive, got {k}")
    p = GF(q).p
    while k % p == 0:
        k //= p
    return math.gcd(k, q - 1)


def torus_point_count(free_rank: int, torsion: Sequence[int], q: int) -> int:
    """(q-1)^k times the root-of-unity counts of the torsion orders."""
    count = (q - 1) ** free_rank
    for k in torsion:
        count *= roots_of_unity_count(k, q)
    return count

