"""Chekanov-Eliashberg DGAs over F2 from graded fronts, plus a DSL.

The differential of a crossing (a front crossing or a right cusp) counts
immersed disks with convex corners and a single positive corner at that
crossing; the enumeration itself lives in :mod:`ldga._diskcore` (a finger
sweep that carries one interval per fiber over the front's events).  Every
disk found is checked against the index identity deg(a) - sum deg(b_i) = 1,
and every DGA made here, from a diagram, the DSL or a builtin family, must
pass validation (degree purity and d^2 = 0) before it is returned.
``dump_dsl`` writes each differential as ``str(Element)``, the DSL's syntax.

One finger sweep finds the disks of every crossing, so the disk budget
caps its steps per DGA build, memo hits included (default 500000); set it
with ``build_dga(..., budget=)`` or the CLI's ``--budget``.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter

from ._diskcore import DEFAULT_DISK_BUDGET, DiskBudgetExceeded, boundary_words
from ._polytext import integer, natural, parse_poly, quote, tokenize
from .algebra import (
    DGA,
    DGAValidationError,
    Element,
    FiniteField,
    GF,
    Generator,
    Ring,
    ZT,
    ZZ,
    check,
)
from .diagram import (
    CROSS,
    FrontDiagram,
    GridDiagram,
    LCUSP,
    ProjectionDiagram,
    RCUSP,
    parse_grid,
    resolve,
)
from .errors import BuiltinError, CoefficientError, DiskSearchError, DSLError

__all__ = [
    "BuiltinError",
    "DEFAULT_DISK_BUDGET",
    "DiskBudgetExceeded",
    "DiskSearchError",
    "DSLError",
    "DGAValidationError",
    "FAMILY_MAX_N",
    "boundary_words",
    "build_dga",
    "builtin",
    "dump_dsl",
    "load_dsl",
    "m821_grid",
    "torus2_projection",
    "trefoil_projection",
    "twist_linearized",
    "unknot_dsl_dga",
    "unknot_projection",
]


def build_dga(diagram: ProjectionDiagram, budget: int | None = None) -> DGA:
    """Enumerate disks and assemble the F2 DGA of a resolved diagram."""
    degrees = {c.name: c.degree for c in diagram.crossings}
    ring = GF(2)
    words: dict[str, list[tuple[str, ...]]] = {name: [] for name in degrees}
    for name, w in boundary_words(diagram, budget=budget):
        got = degrees[name] - sum(degrees[b] for b in w)
        if got != 1:
            raise DiskSearchError(
                f"disk at {name!r} with word {w} violates the index identity: "
                f"deg difference {got} != 1"
            )
        words[name].append(w)
    dga = DGA(
        ring,
        diagram.crossings,
        # disks are counted mod 2: words found twice cancel
        {name: Element.sum(ring, ((w, ring.one) for w in ws)) for name, ws in words.items()},
    )
    return check(dga, DiskSearchError, "diagram DGA failed validation")


# ---------------------------------------------------------------------------
# DGA DSL
# ---------------------------------------------------------------------------

_COEFF_NAMES = {"Z": ZZ, "Z[t]": ZT, "Z[t,t-1]": ZT}  # and F<q>, for each order GF accepts


def load_dsl(text: str) -> DGA:
    """Parse the DGA description language; validation failures are errors."""
    ring: Ring | None = None
    seen: dict[str, int] = {}  # generator degrees, in declaration order
    diffs: dict[str, list] = {}
    for lineno, line in groupby(tokenize(text, DSLError)[:-1], key=itemgetter(0)):
        toks = [*line]
        (_, col, head), (_, last, tail) = toks[0], toks[-1]
        toks.append((lineno, last + len(tail), ""))  # the end of the line
        if head == "coeff":
            if ring is not None:
                raise DSLError(lineno, col, "duplicate coeff line")
            spec = "".join(t for _, _, t in toks[1:])
            if spec in _COEFF_NAMES:
                ring = _COEFF_NAMES[spec]
            elif spec[:1] == "F":  # natural caps the order's digits; GF decides the orders
                try:
                    ring = GF(natural((lineno, col, spec[1:]),
                                      lambda line, col, message: CoefficientError(message)))
                except CoefficientError as exc:
                    raise DSLError(lineno, col, f"unknown coefficient ring {quote(spec)}: {exc}") from None
            else:
                raise DSLError(lineno, col, f"unknown coefficient ring {quote(spec)}")
        elif head == "gen":
            if len(toks) < 4:
                raise DSLError(lineno, col, "expected: gen <name> <degree>")
            _, at, name = toks[1]
            if not name.isidentifier() or name == "t":
                raise DSLError(lineno, at, f"bad generator name {quote(name)}")
            if name in seen:
                raise DSLError(lineno, at, f"duplicate generator {quote(name)}")
            degree, end = integer(toks, 2, DSLError)
            if toks[end][2]:
                raise DSLError(lineno, toks[2][1], "bad degree")
            seen[name] = degree
        elif head == "d":
            if len(toks) < 5 or toks[2][2] != "=":
                raise DSLError(lineno, col, "expected: d <name> = <poly>")
            _, at, name = toks[1]
            if name not in seen:
                raise DSLError(lineno, at, f"differential of unknown generator {quote(name)}")
            if name in diffs:
                raise DSLError(lineno, at, f"duplicate differential for {quote(name)}")
            diffs[name] = toks
        else:
            raise DSLError(lineno, col, f"unknown directive {quote(head)}")
    if ring is None:
        raise DSLError(1, 1, "missing coeff line")
    differential = {name: _element(ring, seen, name, toks) for name, toks in diffs.items()}
    gens = tuple(Generator(name, degree) for name, degree in seen.items())
    return check(DGA(ring, gens, differential))


def _element(ring: Ring, gens: dict[str, int], where: str, toks) -> Element:
    """The poly of a d line: t^k is in Z[t], any other name a generator."""
    pairs = []
    for coeff, powers in parse_poly(toks, 3, DSLError)[0]:
        c, word = ring.from_int(coeff), []
        for line, col, name, exponent in powers:
            if name == "t":
                if ring is not ZT:
                    raise DSLError(line, col, "t requires coeff Z[t]")
                c = ZT.mul(c, ZT.t_power(1 if exponent is None else exponent))
            elif name not in gens:
                raise DSLError(line, col, f"unknown factor {quote(name)} in d {quote(where)}")
            elif exponent is not None:
                raise DSLError(line, col, f"only t takes an exponent, not {quote(name)}")
            else:
                word.append(name)
        pairs.append((tuple(word), c))
    return Element.sum(ring, pairs)


def dump_dsl(dga: DGA) -> str:
    """Canonical text form; load_dsl(dump_dsl(d)) reproduces d exactly.

    The DSL writes coefficients as integers, so over GF(4/8/16/9) only the
    prime subfield (codes 0..p-1) is expressible; anything else raises
    ValueError rather than dumping text that loads as a different DGA.
    """
    ring = dga.ring
    out = [f"coeff {ring.name}"]
    for g in dga.generators:
        out.append(f"gen {g.name} {g.degree}")
    for g in dga.generators:
        el = dga.diff_of(g.name)
        if el.is_zero:
            continue
        for _, c in el.terms:
            if isinstance(ring, FiniteField) and c >= ring.p:
                raise ValueError(
                    f"d({g.name}) has coefficient code {c} outside "
                    f"the prime subfield of {ring}; the DSL cannot write it"
                )
        out.append(f"d {g.name} = {el}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

# The largest n of twist:n and torus2:n, checked before anything is built: a
# family's size grows with n.
FAMILY_MAX_N = 501


def twist_linearized(n: int) -> DGA:
    """Integral linearized twist-knot DGA: chords a, b, c1..cn, e0..en.

    Requires n odd and n > 3.  All degree-0 chords have zero differential;
    d(e0) = cn, d(e1) = -c1, and d(ei) alternates c_{i-1} - c_i (i odd) with
    -c_{i-1} + c_i (i even).
    """
    if n % 2 == 0 or n <= 3:
        raise BuiltinError(f"twist family needs odd n > 3, got {n}")
    if n > FAMILY_MAX_N:
        raise BuiltinError(f"twist family needs n <= {FAMILY_MAX_N}, got {n}")
    gens = [Generator("a", 0), Generator("b", 0)]
    gens += [Generator(f"c{i}", 0) for i in range(1, n + 1)]
    gens += [Generator(f"e{i}", 1) for i in range(0, n + 1)]
    diff: dict[str, Element] = {}
    diff["e0"] = Element.build(ZZ, {(f"c{n}",): 1})
    diff["e1"] = Element.build(ZZ, {("c1",): -1})
    for i in range(2, n + 1):
        if i % 2 == 1:
            diff[f"e{i}"] = Element.build(ZZ, {(f"c{i-1}",): 1, (f"c{i}",): -1})
        else:
            diff[f"e{i}"] = Element.build(ZZ, {(f"c{i-1}",): -1, (f"c{i}",): 1})
    return check(DGA(ZZ, tuple(gens), diff))


def unknot_projection() -> ProjectionDiagram:
    return resolve(FrontDiagram([(LCUSP, 0), (RCUSP, 0)]))


def torus2_projection(n: int) -> ProjectionDiagram:
    """The resolved max-tb (2,n) torus front: two nested left cusps, n crossings.

    Requires n odd and n >= 3.
    """
    if n % 2 == 0 or n < 3:
        raise BuiltinError(f"torus2 family needs odd n >= 3, got {n}")
    if n > FAMILY_MAX_N:
        raise BuiltinError(f"torus2 family needs n <= {FAMILY_MAX_N}, got {n}")
    events = [(LCUSP, 0), (LCUSP, 2)] + [(CROSS, 1)] * n + [(RCUSP, 2), (RCUSP, 0)]
    return resolve(FrontDiagram(events))


def trefoil_projection() -> ProjectionDiagram:
    return torus2_projection(3)


def m821_grid() -> GridDiagram:
    from importlib import resources
    text = resources.files("ldga.fixtures").joinpath("m821.json").read_text()
    return parse_grid(text)


def unknot_dsl_dga() -> DGA:
    """The one-generator unknot DGA over Z[t, t^-1] with d a = 1 + t."""
    return load_dsl("coeff Z[t]\ngen a 1\nd a = 1 + t\n")


def builtin(name: str):
    """Builtin families: twist_linearized(n) / twist:n, torus2:n, m821_grid, unknot,
    trefoil, unknot_dsl."""
    m = re.fullmatch(r"twist:([0-9]+)|twist_linearized\(([0-9]+)\)|torus2:([0-9]+)", name)
    if m:
        n = natural((1, 1, m[1] or m[2] or m[3]),
                    lambda line, col, message: BuiltinError(f"bad family size: {message}"))
        return torus2_projection(n) if m[3] else twist_linearized(n)
    if name == "m821_grid":
        return m821_grid()
    if name == "unknot":
        return unknot_projection()
    if name == "trefoil":
        return trefoil_projection()
    if name == "unknot_dsl":
        return unknot_dsl_dga()
    raise BuiltinError(f"unknown builtin {quote(name)}")
