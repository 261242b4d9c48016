"""Chekanov-Eliashberg DGAs over F2 from graded fronts, plus a DSL.

The differential of a crossing (a front crossing or a right cusp) counts
immersed disks with convex corners and a single positive corner at that
crossing; the enumeration itself lives in :mod:`ldga._diskcore` (a finger
sweep that carries one interval per fiber over the front's events).  Every
disk found is checked against the index identity deg(a) - sum deg(b_i) = 1,
and every DGA made here, from a diagram, the DSL or a builtin family, must
pass validation (degree purity and d^2 = 0) before it is returned.

One finger sweep finds the disks of every crossing, so the disk budget
caps its steps per DGA build, memo hits included (default 500000); set it
with ``build_dga(..., budget=)`` or the CLI's ``--budget``.
"""

from __future__ import annotations

import re

from ._diskcore import DEFAULT_DISK_BUDGET, DiskBudgetExceeded, boundary_words
from .algebra import (
    DGA,
    DGAValidationError,
    Element,
    GF,
    Generator,
    Ring,
    ZT,
    ZZ,
    validate,
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
from .errors import BuiltinError, DiskSearchError, DSLError

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
        tuple(Generator(c.name, c.degree) for c in diagram.crossings),
        # disks are counted mod 2: words found twice cancel
        {name: Element.sum(ring, ((w, ring.one) for w in ws)) for name, ws in words.items()},
    )
    report = validate(dga)
    if not report.ok:
        raise DiskSearchError(f"diagram DGA failed validation: {report}")
    return dga


# ---------------------------------------------------------------------------
# DGA DSL
# ---------------------------------------------------------------------------

_COEFF_NAMES = {"Z": ZZ, "Z[t]": ZT, "Z[t,t-1]": ZT}
# field orders by name; GF(q) builds its tables on first use, not at import
_FIELD_NAMES = {f"F{q}": q for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)}

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\^-?\d+|\d+|[+\-*=\[\],])")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            m = _TOKEN.match(line, pos)
            if not m:
                if line[pos:].strip():
                    raise DSLError(lineno, pos + 1, f"unexpected character {line[pos]!r}")
                break
            yield lineno, m.start(1) + 1, m.group(1)
            pos = m.end()
        yield lineno, len(raw) + 1, "\n"


def load_dsl(text: str) -> DGA:
    """Parse the DGA description language; validation failures are errors."""
    lines: dict[int, list[tuple[int, str]]] = {}
    for lineno, col, tok in _tokenize(text):
        if tok != "\n":
            lines.setdefault(lineno, []).append((col, tok))
    ring: Ring | None = None
    gens: list[Generator] = []
    seen: dict[str, int] = {}
    diffs: dict[str, list[tuple[int, str]]] = {}
    order: list[str] = []
    for lineno in sorted(lines):
        toks = lines[lineno]
        head = toks[0][1]
        if head == "coeff":
            if ring is not None:
                raise DSLError(lineno, toks[0][0], "duplicate coeff line")
            spec = "".join(t for _, t in toks[1:])
            # allow Z [ t ] to arrive as separate tokens
            spec = spec.replace(" ", "")
            if spec in _COEFF_NAMES:
                ring = _COEFF_NAMES[spec]
            elif spec in _FIELD_NAMES:
                ring = GF(_FIELD_NAMES[spec])
            else:
                raise DSLError(lineno, toks[0][0], f"unknown coefficient ring {spec!r}")
        elif head == "gen":
            if len(toks) not in (3, 4):
                raise DSLError(lineno, toks[0][0], "expected: gen <name> <degree>")
            name = toks[1][1]
            if not _NAME.match(name) or name == "t":
                raise DSLError(lineno, toks[1][0], f"bad generator name {name!r}")
            if name in seen:
                raise DSLError(lineno, toks[1][0], f"duplicate generator {name!r}")
            if len(toks) == 4:
                if toks[2][1] != "-" or not toks[3][1].isdigit():
                    raise DSLError(lineno, toks[2][0], "bad degree")
                degree = -int(toks[3][1])
            else:
                if not (toks[2][1].isdigit() or toks[2][1].lstrip("-").isdigit()):
                    raise DSLError(lineno, toks[2][0], "bad degree")
                degree = int(toks[2][1])
            seen[name] = degree
            gens.append(Generator(name, degree))
        elif head == "d":
            if len(toks) < 4 or toks[2][1] != "=":
                raise DSLError(lineno, toks[0][0], "expected: d <name> = <poly>")
            name = toks[1][1]
            if name not in seen:
                raise DSLError(lineno, toks[1][0], f"differential of unknown generator {name!r}")
            if name in diffs:
                raise DSLError(lineno, toks[1][0], f"duplicate differential for {name!r}")
            diffs[name] = [(lineno, col, t) for col, t in toks[3:]]
            order.append(name)
        else:
            raise DSLError(lineno, toks[0][0], f"unknown directive {head!r}")
    if ring is None:
        raise DSLError(1, 1, "missing coeff line")

    differential = {}
    for name in order:
        differential[name] = _parse_poly(ring, seen, diffs[name], name)
    return _validated(DGA(ring, tuple(gens), differential))


def _validated(dga: DGA) -> DGA:
    report = validate(dga)
    if not report.ok:
        raise DGAValidationError(f"DGA fails validation: {report}")
    return dga


def _parse_poly(
    ring: Ring, gens: dict[str, int], toks: list[tuple[int, int, str]], where: str
) -> Element:
    terms: list[list[tuple[int, int, str]]] = [[]]
    signs = [1]
    sign_pending = 1
    expect_factor = True
    for line, col, tok in toks:
        if tok in "+-":
            if expect_factor:
                sign_pending = -sign_pending if tok == "-" else sign_pending
            else:
                terms.append([])
                signs.append(1 if tok == "+" else -1)
                expect_factor = True
            continue
        if tok == "*":
            if expect_factor:
                raise DSLError(line, col, f"misplaced '*' in d {where}")
            expect_factor = True
            continue
        if tok.startswith("^"):
            # exponent binds to the preceding t without an operator
            if expect_factor or not terms[-1] or terms[-1][-1][2] != "t":
                raise DSLError(line, col, "dangling exponent")
            terms[-1].append((line, col, tok))
            continue
        if expect_factor:
            if sign_pending == -1:
                signs[-1] = -signs[-1]
                sign_pending = 1
            terms[-1].append((line, col, tok))
            expect_factor = False
        else:
            raise DSLError(line, col, f"missing operator before {tok!r} in d {where}")
    pairs = []
    for sign, factors in zip(signs, terms):
        if not factors:
            raise DSLError(toks[0][0] if toks else 1, 1, f"empty term in d {where}")
        coeff = ring.from_int(sign)
        word: list[str] = []
        pending_power = False
        for line, col, tok in factors:
            if tok.isdigit():
                coeff = ring.mul(coeff, ring.from_int(int(tok)))
            elif tok == "t" or tok.startswith("^"):
                if ring is not ZT:
                    raise DSLError(line, col, "t requires coeff Z[t]")
                if tok == "t":
                    pending_power = True
                    continue
                if not pending_power:
                    raise DSLError(line, col, "dangling exponent")
                coeff = ring.mul(coeff, ZT.t_power(int(tok[1:])))
                pending_power = False
                continue
            elif tok in gens:
                word.append(tok)
            else:
                raise DSLError(line, col, f"unknown factor {tok!r} in d {where}")
            if pending_power:
                coeff = ring.mul(coeff, ZT.t)
                pending_power = False
        if pending_power:
            coeff = ring.mul(coeff, ZT.t)
        pairs.append((tuple(word), coeff))
    return Element.sum(ring, pairs)


def dump_dsl(dga: DGA) -> str:
    """Canonical text form; load_dsl(dump_dsl(d)) reproduces d exactly.

    The DSL writes coefficients as integers, so over GF(4/8/16/9) only the
    prime subfield (codes 0..p-1) is expressible; anything else raises
    ValueError rather than dumping text that loads as a different DGA.
    """
    ring = dga.ring
    if ring is ZZ:
        coeff = "Z"
    elif ring is ZT:
        coeff = "Z[t]"
    else:
        coeff = f"F{ring.q}"
    out = [f"coeff {coeff}"]
    for g in dga.generators:
        out.append(f"gen {g.name} {g.degree}")
    for g in dga.generators:
        el = dga.diff_of(g.name)
        if el.is_zero:
            continue
        parts = []
        for word, c in el.terms:
            if ring is ZT:
                for exp, coefficient in c.terms:
                    parts.append(_dsl_term(coefficient, exp, word))
            else:
                if ring is not ZZ and c >= ring.p:
                    raise ValueError(
                        f"d({g.name}) has coefficient code {c} outside "
                        f"the prime subfield of {ring}; the DSL cannot write it"
                    )
                parts.append(_dsl_term(int(c), None, word))
        rhs = parts[0]
        for p in parts[1:]:
            rhs += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        out.append(f"d {g.name} = {rhs}")
    return "\n".join(out) + "\n"


def _dsl_term(coefficient: int, t_exp: int | None, word: tuple[str, ...]) -> str:
    factors = []
    if t_exp:
        factors.append("t" if t_exp == 1 else f"t^{t_exp}")
    factors.extend(word)
    if coefficient == 1 and factors:
        return "*".join(factors)
    if coefficient == -1 and factors:
        return "-" + "*".join(factors)
    return "*".join([str(coefficient)] + factors) if factors else str(coefficient)


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

# The largest n of twist:n and torus2:n, checked before anything is built: a
# family's size grows with n, and the disk sweep recurses once per front event.
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
    return _validated(DGA(ZZ, tuple(gens), diff))


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
    m = re.fullmatch(r"twist:(\d+)|twist_linearized\((\d+)\)", name)
    if m:
        return twist_linearized(int(m.group(1) or m.group(2)))
    m = re.fullmatch(r"torus2:(\d+)", name)
    if m:
        return torus2_projection(int(m.group(1)))
    if name == "m821_grid":
        return m821_grid()
    if name == "unknot":
        return unknot_projection()
    if name == "trefoil":
        return trefoil_projection()
    if name == "unknot_dsl":
        return unknot_dsl_dga()
    raise BuiltinError(f"unknown builtin {name!r}")
