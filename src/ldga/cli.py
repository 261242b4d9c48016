"""Command-line front end with machine-readable JSON reports.

Subcommands: dga, augs, linpoly, spin, augvar, obstruct, certify.  Reports
follow the `ldga-report/1` schema: stable key order, all enumeration output
canonically sorted, timing isolated under "timing_ms" so that two runs on
the same inputs differ only there.  Exit codes: 0 ok, 2 parse error,
3 validation failure, 4 obstruction-stage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path

# Each subcommand imports the ldga modules it runs: a process loads, and
# compiles, no more of ldga than its command needs.
from . import __version__
from ._polytext import quote
from .errors import EXIT_OK, EXIT_PARSE, EXIT_VALIDATE, LdgaError, ObstructionStageError


class CliError(LdgaError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.exit_code = code


def _digest(path: str) -> dict:
    import hashlib
    data = Path(path).read_bytes()
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _write_report(
    args, started: float, inputs: dict, stages: list, result: dict, summary: str
) -> int:
    """Wrap a subcommand's output in the `ldga-report/1` envelope and write it."""
    report = {
        "schema": "ldga-report/1",
        "tool": {"name": "ldga", "version": __version__},
        "command": args.subcommand,
        "inputs": inputs,
        "stages": stages,
        "result": result,
        "timing_ms": {"total": round((time.monotonic() - started) * 1000, 3)},
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        _write_out(args.out, text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)
    return EXIT_OK


def _write_out(path: str, text: str) -> None:
    """Write the --out file; a path that cannot be written is bad input."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write report to {path}: {exc.strerror or exc}", EXIT_PARSE) from exc


def _check_out(path: str) -> None:
    """Refuse, creating nothing, an --out path that is a directory or lies in none."""
    target = Path(path)
    if target.is_dir() or not target.parent.is_dir():
        no_parent = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        code = errno.EISDIR if target.is_dir() else no_parent
        raise CliError(f"cannot write report to {path}: {os.strerror(code)}", EXIT_PARSE)


# ---------------------------------------------------------------------------
# Input loading shared by subcommands
# ---------------------------------------------------------------------------

def _load_dga(args, inputs: dict):
    """One of --grid / --dsl / --builtin; grids go through the F2 pipeline."""
    from . import cedga, diagram
    sources = [s for s in ("grid", "dsl", "builtin") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliError("exactly one of --grid/--dsl/--builtin is required", EXIT_PARSE)
    src = sources[0]
    if src == "dsl":
        inputs["dsl"] = _digest(args.dsl)
        obj = cedga.load_dsl(Path(args.dsl).read_text(encoding="utf-8"))
    elif src == "grid":
        inputs["grid"] = _digest(args.grid)
        obj = diagram.parse_grid(Path(args.grid).read_text(encoding="utf-8"))
    else:
        inputs["builtin"] = args.builtin
        obj = cedga.builtin(args.builtin)
    if isinstance(obj, diagram.GridDiagram):
        obj = diagram.resolve(diagram.grid_to_front(obj))
    if isinstance(obj, diagram.ProjectionDiagram):
        return cedga.build_dga(obj, budget=args.budget)
    if args.budget is not None:
        raise CliError(f"--budget bounds the disk search, which --{src} "
                       f"{getattr(args, src)} does not run", EXIT_PARSE)
    return obj


def _naturals(items, what: str) -> list[int]:
    """Each item, stripped, through the one integer reader; a bad one is a parse error."""
    from ._polytext import natural

    def bad(line, col, message):
        return CliError(f"bad {what}: {message}", EXIT_PARSE)

    return [natural((1, 1, item.strip()), bad) for item in items]


def _int_option(name: str, text: str) -> int:
    """--field, --n, --dim and --budget read a natural, --tb an integer, through
    the one integer reader; a bad value is a parse error."""
    from ._polytext import integer

    def bad(line, col, message):
        return CliError(f"bad --{name} {quote(text)}: {message}", EXIT_PARSE)

    item = text.strip()
    signed = name == "tb" and item.startswith("-")
    return integer([(1, 1, "-"), (1, 2, item[1:])] if signed else [(1, 1, item)], 0, bad)[0]


def _parse_fields(spec: str) -> list[int]:
    from .algebra import GF, CoefficientError
    fields = _naturals(spec.split(","), f"field list {quote(spec)}")
    for q in fields:
        try:
            GF(q)
        except CoefficientError as exc:
            raise CliError(f"bad field list {quote(spec)}: {exc}", EXIT_PARSE)
    if len(set(fields)) != len(fields):
        raise CliError(f"bad field list {quote(spec)}: a field order is repeated", EXIT_PARSE)
    return fields


def _parse_counts(spec: str) -> dict[int, int]:
    """`q:c,...` with q a supported field order and c a point count >= 0."""
    from .algebra import GF, CoefficientError
    counts = {}
    for pair in spec.split(","):
        q, _, c = pair.partition(":")
        q, c = _naturals((q, c), "--counts pair (want q:c)")
        try:
            GF(q)
        except CoefficientError as exc:
            raise CliError(f"bad --counts pair {quote(pair)}: {exc}", EXIT_PARSE)
        if q in counts:
            raise CliError(f"bad --counts pair {quote(pair)}: field order {q} is repeated",
                           EXIT_PARSE)
        counts[q] = c
    return counts


def _parse_schedule(spec: str) -> list[int]:
    if not spec:
        return []
    schedule = _naturals(spec.split(","), f"spin schedule {quote(spec)}")
    if any(m < 1 for m in schedule):
        raise CliError(f"bad spin schedule {quote(spec)}: sphere dimensions start at 1", EXIT_PARSE)
    return schedule


# ---------------------------------------------------------------------------
# Subcommands: each JSON one returns (inputs, stages, result, summary)
# ---------------------------------------------------------------------------

def cmd_dga(args) -> int:
    from . import cedga
    dga = _load_dga(args, {})
    text = cedga.dump_dsl(dga)
    if args.out:
        _write_out(args.out, text)
    else:
        print(text, end="")
    print(f"{len(dga.generators)} generators over {dga.ring}", file=sys.stderr)
    return EXIT_OK


def cmd_augs(args):
    from . import algebra, augment
    inputs: dict = {"field": args.field}
    dga = _load_dga(args, inputs)
    augs = augment.enumerate_augmentations(dga, args.field)
    result = {
        "count": len(augs),
        "augmentations": [dict(a.values) for a in augs],
        "t_value": augs[0].field.from_int(-1) if augs and dga.ring is algebra.ZT else None,
    }
    return inputs, [], result, f"{len(augs)} augmentations over F{args.field}"


def cmd_linpoly(args):
    from . import augment, linhom
    inputs: dict = {"field": args.field, "all_augs": args.all_augs}
    dga = _load_dga(args, inputs)
    augs = augment.enumerate_augmentations(dga, args.field)
    stages = [{"stage": "augment", "count": len(augs)}]
    polys = []
    details = []
    for eps in augs if args.all_augs else augs[:1]:
        p = linhom.poincare(linhom.homology_field(augment.linearized_complex(dga, eps)))
        polys.append(str(p))
        details.append({"augmentation": dict(eps.values), "polynomial": str(p)})
    result = {"polynomials": sorted(polys), "per_augmentation": details}
    return inputs, stages, result, f"polynomials: {sorted(set(polys))}"


def cmd_spin(args):
    from . import augment, linhom, spin
    from .algebra import GF, ZZ, FiniteField, change_coefficients
    if args.integral and args.field is not None:
        raise CliError("--integral and --field exclude each other", EXIT_PARSE)
    inputs: dict = {"spin": args.spin, "integral": args.integral, "field": None}
    schedule = _parse_schedule(args.spin)
    dga = _load_dga(args, inputs)
    stages = []
    if args.integral:
        if dga.ring is not ZZ:
            raise CliError("--integral needs an integral DGA", EXIT_VALIDATE)
    else:
        q = args.field or (dga.ring.q if isinstance(dga.ring, FiniteField) else 2)
        inputs["field"] = q
        dga = change_coefficients(dga, GF(q))
    try:
        cx = augment.linear_part(dga)
    except augment.AugmentationError:
        if args.integral:
            raise CliError("--integral needs a DGA without constant terms", EXIT_VALIDATE)
        # diagram DGAs carry constant terms; linearize at the first augmentation
        augs = augment.enumerate_augmentations(dga, q)
        if not augs:
            raise ObstructionStageError("spin", "no augmentations to linearize at")
        cx = augment.linearized_complex(dga, augs[0])
        stages.append({"stage": "conjugate", "augmentation": dict(augs[0].values)})

    def measure(h):
        """Each stage's homology: a module over Z, a polynomial over a field."""
        if args.integral:
            return {"module": linhom.module_to_jsonable(h)}, h.describe()
        p = linhom.poincare(h)
        return {"polynomial": str(p)}, f"P = {p}"

    h = linhom.homology_integral(cx) if args.integral else linhom.homology_field(cx)
    result, summary = measure(h)
    stages.append({"stage": "start", **result})
    for st in spin.iterate_schedule(cx, schedule):
        h = spin.spin_homology(h, st.sphere_dim)
        result, summary = measure(h)
        extra = {"legendrian_dimension": st.legendrian_dimension} if args.integral else {}
        stages.append(st.record(**result, **extra))
    return inputs, stages, result, summary


def cmd_augvar(args):
    from . import augment
    inputs: dict = {"system": _digest(args.system), "fields": args.fields}
    system = augment.parse_polysystem(Path(args.system).read_text(encoding="utf-8"))
    fields = _parse_fields(args.fields)
    counts = {q: augment.variety_points(system, q) for q in fields}
    result = {"counts": {str(q): c for q, c in sorted(counts.items())}}
    return inputs, [], result, f"counts: {result['counts']}"


def parse_poly_text(text: str):
    """A Poincare polynomial such as "t^-1 + 4 + 2t"; a zero one is bad input."""
    from ._polytext import parse_poly, tokenize
    from .algebra import Laurent

    def error(line, col, message):
        return CliError(f"bad polynomial at column {col}: {message}", EXIT_PARSE)

    zero = CliError(f"polynomial {quote(text)} is zero; linearized cohomology never is", EXIT_PARSE)
    if not text.replace("+", " ").strip():  # no term at all, as in "" or " + "
        raise zero
    dims: dict[int, int] = {}
    for coeff, powers in parse_poly(tokenize(text, error), 0, error)[0]:
        if coeff < 0:
            raise CliError("Poincare polynomials have nonnegative coefficients", EXIT_PARSE)
        deg = 0
        for line, col, name, k in powers:
            if name != "t":
                raise error(line, col, f"unknown variable {quote(name)}; the variable is t")
            deg += 1 if k is None else k
        dims[deg] = dims.get(deg, 0) + coeff
    poly = Laurent.from_dict(dims)
    if not poly.terms:
        raise zero
    return poly


def cmd_obstruct(args):
    from . import linhom, obstruct
    if args.tb is not None and args.dim != 1:
        raise CliError(f"--tb needs --dim 1, got --dim {args.dim}", EXIT_PARSE)
    inputs: dict = {"poly": args.poly, "dim": args.dim, "tb": args.tb, "counts": args.counts}
    poly = parse_poly_text(args.poly)
    counts = _parse_counts(args.counts) if args.counts else None
    h = linhom.GradedModule("F2", linhom.COHOMOLOGICAL, {d: (c, ()) for d, c in poly.terms})
    stages: list[dict] = []
    verdict = obstruct.obstruction_chain(h, args.dim, stages, tb=args.tb,
                                         counts=counts and (lambda: counts))
    result = {"verdict": verdict.to_jsonable()}
    return inputs, stages, result, f"{verdict.status}: {verdict.codes()}"


def cmd_certify(args):
    from . import diagram, obstruct
    case_map = {
        "classA": "classA_m821",
        "classA-spun": "classA_spun",
        "classB": "classB_twist",
    }
    fields = "2,4" if args.case == "classB" and args.fields is None else args.fields
    inputs: dict = {"case": args.case, "n": args.n, "spin": args.spin, "fields": fields}
    if args.case == "classB" and args.n is None:
        raise CliError("certify classB needs --n", EXIT_PARSE)
    unused = ("grid", "budget") if args.case == "classB" else ("n", "fields")
    unused = [f"--{name}" for name in unused if getattr(args, name) is not None]
    if unused:
        raise CliError(f"certify {args.case} does not use {', '.join(unused)}", EXIT_PARSE)
    grid = None
    if args.grid:
        inputs["grid"] = _digest(args.grid)
        grid = diagram.parse_grid(Path(args.grid).read_text(encoding="utf-8"))
    case = case_map[args.case]
    cert = obstruct.certify_nongeometric(
        case,
        n=args.n,
        schedule=_parse_schedule(args.spin),
        fields=() if fields is None else tuple(_parse_fields(fields)),
        grid=grid,
        budget=args.budget,
    )
    verdict = cert.verdict
    result = {"verdict": verdict.to_jsonable(), "case": case}
    return inputs, cert.evidence, result, f"{case}: {verdict.status} {verdict.codes()}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# The numbers in the --budget and --builtin help are cedga.DEFAULT_DISK_BUDGET
# and cedga.FAMILY_MAX_N, written out so that building the parser imports no
# cedga; a test pins them.
_BUDGET_HELP = (
    "disk search budget: finger-sweep steps per DGA build, memo hits included "
    "(default 500000)"
)


def _add_source_args(p):
    p.add_argument("--grid", help="grid diagram JSON file")
    p.add_argument("--dsl", help="DGA DSL file")
    p.add_argument(
        "--builtin",
        help="builtin id: twist:N, torus2:N (N odd, at most 501), m821_grid, unknot, "
             "trefoil, unknot_dsl",
    )
    p.add_argument("--budget", default=None, help=_BUDGET_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldga", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ldga {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dga", help="build and dump a DGA in DSL syntax")
    _add_source_args(p)
    p.add_argument("--out", help="write the dump to a file")
    p.set_defaults(func=cmd_dga)

    p = sub.add_parser("augs", help="enumerate graded augmentations")
    _add_source_args(p)
    p.add_argument("--field", default="2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_augs)

    p = sub.add_parser("linpoly", help="linearized homology Poincare polynomials")
    _add_source_args(p)
    p.add_argument("--field", default="2")
    p.add_argument("--all-augs", action="store_true", dest="all_augs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_linpoly)

    p = sub.add_parser("spin", help="spherical spinning of linearized complexes")
    _add_source_args(p)
    p.add_argument("--spin", default="", help="comma list of sphere dimensions")
    p.add_argument("--integral", action="store_true")
    p.add_argument(
        "--field", default=None,
        help="homology over GF(q) with this q (default: the DGA's own field, else 2); "
             "not with --integral",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("augvar", help="variety point counts for a polynomial system")
    p.add_argument("--system", required=True, help="polynomial system file")
    p.add_argument("--fields", default="2,4,8,16")
    p.add_argument("--out")
    p.set_defaults(func=cmd_augvar)

    p = sub.add_parser("obstruct", help="run obstruction tests on a polynomial")
    p.add_argument("--poly", required=True, help='e.g. "t^-1 + 4 + 2t"')
    p.add_argument("--dim", required=True, help="Legendrian dimension n")
    p.add_argument("--tb", default=None,
                   help="Thurston-Bennequin number for the Euler/tb check; needs --dim 1")
    p.add_argument("--counts", default=None, help='variety counts "2:1,4:3"')
    p.add_argument("--out")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("certify", help="full non-fillability certification pipelines")
    p.add_argument("case", choices=["classA", "classA-spun", "classB"])
    p.add_argument("--n", default=None, help="twist parameter (classB only)")
    p.add_argument("--spin", default="", help="spin schedule")
    p.add_argument("--fields", default=None, help="field orders (classB only; default 2,4)")
    p.add_argument("--grid", default=None, help="override the grid fixture (class A only)")
    p.add_argument("--budget", default=None, help=_BUDGET_HELP + "; class A only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)
    return parser


def _fail(exc: LdgaError | OSError | UnicodeDecodeError) -> int:
    """Report a failure as one stderr line, its message's lines joined, and
    return its exit code; an unreadable or non-UTF-8 input file is a parse error."""
    message = " ".join(line.strip() for line in str(exc).splitlines())
    print(f"{getattr(exc, 'prefix', 'parse error')}: {message}", file=sys.stderr)
    return getattr(exc, "exit_code", EXIT_PARSE)


def main(argv=None) -> int:
    """Run one subcommand; every JSON report leaves through `_write_report`."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        for name in ("field", "n", "dim", "tb", "budget"):
            if getattr(args, name, None) is not None:
                value = _int_option(name, getattr(args, name))
                if value < 1 and name in ("dim", "budget"):
                    raise CliError(f"--{name} must be at least 1, got {value}", EXIT_PARSE)
                setattr(args, name, value)
        if args.out:
            _check_out(args.out)
        if args.subcommand == "dga":  # writes DSL text, not a report
            return args.func(args)
        return _write_report(args, started, *args.func(args))
    except (LdgaError, OSError, UnicodeDecodeError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
