"""CLI reports must match the committed goldens outside ``timing_ms``.

The ``dump_dsl`` text of the max-tb (2,N) torus DGAs and of the DGAs of the
random grid fronts is pinned too, so any change to the disk search that
alters a differential shows here.  So are the random grids whose Legendrian
invariants change under commutation moves, which cannot happen when every
DGA is right: a fix shows as that list shrinking.  So is the front of every
small knot grid and of the random grids, those with r != 0 included.  So
is class A's certificate on every cyclic translation of the m(8_21) grid,
most of which get a DGA that fails d^2 = 0 or miscounts augmentations.

Regenerate (only when an answer is meant to change) with
``PYTHONPATH=src python tests/test_golden.py [NAME ...]`` from the
repository root; it rewrites the named goldens, or all of them.
"""

import collections
import contextlib
import functools
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

import pytest
from test_diagram import _random_knot_grid
from test_tools import TOOL, load_by_path

from ldga.augment import enumerate_augmentations, linearized_complex
from ldga.cedga import DiskSearchError, build_dga, builtin, dump_dsl, m821_grid
from ldga.cli import main
from ldga.diagram import DiagramError, GridDiagram, grid_to_front, resolve
from ldga.errors import LdgaError
from ldga.linhom import homology_field, poincare
from ldga.obstruct import certify_nongeometric

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

CASES = {
    "dga_trefoil.dga": ["dga", "--builtin", "trefoil"],
    "augs_trefoil_f16.json": ["augs", "--builtin", "trefoil", "--field", "16"],
    "linpoly_m821_f2_all.json": [
        "linpoly", "--grid", "fixtures/m821.json", "--field", "2", "--all-augs",
    ],
    "spin_twist5_s3_integral.json": [
        "spin", "--builtin", "twist:5", "--spin", "3", "--integral",
    ],
    "certify_classA.json": ["certify", "classA"],
    "certify_classB_n9_s3_f24.json": [
        "certify", "classB", "--n", "9", "--spin", "3", "--fields", "2,4",
    ],
    "spin_twist5_s31_f2.json": [
        "spin", "--builtin", "twist:5", "--spin", "3,1", "--field", "2",
    ],
    "spin_m821_s1_f2.json": [
        "spin", "--grid", "fixtures/m821.json", "--spin", "1", "--field", "2",
    ],
    "certify_classA_spun.json": ["certify", "classA-spun"],
    "augvar_twist_variety.json": [
        "augvar", "--system", "fixtures/twist_variety.sys", "--fields", "2,4,8,16",
    ],
    "linpoly_m821_f4_all.json": [
        "linpoly", "--grid", "fixtures/m821.json", "--field", "4", "--all-augs",
    ],
    "dga_unknot_dsl.dga": ["dga", "--builtin", "unknot_dsl"],
    "dga_toy.dga": ["dga", "--dsl", "fixtures/toy.dga"],
    "dga_unknot.dga": ["dga", "--builtin", "unknot"],
    "dga_m821.dga": ["dga", "--grid", "fixtures/m821.json"],
    "spin_twist7_s311_f2.json": [
        "spin", "--builtin", "twist:7", "--spin", "3,1,1", "--field", "2",
    ],
    "spin_twist5_s38_integral.json": [
        "spin", "--builtin", "twist:5", "--spin", "3,8", "--integral",
    ],
    "certify_classA_spun_s11.json": ["certify", "classA-spun", "--spin", "1,1"],
    "certify_classB_n5_s38_f24.json": [
        "certify", "classB", "--n", "5", "--spin", "3,8", "--fields", "2,4",
    ],
    "obstruct_2pt_d1_tb1_counts.json": [
        "obstruct", "--poly", "2 + t", "--dim", "1", "--tb", "1", "--counts", "2:1,4:3",
    ],
    "obstruct_2pt_d1_tb3_counts.json": [  # stops at euler_tb: no aug_injectivity stage
        "obstruct", "--poly", "2 + t", "--dim", "1", "--tb", "3", "--counts", "2:1,4:3",
    ],
    "obstruct_m821_d1_tb1_counts.json": [  # stops at seidel: no euler_tb stage
        "obstruct", "--poly", "t^-1 + 4 + 2t", "--dim", "1", "--tb", "1", "--counts", "2:1,4:3",
    ],
    "certify_classB_n5.json": ["certify", "classB", "--n", "5"],
    "obstruct_2t3t4_d4_counts.json": [
        "obstruct", "--poly", "2t^3 + t^4", "--dim", "4", "--counts", "2:1,4:3",
    ],
    "spin_f3dsl_s1.json": ["spin", "--dsl", "fixtures/f3.dga", "--spin", "1"],
    "spin_torsion_s5_10_integral.json": [
        "spin", "--dsl", "fixtures/torsion.dga", "--spin", "5,10", "--integral",
    ],
}

TORUS_CASES = {f"dsl_torus2_{n}.dga": n for n in (3, 5, 7, 9, 11, 13, 15, 17)}


def torus2_dsl(n: int) -> str:
    """``dump_dsl`` of the max-tb (2,n) torus front's DGA, from the ``torus2:n`` builtin."""
    return dump_dsl(build_dga(builtin(f"torus2:{n}")))


RANDOM_FRONTS = "dsl_random_fronts.txt"


def random_fronts_dsl() -> str:
    """``dump_dsl`` of the DGA of every resolvable random grid front, seeds 0-999.

    Each seed draws a grid size from 4..8 and then a knot grid of that size.
    A front whose DGA fails validation is pinned by its error.
    """
    out = []
    for seed in range(1000):
        rng = random.Random(seed)
        size = rng.choice([4, 5, 6, 7, 8])
        try:
            proj = resolve(grid_to_front(_random_knot_grid(rng, size)))
        except DiagramError:
            continue  # nonzero rotation: the front has no graded resolution
        out.append(f"# seed {seed}, grid size {size}, {len(proj.crossings)} crossings\n")
        try:
            out.append(dump_dsl(build_dga(proj)))
        except DiskSearchError as exc:  # pinned as text: a defect must stay visible
            out.append("".join(f"# {line}\n" for line in
                               f"{type(exc).__name__}: {exc}".splitlines()))
    return "".join(out)


GRID_FRONTS = "grid_fronts.txt"


def grid_fronts() -> str:
    """The front of every knot grid of size 2-5 and of the random grids of seeds 0-999.

    The random grids are drawn as for ``random_fronts_dsl``.  Each line gives
    the grid, the heading of arc 0, tb, r and the event word (``l``, ``r`` and
    ``c`` for a left cusp, a right cusp and a crossing, with its level);
    unlike ``random_fronts_dsl`` it keeps the fronts with r != 0.
    """
    grids = [GridDiagram(n, x, o) for n in range(2, 6)
             for x in itertools.permutations(range(n))
             for o in itertools.permutations(range(n)) if all(map(int.__ne__, x, o))]
    grids = [g for g in grids if g.components() == 1]
    for seed in range(1000):
        rng = random.Random(seed)
        grids.append(_random_knot_grid(rng, rng.choice([4, 5, 6, 7, 8])))
    out = []
    for g in grids:
        front = grid_to_front(g)
        word = " ".join(f"{ev.kind[0]}{ev.level}" for ev in front.events)
        out.append(f"X {''.join(map(str, g.X))} O {''.join(map(str, g.O))}: "
                   f"{front.arc_direction[0]}, tb {front.tb}, r {front.rotation_number}: "
                   f"{word}\n")
    return "".join(out)


INVARIANCE = "invariance_commutation.txt"


def legendrian_profile(grid) -> str:
    """tb, r, whether F2 and F4 augmentations exist, and the F2 polynomial set.

    A front that does not resolve or build shows its error in place of the
    DGA-derived values.
    """
    front = grid_to_front(grid)
    tb, r = front.tb, front.rotation_number
    try:
        dga = build_dga(resolve(front))
    except (DiagramError, DiskSearchError) as exc:
        return f"tb {tb}, r {r}, {type(exc).__name__}"
    augs = enumerate_augmentations(dga, 2)
    polys = sorted({str(poincare(homology_field(linearized_complex(dga, eps))))
                    for eps in augs})
    return (f"tb {tb}, r {r}, aug F2 {bool(augs)}, "
            f"aug F4 {bool(enumerate_augmentations(dga, 4))}, polys {polys}")


def commutation_disagreements() -> str:
    """The random grids of seeds 0-199 whose profile changes under commutations.

    Each grid is drawn as for ``random_fronts_dsl``, then moved by up to 30
    commutations of adjacent rows or columns, drawn from one
    ``random.Random(7)``; these keep the Legendrian type, so every profile
    must hold.  Unmoved grids are not compared.
    """
    tool = load_by_path(TOOL)
    moves = random.Random(7)
    pairs = 0
    out = []
    for seed in range(200):
        rng = random.Random(seed)
        size = rng.choice([4, 5, 6, 7, 8])
        grid = moved = _random_knot_grid(rng, size)
        for _ in range(30):
            commute = moves.choice([tool.commute_rows, tool.commute_cols])
            moved = commute(moved, moves.randrange(size - 1)) or moved
        assert tool.grid_invariant(moved) == tool.grid_invariant(grid), seed
        if moved == grid:
            continue
        pairs += 1
        before, after = legendrian_profile(grid), legendrian_profile(moved)
        if before != after:
            out.append(f"# seed {seed}: X {list(grid.X)}, O {list(grid.O)} -> "
                       f"X {list(moved.X)}, O {list(moved.O)}\n"
                       f"  before: {before}\n  after:  {after}\n")
    return f"# {len(out)} of {pairs} moved grids change their profile\n" + "".join(out)


TRANSLATIONS = "classA_translations.txt"


def class_a_translations() -> str:
    """Class A certified on each of the 64 cyclic translations of the m(8_21) grid.

    Translation (i, j) shifts the rows i times and the columns j times.
    Each line gives the grid, then ``certify_nongeometric``'s verdict with
    its codes and the multiset of F2 polynomials, or the exit code and the
    first line of the message.  A grid whose DGA builds also shows chi* and
    its F2 and F4 augmentation counts, which Henry-Rutherford tie to one
    ruling polynomial: #Aug(F_q) = q^((chi* + 1)/2) R(q^(1/2) - q^(-1/2)).
    """
    tool = load_by_path(TOOL)
    rows = m821_grid()
    out = []
    for i in range(rows.size):
        grid = rows
        for j in range(rows.size):
            line = f"({i},{j}) X {''.join(map(str, grid.X))} O {''.join(map(str, grid.O))}: "
            try:
                cert = certify_nongeometric("classA_m821", grid=grid)
            except LdgaError as exc:
                line += f"exit {exc.exit_code}, {str(exc).splitlines()[0]}"
            else:
                augment = next(e for e in cert.evidence if e["stage"] == "augment")
                polys = dict(sorted(collections.Counter(augment["polynomials"]).items()))
                line += f"{cert.verdict.status} {cert.verdict.codes()}, polys {polys}"
            try:
                dga = build_dga(resolve(grid_to_front(grid)))
            except DiskSearchError:
                pass
            else:
                chi = sum((-1) ** g.degree if g.degree >= 0 else (-1) ** (g.degree + 1)
                          for g in dga.generators)
                line += (f"; chi* {chi}, augs F2 {len(enumerate_augmentations(dga, 2))}, "
                         f"F4 {len(enumerate_augmentations(dga, 4))}")
            out.append(line + "\n")
            grid = tool.translate_cols(grid)
        rows = tool.translate_rows(rows)
    return "".join(out)


def render(argv: list[str]) -> str:
    """Run the CLI from the repository root; JSON reports lose ``timing_ms``."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    text = out.getvalue()
    if argv[0] == "dga":
        return text
    report = json.loads(text)
    report.pop("timing_ms", None)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert render(CASES[name]) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(TORUS_CASES))
def test_torus_dga_matches_golden(name):
    assert torus2_dsl(TORUS_CASES[name]) == (GOLDEN / name).read_text()


def test_random_front_dgas_match_golden():
    assert random_fronts_dsl() == (GOLDEN / RANDOM_FRONTS).read_text()


def test_grid_fronts_match_golden():
    assert grid_fronts() == (GOLDEN / GRID_FRONTS).read_text()


def test_commutation_disagreements_match_golden():
    assert commutation_disagreements() == (GOLDEN / INVARIANCE).read_text()


def test_class_a_translations_match_golden():
    assert class_a_translations() == (GOLDEN / TRANSLATIONS).read_text()


def test_no_report_carries_a_float():
    # outside timing_ms, which the goldens drop, a report holds exact integers only
    def refuse(text):
        raise ValueError(f"the non-integer number {text}")

    for path in sorted(GOLDEN.glob("*.json")):
        try:
            json.loads(path.read_text(), parse_float=refuse, parse_constant=refuse)
        except ValueError as exc:
            pytest.fail(f"{path.name} carries {exc}")


if __name__ == "__main__":
    writers = {name: functools.partial(render, argv) for name, argv in CASES.items()}
    writers.update({name: functools.partial(torus2_dsl, n) for name, n in TORUS_CASES.items()})
    writers[RANDOM_FRONTS] = random_fronts_dsl
    writers[GRID_FRONTS] = grid_fronts
    writers[INVARIANCE] = commutation_disagreements
    writers[TRANSLATIONS] = class_a_translations
    names = sys.argv[1:] or list(writers)
    unknown = sorted(set(names) - set(writers))
    if unknown:
        sys.exit(f"unknown goldens {unknown}; known: {sorted(writers)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / name).write_text(writers[name]())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
