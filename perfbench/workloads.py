"""The benchmark's workloads: inputs drawn from a seed, one pass, and oracles.

Every workload is a closed loop with one caller: items run one after
another.  Each op, and the work the ops of a pass share, is a timed step;
a pass's time is the sum of its steps, so the benchmark's own checks between
steps are not counted.  Each op is attempted once and ends in the `Tally` as
succeeded or failed; an op that raises and an op whose answer fails its
oracle are both failed ops, with the reason tallied.  Oracles are closed
forms or values documented for the fixtures, never a second run of the code
under test.

Workload choice (see README.md for the layer map):

- torus-scan: (2,N) torus fronts, N = 3, 5, 7.  Disk search dominates and
  grows steeply with N; the closed forms check every stage.
- m821-fields: the m(8_21) grid over F2, F4, F8.  Conjugation and field
  arithmetic dominate; disk search is a few percent.
- twist-certify: both certifiers; class B on twist knots n = 31, 51, 71.
  Class B has no disk search; F2 field rank and Smith normal form dominate.
- cli-small: eight small CLI commands, one subprocess each.  Interpreter
  start and the `ldga` import are a large share, so work moved into import
  or set-up shows here.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from ldga import augment, cedga, diagram, linhom, obstruct
from tracing import SPANS_MARK

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "clichild.py"
CLI_TIMEOUT_S = 120


class Tally:
    """Attempted, succeeded and failed ops, with failure reasons.

    `work` adds up the seconds spent in timed steps; the runner reads and
    resets it around each pass.  `clock`, when the runner sets one, is told
    each step's duration once the step has ended (see run.RefClock).
    """

    def __init__(self):
        self.work = 0.0
        self.clock = None
        self.attempted = 0
        self.succeeded = 0
        self.failed = 0
        self.wrong = 0  # failed ops whose answer was wrong (not raised)
        self.reasons: Counter[str] = Counter()
        self.check_errors: list[str] = []  # failed whole-pass checks

    def ok(self) -> None:
        self.attempted += 1
        self.succeeded += 1

    def fail(self, reason: str, wrong: bool = False, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.wrong += n if wrong else 0
        self.reasons[reason] += n

    def raised(self, exc: Exception, n: int = 1) -> None:
        text = str(exc).splitlines()[0] if str(exc) else ""
        self.fail(f"{type(exc).__name__}: {text}"[:160], n=n)

    @contextlib.contextmanager
    def step(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.work += elapsed
            if self.clock is not None:
                self.clock.after_step(elapsed)

    def attempt(self, op, *args) -> None:
        """Run and time one op; it returns None when its answer passes the oracle.

        The op judges its own output with `judge`, so an exception that
        reaches here was raised by the program.
        """
        try:
            with self.step():
                wrong = op(*args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.raised(exc)
            return
        if wrong:
            self.fail(wrong, wrong=True)
        else:
            self.ok()

    @property
    def correct(self) -> bool:
        """No op returned a wrong answer and every whole-pass check held."""
        return not self.wrong and not self.check_errors


def judge(check, *args) -> str | None:
    """Apply an oracle; output it cannot read is a wrong answer."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"[:160]


def poincare_of(dga, eps) -> tuple[tuple[int, int], ...]:
    """conjugate -> linear part -> field homology -> Poincare polynomial."""
    cx = augment.linear_part(augment.conjugate(dga, eps))
    h = linhom.homology_field(cx)
    return tuple(sorted(linhom.poincare(linhom.as_cohomological(h)).as_dict().items()))


def parse_poly(text: str) -> tuple[tuple[int, int], ...]:
    """A printed Poincare polynomial such as 't^-1 + 4 + 2t', as poincare_of gives it."""
    dims = {}
    for term in text.split(" + "):
        coeff, _, power = term.partition("t")
        deg = 0 if term == coeff else int(power.lstrip("^") or 1)
        dims[deg] = int(coeff or 1)
    return tuple(sorted(dims.items()))


def at_minus_one(poly) -> int:
    return sum(c * (-1) ** d for d, c in poly)


# ---------------------------------------------------------------------------
# torus-scan
# ---------------------------------------------------------------------------

TORUS_SIZES = (3, 5, 7)
TORUS_SAMPLE = 16


def torus_front(n: int) -> diagram.FrontDiagram:
    """Max-tb (2,n) torus knot front: two nested left cusps, n crossings."""
    events = [(diagram.LCUSP, 0), (diagram.LCUSP, 2)] + [(diagram.CROSS, 1)] * n
    return diagram.FrontDiagram(events + [(diagram.RCUSP, 2), (diagram.RCUSP, 0)])


# Closed forms for the (2,n) torus family.
def torus_tb(n: int) -> int:
    return n - 2


def torus_aug_count(n: int) -> int:
    return (2 ** (n + 1) - 1) // 3


def torus_poly(n: int) -> tuple[tuple[int, int], ...]:
    return ((0, n - 1), (1, 1))


class TorusScan:
    name = "torus-scan"

    def __init__(self, seed: int, sizes=TORUS_SIZES):
        rng = random.Random(seed)
        self.items = []
        for n in sizes:
            count = torus_aug_count(n)
            sample = rng.sample(range(count), min(TORUS_SAMPLE, count))
            self.items.append((n, torus_front(n), sample))
        rng.shuffle(self.items)
        self.ops_per_pass = len(self.items)

    def run_pass(self, tally: Tally, tracer=None) -> None:
        for item in self.items:
            tally.attempt(self._pipeline, *item)

    @staticmethod
    def _pipeline(n, front, sample):
        if front.tb != torus_tb(n):
            return f"T(2,{n}): tb {front.tb} != {torus_tb(n)}"
        dga = cedga.build_dga(diagram.resolve(front))
        augs = augment.enumerate_augmentations(dga, 2)
        if len(augs) != torus_aug_count(n):
            return f"T(2,{n}): {len(augs)} augmentations != {torus_aug_count(n)}"
        for i in sample:
            poly = poincare_of(dga, augs[i])
            if poly != torus_poly(n):
                return f"T(2,{n}): polynomial {poly} != {torus_poly(n)}"
        return None


# ---------------------------------------------------------------------------
# m821-fields
# ---------------------------------------------------------------------------

M821_FIELDS = (2, 4, 8)
# Documented for fixtures/m821.json: augmentation counts per field, tb, and
# the F2 multiset {2 + t (x12), t^-1 + 4 + 2t (x4)}.
M821_AUGS = {2: 16, 4: 120, 8: 976}
M821_TB = 1
M821_F2_POLYS = Counter({((0, 2), (1, 1)): 12, ((-1, 1), (0, 4), (1, 2)): 4})
M821_BINARY_AUGS = 16


class M821Fields:
    name = "m821-fields"

    def __init__(self, seed: int, fields=M821_FIELDS):
        rng = random.Random(seed)
        self.grid = diagram.parse_grid((ROOT / "fixtures" / "m821.json").read_text())
        self.fields = list(fields)
        rng.shuffle(self.fields)
        self.order = {q: rng.sample(range(M821_AUGS[q]), M821_AUGS[q]) for q in fields}
        self.ops_per_pass = sum(M821_AUGS[q] for q in fields)

    def run_pass(self, tally: Tally, tracer=None) -> None:
        try:
            with tally.step():
                dga = cedga.build_dga(diagram.resolve(diagram.grid_to_front(self.grid)))
        except Exception as exc:
            tally.raised(exc, n=self.ops_per_pass)
            return
        results = []  # (q, augmentation values, polynomial)
        binary = Counter()  # augmentations with values in {0, 1}, per field
        for q in self.fields:
            try:
                with tally.step():
                    augs = augment.enumerate_augmentations(dga, q)
            except Exception as exc:
                tally.raised(exc, n=M821_AUGS[q])
                continue
            if len(augs) != M821_AUGS[q]:
                tally.fail(f"F{q}: {len(augs)} augmentations != {M821_AUGS[q]}",
                           wrong=True, n=M821_AUGS[q])
                continue
            binary[q] = sum(all(v == 1 for _, v in eps.values) for eps in augs)
            for i in self.order[q]:
                try:
                    with tally.step():
                        results.append((q, augs[i].values, poincare_of(dga, augs[i])))
                except Exception as exc:
                    tally.raised(exc)
        self._check(results, binary, tally)

    def _check(self, results, binary, tally: Tally) -> None:
        # Augmentations with values in {0, 1} are defined over F2, so their
        # polynomial must not change when the field grows.
        f2 = {values: poly for q, values, poly in results if q == 2}
        for q, values, poly in results:
            is_binary = all(v == 1 for _, v in values)
            if at_minus_one(poly) != M821_TB:
                tally.fail(f"F{q}: P(-1) != tb for {poly}", wrong=True)
            elif q == 2 and poly not in M821_F2_POLYS:
                tally.fail(f"F2: unexpected polynomial {poly}", wrong=True)
            elif q != 2 and is_binary and 2 in self.fields and f2.get(values) != poly:
                tally.fail(f"F{q}: F2 augmentation changed polynomial to {poly}", wrong=True)
            else:
                tally.ok()
        if 2 in self.fields:
            got = Counter(poly for q, _, poly in results if q == 2)
            if got != M821_F2_POLYS:
                tally.check_errors.append(f"F2 polynomial multiset {dict(got)}")
        for q in binary:
            if binary[q] != M821_BINARY_AUGS:
                tally.check_errors.append(
                    f"F{q}: {binary[q]} {{0,1}}-valued augmentations != {M821_BINARY_AUGS}"
                )


# ---------------------------------------------------------------------------
# twist-certify
# ---------------------------------------------------------------------------

TWIST_NS = (31, 51, 71)
TWIST_SCHEDULE = (3,)
TWIST_FIELDS = (2, 4)


def check_class_a(case: str, verdict: dict, evidence: list[dict]) -> str | None:
    """Acceptance criterion 7: obstructed by a class in negative degree."""
    codes = [r["code"] for r in verdict["reasons"]]
    if verdict["status"] != "obstructed" or codes != ["seidel.negative_degree"]:
        return f"{case}: verdict {verdict['status']} {codes}"
    stages = {e["stage"]: e for e in evidence}
    polys = Counter(parse_poly(p) for p in stages["augment"]["polynomials"])
    if polys != M821_F2_POLYS:
        return f"{case}: F2 polynomials {stages['augment']['polynomials']}"
    if case == "classA_spun" and "H_3" not in verdict["reasons"][0]["detail"]:
        return f"{case}: spun obstruction does not name H_3"
    return None


def check_class_b(case: str, verdict: dict, evidence: list[dict], m: int) -> str | None:
    """Acceptance criterion 5: H_0 = Z^2, H_1 = Z, counts q - 1, spun H_m = Z^2."""
    codes = [r["code"] for r in verdict["reasons"]]
    if verdict["status"] != "obstructed" or "augvar.count_exceeds" not in codes:
        return f"{case}: verdict {verdict['status']} {codes}"
    stages = {e["stage"]: e for e in evidence}
    base = {"0": [2, []], "1": [1, []]}
    checks = [
        ("homology_integral", stages["homology_integral"]["module"]["entries"] == base),
        ("uct", stages["uct"]["module"]["entries"] == base),
        ("homology_f2", stages["homology_f2"]["polynomial"] == "2 + t"),
        ("variety_counts", stages["variety_counts"]["counts"] == {"2": 1, "4": 3}),
        ("spun", stages["spun_homology_integral"]["module"]["entries"].get(str(m)) == [2, []]),
    ]
    bad = [name for name, good in checks if not good]
    return f"{case}: wrong {', '.join(bad)}" if bad else None


class TwistCertify:
    name = "twist-certify"

    def __init__(self, seed: int, twist_ns=TWIST_NS):
        self.items = [("classA_m821", None), ("classA_spun", None)]
        self.items += [("classB_twist", n) for n in twist_ns]
        random.Random(seed).shuffle(self.items)
        self.ops_per_pass = len(self.items)

    def run_pass(self, tally: Tally, tracer=None) -> None:
        for item in self.items:
            tally.attempt(self._certify, *item)

    @staticmethod
    def _certify(case, n):
        if n is None:
            cert = obstruct.certify_nongeometric(case)
            return judge(check_class_a, case, cert.verdict.to_jsonable(), cert.evidence)
        cert = obstruct.certify_nongeometric(
            case, n=n, schedule=TWIST_SCHEDULE, fields=TWIST_FIELDS
        )
        return judge(check_class_b, f"{case}({n})", cert.verdict.to_jsonable(),
                     cert.evidence, TWIST_SCHEDULE[0])


# ---------------------------------------------------------------------------
# cli-small
# ---------------------------------------------------------------------------

def _check_dga(out: str):
    lines = out.splitlines()
    degrees = [int(line.split()[2]) for line in lines if line.startswith("gen ")]
    # trefoil: 3 crossings + 2 right cusps; sum of (-1)^deg equals tb = 1
    if lines[0] != "coeff F2" or len(degrees) != 5 or sum((-1) ** d for d in degrees) != 1:
        return f"dga trefoil: {len(degrees)} generators, degrees {degrees}"
    return None


def _check_augs(out: str):
    count = json.loads(out)["result"]["count"]
    return None if count == 16 ** 2 + 1 else f"augs trefoil F16: {count} != q^2 + 1"


def _check_linpoly(out: str):
    polys = Counter(parse_poly(p) for p in json.loads(out)["result"]["polynomials"])
    return None if polys == M821_F2_POLYS else f"linpoly m821: {dict(polys)}"


def _check_spin(out: str):
    # (2 + t)(1 + t^3): H_0 = Z^2, H_1 = Z, H_3 = Z^2, H_4 = Z
    want = {"0": [2, []], "1": [1, []], "3": [2, []], "4": [1, []]}
    got = json.loads(out)["result"]["module"]["entries"]
    return None if got == want else f"spin twist:5: {got}"


def _check_augvar(out: str):
    got = json.loads(out)["result"]["counts"]
    want = {str(q): q - 1 for q in (2, 4, 8, 16)}
    return None if got == want else f"augvar: {got} != q - 1"


def _check_obstruct(out: str):
    verdict = json.loads(out)["result"]["verdict"]
    codes = [r["code"] for r in verdict["reasons"]]
    if verdict["status"] != "obstructed" or codes != ["seidel.negative_degree"]:
        return f"obstruct: {verdict['status']} {codes}"
    return None


def _check_certify_a(out: str):
    report = json.loads(out)
    return check_class_a("classA_m821", report["result"]["verdict"], report["stages"])


def _check_certify_b(out: str):
    report = json.loads(out)
    return check_class_b("classB_twist(9)", report["result"]["verdict"], report["stages"], 3)


CLI_COMMANDS = [
    (["dga", "--builtin", "trefoil"], _check_dga),
    (["augs", "--builtin", "trefoil", "--field", "16"], _check_augs),
    (["linpoly", "--grid", "fixtures/m821.json", "--field", "2", "--all-augs"], _check_linpoly),
    (["spin", "--builtin", "twist:5", "--spin", "3", "--integral"], _check_spin),
    (["augvar", "--system", "fixtures/twist_variety.sys", "--fields", "2,4,8,16"], _check_augvar),
    (["obstruct", "--poly", "t^-1 + 4 + 2*t", "--dim", "1"], _check_obstruct),
    (["certify", "classA"], _check_certify_a),
    (["certify", "classB", "--n", "9", "--spin", "3", "--fields", "2,4"], _check_certify_b),
]


class CliSmall:
    name = "cli-small"
    runs_in_children = True  # the work, and its memory, is in CLI subprocesses

    def __init__(self, seed: int, commands=CLI_COMMANDS):
        # A CLI process pays this import before any work; loading it here
        # keeps setup_s comparable with the CLI's own start-up.
        importlib.import_module("ldga.cli")
        self.items = list(commands)
        random.Random(seed).shuffle(self.items)
        self.ops_per_pass = len(self.items)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run_pass(self, tally: Tally, tracer=None) -> None:
        for argv, check in self.items:
            tally.attempt(self._run, argv, check, tracer)

    def _run(self, argv, check, tracer):
        if tracer is None:
            proc = self._spawn([sys.executable, "-m", "ldga.cli", *argv])
        else:
            with tracer.span("cli.process"):
                proc = self._spawn([sys.executable, str(CHILD), *argv])
                _, _, spans = proc.stderr.rpartition(SPANS_MARK)
                if spans:
                    child = json.loads(spans)
                    tracer.graft(child["spans"], child["counts"])
        if proc.returncode != 0:
            return f"{argv[0]}: exit {proc.returncode}"
        return judge(check, proc.stdout)

    def _spawn(self, cmd):
        return subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)


WORKLOADS = {w.name: w for w in (TorusScan, M821Fields, TwistCertify, CliSmall)}
