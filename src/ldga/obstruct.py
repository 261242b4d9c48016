"""Non-fillability certifiers and the end-to-end certification pipelines.

Two obstruction engines: the Seidel-isomorphism feasibility test, which
reads a hypothetical filling homology profile off linearized contact
cohomology (a homological ``GradedModule`` with H_i = LCH^{n-i}), and the
augmentation-variety injectivity test, which compares torus point counts
forced by the filling's H_1 (over a field, the lower bound (q - 1)^k with
k = dim H_1 - dim H_2) against the Legendrian's own variety counts;
those exact counts alone decide its verdict.
``obstruction_chain`` runs them in one order, seidel, euler_tb (the Euler/tb
check for surfaces) and aug_injectivity, and stops at the first obstruction;
``ldga obstruct``, class A (seidel only) and class B all run it.
A verdict is its reasons: it is obstructed exactly when it has one.
Reason codes are stable strings and part of the contract:

    seidel.negative_degree      LCH class in negative degree (no H_i slot
                                inside the filling's dimension range)
    seidel.degree_above_dimension  LCH class in degree > n
    seidel.disconnected         H_0 slot is not rank one
    euler.odd_h1                no orientable surface has odd b_1
    euler.tb_mismatch           chi(L) = -tb violated
    augvar.count_exceeds        torus has more points than the variety
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

from . import linhom
from ._record import Record, set_field
from .algebra import Laurent
from .errors import ObstructionStageError
from .linhom import COHOMOLOGICAL, HOMOLOGICAL, GradedModule, module_to_jsonable

@lru_cache(maxsize=None)
def _twist_variety():
    """The Legendrian-side augmentation variety of the twist knots, a fixed
    polynomial system (two coordinates with product -1), parsed on first use
    by class B, never at import."""
    from .augment import parse_polysystem
    return parse_polysystem("var a b; eq a*b + 1;")


FEASIBLE = "feasible"
OBSTRUCTED = "obstructed"


class ObstructionVerdict(Record, frozen=True):
    """A verdict is its reasons, (code, detail) pairs: obstructed exactly when
    there is one, feasible when there is none."""

    __slots__ = ("reasons",)

    def __init__(self, reasons: Iterable[tuple[str, str]] = ()):
        set_field(self, "reasons", tuple(reasons))

    @property
    def status(self) -> str:
        return OBSTRUCTED if self.reasons else FEASIBLE

    @property
    def obstructed(self) -> bool:
        return bool(self.reasons)

    def codes(self) -> list[str]:
        return [code for code, _ in self.reasons]

    def to_jsonable(self):
        return {
            "status": self.status,
            "reasons": [{"code": c, "detail": d} for c, d in self.reasons],
        }


# ---------------------------------------------------------------------------
# Seidel feasibility
# ---------------------------------------------------------------------------

def seidel_profile(h: GradedModule, n: int):
    """Read H_i(filling) := LCH^{n-i} for 0 <= i <= n+1, or obstruct.

    The profile is a homological module over h's ring; n, the Legendrian
    dimension (the filling is (n+1)-dimensional), stays with the caller.
    The input must be cohomological.  Nonzero classes in negative degree
    land above the filling's dimension (impossible for an open manifold);
    classes above degree n have no slot at all; the degree-n slot is H_0 and
    must be rank one for a connected filling.
    """
    if h.variance != COHOMOLOGICAL:
        raise ValueError("seidel_profile consumes cohomological modules")
    reasons = []
    for d in h.degrees():  # a module keeps only its nonzero degrees
        if d < 0:
            reasons.append(("seidel.negative_degree", f"LCH^{d} is nonzero, forcing "
                            f"H_{n - d} of an open {n + 1}-manifold filling to be nonzero"))
        elif d > n:
            reasons.append(("seidel.degree_above_dimension",
                            f"LCH^{d} is nonzero but fillings only provide degrees <= {n}"))
    if not reasons and (h.free_rank(n), h.torsion(n)) != (1, ()):
        reasons.append(("seidel.disconnected", f"H_0 slot (LCH^{n}) is rank {h.free_rank(n)} "
                        f"with torsion {list(h.torsion(n))}; a connected filling needs "
                        f"exactly rank one"))
    if reasons:
        return ObstructionVerdict(reasons)
    # every degree left lies in [0, n]
    return GradedModule(h.ring_tag, HOMOLOGICAL, {n - d: e for d, e in h.entries.items()})


def euler_tb_check(profile: GradedModule, n: int, tb: int) -> ObstructionVerdict:
    """Surface filling bookkeeping: chi(L) = 1 - b_1 must equal -tb."""
    if n != 1:
        raise ValueError("euler_tb_check applies to 1-dimensional Legendrians")
    b1 = profile.free_rank(1)
    reasons = []
    if b1 % 2:
        reasons.append(("euler.odd_h1", f"b_1 = {b1} is odd; orientable surfaces have even b_1"))
    if 1 - b1 != -tb:
        reasons.append(("euler.tb_mismatch",
                        f"chi = {1 - b1} but -tb = {-tb}; no exact filling surface"))
    return ObstructionVerdict(reasons)


# ---------------------------------------------------------------------------
# Augmentation-variety injectivity
# ---------------------------------------------------------------------------

def aug_injectivity_test(
    profile: GradedModule,
    legendrian_counts: dict[int, int],
) -> ObstructionVerdict:
    """An injection Aug(L) -> Aug(Lambda) needs |Aug(L; F_q)| <= |Aug(Lambda; F_q)|.

    The exact point counts alone decide the verdict, which keeps the test
    monotone under entrywise enlargement of the Legendrian counts: one
    reason per field order at which the torus forced by the filling's H_1
    has more points than the Legendrian's variety.  A field profile gives
    no torsion and k = max(0, dim H_1 - dim H_2) <= b_1, as H_2(L; F_p)
    holds Tor(H_1(L; Z), F_p): (q - 1)^k never exceeds the true count.
    """
    from .augment import torus_point_count
    if not legendrian_counts:
        raise ValueError("empty count table")
    k, torsion = profile.free_rank(1), profile.torsion(1)
    if profile.is_field:
        k = max(0, k - profile.free_rank(2))
    reasons = []
    for q in sorted(legendrian_counts):
        torus = torus_point_count(k, torsion, q)
        have = legendrian_counts[q]
        if torus > have:
            reasons.append(
                (
                    "augvar.count_exceeds",
                    f"at q = {q} the filling torus has {torus} points but the "
                    f"Legendrian variety has only {have}",
                )
            )
    return ObstructionVerdict(reasons)


def obstruction_chain(h: GradedModule, n: int, evidence: list[dict], tb: int | None = None,
                      counts: Callable[[], dict[int, int]] | None = None,
                      euler_fields: dict | None = None) -> ObstructionVerdict:
    """seidel, then euler_tb if tb is given, then aug_injectivity if counts is:
    each stage runs while the verdict is feasible and appends its record to
    evidence.  euler_fields extend the euler_tb record; counts is called only
    when its stage runs, which reads the profile over its own ring."""
    profile = seidel_profile(h, n)
    if isinstance(profile, ObstructionVerdict):
        verdict, record = profile, {"verdict": profile.to_jsonable()}
    else:
        verdict, record = ObstructionVerdict(), {"profile": {
            "ring": profile.ring_tag, "legendrian_dimension": n,
            "homology": module_to_jsonable(profile)["entries"]}}
    evidence.append({"stage": "seidel", **record})
    if tb is not None and not verdict.obstructed:
        verdict = euler_tb_check(profile, n, tb)
        evidence.append({"stage": "euler_tb", **(euler_fields or {}),
                         "verdict": verdict.to_jsonable()})
    if counts is not None and not verdict.obstructed:
        verdict = aug_injectivity_test(profile, counts())
        evidence.append({"stage": "aug_injectivity", "verdict": verdict.to_jsonable()})
    return verdict


# ---------------------------------------------------------------------------
# End-to-end pipelines
# ---------------------------------------------------------------------------

class Certification(Record):
    __slots__ = ("verdict", "evidence")

    def __init__(self, verdict: ObstructionVerdict, evidence: list[dict]):
        self.verdict = verdict
        self.evidence = evidence


TARGET_M821_POLY = Laurent.from_dict({-1: 1, 0: 4, 1: 2})


def certify_nongeometric(
    case: str,
    n: int | None = None,
    schedule: Sequence[int] = (),
    fields: Sequence[int] = (2, 4),
    grid: diagram.GridDiagram | None = None,
    budget: int | None = None,
) -> Certification:
    """Run a full paper-scale pipeline; every intermediate lands in evidence."""
    if case in ("classA_m821", "classA_spun"):
        if case == "classA_spun" and not schedule:
            schedule = (1,)
        if any(m != 1 for m in schedule):
            raise ObstructionStageError("schedule", "class A spins circles only")
        verdict, evidence = _certify_class_a(schedule, grid, budget)
    elif case == "classB_twist":
        if n is None:
            raise ObstructionStageError("input", "classB_twist needs n")
        verdict, evidence = _certify_class_b(n, schedule, fields)
    else:
        raise ObstructionStageError("input", f"unknown case {case!r}")
    return Certification(verdict, evidence)


def _certify_class_a(schedule, grid, budget):
    """Grid -> front -> projection -> DGA -> the F2 linearized complex of the
    first augmentation with polynomial TARGET_M821_POLY (failing loudly if
    there is none) -> spun cohomology -> the chain, which is seidel only."""
    from . import augment, cedga, diagram, spin
    grid = grid or cedga.m821_grid()
    front = diagram.grid_to_front(grid)
    rot = front.rotation_number
    evidence = [{"stage": "grid", "size": grid.size},
                {"stage": "front", "tb": front.tb, "rotation_number": rot,
                 "left_cusps": front.n_left_cusps, "right_cusps": front.n_right_cusps}]
    if rot != 0:
        raise ObstructionStageError("front", f"rotation number {rot} != 0")
    proj = diagram.resolve(front)
    evidence.append({"stage": "resolve", "crossings": len(proj.crossings),
                     "degrees": sorted(c.degree for c in proj.crossings)})
    dga = cedga.build_dga(proj, budget=budget)
    evidence.append({"stage": "dga", "generators": len(dga.generators),
                     "differential_terms": sum(len(e.terms) for e in dga.differential.values())})
    polys, chosen = [], None
    for eps in augment.enumerate_augmentations(dga, 2):
        cx = augment.linearized_complex(dga, eps)
        h = linhom.homology_field(cx)
        p = linhom.poincare(h)
        polys.append(str(p))
        if chosen is None and p == TARGET_M821_POLY:
            chosen = eps, cx, h
    if not polys:
        raise ObstructionStageError("augment", "no graded augmentations over F2")
    polys.sort()
    evidence.append({"stage": "augment", "count": len(polys), "polynomials": polys})
    if chosen is None:
        raise ObstructionStageError(
            "augment", f"no augmentation with polynomial {TARGET_M821_POLY}; got {polys}")
    eps, cx, h = chosen
    evidence.append({"stage": "distinguished_augmentation", "values": dict(eps.values),
                     "polynomial": str(TARGET_M821_POLY)})
    stages = spin.iterate_schedule(cx, schedule)
    h = linhom.as_cohomological(h)
    for st in stages:
        h = spin.spin_homology(h, st.sphere_dim)
        evidence.append(st.record(legendrian_dimension=st.legendrian_dimension,
                                  module=module_to_jsonable(h)))
    leg_dim = stages[-1].legendrian_dimension if stages else 1
    return obstruction_chain(h, leg_dim, evidence), evidence


def _certify_class_b(n, schedule, fields):
    from . import augment, cedga, spin
    evidence = []
    dga = cedga.twist_linearized(n)
    evidence.append({"stage": "builtin", "n": n, "generators": len(dga.generators)})

    cx = augment.linear_part(dga)
    h_int = linhom.homology_integral(cx)
    evidence.append({"stage": "homology_integral", "module": module_to_jsonable(h_int)})
    h_coh = linhom.uct_dualize(h_int)
    evidence.append({"stage": "uct", "module": module_to_jsonable(h_coh)})
    h_f2 = linhom.homology_mod_p(h_int, 2)
    evidence.append({"stage": "homology_f2", "polynomial": str(linhom.poincare(h_f2))})

    try:
        stages = spin.iterate_schedule(cx, schedule)
    except spin.SpinError as exc:
        raise ObstructionStageError("spin", str(exc)) from exc
    leg_dim = stages[-1].legendrian_dimension if stages else 1
    for st in stages:
        h_coh = spin.spin_homology(h_coh, st.sphere_dim)
        h_f2 = spin.spin_homology(h_f2, st.sphere_dim)
        evidence.append(st.record(bound=st.bound, legendrian_dimension=st.legendrian_dimension,
                                  polynomial_f2=str(linhom.poincare(h_f2))))
    evidence.append({"stage": "spun_homology_integral", "module": module_to_jsonable(h_coh)})

    def variety_counts():
        counts = {q: augment.variety_points(_twist_variety(), q) for q in fields}
        evidence.append({"stage": "variety_counts",
                         "counts": {str(q): c for q, c in counts.items()}})
        return counts

    tb = (len(dga.generators_of_degree(0)) - len(dga.generators_of_degree(1))
          if leg_dim == 1 else None)  # the Euler/tb check is for surface fillings
    verdict = obstruction_chain(h_coh, leg_dim, evidence, tb=tb, counts=variety_counts,
                                euler_fields={"tb": tb})
    return verdict, evidence
