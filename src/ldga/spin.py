"""Front spinning of linearized homology.

Spinning a Legendrian around S^m multiplies its linearized homology by the
free homology of the sphere: LCH(Sigma_{S^m} Lambda) = LCH(Lambda) (x) H_*(S^m)
(Ekholm-Etnyre-Sullivan, "Non-isotopic Legendrian submanifolds in R^{2n+1}",
J. Differential Geom. 2005; Golovko, "A note on the front spinning
construction", Bull. London Math. Soc. 2014).  Here that is one operation on
homology, `spin_homology`: H + H[m].  `iterate_schedule` checks a schedule
against a knot's complex; each `SpinStage` records the sphere dimension m,
its stable bound and `legendrian_dimension`, 1 plus the sphere dimensions so
far.  Each stage has a precondition:

- the sphere dimension m is at least 1;
- a circle (m = 1) needs finite-field coefficients; once a circle has been
  spun, only circles may follow;
- every other m must exceed the stable bound M - m_min + 1 of the spun
  complex's degrees, so that the two copies occupy disjoint degree ranges.

So torsion of one copy never meets torsion of the other in one degree, and
H + H[m] is exactly the homology of the block sum C + C[m]
(`spin_complex_stable`, the complex-level reference), invariant factors
included.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._record import Record, set_fields
from .algebra import FiniteField
from .errors import SpinError
from .linhom import GradedModule, LinearizedComplex, zero_matrix


def stable_bound_complex(cx: LinearizedComplex) -> int:
    """M - m + 1 over the complex's degrees; spinning is stable strictly above it."""
    degrees = cx.degrees()
    if not degrees:
        raise SpinError("no generators; degree spread undefined")
    return degrees[-1] - degrees[0] + 1


def spin_complex_stable(cx: LinearizedComplex, m: int) -> LinearizedComplex:
    """Block sum C + C[m]; the shifted copy's basis names get the suffix ^N."""
    def part(d):  # C_d's basis and C_d -> C_{d-1}, a zero matrix when not stored
        basis = cx.bases.get(d, ())
        return basis, cx.matrices.get(d) or zero_matrix(cx.dim(d - 1), len(basis))

    bases, mats = {}, {}
    for d in sorted({*cx.bases, *(e + m for e in cx.bases)}):
        (basis, top), (copy, low) = part(d), part(d - m)
        bases[d] = (*basis, *[f"{name}^N" for name in copy])
        if bases[d] and bases.get(d - 1):
            mats[d] = ([row + [0] * len(copy) for row in top]
                       + [[0] * len(basis) + row for row in low])
    return LinearizedComplex(cx.ring, bases, mats)


def spin_homology(h: GradedModule, m: int) -> GradedModule:
    """H + H[m]: free ranks add degreewise, torsion is carried over."""
    out = dict(h.entries)
    for d, (free, tor) in h.entries.items():
        here, here_tor = out.get(d + m, (0, ()))
        if tor and here_tor:
            raise SpinError(f"torsion of both copies lands in degree {d + m}")
        out[d + m] = (here + free, here_tor + tor)
    return GradedModule(h.ring_tag, h.variance, out)


def kunneth_s1(h: GradedModule) -> GradedModule:
    """Circle spinning at homology level: dim_out(i) = dim(i) + dim(i-1)."""
    if not h.is_field:
        raise SpinError("Kunneth splitting is implemented for field coefficients")
    return spin_homology(h, 1)


class SpinStage(Record, frozen=True):
    """``bound`` is None for a circle, which needs no stable bound, and
    ``legendrian_dimension`` that of the spun knot: 1 plus the sphere dims so far."""

    __slots__ = ("sphere_dim", "bound", "legendrian_dimension")

    def __init__(self, sphere_dim: int, bound: int | None, legendrian_dimension: int):
        set_fields(self, sphere_dim, bound, legendrian_dimension)

    def record(self, **fields) -> dict:
        """Report record: a circle is a kunneth_s1 stage, other spheres spin with sphere_dim."""
        if self.bound is None:
            return {"stage": "kunneth_s1", **fields}
        return {"stage": "spin", "sphere_dim": self.sphere_dim, **fields}


def iterate_schedule(cx: LinearizedComplex, schedule: Sequence[int]) -> list[SpinStage]:
    """Check each stage's precondition; a stable stage never follows a circle,
    so its bound is the knot's degree spread plus the sphere dims so far."""
    stages: list[SpinStage] = []
    dim = 1
    for idx, m in enumerate(schedule):
        if m < 1:
            raise SpinError(f"schedule stage {idx} (sphere dim {m}) is below 1")
        circle = m == 1 and isinstance(cx.ring, FiniteField)
        if not circle and stages and stages[-1].bound is None:
            raise SpinError(f"schedule stage {idx} (sphere dim {m}) is a stable stage "
                            "after a Kunneth stage")
        bound = None if circle else stable_bound_complex(cx) + dim - 1
        if not circle and m <= bound:
            raise SpinError(f"schedule stage {idx} (sphere dim {m}) violates "
                            f"the stable bound {bound}")
        dim += m
        stages.append(SpinStage(m, bound, dim))
    return stages
