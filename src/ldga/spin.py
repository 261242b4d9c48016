"""Front spinning of linearized complexes.

Spinning a Legendrian around S^m multiplies its linearized homology by the
free homology of the sphere: LCH(Sigma_{S^m} Lambda) = LCH(Lambda) (x) H_*(S^m)
(Ekholm-Etnyre-Sullivan, "Non-isotopic Legendrian submanifolds in R^{2n+1}",
J. Differential Geom. 2005; Golovko, "A note on the front spinning
construction", Bull. London Math. Soc. 2014).  Here that is one operation on
complexes, the block sum C + C[m] of a complex with its m-shifted copy, and
`iterate_schedule` applies it stage by stage to a knot's complex.  Each
`SpinStage` records the sphere dimension m, the spun complex and
`legendrian_dimension`, the dimension of the spun Legendrian: 1 plus the
sphere dimensions so far.  Each stage has a precondition:

- the sphere dimension m is at least 1;
- a circle (m = 1) needs finite-field coefficients, where the block sum agrees
  with the Kunneth splitting `kunneth_s1` at homology level; once a circle has
  been spun, only circles may follow;
- every other m must exceed the stable bound M - m_min + 1 of the current
  complex's degrees, recomputed at each stage, so that the two copies occupy
  disjoint degree ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import FiniteField
from .linhom import GradedModule, LinearizedComplex


class SpinError(ValueError):
    pass


def stable_bound_complex(cx: LinearizedComplex) -> int:
    """M - m + 1 over the complex's degrees; spinning is stable strictly above it."""
    degrees = cx.degrees()
    if not degrees:
        raise SpinError("no generators; degree spread undefined")
    return degrees[-1] - degrees[0] + 1


def spin_complex_stable(cx: LinearizedComplex, m: int) -> LinearizedComplex:
    """Block sum of the complex with its m-shifted copy."""
    return cx.block_sum(cx.shift(m))


def kunneth_s1(h: GradedModule) -> GradedModule:
    """Circle spinning at homology level: dim_out(i) = dim(i) + dim(i-1)."""
    if not h.is_field:
        raise SpinError("Kunneth splitting is implemented for field coefficients")
    dims = h.dims()
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for d in sorted(set(dims) | {d + 1 for d in dims}):
        total = dims.get(d, 0) + dims.get(d - 1, 0)
        if total:
            out[d] = (total, ())
    return GradedModule(h.ring_tag, h.variance, out)


@dataclass(frozen=True)
class SpinStage:
    sphere_dim: int
    bound: int | None  # None for a circle, which needs no stable bound
    complex: LinearizedComplex
    legendrian_dimension: int  # of the spun knot: 1 plus the sphere dims so far


def iterate_schedule(cx: LinearizedComplex, schedule: Sequence[int]) -> list[SpinStage]:
    """Spin a knot's complex stage by stage, checking each stage's precondition first."""
    stages: list[SpinStage] = []
    circled = False
    dim = 1
    for idx, m in enumerate(schedule):
        bound = None
        if m < 1:
            raise SpinError(f"schedule stage {idx} (sphere dim {m}) is below 1")
        if m == 1 and isinstance(cx.ring, FiniteField):
            circled = True
        elif circled:
            raise SpinError("complex-level spinning after a Kunneth stage")
        else:
            bound = stable_bound_complex(cx)
            if m <= bound:
                raise SpinError(
                    f"schedule stage {idx} (sphere dim {m}) violates the stable bound {bound}"
                )
        cx = spin_complex_stable(cx, m)
        dim += m
        stages.append(SpinStage(m, bound, cx, dim))
    return stages
