"""Spherical spinning: chord doubling, stable-range complexes, Kunneth.

Spinning doubles the chord set with a copy shifted up by the sphere
dimension m.  When m exceeds the degree spread bound M - m_min + 1 the two
families cannot interact and the linearized complex of the spun Legendrian
is the block sum of the original with its m-shift.  The circle case (m = 1)
is handled at homology level only, through the Kunneth splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import DGA
from .augment import Augmentation
from .linhom import GradedModule, LinearizedComplex, PoincarePolynomial


class SpinError(ValueError):
    pass


@dataclass(frozen=True)
class SpunChordSet:
    """South chords keep their degree; north chords shift up by m."""

    sphere_dim: int
    south: tuple[tuple[str, int], ...]
    north: tuple[tuple[str, int], ...]

    def degrees(self) -> list[int]:
        return sorted({d for _, d in self.south} | {d for _, d in self.north})

    def count(self) -> int:
        return len(self.south) + len(self.north)

    def chords_of_degree(self, d: int) -> list[str]:
        out = [name for name, deg in self.south if deg == d]
        out += [name for name, deg in self.north if deg == d]
        return sorted(out)


def degree_spread(degrees: Sequence[int]) -> tuple[int, int]:
    if not degrees:
        raise SpinError("no generators; degree spread undefined")
    return min(degrees), max(degrees)


def stable_bound(dga: DGA) -> int:
    """M - m + 1 over the chord degrees; spinning is stable strictly above it."""
    lo, hi = degree_spread([g.degree for g in dga.generators])
    return hi - lo + 1


def stable_bound_complex(cx: LinearizedComplex) -> int:
    lo, hi = degree_spread(cx.degrees())
    return hi - lo + 1


def spin_chords(dga: DGA, m: int) -> SpunChordSet:
    """Two disjoint chord families; disjoint degree ranges once m is stable."""
    if m < 1:
        raise SpinError(f"sphere dimension must be >= 1, got {m}")
    south = tuple((f"{g.name}^S", g.degree) for g in dga.generators)
    north = tuple((f"{g.name}^N", g.degree + m) for g in dga.generators)
    if m > stable_bound(dga):
        lo, hi = degree_spread([g.degree for g in dga.generators])
        assert hi < lo + m, "stable ranges overlap"
    return SpunChordSet(m, south, north)


def spin_complex_stable(cx: LinearizedComplex, m: int) -> LinearizedComplex:
    """Block sum of the complex with its m-shifted copy (stable range only)."""
    bound = stable_bound_complex(cx)
    if m <= bound:
        raise SpinError(
            f"sphere dimension {m} is not in the stable range (needs > {bound}); "
            f"use the S^1 Kunneth route for small spheres"
        )
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


def spun_polynomial(p: PoincarePolynomial, m: int) -> PoincarePolynomial:
    """Stable spinning multiplies the Poincare polynomial by (1 + t^m)."""
    return p.multiply_one_plus_tm(m)


def transport_augmentation(eps: Augmentation, spun: SpunChordSet, source: DGA) -> Augmentation:
    """eps~ = eps on south chords, 0 on north chords (degree >= m >= 2)."""
    if spun.sphere_dim < 2:
        raise SpinError("augmentation transport needs sphere dimension >= 2")
    degs = [g.degree for g in source.generators]
    if min(degs) < 0:
        raise SpinError("transport requires chords in non-negative degrees only")
    values = {}
    vals = eps.as_dict()
    for g in source.generators:
        if g.degree == 0 and vals.get(g.name, 0):
            values[f"{g.name}^S"] = vals[g.name]
    return Augmentation.build(eps.field, values, eps.t_value)


@dataclass(frozen=True)
class SpinStage:
    sphere_dim: int
    bound: int
    complex: LinearizedComplex


def iterate_schedule(cx: LinearizedComplex, schedule: Sequence[int]) -> list[SpinStage]:
    """Apply stable spinning stage by stage, recomputing the bound each time."""
    stages: list[SpinStage] = []
    current = cx
    for idx, m in enumerate(schedule):
        bound = stable_bound_complex(current)
        if m <= bound:
            raise SpinError(
                f"schedule stage {idx} (sphere dim {m}) violates the stable bound {bound}"
            )
        current = spin_complex_stable(current, m)
        stages.append(SpinStage(m, bound, current))
    return stages
