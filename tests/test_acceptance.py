"""Acceptance criteria: one test and one printed pass/fail line per criterion.

All comparisons are exact (integer/field arithmetic); runtime budgets are
asserted with time.monotonic.  Run with `pytest -v` to see the per-criterion
lines (they are printed to stderr so they survive output capture).
"""

import sys
import time

import pytest
from reference import evaluate, field_pow, is_unimodular, reduce_complex_mod_p
from test_augment import exhaustive_augmentations

from ldga import augment, cedga, diagram, linhom, obstruct, spin
from ldga.algebra import GF, ZT, validate
from ldga.augment import (
    enumerate_augmentations,
    linear_part,
    parse_polysystem,
    roots_of_unity_count,
    torus_point_count,
    variety_points,
)
from ldga.cedga import build_dga, m821_grid, trefoil_projection, twist_linearized, unknot_dsl_dga, unknot_projection
from ldga.diagram import grid_to_front, resolve
from ldga.linhom import (
    as_cohomological,
    homology_field,
    homology_integral,
    mat_mul,
    poincare,
    smith_normal_form,
    uct_dualize,
)
from ldga.obstruct import _twist_variety, aug_injectivity_test, certify_nongeometric, seidel_profile


def report(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}", file=sys.stderr)


def test_criterion_1_twist_integral_homology():
    t0 = time.monotonic()
    for n in (5, 7, 9):
        h = homology_integral(linear_part(twist_linearized(n)))
        assert h.entries == {0: (2, ()), 1: (1, ())}, f"n={n}: {h.describe()}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"twist n=5,7,9: H_0 = Z^2, H_1 = Z, no torsion ({elapsed*1000:.0f} ms)")


def test_criterion_2_uct():
    for n in (5, 7, 9):
        h = homology_integral(linear_part(twist_linearized(n)))
        hc = uct_dualize(h)
        assert hc.entries == {0: (2, ()), 1: (1, ())}
        assert hc.variance == linhom.COHOMOLOGICAL
    report(2, "UCT: H^0 = Z^2, H^1 = Z exactly")


def test_criterion_3_stable_spin():
    t0 = time.monotonic()
    for n in (5, 7, 9):
        cx = linear_part(twist_linearized(n))
        base_poly = poincare(as_cohomological(homology_field(reduce_complex_mod_p(cx, 2))))
        assert base_poly.as_dict() == {0: 2, 1: 1}
        for m in (3, 4, 5):
            spun = spin.spin_complex_stable(cx, m)
            p = poincare(as_cohomological(homology_field(reduce_complex_mod_p(spun, 2))))
            assert p == ZT.mul(base_poly, ZT.add(ZT.one, ZT.t_power(m)))
            h = homology_integral(spun)
            assert h.entries.get(m) == (2, ()), f"H_{m} != Z^2"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(3, f"stable spin m=3,4,5: P = (1+t^m)(2+t), H_m = Z^2 ({elapsed*1000:.0f} ms)")


def test_criterion_4_variety_counts():
    t0 = time.monotonic()
    for q in (2, 4, 8, 16):
        assert variety_points(_twist_variety(), q) == q - 1
    assert torus_point_count(2, [], 4) == 9
    profile = linhom.GradedModule("Z", linhom.HOMOLOGICAL, {0: (1, ()), 1: (2, ())})
    verdict = aug_injectivity_test(profile, {2: 1, 4: 3})
    assert verdict.obstructed
    assert "augvar.count_exceeds" in verdict.codes()
    assert any("9" in d and "3" in d for _, d in verdict.reasons)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(4, f"|V(F_q)| = q-1; torus(2, F_4) = 9 > 3 obstructs ({elapsed*1000:.0f} ms)")


def test_criterion_5_class_b_end_to_end():
    t0 = time.monotonic()
    for n in (5, 7, 9):
        for m in (3, 4, 5):
            cert = certify_nongeometric("classB_twist", n=n, schedule=[m], fields=(2, 4))
            assert cert.verdict.obstructed, f"n={n}, m={m} not obstructed"
            assert "augvar.count_exceeds" in cert.verdict.codes()
            stages = {e["stage"]: e for e in cert.evidence}
            assert stages["homology_integral"]["module"]["entries"] == {
                "0": [2, []], "1": [1, []]
            }
            assert stages["uct"]["module"]["entries"] == {"0": [2, []], "1": [1, []]}
            assert stages["homology_f2"]["polynomial"] == "2 + t"
            assert stages["variety_counts"]["counts"] == {"2": 1, "4": 3}
            assert stages["spun_homology_integral"]["module"]["entries"][str(m)] == [2, []]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(5, f"classB obstructed for n in 5,7,9 x m in 3,4,5 ({elapsed*1000:.0f} ms)")


def test_criterion_6_class_a_pipeline():
    t0 = time.monotonic()
    grid = m821_grid()
    front = grid_to_front(grid)
    assert front.rotation_number == 0, "fixture front must have rotation number 0"
    proj = resolve(front)
    dga = build_dga(proj)
    augs = enumerate_augmentations(dga, 2)
    assert augs, "fixture produced no augmentations"
    polynomials = []
    for eps in augs:
        cx = linear_part(augment.conjugate(dga, eps))
        polynomials.append(poincare(as_cohomological(homology_field(cx))).as_dict())
    target = {-1: 1, 0: 4, 1: 2}
    assert target in polynomials, (
        f"fixture failed loudly: {sorted(str(p) for p in polynomials)} lacks t^-1 + 4 + 2t"
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    report(
        6,
        f"m(8_21) grid pipeline: r = 0, {len(augs)} augmentations, "
        f"multiset contains t^-1 + 4 + 2t ({elapsed*1000:.0f} ms)",
    )


def test_criterion_7_class_a_obstructions():
    h = linhom.GradedModule(
        "F2", linhom.COHOMOLOGICAL, {-1: (1, ()), 0: (4, ()), 1: (2, ())}
    )
    verdict = seidel_profile(h, 1)
    assert isinstance(verdict, obstruct.ObstructionVerdict)
    assert verdict.codes() == ["seidel.negative_degree"]
    spun = spin.kunneth_s1(h)
    assert spun.dims()[-1] == 1
    verdict2 = seidel_profile(spun, 2)
    assert verdict2.obstructed
    assert "H_3" in verdict2.reasons[0][1]
    report(7, "Seidel: t^-1+4+2t obstructed at n=1; S^1-spun obstructed via H_3 = 1")


def test_criterion_8_property_suites():
    # d^2 = 0 on all diagram-derived and builtin DGAs
    dgas = [
        build_dga(unknot_projection()),
        build_dga(trefoil_projection()),
        build_dga(resolve(grid_to_front(m821_grid()))),
        twist_linearized(5),
        twist_linearized(7),
        twist_linearized(9),
        unknot_dsl_dga(),
    ]
    for dga in dgas:
        assert validate(dga) == []

    # SNF unimodularity certificates
    for mat in ([[2, 4, 4]], [[6, 4], [4, 6]], [[1, 2], [3, 4], [5, 6]]):
        snf = smith_normal_form(mat)
        assert is_unimodular(snf.u) and is_unimodular(snf.v)
        assert mat_mul(mat_mul(snf.u, mat), snf.v) == snf.d

    # augmentation re-verification
    tre = build_dga(trefoil_projection())
    for eps in enumerate_augmentations(tre, 2):
        for g in tre.generators:
            assert evaluate(eps, tre, tre.diff_of(g.name)) == 0

    # torus count equals the variety-point oracle for k <= 2, q <= 8
    for k in (0, 1, 2):
        variables = []
        eqs = []
        for i in range(k):
            variables += [f"x{i}", f"y{i}"]
            eqs.append(f"eq x{i}*y{i} - 1;")
        system = (
            parse_polysystem(f"var {' '.join(variables)};" + "".join(eqs))
            if k
            else augment.PolySystem((), ())
        )
        for q in (2, 4, 8):
            assert torus_point_count(k, [], q) == variety_points(system, q)

    # roots of unity match brute force for k <= 12, q <= 16
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = GF(q)
        for k in range(1, 13):
            brute = sum(1 for x in f.elements() if field_pow(f, x, k) == f.one)
            assert roots_of_unity_count(k, q) == brute

    # Kunneth polynomial identity (1 + t) * P on the class A module
    grid_dga = dgas[2]
    eps = enumerate_augmentations(grid_dga, 2)[0]
    h = homology_field(linear_part(augment.conjugate(grid_dga, eps)))
    p = poincare(as_cohomological(h))
    assert poincare(as_cohomological(spin.kunneth_s1(h))) == ZT.mul(p, ZT.add(ZT.one, ZT.t_power(1)))

    # stable spin identity (1 + t^m) * P
    cx = linear_part(twist_linearized(7))
    p = poincare(as_cohomological(homology_field(reduce_complex_mod_p(cx, 2))))
    for m in (3, 4):
        spun = spin.spin_complex_stable(reduce_complex_mod_p(cx, 2), m)
        assert poincare(as_cohomological(homology_field(spun))) == \
            ZT.mul(p, ZT.add(ZT.one, ZT.t_power(m)))

    report(8, "property suites: d^2=0, SNF certificates, oracles, (1+t^m) identities")


def test_criterion_9_sanity_oracles():
    unknot = build_dga(unknot_projection())
    assert len(enumerate_augmentations(unknot, 2)) == 1
    assert len(enumerate_augmentations(unknot_dsl_dga(), 2)) == 1
    trefoil = build_dga(trefoil_projection())
    augs = enumerate_augmentations(trefoil, 2)
    assert len(augs) == 5
    assert augs == exhaustive_augmentations(trefoil, 2)
    report(9, "unknot has exactly 1 graded augmentation over F2; trefoil exactly 5")
