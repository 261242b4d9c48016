import pytest

from ldga.algebra import DGA, Element, Generator, ZZ
from ldga.augment import conjugate, enumerate_augmentations, linear_part
from ldga.cedga import build_dga, m821_grid, twist_linearized
from ldga.diagram import grid_to_front, resolve
from ldga.linhom import (
    GradedModule,
    HOMOLOGICAL,
    LinearizedComplex,
    as_cohomological,
    homology_field,
    homology_integral,
    poincare,
    reduce_complex_mod_p,
)
from ldga.spin import (
    SpinError,
    iterate_schedule,
    kunneth_s1,
    spin_complex_stable,
    stable_bound_complex,
)


def twist_complex(n=5):
    return linear_part(twist_linearized(n))


# ---------------------------------------------------------------------------
# stability bound and spun bases
# ---------------------------------------------------------------------------

def test_stable_bound_twist():
    assert stable_bound_complex(twist_complex(5)) == 2


def test_stable_bound_single_generator():
    cx = LinearizedComplex(ZZ, {1: ("e",)}, {})
    assert stable_bound_complex(cx) == 1


def test_stable_bound_degree_spread():
    cx = LinearizedComplex(ZZ, {d: (f"g{d}",) for d in (-1, 0, 1, 2)}, {})
    assert stable_bound_complex(cx) == 4


def test_stable_bound_empty():
    with pytest.raises(SpinError):
        stable_bound_complex(LinearizedComplex(ZZ, {}, {}))


def test_spin_chords_twist():
    # every chord gets a copy shifted up by m
    spun = spin_complex_stable(twist_complex(5), 3)
    assert sum(spun.dim(d) for d in spun.degrees()) == 26
    assert spun.degrees() == [0, 1, 3, 4]
    assert spun.dim(0) == 7
    assert spun.dim(3) == 7


def test_spin_chords_small_sphere_allowed():
    # a circle is allowed over a field, below the stable bound
    cx = reduce_complex_mod_p(twist_complex(5), 2)
    (stage,) = iterate_schedule(cx, [1])
    assert stage.bound is None
    assert stage.complex.degrees() == [0, 1, 2]
    assert sum(stage.complex.dim(d) for d in stage.complex.degrees()) == 26


# ---------------------------------------------------------------------------
# stable-range complexes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5])
def test_spin_complex_stable_twist(m):
    spun = spin_complex_stable(twist_complex(5), m)
    h = homology_integral(spun)
    assert h.entries == {0: (2, ()), 1: (1, ()), m: (2, ()), m + 1: (1, ())}


def test_spin_complex_rejects_small_sphere():
    with pytest.raises(SpinError, match="violates the stable bound 2"):
        iterate_schedule(twist_complex(5), [2])


def test_spin_zero_complex():
    cx = LinearizedComplex(ZZ, {0: ("x",), 1: ("e",)}, {1: [[0]]})
    spun = spin_complex_stable(cx, 3)
    h = homology_integral(spun)
    assert h.entries == {0: (1, ()), 1: (1, ()), 3: (1, ()), 4: (1, ())}


def test_spun_field_dims_are_block_sums():
    cx = reduce_complex_mod_p(twist_complex(5), 2)
    spun = spin_complex_stable(cx, 3)
    dims = homology_field(spun).dims()
    base = homology_field(cx).dims()
    expect = dict(base)
    for d, k in base.items():
        expect[d + 3] = expect.get(d + 3, 0) + k
    assert dims == expect


@pytest.mark.parametrize("m", [3, 4, 5])
def test_spun_polynomial_identity(m):
    # stable spinning multiplies the Poincare polynomial by (1 + t^m)
    cx = reduce_complex_mod_p(twist_complex(7), 2)
    p = poincare(as_cohomological(homology_field(cx)))
    spun = spin_complex_stable(cx, m)
    p_spun = poincare(as_cohomological(homology_field(spun)))
    assert p_spun.as_dict() == p.multiply_one_plus_tm(m).as_dict()


# ---------------------------------------------------------------------------
# Kunneth for circle spinning
# ---------------------------------------------------------------------------

def test_kunneth_m821_dims():
    h = GradedModule("F2", HOMOLOGICAL, {-1: (1, ()), 0: (4, ()), 1: (2, ())})
    spun = kunneth_s1(h)
    assert spun.dims() == {-1: 1, 0: 5, 1: 6, 2: 2}
    assert spun.dims()[-1] == 1


def test_kunneth_zero_module():
    h = GradedModule("F2", HOMOLOGICAL, {})
    assert kunneth_s1(h).is_zero()


def test_kunneth_polynomial_identity():
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    eps = enumerate_augmentations(dga, 2)[0]
    h = homology_field(linear_part(conjugate(dga, eps)))
    p = poincare(as_cohomological(h))
    spun = kunneth_s1(h)
    assert poincare(as_cohomological(spun)).as_dict() == p.multiply_one_plus_tm(1).as_dict()


def test_kunneth_rejects_integral():
    h = GradedModule("Z", HOMOLOGICAL, {0: (1, ())})
    with pytest.raises(SpinError):
        kunneth_s1(h)


@pytest.mark.parametrize("q", [2, 4])
def test_circle_stage_matches_kunneth_on_m821(q):
    # the complex-level circle C + C[1] against the homology-level oracle
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    augs = enumerate_augmentations(dga, q)
    assert augs
    for eps in augs:
        cx = linear_part(conjugate(dga, eps))
        h = homology_field(cx)
        for st in iterate_schedule(cx, [1, 1, 1]):
            h = kunneth_s1(h)
            assert homology_field(st.complex) == h


# ---------------------------------------------------------------------------
# augmentations of the stable spun DGA
# ---------------------------------------------------------------------------

def spun_stable_dga(dga: DGA, m: int) -> DGA:
    """South + north copies with the differential acting blockwise."""
    gens = [Generator(f"{g.name}^S", g.degree) for g in dga.generators]
    gens += [Generator(f"{g.name}^N", g.degree + m) for g in dga.generators]
    diff = {}
    for tag in ("S", "N"):
        for g in dga.generators:
            el = dga.diff_of(g.name)
            diff[f"{g.name}^{tag}"] = Element.build(
                dga.ring,
                {tuple(f"{f}^{tag}" for f in w): c for w, c in el.terms},
            )
    return DGA(dga.ring, tuple(gens), diff)


def test_spun_augmentation_count_is_preserved():
    # the graded augmentations of the stable spun DGA biject with the source's
    dga = twist_linearized(5)
    spun = spun_stable_dga(dga, 3)
    assert len(enumerate_augmentations(spun, 2)) == len(enumerate_augmentations(dga, 2))
    assert len(enumerate_augmentations(spun, 4)) == len(enumerate_augmentations(dga, 4))


# ---------------------------------------------------------------------------
# iterated schedules
# ---------------------------------------------------------------------------

def test_iterate_single_stage():
    stages = iterate_schedule(twist_complex(5), [3])
    assert len(stages) == 1
    h = homology_integral(stages[0].complex)
    assert h.entries == {0: (2, ()), 1: (1, ()), 3: (2, ()), 4: (1, ())}


def test_iterate_recomputes_bound():
    stages = iterate_schedule(twist_complex(5), [3, 8])
    assert stages[1].bound == 5
    assert [st.legendrian_dimension for st in stages] == [4, 12]
    degrees = sorted(stages[1].complex.bases)
    assert degrees == [0, 1, 3, 4, 8, 9, 11, 12]


def test_iterate_empty_schedule():
    assert iterate_schedule(twist_complex(5), []) == []


def test_iterate_rejects_bad_stage():
    with pytest.raises(SpinError, match="stage 1"):
        iterate_schedule(twist_complex(5), [3, 5])


@pytest.mark.parametrize("schedule", [[0], [-3], [3, 0]])
def test_iterate_rejects_sphere_dims_below_one(schedule):
    # checked before the stable bound, which says nothing about such a sphere
    with pytest.raises(SpinError, match="is below 1"):
        iterate_schedule(twist_complex(5), schedule)


def test_iterate_circles_need_a_field():
    # over Z a circle is an unstable sphere like any other
    with pytest.raises(SpinError, match="stage 0 .* violates the stable bound"):
        iterate_schedule(twist_complex(5), [1])


@pytest.mark.parametrize("schedule", [[1, 3], [3, 1, 8]])
def test_iterate_rejects_complex_level_after_circle(schedule):
    cx = reduce_complex_mod_p(twist_complex(5), 2)
    with pytest.raises(SpinError, match="after a Kunneth stage"):
        iterate_schedule(cx, schedule)
