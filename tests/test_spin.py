import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import reduce_complex_mod_p

from ldga.algebra import DGA, GF, Element, Generator, ZT, ZZ
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
)
from ldga.spin import (
    SpinError,
    iterate_schedule,
    kunneth_s1,
    spin_complex_stable,
    spin_homology,
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
    spun = spin_complex_stable(cx, stage.sphere_dim)
    assert spun.degrees() == [0, 1, 2]
    assert sum(spun.dim(d) for d in spun.degrees()) == 26


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
    assert p_spun == ZT.mul(p, ZT.add(ZT.one, ZT.t_power(m)))


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
    assert not kunneth_s1(h).entries


def test_kunneth_polynomial_identity():
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    eps = enumerate_augmentations(dga, 2)[0]
    h = homology_field(linear_part(conjugate(dga, eps)))
    p = poincare(as_cohomological(h))
    spun = kunneth_s1(h)
    assert poincare(as_cohomological(spun)) == ZT.mul(p, ZT.add(ZT.one, ZT.t_power(1)))


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
        spun = cx
        for stage in iterate_schedule(cx, [1, 1, 1]):
            h = kunneth_s1(h)
            spun = spin_complex_stable(spun, stage.sphere_dim)
            assert homology_field(spun) == h


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
    cx = twist_complex(5)
    stages = iterate_schedule(cx, [3])
    assert len(stages) == 1
    want = {0: (2, ()), 1: (1, ()), 3: (2, ()), 4: (1, ())}
    assert homology_integral(spin_complex_stable(cx, stages[0].sphere_dim)).entries == want
    assert spin_homology(homology_integral(cx), stages[0].sphere_dim).entries == want


def test_iterate_recomputes_bound():
    cx = twist_complex(5)
    stages = iterate_schedule(cx, [3, 8])
    assert stages[1].bound == 5
    assert [stage.legendrian_dimension for stage in stages] == [4, 12]
    once = spin_complex_stable(cx, stages[0].sphere_dim)
    assert stages[1].bound == stable_bound_complex(once)
    degrees = sorted(spin_complex_stable(once, stages[1].sphere_dim).bases)
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


# ---------------------------------------------------------------------------
# homology-level spinning against the complex-level reference
# ---------------------------------------------------------------------------

def test_spin_homology_carries_torsion():
    h = GradedModule("Z", HOMOLOGICAL, {0: (1, (2,)), 1: (1, ())})
    assert spin_homology(h, 1).entries == {0: (1, (2,)), 1: (2, (2,)), 2: (1, ())}
    assert spin_homology(h, 3).entries == {
        0: (1, (2,)), 1: (1, ()), 3: (1, (2,)), 4: (1, ()),
    }


def test_spin_homology_rejects_torsion_of_both_copies_in_one_degree():
    # Z/3 + Z/2 in degree 1 would be listed as (2, 3), not as invariant factors
    h = GradedModule("Z", HOMOLOGICAL, {0: (0, (2,)), 1: (0, (3,))})
    with pytest.raises(SpinError, match="torsion of both copies lands in degree 1"):
        spin_homology(h, 1)


@st.composite
def scrambled_complexes(draw, ring):
    """A direct sum of elementary complexes in a mixed basis.

    Degrees -1..2 get free generators (d = 0) and pairs e -> k*x, e one
    degree above x; over Z a k with |k| > 1 leaves torsion Z/|k|.  Basis
    changes I + c*E_ij in each degree then mix the summands: row i of the
    incoming matrix gains c * row j, and column j of the outgoing matrix
    loses c * column i, so d^2 = 0 still holds.
    """
    names: dict[int, list[str]] = {d: [] for d in range(-1, 3)}
    for d in names:
        names[d] += [f"z{d}_{i}" for i in range(draw(st.integers(0, 2)))]
    pairs = []
    if ring is ZZ:
        coeff, mix = st.sampled_from([1, -1, 2, 3, -4, 6]), st.sampled_from([-2, -1, 1, 2])
    else:
        coeff = mix = st.integers(1, ring.q - 1)
    for i in range(draw(st.integers(0, 4))):
        d = draw(st.integers(-1, 1))
        names[d].append(f"x{i}")
        names[d + 1].append(f"e{i}")
        pairs.append((d + 1, len(names[d + 1]) - 1, len(names[d]) - 1, draw(coeff)))
    names = {d: gens for d, gens in names.items() if gens}
    assume(names)
    mats = {d: [[0] * len(names[d]) for _ in names[d - 1]] for d in names if d - 1 in names}
    for d, e, x, k in pairs:
        mats[d][x][e] = k
    for d, gens in names.items():
        for _ in range(draw(st.integers(0, 3)) if len(gens) > 1 else 0):
            i, j = draw(st.lists(st.integers(0, len(gens) - 1), min_size=2, max_size=2,
                                 unique=True))
            c = draw(mix)
            if d + 1 in mats:
                m = mats[d + 1]
                m[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(m[i], m[j])]
            if d in mats:
                for row in mats[d]:
                    row[j] = ring.add(row[j], ring.neg(ring.mul(c, row[i])))
    return LinearizedComplex(ring, {d: tuple(g) for d, g in names.items()}, mats)


@st.composite
def complexes_and_schedules(draw, ring):
    """Stable spheres over Z; over a field, stable spheres and then circles."""
    cx = draw(scrambled_complexes(ring))
    schedule, dim = [], 1
    for _ in range(draw(st.integers(0 if ring is not ZZ else 1, 2))):
        m = stable_bound_complex(cx) + dim + draw(st.integers(0, 2))
        schedule.append(m)
        dim += m
    if ring is not ZZ:
        schedule += [1] * draw(st.integers(0 if schedule else 1, 3))
    return cx, schedule


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), GF(4)], ids=str)
def test_spin_homology_matches_spun_complex(ring):
    homology = homology_integral if ring is ZZ else homology_field

    @given(complexes_and_schedules(ring))
    @settings(max_examples=100)
    def check(case):
        cx, schedule = case
        h, spun = homology(cx), cx
        for stage in iterate_schedule(cx, schedule):
            if stage.bound is not None:
                assert stage.bound == stable_bound_complex(spun)
            spun = spin_complex_stable(spun, stage.sphere_dim)
            h = spin_homology(h, stage.sphere_dim)
            assert h == homology(spun)

    check()
