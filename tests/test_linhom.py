import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldga.algebra import GF, ZZ
from ldga.augment import linear_part
from ldga.cedga import twist_linearized
from ldga.linhom import (
    COHOMOLOGICAL,
    HOMOLOGICAL,
    GradedModule,
    LinearizedComplex,
    PoincarePolynomial,
    as_cohomological,
    field_rank,
    homology_field,
    homology_integral,
    integer_determinant,
    is_unimodular,
    mat_mul,
    poincare,
    reduce_complex_mod_p,
    smith_normal_form,
    uct_dualize,
)

matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(matrices)
@settings(max_examples=120)
def test_snf_certificates(a):
    snf = smith_normal_form(a)
    assert is_unimodular(snf.u)
    assert is_unimodular(snf.v)
    prod = mat_mul(mat_mul(snf.u, a), snf.v)
    assert prod == snf.d
    diag = [x for x in snf.diagonal if x]
    for d1, d2 in zip(diag, diag[1:]):
        assert d2 % d1 == 0
    for i, row in enumerate(snf.d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def test_snf_single_entry():
    snf = smith_normal_form([[2]])
    assert snf.diagonal == [2]


def test_determinant_matches_snf_rank():
    a = [[2, 4], [1, 3]]
    assert integer_determinant(a) == 2
    assert smith_normal_form(a).rank == 2


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def test_zero_differential_field():
    cx = LinearizedComplex(GF(2), {0: ("x", "y"), 1: ("e",)}, {})
    h = homology_field(cx)
    assert h.dims() == {0: 2, 1: 1}


def test_single_two_matrix_integral():
    cx = LinearizedComplex(ZZ, {0: ("c",), 1: ("e",)}, {1: [[2]]})
    h = homology_integral(cx)
    assert h.entries == {0: (0, (2,))}
    assert h.free_rank(1) == 0


@pytest.mark.parametrize("n", [5, 7, 9])
def test_twist_integral_homology(n):
    h = homology_integral(linear_part(twist_linearized(n)))
    assert h.entries == {0: (2, ()), 1: (1, ())}


@pytest.mark.parametrize("n", [5, 7, 9])
def test_twist_ec_submatrix_unimodular(n):
    cx = linear_part(twist_linearized(n))
    basis1 = cx.bases[1]
    basis0 = cx.bases[0]
    m = cx.matrix(1)
    rows = [basis0.index(f"c{i}") for i in range(1, n + 1)]
    cols = [basis1.index(f"e{i}") for i in range(1, n + 1)]
    sub = [[m[r][c] for c in cols] for r in rows]
    assert abs(integer_determinant(sub)) == 1


def test_uct_examples():
    h = GradedModule("Z", HOMOLOGICAL, {0: (2, ()), 1: (1, ())})
    hc = uct_dualize(h)
    assert hc.variance == COHOMOLOGICAL
    assert hc.entries == {0: (2, ()), 1: (1, ())}

    torsion = GradedModule("Z", HOMOLOGICAL, {0: (0, (2,))})
    tc = uct_dualize(torsion)
    assert tc.entries == {1: (0, (2,))}

    free = GradedModule("Z", HOMOLOGICAL, {0: (1, ()), 3: (4, ())})
    assert uct_dualize(free).entries == dict(free.entries)


def test_uct_consistency_on_twist():
    # field dims at p agree with integral free ranks when torsion is absent
    cx = linear_part(twist_linearized(7))
    hz = homology_integral(cx)
    for p in (2, 3):
        hp = homology_field(reduce_complex_mod_p(cx, p))
        assert hp.dims() == {d: f for d, (f, _) in hz.entries.items()}


def test_poincare_examples():
    h = GradedModule("F2", COHOMOLOGICAL, {-1: (1, ()), 0: (4, ()), 1: (2, ())})
    assert str(poincare(h)) == "t^-1 + 4 + 2t"
    assert str(poincare(GradedModule("F2", COHOMOLOGICAL, {}))) == "0"
    h2 = homology_field(reduce_complex_mod_p(linear_part(twist_linearized(5)), 2))
    assert str(poincare(as_cohomological(h2))) == "2 + t"


def test_poincare_rejects_integral():
    h = GradedModule("Z", HOMOLOGICAL, {0: (1, ())})
    with pytest.raises(ValueError):
        poincare(h)


def test_composition_check_rejects_bad_complex():
    cx = LinearizedComplex(
        ZZ, {0: ("x",), 1: ("y",), 2: ("z",)}, {1: [[1]], 2: [[1]]}
    )
    with pytest.raises(ValueError):
        homology_integral(cx)


def test_field_rank_rank_nullity():
    ring = GF(2)
    m = [[1, 1, 0], [1, 1, 0]]
    assert field_rank(ring, m) == 1


def test_block_sum_and_shift():
    cx = linear_part(twist_linearized(5))
    spun = cx.block_sum(cx.shift(3))
    h = homology_integral(spun)
    assert h.entries == {0: (2, ()), 1: (1, ()), 3: (2, ()), 4: (1, ())}


def test_polynomial_multiply():
    p = PoincarePolynomial.from_dims({-1: 1, 0: 4, 1: 2})
    q = p.multiply_one_plus_tm(1)
    assert q.as_dict() == {-1: 1, 0: 5, 1: 6, 2: 2}
