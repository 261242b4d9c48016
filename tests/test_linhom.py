from itertools import combinations
from math import gcd

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import integer_determinant, is_unimodular, reduce_complex_mod_p

from ldga import linhom
from ldga.algebra import GF, ZT, ZZ, Laurent
from ldga.augment import linear_part
from ldga.cedga import load_dsl, twist_linearized
from ldga.linhom import (
    COHOMOLOGICAL,
    HOMOLOGICAL,
    GradedModule,
    LinearizedComplex,
    as_cohomological,
    field_rank,
    homology_field,
    homology_integral,
    homology_mod_p,
    mat_mul,
    mat_shape,
    poincare,
    smith_normal_form,
    uct_dualize,
    zero_matrix,
)
from ldga.obstruct import certify_nongeometric
from ldga.spin import spin_complex_stable

dense_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@st.composite
def sparse_matrices(draw):
    """Up to 10x10, mostly zeros, sometimes without a unit entry.

    A matrix with no rows is [], so zero rows force zero columns.
    """
    rows = draw(st.integers(0, 10))
    cols = draw(st.integers(0, 10)) if rows else 0
    a = [[0] * cols for _ in range(rows)]
    if rows and cols:
        units = draw(st.booleans())
        value = st.integers(-12, 12) if units else st.sampled_from(
            [x for x in range(-12, 13) if abs(x) > 1]
        )
        cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                             max_size=2 * max(rows, cols)))
        for i, j in cells:
            a[i][j] = draw(value)
    return a


def determinantal_diagonal(a):
    """Invariant factors as quotients of the gcds of the k x k minors."""
    rows, cols = mat_shape(a)
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = gcd(*(
            integer_determinant([[a[i][j] for j in cs] for i in rs])
            for rs in combinations(range(rows), k)
            for cs in combinations(range(cols), k)
        ))
        out.append(dk // prev if dk else 0)
        prev = dk
    return out


@given(st.one_of(dense_matrices, sparse_matrices()))
@example([])
@example([[]])
@example([[0, 0], [0, 0], [0, 0]])
@settings(max_examples=300)
def test_snf_certificates(a):
    rows, cols = mat_shape(a)
    snf = smith_normal_form(a)
    assert (mat_shape(snf.u), mat_shape(snf.v), mat_shape(snf.d)) == (
        (rows, rows), (cols, cols), (rows, cols)
    )
    assert is_unimodular(snf.u)
    assert is_unimodular(snf.v)
    assert mat_mul(mat_mul(snf.u, a), snf.v) == snf.d
    for i, row in enumerate(snf.d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert snf.diagonal == [snf.d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in snf.diagonal)
    for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
        assert d2 % d1 == 0 if d1 else d2 == 0
    if rows <= 4 and cols <= 4:
        assert snf.diagonal == determinantal_diagonal(a)


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
    m = cx.matrices[1]
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


def integral_complex(case):
    if case == "torsion.dga":
        fixtures = Path(__file__).resolve().parents[1] / "fixtures"
        return linear_part(load_dsl((fixtures / case).read_text()))
    return linear_part(twist_linearized(case))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", [5, 9, 31, 51, 71, "torsion.dga"])
def test_homology_mod_p_matches_the_reduced_complex(case, p):
    # universal coefficients against a rank computation over GF(p)
    cx = integral_complex(case)
    h = homology_mod_p(homology_integral(cx), p)
    assert h == homology_field(reduce_complex_mod_p(cx, p))
    if case == "torsion.dga":  # H_0 = Z/6, H_2 = Z/4: the Tor terms show
        assert h.dims() == ({0: 1, 1: 1, 2: 1, 3: 1} if p == 2 else {0: 1, 1: 1})


def test_homology_mod_p_rejects_bad_input():
    h = GradedModule("Z", HOMOLOGICAL, {0: (1, (4,))})
    with pytest.raises(ValueError):
        homology_mod_p(h, 4)
    with pytest.raises(ValueError):
        homology_mod_p(uct_dualize(h), 2)
    with pytest.raises(ValueError):
        homology_mod_p(GradedModule("F2", HOMOLOGICAL, {0: (1, ())}), 2)


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


def test_composition_check_pairs_only_stored_matrices():
    bases = {0: ("w",), 1: ("x",), 2: ("y",), 3: ("z",)}
    # degrees 1 and 3 are not consecutive, so nothing composes
    LinearizedComplex(ZZ, bases, {1: [[1]], 3: [[1]]}).check_composition()
    with pytest.raises(ValueError, match="degree 2"):
        LinearizedComplex(ZZ, bases, {2: [[1]], 3: [[1]]}).check_composition()
    with pytest.raises(ValueError, match="degree 2"):
        LinearizedComplex(GF(4), bases, {2: [[2]], 3: [[2]]}).check_composition()
    # x * (x + 1) = 1 in GF(4), so [x, 1] . [x + 1, 1] = 1 + 1 = 0
    ok = LinearizedComplex(GF(4), {0: ("a",), 1: ("b", "c"), 2: ("e",)},
                           {1: [[2, 1]], 2: [[3], [1]]})
    ok.check_composition()


def test_class_b_certificate_runs_one_snf(monkeypatch):
    # the spun module is read off the knot's, so only the twist matrix is factored
    calls = []
    real = linhom.smith_normal_form
    monkeypatch.setattr(linhom, "smith_normal_form", lambda a: calls.append(a) or real(a))
    cert = certify_nongeometric("classB_twist", n=9, schedule=(3, 7))
    assert calls == [linear_part(twist_linearized(9)).matrices[1]]
    (spun,) = [ev for ev in cert.evidence if ev["stage"] == "spun_homology_integral"]
    assert spun["module"]["entries"] == {
        **{str(d): [2, []] for d in (0, 3, 7, 10)},
        **{str(d): [1, []] for d in (1, 4, 8, 11)},
    }


def test_field_rank_rank_nullity():
    ring = GF(2)
    m = [[1, 1, 0], [1, 1, 0]]
    assert field_rank(ring, m) == 1


def test_block_sum_and_shift():
    cx = linear_part(twist_linearized(5))
    spun = spin_complex_stable(cx, 3)
    h = homology_integral(spun)
    assert h.entries == {0: (2, ()), 1: (1, ()), 3: (2, ()), 4: (1, ())}


def shifted(cx, m):
    """The complex with every degree raised by m."""
    return LinearizedComplex(cx.ring, {d + m: b for d, b in cx.bases.items()},
                             {d + m: mat for d, mat in cx.matrices.items()})


def matrix(cx, d):
    """C_d -> C_{d-1}, a zero matrix when not stored."""
    return cx.matrices.get(d, zero_matrix(cx.dim(d - 1), cx.dim(d)))


def block_sum_by_cells(a, b):
    """Reference direct sum: each block copied cell by cell into a zero matrix."""
    bases = {
        d: tuple(a.bases.get(d, ())) + tuple(f"{n}^N" for n in b.bases.get(d, ()))
        for d in sorted(set(a.bases) | set(b.bases))
    }
    mats = {}
    for d in sorted(set(a.matrices) | set(b.matrices) | set(bases)):
        r1, c1 = a.dim(d - 1), a.dim(d)
        r2, c2 = b.dim(d - 1), b.dim(d)
        if not (r1 + r2 and c1 + c2):
            continue
        block = [[0] * (c1 + c2) for _ in range(r1 + r2)]
        for i in range(r1):
            for j in range(c1):
                block[i][j] = matrix(a, d)[i][j]
        for i in range(r2):
            for j in range(c2):
                block[r1 + i][c1 + j] = matrix(b, d)[i][j]
        mats[d] = block
    return bases, mats


@st.composite
def small_complexes(draw):
    """Bases of 0-3 names on a few degrees (empty ones included) and a
    random subset of the matrices their shapes allow."""
    degrees = draw(st.sets(st.integers(-2, 3), max_size=4))
    bases = {d: tuple(f"g{d}_{i}" for i in range(draw(st.integers(0, 3)))) for d in degrees}
    mats = {}
    for d in degrees:
        rows, cols = len(bases.get(d - 1, ())), len(bases[d])
        if (rows or not cols) and draw(st.booleans()):
            mats[d] = [[draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    return LinearizedComplex(ZZ, bases, mats)


@given(small_complexes(), st.integers(0, 4))
@settings(max_examples=200)
def test_block_sum_matches_cell_copy(a, m):
    out = spin_complex_stable(a, m)
    assert (out.bases, out.matrices) == block_sum_by_cells(a, shifted(a, m))


def test_polynomial_multiply():
    p = Laurent.from_dict({-1: 1, 0: 4, 1: 2})
    q = ZT.mul(p, ZT.add(ZT.one, ZT.t_power(1)))
    assert q.as_dict() == {-1: 1, 0: 5, 1: 6, 2: 2}
