"""Exactness over every supported GF(q) and the exact Z kernels.

Oracles: closed-form augmentation counts, the F2 Poincare polynomials of
{0,1}-valued augmentations (unchanged under field extension), plain
Gaussian elimination written here, and the SNF certificate U*A*V = D.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import is_unimodular

from ldga.algebra import DGA, Element, GF, Generator, ZZ, change_coefficients, multiply, validate
from ldga.augment import conjugate, enumerate_augmentations, linear_part
from ldga.cedga import build_dga, load_dsl, m821_grid, trefoil_projection, twist_linearized
from ldga.cli import main
from ldga.diagram import grid_to_front, resolve
from ldga.linhom import (
    LinearizedComplex,
    as_cohomological,
    field_rank,
    homology_field,
    mat_mul,
    poincare,
    smith_normal_form,
)
from ldga.spin import spin_complex_stable

ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.fixture(scope="module")
def m821_dga():
    return build_dga(resolve(grid_to_front(m821_grid())))


def linearized_poly(dga, eps):
    cx = linear_part(conjugate(dga, eps))
    return str(poincare(as_cohomological(homology_field(cx))))


# ---------------------------------------------------------------------------
# the scalar model
# ---------------------------------------------------------------------------

def test_build_keeps_field_elements():
    assert Element.build(GF(4), {("a",): 2}).terms == ((("a",), 2),)
    assert Element.build(GF(9), {("a",): 5}).terms == ((("a",), 5),)


def test_dsl_integers_enter_through_from_int():
    head = "gen e 1\ngen a 0\n"
    assert load_dsl(f"coeff F4\n{head}d e = 2*a\n").diff_of("e").is_zero
    assert load_dsl(f"coeff F4\n{head}d e = 3*a\n").diff_of("e").terms == ((("a",), 1),)
    f9 = load_dsl(f"coeff F9\n{head}d e = 5*a\n")
    assert f9.diff_of("e").terms == ((("a",), GF(9).from_int(5)),)
    assert GF(9).from_int(5) == 2


def test_composition_check_uses_field_arithmetic():
    f4 = GF(4)
    a = 2  # the class of x in F2[x]/(x^2 + x + 1); a*a = a + 1
    assert f4.mul(a, a) == 3
    cx = LinearizedComplex(f4, {0: ("x",), 1: ("y",), 2: ("z",)}, {1: [[a]], 2: [[a]]})
    with pytest.raises(ValueError, match="square to zero"):
        cx.check_composition()


# ---------------------------------------------------------------------------
# augmentation oracles over the characteristic-2 tower
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_trefoil_augmentation_count_is_q_squared_plus_one(q):
    dga = build_dga(trefoil_projection())
    augs = enumerate_augmentations(dga, q)
    assert len(augs) == q * q + 1
    for eps in augs:
        assert linearized_poly(dga, eps) == "2 + t"


@pytest.mark.parametrize("q", [4, 8])
def test_m821_conjugation_over_extension_fields(m821_dga, q):
    f2_polys = {
        eps.values: linearized_poly(m821_dga, eps)
        for eps in enumerate_augmentations(m821_dga, 2)
    }
    binary = 0
    for eps in enumerate_augmentations(m821_dga, q):
        poly = linearized_poly(m821_dga, eps)
        if all(v == 1 for _, v in eps.values):
            binary += 1
            assert poly == f2_polys[eps.values]
    assert binary == len(f2_polys) == 16


def conjugate_by_substitution(dga, eps):
    """Reference conjugation: substitute g -> g + eps(g) and multiply letter by letter."""
    ring = eps.field
    fdga = change_coefficients(dga, ring)
    values = dict(eps.values)
    subs = {
        g.name: Element.build(
            ring, {(g.name,): ring.one, (): values.get(g.name, 0) if g.degree == 0 else ring.zero}
        )
        for g in fdga.generators
    }
    diff = {}
    for g in fdga.generators:
        acc = Element.zero(ring)
        for word, coeff in fdga.diff_of(g.name).terms:
            prod = Element.unit(ring, coeff)
            for name in word:
                prod = multiply(prod, subs[name])
            acc = acc.add(prod)
        diff[g.name] = acc
    return DGA(ring, fdga.generators, diff)


@pytest.mark.parametrize(
    "knot, q",
    [("trefoil", 2), ("trefoil", 4), ("trefoil", 8), ("trefoil", 16), ("m821", 2), ("m821", 4)],
)
def test_conjugate_matches_substitution(m821_dga, knot, q):
    dga = m821_dga if knot == "m821" else build_dga(trefoil_projection())
    augs = enumerate_augmentations(dga, q)
    assert augs
    for eps in augs:
        assert conjugate(dga, eps) == conjugate_by_substitution(dga, eps)


def signed_dga():
    """Over Z, |b| = 0, |x| = 1, |w| = 3: d x = b - 1 and
    d w = x*x + x*b*x - b*x*x - x*x*b, whose d^2 vanishes only through the
    Leibniz sign; eps(b) = 1 is its one augmentation."""
    words = {("x", "x"): 1, ("x", "b", "x"): 1, ("b", "x", "x"): -1, ("x", "x", "b"): -1}
    return DGA(
        ZZ,
        (Generator("b", 0), Generator("x", 1), Generator("w", 3)),
        {"x": Element.build(ZZ, {("b",): 1, (): -1}), "w": Element.build(ZZ, words)},
    )


@pytest.mark.parametrize("q", [3, 5, 9])
def test_conjugate_matches_substitution_in_odd_characteristic(q):
    dga = signed_dga()
    assert validate(dga).ok
    augs = enumerate_augmentations(dga, q)
    assert [eps.values for eps in augs] == [(("b", 1),)]
    conj = conjugate(dga, augs[0])
    assert conj == conjugate_by_substitution(dga, augs[0])
    # b -> b + 1: d x = b and d w = x*b*x - b*x*x - x*x*b
    f, minus = GF(q), GF(q).from_int(-1)
    assert conj.diff_of("x") == Element.generator(f, "b")
    assert conj.diff_of("w") == Element.build(
        f, {("x", "b", "x"): 1, ("b", "x", "x"): minus, ("x", "x", "b"): minus}
    )


def test_field_copy_is_made_once_per_dga_and_field(monkeypatch):
    import ldga.augment

    calls = []

    def counting(dga, ring):
        calls.append(ring.q)
        return change_coefficients(dga, ring)

    monkeypatch.setattr(ldga.augment, "change_coefficients", counting)
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    augs = enumerate_augmentations(dga, 4)
    for eps in augs:
        conjugate(dga, eps)
    assert len(augs) == 120
    assert calls == [4]


def test_cli_linpoly_m821_over_f4(capsys):
    code = main(["linpoly", "--grid", "fixtures/m821.json", "--field", "4", "--all-augs"])
    assert code == 0, capsys.readouterr().err


# ---------------------------------------------------------------------------
# field rank against plain Gaussian elimination
# ---------------------------------------------------------------------------

def gauss_rank(ring, a):
    m = [row[:] for row in a]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        rows = [i for i in range(rank, len(m)) if m[i][col] != ring.zero]
        if not rows:
            continue
        m[rank], m[rows[0]] = m[rows[0]], m[rank]
        inv = ring.inv_table[m[rank][col]]
        m[rank] = [ring.mul(inv, x) for x in m[rank]]
        for i in range(len(m)):
            if i != rank:
                f = m[i][col]
                m[i] = [ring.add(x, ring.neg(ring.mul(f, y))) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def field_matrices(draw):
    q = draw(st.sampled_from(ORDERS))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    return q, [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@given(field_matrices())
@settings(max_examples=300)
def test_field_rank_matches_gaussian_elimination(case):
    q, a = case
    assert field_rank(GF(q), a) == gauss_rank(GF(q), a)


# ---------------------------------------------------------------------------
# Smith normal form certificates on the twist complexes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [31, 51, 71])
def test_snf_certificates_on_twist_complexes(n):
    cx = linear_part(twist_linearized(n))
    spun = spin_complex_stable(cx, 3)
    for complex_ in (cx, spun):
        for m in complex_.matrices.values():
            snf = smith_normal_form(m)
            assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
            assert is_unimodular(snf.u) and is_unimodular(snf.v)
            assert all(x in (0, 1) for x in snf.diagonal)
