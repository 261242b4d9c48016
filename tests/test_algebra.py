import copy
import itertools
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldga.algebra import (
    DGA,
    CoefficientError,
    DGAValidationError,
    Element,
    GF,
    Generator,
    Laurent,
    ZT,
    ZZ,
    apply_differential,
    change_coefficients,
    check,
    multiply,
    validate,
)
from ldga.errors import DiskSearchError

SUPPORTED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv_table[a]) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("ring", [ZZ, ZT, GF(2), GF(9)], ids=str)
def test_copy_and_pickle_return_the_one_ring(ring):
    # rings compare by identity, so a copy must be the ring itself
    assert copy.copy(ring) is ring
    assert copy.deepcopy(ring) is ring
    assert pickle.loads(pickle.dumps(ring)) is ring


def _doc_irreducibles() -> dict[int, list[int]]:
    """q -> the coefficients, low degree first, of the irreducible in docs/fields.md."""
    table = {}
    text = (Path(__file__).resolve().parents[1] / "docs" / "fields.md").read_text()
    for q, poly in re.findall(r"^\| (\d+) +\| (x\^[^|]*?) +\|$", text, re.M):
        coeffs = {}
        for term in poly.split(" + "):
            power = 0 if term == "1" else int(term.partition("^")[2] or 1)
            coeffs[power] = 1
        table[int(q)] = [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]
    return table


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_codes_are_digit_polynomials(q):
    """Code a is sum a_i x^i over its base-p digits; x^s folds by the documented irreducible."""
    f = GF(q)
    p, s = f.p, f.s

    def digits(a):
        return [a // p**i % p for i in range(s)]

    for a in f.elements():
        for b in f.elements():
            assert digits(f.add(a, b)) == [(x + y) % p for x, y in zip(digits(a), digits(b))]
    for a in range(p):
        for b in range(p):
            assert f.mul(a, b) == a * b % p
    for i in range(1, s):
        assert f.mul(p, p ** (i - 1)) == p**i  # x * x^(i-1) = x^i
    if s > 1:
        irreducible = _doc_irreducibles()[q]
        assert len(irreducible) == s + 1 and irreducible[s] == 1
        folded = sum(-c % p * p**j for j, c in enumerate(irreducible[:s]))
        assert f.mul(p, p ** (s - 1)) == folded  # x^s = -(f_0 + ... + f_(s-1) x^(s-1))


def test_field_characteristic():
    assert GF(4).p == 2 and GF(4).s == 2
    assert GF(9).p == 3
    with pytest.raises(CoefficientError):
        GF(6)
    with pytest.raises(CoefficientError):
        GF(25)


# ---------------------------------------------------------------------------
# Laurent coefficients
# ---------------------------------------------------------------------------

laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(Laurent.from_dict)


@given(laurents, laurents)
def test_eval_at_minus_one_is_ring_map(x, y):
    ev = Laurent.at_minus_one
    assert ev(ZT.mul(x, y)) == ev(x) * ev(y)
    assert ev(ZT.add(x, y)) == ev(x) + ev(y)


def test_laurent_str():
    t = ZT.t_power(1)
    assert str(ZT.add(ZT.one, t)) == "1 + t"
    assert str(ZT.t_power(-1)) == "t^-1"


# ---------------------------------------------------------------------------
# elements and the free algebra
# ---------------------------------------------------------------------------

def F2(data):
    return Element.build(GF(2), data)


def test_unit_acts_as_identity():
    w = F2({("a", "b"): 1})
    one = Element.unit(GF(2))
    assert multiply(one, w) == w
    assert multiply(w, one) == w


def test_noncommutativity():
    a = Element.generator(GF(2), "a")
    b = Element.generator(GF(2), "b")
    assert multiply(a, b) != multiply(b, a)
    assert [w for w, _ in multiply(a, b).terms] == [("a", "b")]


def test_char2_square():
    # (c + 1)^2 = c*c + 1 over F2
    c1 = F2({("c",): 1, (): 1})
    assert multiply(c1, c1) == F2({("c", "c"): 1, (): 1})


def test_ring_mismatch_rejected():
    a = Element.generator(GF(2), "a")
    b = Element.generator(ZZ, "b")
    with pytest.raises(CoefficientError):
        multiply(a, b)


words = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(tuple)
elements_f2 = st.dictionaries(words, st.integers(0, 1), max_size=5).map(F2)


@given(elements_f2, elements_f2, elements_f2)
@settings(max_examples=60)
def test_addition_commutative_associative(x, y, z):
    assert x.add(y) == y.add(x)
    assert x.add(y).add(z) == x.add(y.add(z))


@given(elements_f2)
def test_normal_form_idempotent(x):
    assert Element.build(x.ring, dict(x.terms)) == x


RINGS = [ZZ, ZT] + [GF(q) for q in SUPPORTED_ORDERS]


def coefficients(ring):
    if ring is ZZ:
        return st.integers(-3, 3)
    if ring is ZT:
        return laurents
    return st.sampled_from(list(ring.elements()))


def plain_sum(ring, pairs):
    acc = {}
    for w, c in pairs:
        acc[w] = ring.add(acc.get(w, ring.zero), c)
    nonzero = [(w, c) for w, c in acc.items() if not ring.is_zero(c)]
    return tuple(sorted(nonzero, key=lambda t: t[0]))


@given(st.data())
@settings(max_examples=300)
def test_sum_matches_plain_dict_accumulation(data):
    ring = data.draw(st.sampled_from(RINGS))
    pairs = data.draw(st.lists(st.tuples(words, coefficients(ring)), max_size=12))
    # repeat some pairs and add the negatives of others, so words cancel
    if pairs:
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=4))
        cancel = data.draw(st.lists(st.sampled_from(pairs), max_size=4))
        pairs += [(w, ring.neg(c)) for w, c in cancel]
    pairs = data.draw(st.permutations(pairs))
    assert Element.sum(ring, pairs).terms == plain_sum(ring, pairs)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_sum_cancels_opposite_pairs(ring):
    c = ring.one
    assert Element.sum(ring, [(("a",), c), (("a",), ring.neg(c))]).is_zero
    if ring is GF(2):
        assert Element.sum(ring, [(("a", "b"), c)] * 2).is_zero


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def toy_dga():
    # d e = c, d c = 0 with |e| = 1, |c| = 0
    ring = GF(2)
    return DGA(
        ring,
        (Generator("e", 1), Generator("c", 0)),
        {"e": Element.generator(ring, "c")},
    )


def test_differential_of_unit_is_zero():
    dga = toy_dga()
    assert apply_differential(dga, Element.unit(dga.ring)).is_zero


def test_leibniz_on_square_integral():
    # d(ee) = (de)e + (-1)^{|e|} e(de) = ce - ec over Z
    dga = DGA(
        ZZ,
        (Generator("e", 1), Generator("c", 0)),
        {"e": Element.generator(ZZ, "c")},
    )
    ee = Element.build(ZZ, {("e", "e"): 1})
    assert apply_differential(dga, ee) == Element.build(
        ZZ, {("c", "e"): 1, ("e", "c"): -1}
    )


def test_d_squared_vanishes_on_valid_dga():
    dga = toy_dga()
    for g in dga.generators:
        dd = apply_differential(dga, dga.diff_of(g.name))
        assert dd.is_zero


def test_degrees_built_once_per_dga():
    dga = toy_dga()
    assert dga.degrees is dga.degrees
    assert dga.degrees == {g.name: g.degree for g in dga.generators}
    # the cached map is not a field: equality and repr ignore it
    fresh = toy_dga()
    assert dga == fresh and repr(dga) == repr(fresh)
    assert "degrees" not in repr(dga)


def test_unknown_generator_rejected():
    dga = toy_dga()
    with pytest.raises(KeyError):
        apply_differential(dga, Element.generator(dga.ring, "zzz"))


def test_differential_of_unknown_generator_rejected():
    # validate walks the generators only, so such a key would pass unchecked
    ring = GF(2)
    with pytest.raises(ValueError, match="zzz"):
        DGA(ring, (Generator("a", 1),), {"zzz": Element.generator(ring, "a")})
    from ldga.cedga import DSLError, load_dsl

    with pytest.raises(DSLError, match="unknown generator 'zzz'"):
        load_dsl("coeff F2\ngen a 1\nd zzz = a\n")


@given(elements_f2, elements_f2)
@settings(max_examples=60)
def test_graded_leibniz_over_f2(v, w):
    from ldga.cedga import build_dga, trefoil_projection

    dga = build_dga(trefoil_projection())
    # map a, b, c onto trefoil generators of assorted degrees
    sub = {"a": "c1", "b": "e1", "c": "c2"}
    v = Element.build(dga.ring, {tuple(sub[g] for g in word): c for word, c in v.terms})
    w = Element.build(dga.ring, {tuple(sub[g] for g in word): c for word, c in w.terms})
    lhs = apply_differential(dga, multiply(v, w))
    rhs = multiply(apply_differential(dga, v), w).add(
        multiply(v, apply_differential(dga, w))
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_twist_builtin_is_valid():
    from ldga.cedga import twist_linearized

    assert validate(twist_linearized(5)) == []


def test_validate_catches_d_squared():
    ring = GF(2)
    dga = DGA(
        ring,
        (Generator("e", 1), Generator("c", 0)),
        {"e": Element.generator(ring, "c"), "c": Element.unit(ring)},
    )
    assert any("d(d(" in v for v in validate(dga))


def test_validate_catches_degree_violation():
    ring = GF(2)
    dga = DGA(
        ring,
        (Generator("e", 1), Generator("c", 1)),
        {"e": Element.generator(ring, "c")},
    )
    assert any("degree" in v for v in validate(dga))


def test_check_returns_the_dga_or_raises_every_violation():
    valid = toy_dga()
    assert check(valid) is valid
    ring = GF(2)
    dga = DGA(
        ring,
        (Generator("e", 1), Generator("c", 1)),
        {"e": Element.generator(ring, "c"), "c": Element.unit(ring)},
    )
    lines = ["d(e) term c has degree 1, expected 0", "d(d(e)) = 1 != 0"]
    assert validate(dga) == lines
    with pytest.raises(DGAValidationError) as caught:
        check(dga)
    assert str(caught.value) == "DGA fails validation: invalid:\n  - " + "\n  - ".join(lines)
    with pytest.raises(DiskSearchError) as caught:
        check(dga, DiskSearchError, "diagram DGA failed validation")
    assert str(caught.value).startswith("diagram DGA failed validation: invalid:\n  - d(e) ")


def sign_pin_dga(ring, extra=()):
    # d x = 1, d w = x*x (plus extra words) with |x| = 1, |w| = 3
    x = Element.generator(ring, "x")
    dw = Element.sum(ring, multiply(x, x).terms + tuple((w, ring.one) for w in extra))
    return DGA(ring, (Generator("x", 1), Generator("w", 3)), {"x": Element.unit(ring), "w": dw})


@pytest.mark.parametrize("ring", [ZZ, ZT, GF(3), GF(9)], ids=str)
def test_validate_sees_the_leibniz_sign(ring):
    # d(d(w)) = (dx)x - x(dx) = x - x
    dga = sign_pin_dga(ring)
    x, dx = Element.generator(ring, "x"), Element.unit(ring)
    assert validate(dga) == []
    assert apply_differential(dga, dga.diff_of("w")).is_zero
    # without the sign it would be 2x, which is not zero in these rings
    assert not multiply(dx, x).add(multiply(x, dx)).is_zero


def reference_violations(dga):
    """validate's messages from word_degree and apply_differential alone."""
    out = []
    for g in dga.generators:
        dg = dga.diff_of(g.name)
        if dg.is_zero:
            continue
        for w, _ in dg.terms:
            if dga.word_degree(w) != g.degree - 1:
                out.append(f"d({g.name}) term {'*'.join(w) or '1'} has degree "
                           f"{dga.word_degree(w)}, expected {g.degree - 1}")
        dd = apply_differential(dga, dg)
        if not dd.is_zero:
            out.append(f"d(d({g.name})) = {dd} != 0")
    return out


@st.composite
def small_dgas(draw):
    """Three or four generators of degree -1..2 over Z, Z[t], GF(3) or GF(4),
    each d(g) a few words of length 0-3 that may or may not be pure."""
    ring = draw(st.sampled_from([ZZ, ZT, GF(3), GF(4)]))
    names = ["a", "b", "c", "e"][: draw(st.integers(3, 4))]
    gens = tuple(Generator(n, draw(st.integers(-1, 2))) for n in names)
    word = st.lists(st.sampled_from(names), max_size=3).map(tuple)
    diff = {
        n: Element.sum(ring, draw(st.lists(st.tuples(word, coefficients(ring)), max_size=4)))
        for n in draw(st.sets(st.sampled_from(names)))
    }
    return DGA(ring, gens, diff)


@given(small_dgas())
@example(sign_pin_dga(ZZ))
@example(sign_pin_dga(ZT))
@example(sign_pin_dga(GF(3)))
@example(sign_pin_dga(GF(4), extra=[("x",), ("x", "x", "x")]))
@settings(max_examples=300)
def test_validate_matches_element_reference(dga):
    assert validate(dga) == reference_violations(dga)


def dd_by_products(dga, name):
    """d(d(name)) through ``multiply`` and ``Element.add`` alone.

    d of a word is the sum over its letters of (-1)^(degree of the letters
    before it) prefix * d(letter) * suffix; shares no code with ``_leibniz``.
    """
    ring = dga.ring
    total = Element.zero(ring)
    for word, coeff in dga.diff_of(name).terms:
        before = 0
        for i, letter in enumerate(word):
            prefix = Element.build(ring, {word[:i]: ring.neg(coeff) if before % 2 else coeff})
            suffix = Element.build(ring, {word[i + 1 :]: ring.one})
            total = total.add(multiply(multiply(prefix, dga.diff_of(letter)), suffix))
            before += dga.degrees[letter]
    return total


def flagged(violations):
    """(generators with a d^2 violation, generators with a degree violation)."""
    dd = {m[1] for v in violations if (m := re.match(r"d\(d\((\w+)\)\) = ", v))}
    deg = {m[1] for v in violations if (m := re.match(r"d\((\w+)\) term ", v))}
    return dd, deg


def expected_flags(dga):
    dd = {g.name for g in dga.generators if not dd_by_products(dga, g.name).is_zero}
    deg = {
        g.name
        for g in dga.generators
        for w, _ in dga.diff_of(g.name).terms
        if sum(dga.degrees[x] for x in w) != g.degree - 1
    }
    return dd, deg


@st.composite
def field_dgas(draw):
    """Three or four generators of degree -1..2 over any supported GF(q).

    Each d(g) draws words of degree |g| - 1 (length 0-3), so d^2 = 0 holds
    or fails by chance; a drawn number of them also gets a planted word of
    another degree."""
    ring = GF(draw(st.sampled_from(SUPPORTED_ORDERS)))
    names = ["a", "b", "c", "e"][: draw(st.integers(3, 4))]
    gens = tuple(Generator(n, draw(st.integers(-1, 2))) for n in names)
    degs = {g.name: g.degree for g in gens}
    words = [w for k in range(4) for w in itertools.product(names, repeat=k)]
    coeff = st.sampled_from(list(ring.elements())[1:])
    diff = {}
    for g in gens:
        pure = [w for w in words if sum(degs[x] for x in w) == g.degree - 1]
        terms = draw(st.lists(st.tuples(st.sampled_from(pure), coeff), max_size=3)) if pure else []
        if draw(st.booleans()):
            impure = [w for w in words if sum(degs[x] for x in w) != g.degree - 1]
            terms.append((draw(st.sampled_from(impure)), draw(coeff)))
        diff[g.name] = Element.sum(ring, terms)
    return DGA(ring, gens, diff)


@given(field_dgas())
@example(sign_pin_dga(GF(3)))
@example(sign_pin_dga(GF(5), extra=[("x",)]))
@example(sign_pin_dga(GF(16), extra=[("x", "x", "x")]))
@settings(max_examples=300)
def test_validate_flags_exactly_the_faulty_generators(dga):
    assert flagged(validate(dga)) == expected_flags(dga)


@pytest.mark.parametrize("walked", [False, True])
def test_validate_names_an_unknown_letter_and_its_word(walked):
    # the word degree comes from the Leibniz walk or, for a word with no
    # letter of nonzero differential, from a plain sum: both name the letter
    ring = GF(3)
    word = ("e", "zzz") if walked else ("zzz",)
    dga = DGA(
        ring,
        (Generator("c", 0), Generator("e", 1), Generator("a", 2)),
        {"e": Element.generator(ring, "c"), "a": Element.build(ring, {word: 1})},
    )
    with pytest.raises(KeyError, match=re.escape(f"unknown generator 'zzz' in word {word}")):
        validate(dga)


def planted(dga, extra_gens=(), extra_terms=()):
    """dga with more generators and more terms (name, word, int coefficient)."""
    diff = dict(dga.differential)
    for name, word, c in extra_terms:
        terms = diff[name].terms if name in diff else ()
        diff[name] = Element.sum(dga.ring, terms + ((word, dga.ring.from_int(c)),))
    return DGA(dga.ring, dga.generators + tuple(extra_gens), diff)


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.mark.parametrize(
    "fixture, gens, terms, dd, deg",
    [
        ("torsion.dga", (), (), set(), set()),
        # d y = e makes d(d y) = 2x and d(d f) = 4e
        ("torsion.dga", (), (("y", ("e",), 1),), {"y", "f"}, set()),
        ("torsion.dga", (), (("f", ("x",), 1),), set(), {"f"}),
        ("zt_linear.dga", (), (), set(), set()),
        # d c = a with |c| = 2 makes d(d c) = t*b
        ("zt_linear.dga", (Generator("c", 2),), (("c", ("a",), 1),), {"c"}, set()),
        ("zt_linear.dga", (), (("a", ("a", "b"), 1),), {"a"}, {"a"}),
    ],
)
def test_validate_flags_planted_faults_in_dsl_fixtures(fixture, gens, terms, dd, deg):
    from ldga.cedga import load_dsl

    dga = planted(load_dsl((FIXTURES / fixture).read_text()), gens, terms)
    assert flagged(validate(dga)) == expected_flags(dga) == (dd, deg)


def test_validate_builds_no_element_on_a_valid_dga(monkeypatch):
    from ldga import algebra
    from ldga.augment import conjugate, enumerate_augmentations
    from ldga.cedga import build_dga, m821_grid
    from ldga.diagram import grid_to_front, resolve

    dga = build_dga(resolve(grid_to_front(m821_grid())))
    conjugated = [conjugate(dga, eps) for q in (2, 4) for eps in enumerate_augmentations(dga, q)]

    def forbidden(*args, **kwargs):
        raise AssertionError("validate built an Element on a valid DGA")

    monkeypatch.setattr(algebra, "apply_differential", forbidden)
    monkeypatch.setattr(Element, "__init__", forbidden)
    for checked in [dga, *conjugated]:
        assert validate(checked) == []


def test_every_diff_term_has_degree_minus_one():
    from ldga.cedga import build_dga, trefoil_projection

    dga = build_dga(trefoil_projection())
    for g in dga.generators:
        for word, _ in dga.diff_of(g.name).terms:
            assert dga.word_degree(word) == g.degree - 1


def test_change_coefficients_specializes_t():
    from ldga.cedga import unknot_dsl_dga

    dga = unknot_dsl_dga()
    f2 = change_coefficients(dga, GF(2))
    assert f2.diff_of("a").is_zero  # 1 + (-1) = 0 in F2
    f3 = change_coefficients(dga, GF(3))
    assert f3.diff_of("a").is_zero  # 1 + (-1) = 0 in F3
    zz = change_coefficients(dga, ZZ)
    assert zz.diff_of("a").is_zero
