import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import conjugate_by_walk, evaluate, field_pow

from ldga.algebra import (
    DGA,
    DGAValidationError,
    Element,
    GF,
    Generator,
    ZZ,
    change_coefficients,
    multiply,
    validate,
)
from ldga import augment
from ldga.augment import (
    Augmentation,
    AugmentationError,
    PolySystem,
    conjugate,
    enumerate_augmentations,
    linear_part,
    parse_polysystem,
    roots_of_unity_count,
    torus_point_count,
    variety_points,
    _backtrack,
    _field_dga,
)
from ldga.cedga import (
    build_dga,
    builtin,
    load_dsl,
    m821_grid,
    trefoil_projection,
    twist_linearized,
    unknot_dsl_dga,
)
from ldga.diagram import grid_to_front, resolve

AB_VARIETY = parse_polysystem("var a b; eq a*b + 1;")
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
MAX_POINTS = 4096  # q^n assignments a product scan may visit


def max_unknowns(q: int) -> int:
    return int(math.log(MAX_POINTS, q) + 1e-9)


def exhaustive_augmentations(dga: DGA, q: int) -> list[Augmentation]:
    """Every graded augmentation into GF(q), by scanning all assignments.

    The oracle for ``enumerate_augmentations`` on small DGAs; the product
    order over GF(q)'s codes is already the canonical order.
    """
    field = GF(q)
    fdga = dga if dga.ring is field else change_coefficients(dga, field)
    unknowns = sorted(fdga.generators_of_degree(0))
    out = []
    for combo in itertools.product(field.elements(), repeat=len(unknowns)):
        eps = Augmentation.build(field, dict(zip(unknowns, combo)))
        if eps.is_valid(fdga):
            out.append(eps)
    return out


# ---------------------------------------------------------------------------
# augmentation enumeration
# ---------------------------------------------------------------------------

def test_unknot_dsl_single_augmentation():
    augs = enumerate_augmentations(unknot_dsl_dga(), 2)
    assert len(augs) == 1
    assert augs[0].values == ()


def test_trefoil_five_augmentations():
    dga = build_dga(trefoil_projection())
    augs = enumerate_augmentations(dga, 2)
    assert len(augs) == 5
    assert augs == exhaustive_augmentations(dga, 2)


def test_twist_augmentation_counts():
    dga = twist_linearized(5)
    assert len(enumerate_augmentations(dga, 2)) == 4
    # all c_i forced to zero; a and b free over any field
    assert len(enumerate_augmentations(dga, 4)) == 16


def test_augmentations_reverified_post_hoc():
    dga = build_dga(trefoil_projection())
    for eps in enumerate_augmentations(dga, 2):
        for g in dga.generators:
            assert evaluate(eps, dga, dga.diff_of(g.name)) == 0


def test_backtracker_matches_oracle_on_nonlinear_system():
    text = "coeff F2\ngen e 1\ngen x 0\ngen y 0\ngen z 0\nd e = x*y*z + x + y\n"
    dga = load_dsl(text)
    assert enumerate_augmentations(dga, 2) == exhaustive_augmentations(dga, 2)
    dga4 = load_dsl(text.replace("F2", "F4"))
    assert enumerate_augmentations(dga4, 4) == exhaustive_augmentations(dga4, 4)


def product_scan(q: int, unknowns: list[str], equations) -> Counter:
    """Every assignment that zeroes every (word, coeff) equation, by brute force."""
    f = GF(q)
    found = Counter()
    for combo in itertools.product(f.elements(), repeat=len(unknowns)):
        point = dict(zip(unknowns, combo))
        ok = True
        for eq in equations:
            total = f.zero
            for word, coeff in eq:
                term = coeff
                for g in word:
                    term = f.mul(term, point[g])
                total = f.add(total, term)
            ok = ok and total == f.zero
        if ok:
            found[tuple(sorted(point.items()))] += 1
    return found


@st.composite
def solver_systems(draw):
    """A field order, unknowns with q^n <= MAX_POINTS, and (word, coeff) equations.

    Words repeat letters (nonlinear terms) and may be empty (constants),
    coefficients may be 0, and an unknown may appear in no equation.
    """
    q = draw(st.sampled_from(FIELD_ORDERS))
    n = draw(st.integers(0, max_unknowns(q)))
    unknowns = [f"x{i}" for i in range(n)]
    letters = st.sampled_from(unknowns) if unknowns else st.nothing()
    words = st.lists(letters, max_size=3 if unknowns else 0).map(tuple)
    terms = st.lists(st.tuples(words, st.integers(0, q - 1)), max_size=5)
    return q, unknowns, draw(st.lists(terms, max_size=4))


@given(solver_systems())
@settings(max_examples=300)
@example((3, [], []))  # the empty system: one empty assignment
@example((5, ["x0"], [[((), 2)]]))  # a nonzero constant: no solutions
@example((4, ["x0", "x1"], [[(("x0",), 1), ((), 0)]]))  # x1 free, a zero constant
@example((2, ["x0", "x1"], [[(("x0", "x0"), 1), (("x1",), 1), ((), 1)]]))
def test_solver_matches_product_scan(system):
    q, unknowns, equations = system
    solutions = _backtrack(GF(q), unknowns, equations)
    assert all(sorted(s) == sorted(unknowns) for s in solutions)
    found = Counter(tuple(sorted(s.items())) for s in solutions)
    assert found == product_scan(q, unknowns, equations)


def test_solver_depth_is_not_bounded_by_the_recursion_limit():
    # 1100 degree-0 generators, each with the one root x = 2 of
    # x^2 + 2x + 1 over F3: more branching variables than Python frames
    n = 1100
    text = "coeff F3\n" + "".join(
        f"gen x{i} 0\ngen y{i} 1\nd y{i} = x{i}*x{i} + 2*x{i} + 1\n" for i in range(n)
    )
    (eps,) = enumerate_augmentations(load_dsl(text), 3)
    assert dict(eps.values) == {f"x{i}": 2 for i in range(n)}


@st.composite
def gf2_solver_systems(draw):
    """Up to 12 unknowns and (word, coeff) equations over GF(2).

    Words of up to 5 letters repeat letters (x^2 = x) and may be empty
    (constants), and coefficients may be 0, as ``from_int`` of an even
    integer is.
    """
    n = draw(st.integers(0, 12))
    unknowns = [f"x{i}" for i in range(n)]
    letters = st.sampled_from(unknowns) if unknowns else st.nothing()
    words = st.lists(letters, max_size=5 if unknowns else 0).map(tuple)
    terms = st.lists(st.tuples(words, st.integers(0, 1)), max_size=6)
    return unknowns, draw(st.lists(terms, max_size=5))


@given(gf2_solver_systems())
@settings(max_examples=150)
@example(([], [[((), 1), ((), 1)]]))  # a constant 0: one empty assignment
@example((["x0"], [[((), 1)]]))  # the constant 1: no solutions
@example((["x0", "x1"], [[(("x0", "x1", "x0"), 1), (("x1", "x0"), 1)]]))  # cancels to 0
@example((["x0", "x1", "x2"], [[(("x2",), 0), (("x0", "x0"), 1)], [(("x2", "x1"), 1), ((), 1)]]))
def test_gf2_solver_matches_product_scan(system):
    unknowns, equations = system
    solutions = _backtrack(GF(2), unknowns, equations)
    assert all(sorted(s) == sorted(unknowns) for s in solutions)
    found = Counter(tuple(sorted(s.items())) for s in solutions)
    assert found == product_scan(2, unknowns, equations)


def test_gf2_solver_depth_is_not_bounded_by_the_recursion_limit():
    # 1100 degree-0 generators, each with the one root x = 1 of x^2 + 1 over F2
    n = 1100
    text = "coeff F2\n" + "".join(
        f"gen x{i} 0\ngen y{i} 1\nd y{i} = x{i}*x{i} + 1\n" for i in range(n)
    )
    (eps,) = enumerate_augmentations(load_dsl(text), 2)
    assert dict(eps.values) == {f"x{i}": 1 for i in range(n)}


def test_gf2_variety_drops_even_coefficients():
    # 2*a*b is 0 over GF(2), so 2*a*b + 1 = 1 has no point
    assert variety_points(parse_polysystem("var a b; eq 2*a*b + 1;"), 2) == 0


@pytest.mark.parametrize("n", range(3, 15, 2))
def test_torus_f2_counts_match_the_closed_form(n):
    augs = enumerate_augmentations(build_dga(builtin(f"torus2:{n}")), 2)
    assert len(augs) == (2 ** (n + 1) - 1) // 3


def knot_dga(knot: str) -> DGA:
    if knot == "trefoil":
        return build_dga(trefoil_projection())
    return build_dga(resolve(grid_to_front(m821_grid())) if knot == "m821" else builtin(knot))


@pytest.mark.parametrize("knot", ["trefoil", "m821", "torus2:7"])
def test_gf2_is_valid_matches_table_evaluation(knot):
    # every {0, 1} point: the masks' parities against the field tables
    dga = knot_dga(knot)
    unknowns = sorted(dga.generators_of_degree(0))
    valid = 0
    for point in itertools.product((0, 1), repeat=len(unknowns)):
        eps = Augmentation.build(GF(2), dict(zip(unknowns, point)))
        by_tables = all(evaluate(eps, dga, dga.diff_of(g.name)) == 0 for g in dga.generators)
        assert eps.is_valid(dga) == by_tables, eps
        valid += by_tables
    assert valid == len(enumerate_augmentations(dga, 2)) > 0


def test_every_solution_is_rechecked_once_and_conjugate_reads_the_record(monkeypatch):
    dga = knot_dga("torus2:5")
    checked = []
    is_valid = Augmentation.is_valid
    monkeypatch.setattr(Augmentation, "is_valid",
                        lambda eps, fdga: checked.append(eps) or is_valid(eps, fdga))
    augs = enumerate_augmentations(dga, 2)
    assert checked == augs
    assert dga.valid_augmentations == {(GF(2), eps.values) for eps in augs}
    for eps in augs:
        conjugate(dga, eps)
    assert checked == augs  # no second check of a listed augmentation
    hand_built = Augmentation.build(GF(2), dict(augs[1].values))
    conjugate(dga, Augmentation(GF(2), hand_built.values + (("zz", 0),)))
    assert len(checked) == len(augs) + 1  # one not recorded is checked


@pytest.mark.parametrize("knot", ["trefoil", "m821", "torus2:7"])
def test_conjugate_rejects_every_flip_after_enumeration(knot):
    dga = knot_dga(knot)
    augs = enumerate_augmentations(dga, 2)
    listed = {eps.values for eps in augs}
    flips = 0
    for eps in augs:
        values = dict(eps.values)
        for name in dga.generators_of_degree(0):
            flipped = Augmentation.build(GF(2), {**values, name: 1 - values.get(name, 0)})
            if flipped.values not in listed:
                flips += 1
                with pytest.raises(AugmentationError, match="does not satisfy"):
                    conjugate(dga, flipped)
    assert flips > 0
    assert dga.valid_augmentations == {(GF(2), values) for values in listed}


def test_stray_names_raise_after_enumeration():
    dga = knot_dga("trefoil")
    (eps, *_) = enumerate_augmentations(dga, 2)
    for stray in ("zzz", "e1"):
        bad = Augmentation(GF(2), tuple(sorted(eps.values + ((stray, 1),))))
        with pytest.raises(AugmentationError, match=f"{stray}, which are not degree-0"):
            conjugate(dga, bad)
    assert all(stray not in dict(values) for _, values in dga.valid_augmentations)


def test_field_copies_keep_separate_records():
    # the Z lift's F2 and F4 copies share the {0, 1}-valued augmentations
    lift = load_dsl(TREFOIL_Z)
    f2, f4 = ({eps.values for eps in enumerate_augmentations(lift, q)} for q in (2, 4))
    assert f2 < f4
    assert "valid_augmentations" not in lift.__dict__
    for q, values in ((2, f2), (4, f4)):
        assert lift.field_copies[q].valid_augmentations == {(GF(q), v) for v in values}


# ---------------------------------------------------------------------------
# conjugation and linearization
# ---------------------------------------------------------------------------

def test_conjugate_zero_augmentation_is_identity():
    dga = build_dga(trefoil_projection())
    zero = Augmentation.build(GF(2), {})
    if zero.is_valid(dga):
        assert conjugate(dga, zero).differential == dga.differential
    # the trefoil's zero assignment is not an augmentation (constant terms),
    # so exercise the identity on the twist builtin instead
    tw = twist_linearized(5)
    zero = Augmentation.build(GF(2), {})
    conj = conjugate(tw, zero)
    f2 = {name: el for name, el in conj.differential.items()}
    for name, el in f2.items():
        assert el == Element.build(
            GF(2),
            {w: 1 for w, c in tw.diff_of(name).terms if c % 2},
        )


def test_conjugate_char2_toy():
    dga = load_dsl("coeff F2\ngen e 1\ngen c 0\nd e = c*c + c\n")
    eps = Augmentation.build(GF(2), {"c": 1})
    conj = conjugate(dga, eps)
    assert conj.diff_of("e") == Element.build(GF(2), {("c", "c"): 1, ("c",): 1})


def test_conjugate_rejects_invalid_augmentation():
    dga = load_dsl("coeff F2\ngen e 1\ngen c 0\nd e = c\n")
    with pytest.raises(AugmentationError):
        conjugate(dga, Augmentation.build(GF(2), {"c": 1}))


def test_conjugate_of_a_dga_with_nonzero_d_squared_fails_validation():
    # built directly, so nothing checked it: |c| = 0, |e| = 1, |a| = 2 over
    # GF(3), d e = c*c - c and d a = e*c, so d(d(a)) = c*c*c - c*c; eps(c) = 1
    # is an augmentation, and conjugating by it keeps d^2 nonzero
    ring = GF(3)
    dga = DGA(
        ring,
        (Generator("c", 0), Generator("e", 1), Generator("a", 2)),
        {"e": Element.build(ring, {("c", "c"): 1, ("c",): 2}),
         "a": Element.build(ring, {("e", "c"): 1})},
    )
    eps = Augmentation.build(ring, {"c": 1})
    assert eps.is_valid(dga)
    with pytest.raises(DGAValidationError, match="conjugated DGA failed validation"):
        conjugate(dga, eps)


def test_conjugated_dga_admits_zero_augmentation():
    dga = build_dga(trefoil_projection())
    for eps in enumerate_augmentations(dga, 2):
        conj = conjugate(dga, eps)
        zero = Augmentation.build(GF(2), {})
        assert zero.is_valid(conj)
        assert any(a.values == () for a in enumerate_augmentations(conj, 2))


def conjugated_by_products(fdga: DGA, eps: Augmentation, name: str) -> Element:
    """d(name) with every letter replaced by letter + eps(letter), multiplied out.

    The reference for ``conjugate``: one ``multiply`` per letter, and one
    ``Element.sum`` over the products of all words, sharing no code with its
    evaluation of the suffix DAG.
    """
    ring = fdga.ring
    factors: dict[str, Element] = {}
    pairs = []
    for word, coeff in fdga.diff_of(name).terms:
        prod = Element.unit(ring, coeff)
        for letter in word:
            if letter not in factors:
                shift = dict(eps.values).get(letter, 0) if fdga.degrees[letter] == 0 else 0
                factors[letter] = Element.generator(ring, letter).add(Element.unit(ring, shift))
            prod = multiply(prod, factors[letter])
        pairs += prod.terms
    return Element.sum(ring, pairs)


# A lift of the trefoil's F2 DGA to Z (d^2 = 0 for any signs: the degree-0
# generators have d = 0).  It has q^2 + 1 augmentations over every GF(q):
# 1 + x + z + xyz = 0 has (q - 1)^2 solutions with xz != 0 and 2q with xz = 0.
TREFOIL_Z = """coeff Z
gen c1 0
gen c2 0
gen c3 0
gen e1 1
gen e2 1
d e1 = 1 + c1 + c3 + c1*c2*c3
d e2 = -1 - c1 - c3 - c3*c2*c1
"""


def test_trefoil_z_lift_reduces_to_the_disk_search_dga():
    lift = change_coefficients(load_dsl(TREFOIL_Z), GF(2))
    assert lift == build_dga(trefoil_projection())


@pytest.mark.parametrize(
    "knot, q, count",
    [("m821", 4, 120)]
    + [("trefoil", q, q * q + 1) for q in FIELD_ORDERS]
    + [(f"torus2:{n}", 2, (2 ** (n + 1) - 1) // 3) for n in (3, 5, 7, 9, 11)],
)
def test_conjugate_matches_product_expansion(knot, q, count):
    # the reference multiplies out about 18 ms per augmentation of torus2:11: every 10th
    stride = 10 if knot == "torus2:11" else 1
    if knot == "trefoil":  # the disk-search DGA over characteristic 2, else its Z lift
        dga = build_dga(trefoil_projection()) if q % 2 == 0 else load_dsl(TREFOIL_Z)
    else:
        dga = build_dga(resolve(grid_to_front(m821_grid())) if knot == "m821" else builtin(knot))
    fdga = change_coefficients(dga, GF(q))
    augs = enumerate_augmentations(dga, q)
    assert len(augs) == count
    for eps in augs[::stride]:
        conj = conjugate(dga, eps)
        for g in dga.generators:
            assert conj.diff_of(g.name) == conjugated_by_products(fdga, eps, g.name), g.name


DEGREE_0 = ("c0", "c1", "c2")
_words = st.lists(st.sampled_from(DEGREE_0), max_size=4).map(tuple)
_polys = st.lists(st.tuples(st.integers(1, 3), _words), min_size=1, max_size=6)


@st.composite
def conjugation_cases(draw):
    """(eps0, d(e_j) term lists, d(x) terms): the DGA of ``conjugation_case_text``.

    e_j has degree 1 and d(e_j) is a sum of words in c0, c1, c2; x has degree
    2 and d(x) is a sum of words with one b (degree 1, d b = 0) among them.
    Words up to 4 letters over 3 share prefixes and suffixes and repeat
    letters; e_0's differential may appear twice.
    """
    eps0 = draw(st.tuples(*[st.integers(0, 2)] * len(DEGREE_0)))
    diffs = draw(st.lists(_polys, min_size=1, max_size=3))
    if draw(st.booleans()):
        diffs.append(diffs[0])
    x_terms = draw(st.lists(st.tuples(st.integers(1, 3), _words, _words), max_size=4))
    return eps0, diffs, x_terms


def conjugation_case_text(q: int, eps0, diffs, x_terms) -> str:
    """DSL text over GF(q) in which eps0 (integers, read mod p) is an augmentation.

    Each d(e_j) gets the constant term -eps0(rest of d(e_j)), so eps0 cancels
    it whenever eps0 sees the rest.
    """
    p = GF(q).p
    lines = [f"coeff F{q}", *(f"gen {c} 0" for c in DEGREE_0), "gen b 1", "gen x 2"]
    for j, terms in enumerate(diffs):
        seen = sum(c * math.prod(eps0[DEGREE_0.index(g)] for g in w) for c, w in terms)
        constant = [(-seen % p, ())] if seen % p else []
        body = " + ".join("*".join((str(c), *w)) for c, w in constant + terms)
        lines += [f"gen e{j} 1", f"d e{j} = {body}"]
    if x_terms:
        lines.append("d x = " + " + ".join("*".join((str(c), *u, "b", *v)) for c, u, v in x_terms))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(max_examples=15)
@example(case=(
    (1, 0, 2),  # c1 = 0; c0 and c2 cancel the constant terms
    [[(1, ("c0",)), (1, ("c0", "c1", "c2")), (1, ("c1", "c2")), (2, ("c1", "c1", "c2")),
      (1, ("c2", "c1", "c2"))],
     [(1, ("c2", "c2")), (1, ("c1", "c2")), (1, ("c0", "c0", "c1"))]] * 2,
    [(1, ("c0",), ("c2",)), (2, (), ("c2",)), (1, ("c1",), ())],
))
@given(case=conjugation_cases())
def test_conjugate_matches_product_expansion_on_random_dgas(q, case):
    dga = load_dsl(conjugation_case_text(q, *case))
    field = GF(q)
    eps0 = Augmentation.build(field, {g: field.from_int(v) for g, v in zip(DEGREE_0, case[0])})
    augs = enumerate_augmentations(dga, q)
    assert eps0 in augs
    for eps in [eps0, *augs[:: max(1, len(augs) // 6)]]:
        conj = conjugate(dga, eps)
        for g in dga.generators:
            assert conj.diff_of(g.name) == conjugated_by_products(dga, eps, g.name), g.name


@pytest.mark.parametrize("knot, nodes", [(f"torus2:{n}", 2 * n + 1) for n in range(3, 12, 2)])
def test_suffix_dag_sizes(knot, nodes):
    assert len(build_dga(builtin(knot)).suffix_dag[0]) == nodes


def test_suffix_dag_is_built_once_per_field_dga():
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    assert len(dga.suffix_dag[0]) == 19
    for q in (4, 8):
        augs = enumerate_augmentations(dga, q)
        fdga = dga.field_copies[q]
        assert "suffix_dag" not in fdga.__dict__
        dag = None
        for eps in augs:
            conj = conjugate(dga, eps)
            dag = dag or fdga.__dict__["suffix_dag"]
            assert fdga.__dict__["suffix_dag"] is dag
            assert "suffix_dag" not in conj.__dict__  # with_differential shares no DAG
        assert conj.suffix_dag is not dag and conj.suffix_dag[1].keys() == dag[1].keys()


def conjugated_both_ways(dga: DGA, eps: Augmentation):
    """(conjugate's result or error text, the walk's) for eps on the DGA.

    Over GF(q), q > 2, ``conjugate`` runs the support's plan; the walk is
    the tests' any-field reference for the plan.
    """
    results = []
    for conj in (conjugate, lambda dga, eps: conjugate_by_walk(_field_dga(dga, eps.field.q), eps)):
        try:
            results.append(conj(dga, eps).differential)
        except DGAValidationError as exc:
            results.append(str(exc))
    return results


def supports(augs: list[Augmentation]) -> set[frozenset]:
    return {frozenset(name for name, v in eps.values if v) for eps in augs}


@pytest.mark.parametrize("q", FIELD_ORDERS[1:])
@settings(max_examples=15)
@given(case=conjugation_cases(), seed=st.integers(0, 2**32))
def test_plans_match_the_walk_on_random_dgas(q, case, seed):
    # every augmentation twice, in shuffled order: most runs read a warm plan
    dga = load_dsl(conjugation_case_text(q, *case))
    augs = enumerate_augmentations(dga, q)
    twice = augs * 2
    random.Random(seed).shuffle(twice)
    for eps in twice:
        plan, walk = conjugated_both_ways(dga, eps)
        assert plan == walk
    assert dga.conjugation_plans.keys() == supports(augs)


@pytest.mark.parametrize(
    "knot, q, n_supports",
    [("m821", 4, 20), ("m821", 8, 20), ("torus2:5", 4, 28)]
    + [("trefoil", q, None) for q in FIELD_ORDERS[1:]],
)
def test_plans_match_the_walk(knot, q, n_supports):
    if knot == "trefoil":  # the Z lift
        dga = load_dsl(TREFOIL_Z)
    else:
        dga = build_dga(resolve(grid_to_front(m821_grid())) if knot == "m821" else builtin(knot))
    augs = enumerate_augmentations(dga, q)
    fdga = dga.field_copies[q]
    for eps in augs:
        conj = conjugate(dga, eps)
        assert conj.differential == conjugate_by_walk(fdga, eps).differential
        assert "conjugation_plans" not in conj.__dict__  # with_differential shares no plan
    assert fdga.conjugation_plans.keys() == supports(augs)  # one plan per support
    assert n_supports in (None, len(fdga.conjugation_plans))


@pytest.mark.parametrize("knot", ["m821", "trefoil", "torus2:5", "torus2:7", "torus2:9"])
def test_gf2_walk_matches_the_reference(knot):
    dga = build_dga(resolve(grid_to_front(m821_grid())) if knot == "m821" else builtin(knot))
    augs = enumerate_augmentations(dga, 2)
    assert augs
    for eps in augs:
        assert conjugate(dga, eps).differential == conjugate_by_walk(dga, eps).differential


def test_gf2_walk_ignores_an_explicit_zero():
    # a hand-built augmentation may carry a 0, which is_valid and the plans ignore
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    for eps in enumerate_augmentations(dga, 2):
        for name in dga.generators_of_degree(0):
            if name not in dict(eps.values):
                padded = Augmentation(GF(2), tuple(sorted(eps.values + ((name, 0),))))
                assert conjugate(dga, padded).differential == conjugate(dga, eps).differential


def test_no_plan_is_built_over_gf2():
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    for eps in enumerate_augmentations(dga, 2):
        conjugate(dga, eps)
    assert _field_dga(dga, 2) is dga and "conjugation_plans" not in dga.__dict__


# d^2 = 0 here needs the Leibniz sign: d(d(a)) = (d u)*v - u*(d v) + d(w),
# and u*(d v) = u*k2 cancels against d(w) only with its minus sign.  The
# augmentations have supports {}, {c} and {c, k1} (where eps(c) = 1).
SIGNED = """coeff F{q}
gen c 0
gen k1 0
gen k2 0
gen u 1
gen v 1
gen w 2
gen a 3
d u = k1 - c*k1
d v = k2
d w = -k1*v + c*k1*v + u*k2
d a = u*v + w
"""


@pytest.mark.parametrize("q", [3, 4, 9])
def test_plan_check_trips_only_where_validate_reports(q, monkeypatch):
    calls = []
    monkeypatch.setattr(augment, "validate", lambda dga: calls.append(dga) or validate(dga))
    dga = load_dsl(SIGNED.format(q=q))
    augs = enumerate_augmentations(dga, q)
    for eps in augs * 2:
        plan, walk = conjugated_both_ways(dga, eps)
        assert plan == walk
    assert len(dga.conjugation_plans) == 3
    assert len(calls) == 2 * len(augs)  # the walk's own validate calls, and no others


@pytest.mark.parametrize("q", [3, 4, 9])
def test_plans_and_walk_agree_on_nonzero_d_squared(q):
    # built directly, so nothing checked it: |c| = |k| = 0, |e| = 1, |a| = 2,
    # d e = c*k - k*c (zero at every eps) and d a = e*c, so d(d(a)) =
    # (c*k - k*c)*(c + eps(c)) != 0 for every eps, warm plan or cold
    ring = GF(q)
    minus_one = ring.neg(1)
    dga = DGA(
        ring,
        (Generator("c", 0), Generator("k", 0), Generator("e", 1), Generator("a", 2)),
        {"e": Element.build(ring, {("c", "k"): 1, ("k", "c"): minus_one}),
         "a": Element.build(ring, {("e", "c"): 1})},
    )
    augs = [eps for eps in enumerate_augmentations(dga, q) if len(eps.values) == 2]
    assert len(augs) == (q - 1) ** 2
    for eps in augs:
        plan, walk = conjugated_both_ways(dga, eps)
        assert plan == walk
        assert walk.startswith("conjugated DGA failed validation") and "d(d(a))" in walk
    assert len(dga.conjugation_plans) == 1


@pytest.mark.parametrize("q", [3, 4, 9])
@pytest.mark.parametrize("g_degree", [1, 2])
def test_plans_and_walk_agree_on_wrong_degree_words(q, g_degree):
    # d g = x + a*x with |a| = 0 and |x| = 1 conjugates to (1 + eps(a))*x +
    # a*x: the x term cancels at eps(a) = -1 only.  At |g| = 1 both words
    # have the wrong degree, and the message names x for every other eps(a);
    # at |g| = 2 the DGA is valid
    ring = GF(q)
    dga = DGA(
        ring,
        (Generator("a", 0), Generator("x", 1), Generator("g", g_degree)),
        {"g": Element.build(ring, {("x",): 1, ("a", "x"): 1})},
    )
    messages = set()
    for eps in enumerate_augmentations(dga, q)[1:]:  # every eps with support {a}
        plan, walk = conjugated_both_ways(dga, eps)
        assert plan == walk
        if g_degree == 2:
            assert isinstance(walk, dict)
        else:
            messages.add(walk)
            assert ("term x has" in walk) == (dict(eps.values).get("a", 0) != ring.neg(1))
    assert len(messages) == (2 if g_degree == 1 else 0)


def test_stray_augmentation_values_are_rejected():
    # values live on degree-0 generators only; a nonzero value anywhere else
    # would otherwise be carried along in eps.values without effect
    dga = build_dga(trefoil_projection())
    eps = Augmentation.build(GF(2), {"c3": 1})
    assert eps.is_valid(dga)
    assert dga.degrees["e1"] == 1
    for stray in ("zzz", "e1"):
        bad = Augmentation.build(GF(2), {"c3": 1, stray: 1})
        with pytest.raises(AugmentationError, match=f"{stray}, which are not degree-0"):
            bad.is_valid(dga)
        with pytest.raises(AugmentationError, match=stray):
            conjugate(dga, bad)
    # zero values name nothing and stay allowed
    zeros = Augmentation(GF(2), (("c3", 1), ("e1", 0), ("zzz", 0)))
    assert zeros.is_valid(dga)
    assert conjugate(dga, zeros).differential == conjugate(dga, eps).differential


def test_linear_part_of_a_conjugate_matches_a_rebuilt_dga():
    # the conjugate shares the field DGA's degrees and layout, nothing else
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    for q in (2, 4, 8):
        for eps in enumerate_augmentations(dga, q):
            conj = conjugate(dga, eps)
            rebuilt = DGA(conj.ring, conj.generators, dict(conj.differential))
            assert linear_part(conj) == linear_part(rebuilt)
            assert conj.degrees == rebuilt.degrees and conj.layout == rebuilt.layout
            assert conj.augmentation_system == rebuilt.augmentation_system
    field_dga = dga.field_copies[8]
    assert conj.degrees is field_dga.degrees and conj.layout is field_dga.layout
    assert conj.generators is field_dga.generators
    assert conj.augmentation_system is not field_dga.augmentation_system


def test_is_valid_matches_per_generator_definition():
    dga = build_dga(resolve(grid_to_front(m821_grid())))
    augs = enumerate_augmentations(dga, 4)
    f4 = dga.field_copies[4]
    system = f4.augmentation_system
    assert f4.augmentation_system is system

    def by_generator(eps):
        return all(evaluate(eps, f4, f4.diff_of(g.name)) == 0 for g in f4.generators)

    invalid = 0
    for eps in augs:
        assert eps.is_valid(f4) and by_generator(eps)
        conjugate(dga, eps)
        for name in f4.generators_of_degree(0):
            for v in GF(4).elements():
                if v != dict(eps.values).get(name, 0):
                    moved = Augmentation.build(GF(4), {**dict(eps.values), name: v})
                    assert moved.is_valid(f4) == by_generator(moved)
                    invalid += not moved.is_valid(f4)
    assert invalid > 0
    # enumeration, the rechecks and every conjugate read the one cached list
    assert dga.field_copies[4] is f4 and f4.augmentation_system is system


def test_linear_part_toy():
    dga = load_dsl("coeff F2\ngen e 1\ngen c 0\nd e = c*c + c\n")
    cx = linear_part(dga)
    assert cx.bases == {0: ("c",), 1: ("e",)}
    assert cx.matrices[1] == [[1]]


def test_linear_part_of_twist_matches_builtin():
    cx = linear_part(twist_linearized(5))
    e_basis = cx.bases[1]
    c_basis = cx.bases[0]
    m = cx.matrices[1]
    assert m[c_basis.index("c5")][e_basis.index("e0")] == 1
    assert m[c_basis.index("c1")][e_basis.index("e1")] == -1
    assert m[c_basis.index("c2")][e_basis.index("e3")] == 1
    assert m[c_basis.index("c3")][e_basis.index("e3")] == -1


def test_linear_part_zero_differential():
    dga = DGA(ZZ, (Generator("x", 0), Generator("e", 1)), {})
    cx = linear_part(dga)
    assert all(all(v == 0 for v in row) for row in cx.matrices[1])


def test_linear_part_rejects_constant_terms():
    dga = build_dga(trefoil_projection())
    with pytest.raises(AugmentationError, match="constant"):
        linear_part(dga)


# ---------------------------------------------------------------------------
# varieties and point counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_ab_variety_counts(q):
    assert variety_points(AB_VARIETY, q) == q - 1


def test_empty_system_full_affine_space():
    sys2 = PolySystem(("a", "b"), ())
    assert variety_points(sys2, 4) == 16


def test_frobenius_square():
    sysq = parse_polysystem("var x; eq x^2;")
    assert variety_points(sysq, 4) == 1


def test_polysystem_rejects_undeclared_variables():
    with pytest.raises(AugmentationError, match="undeclared"):
        parse_polysystem("var a; eq a*b;")


def test_polysystem_rejects_repeated_declarations():
    with pytest.raises(AugmentationError, match="declared twice"):
        parse_polysystem("var a a b; eq a*b + 1;")


def exhaustive_points(system: PolySystem, q: int) -> int:
    """Reference count: evaluate every point of GF(q)^n."""
    f = GF(q)
    count = 0
    for combo in itertools.product(f.elements(), repeat=len(system.variables)):
        point = dict(zip(system.variables, combo))
        ok = True
        for eq in system.equations:
            total = f.zero
            for coeff, powers in eq:
                term = f.from_int(coeff)
                for var, power in powers:
                    term = f.mul(term, field_pow(f, point[var], power))
                total = f.add(total, term)
            ok = ok and total == f.zero
        count += ok
    return count


def random_system(rng: random.Random) -> PolySystem:
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    equations = []
    for _ in range(rng.randint(0, 3)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            used = rng.sample(names, rng.randint(0, len(names)))
            powers = tuple(sorted((v, rng.randint(1, 3)) for v in used))
            terms.append((rng.randint(-3, 3), powers))
        equations.append(tuple(terms))
    return PolySystem(names, tuple(equations))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_variety_points_match_exhaustive_count(q):
    rng = random.Random(q)
    for _ in range(150):
        system = random_system(rng)
        assert variety_points(system, q) == exhaustive_points(system, q), system


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_variety_points_reduce_huge_exponents(q):
    # x^k is ((k - 1) mod (q - 1)) + 1 letters long, never k letters
    k = 10**12
    for text in (
        f"var x; eq x^{k} + 1;",
        f"var x y; eq x^{k}*y^{k + 1} + x + 1;",
        f"var x y; eq x^{k} + y^{k + 3}; eq x^{k - 1}*y + 2;",
    ):
        system = parse_polysystem(text)
        assert variety_points(system, q) == exhaustive_points(system, q), text


@st.composite
def high_power_systems(draw):
    """A field order and a PolySystem whose exponents run past q - 1."""
    q = draw(st.sampled_from(FIELD_ORDERS))
    n = draw(st.integers(1, min(3, max_unknowns(q))))
    names = tuple(f"v{i}" for i in range(n))
    powers = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 3 * q)),
                      max_size=3, unique_by=lambda vp: vp[0]).map(lambda ps: tuple(sorted(ps)))
    terms = st.lists(st.tuples(st.integers(-2 * q, 2 * q), powers), min_size=1, max_size=4)
    return q, PolySystem(names, tuple(map(tuple, draw(st.lists(terms, max_size=3)))))


@given(high_power_systems())
@settings(max_examples=200)
def test_variety_points_match_brute_force_at_high_powers(case):
    q, system = case
    assert variety_points(system, q) == exhaustive_points(system, q)


def test_variety_points_have_no_variable_cap():
    # the exhaustive scan stopped at six variables
    assert variety_points(PolySystem(tuple(f"x{i}" for i in range(10)), ()), 2) == 1024
    names = " ".join(f"x{i}" for i in range(9))
    assert variety_points(parse_polysystem(f"var {names}; eq x0*x1 + 1;"), 2) == 2**7


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_roots_of_unity_brute_force(k, q):
    f = GF(q)
    brute = sum(1 for x in f.elements() if field_pow(f, x, k) == f.one)
    assert roots_of_unity_count(k, q) == brute


def test_roots_of_unity_examples():
    assert roots_of_unity_count(1, 16) == 1
    assert roots_of_unity_count(2, 4) == 1
    assert roots_of_unity_count(3, 4) == 3
    assert roots_of_unity_count(6, 4) == 3


def test_torus_point_count_examples():
    assert torus_point_count(0, [], 5) == 1
    assert torus_point_count(2, [], 4) == 9
    assert torus_point_count(1, [3], 4) == 9


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("q", [2, 4, 8])
def test_torus_count_matches_variety_oracle(k, q):
    variables = []
    eqs = []
    for i in range(k):
        variables += [f"x{i}", f"y{i}"]
        eqs.append(f"eq x{i}*y{i} - 1;")
    system = parse_polysystem(f"var {' '.join(variables)};" + "".join(eqs)) if k else PolySystem((), ())
    assert torus_point_count(k, [], q) == variety_points(system, q)

