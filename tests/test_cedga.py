import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diagram import _random_knot_grid

from ldga import _diskcore
from ldga.algebra import GF, Element, Laurent, ZT, ZZ, validate
from ldga.augment import conjugate, enumerate_augmentations
from ldga.cedga import (
    BuiltinError,
    DGAValidationError,
    DiskBudgetExceeded,
    DSLError,
    boundary_words,
    build_dga,
    builtin,
    dump_dsl,
    load_dsl,
    m821_grid,
    torus2_projection,
    trefoil_projection,
    twist_linearized,
    unknot_dsl_dga,
    unknot_projection,
)
from ldga.diagram import CROSS, LCUSP, RCUSP, DiagramError, FrontDiagram, grid_to_front, resolve


# ---------------------------------------------------------------------------
# diagram-derived DGAs
# ---------------------------------------------------------------------------

def test_unknot_differential():
    # The resolved unknot carries two embedded disks (cusp teardrop and west
    # lobe), which cancel mod 2; over Z[t, t^-1] they are the familiar 1 + t.
    dga = build_dga(unknot_projection())
    assert [g.degree for g in dga.generators] == [1]
    assert dga.diff_of(dga.generators[0].name).is_zero
    assert boundary_words(unknot_projection()) == [("e1", ()), ("e1", ())]


def test_trefoil_differential_frozen():
    dga = build_dga(trefoil_projection())
    degrees = {g.name: g.degree for g in dga.generators}
    assert degrees == {"c1": 0, "c2": 0, "c3": 0, "e1": 1, "e2": 1}
    ring = dga.ring
    assert dga.diff_of("c1").is_zero
    assert dga.diff_of("c2").is_zero
    assert dga.diff_of("c3").is_zero
    assert dga.diff_of("e1") == Element.build(
        ring, {(): 1, ("c1",): 1, ("c3",): 1, ("c1", "c2", "c3"): 1}
    )
    assert dga.diff_of("e2") == Element.build(
        ring, {(): 1, ("c1",): 1, ("c3",): 1, ("c3", "c2", "c1"): 1}
    )


def test_diagram_dgas_validate():
    for proj in (unknot_projection(), trefoil_projection(),
                 resolve(grid_to_front(m821_grid()))):
        dga = build_dga(proj)
        assert validate(dga).ok


def test_index_identity_on_all_disks():
    proj = resolve(grid_to_front(m821_grid()))
    degrees = {c.name: c.degree for c in proj.crossings}
    disks = boundary_words(proj)
    assert {name for name, _ in disks} <= set(degrees)
    for name, word in disks:
        assert degrees[name] - sum(degrees[b] for b in word) == 1


def test_budget_exhaustion_is_loud():
    proj = resolve(grid_to_front(m821_grid()))
    with pytest.raises(DiskBudgetExceeded, match="--budget"):
        build_dga(proj, budget=5)


def test_budget_message_says_how_far_it_got():
    # T(2,7): 150 steps reach event 8 of 11 and find 32 disks, 22 of them at e2
    with pytest.raises(DiskBudgetExceeded) as exc:
        boundary_words(torus2_projection(7), budget=150)
    message = str(exc.value)
    assert "budget of 150 steps" in message and "sweep event 8 of 11" in message
    assert "disks found so far: 32 (e1: 10, e2: 22)" in message
    assert "--budget" in message


@pytest.mark.parametrize("name, steps", [("m821", 125), ("torus2_7", 196)])
def test_build_step_count_pinned(name, steps):
    # the budget caps the steps of the one sweep per build, memo hits
    # included, so S = the sweep's step count is the least budget that works
    if name == "m821":
        proj = resolve(grid_to_front(m821_grid()))
    else:
        proj = torus2_projection(7)
    build_dga(proj, budget=steps)
    with pytest.raises(DiskBudgetExceeded):
        build_dga(proj, budget=steps - 1)


def test_memo_key_is_event_bottom_and_top():
    # a twist region whose disks all die at the next right cusp: paths
    # through it differ only in their corners, and a state is keyed by
    # (event, bottom, top) alone, so each twist adds a fixed number of steps;
    # keyed with its corners too, the paths would grow like the Fibonacci
    # numbers
    def search(n):
        events = [(LCUSP, 0), (LCUSP, 2)] + [(CROSS, 1)] * n + [(RCUSP, 1), (RCUSP, 0)]
        out = _diskcore._Search(resolve(FrontDiagram(events)), None)
        out.run()
        assert sorted(out.found) == [("e1", ()), ("e2", ())]  # the two loops
        return out

    assert [search(n).steps for n in (3, 5, 7, 9)] == [19, 31, 43, 55]
    assert all(len(key) == 3 for key in search(9).dead)


def test_long_front_meets_the_budget_not_the_recursion_limit():
    # the sweep keeps its own stack: the (2,1001) torus front is far deeper
    # than Python's recursion limit, and its search still ends at the budget
    events = [(LCUSP, 0), (LCUSP, 2)] + [(CROSS, 1)] * 1001 + [(RCUSP, 2), (RCUSP, 0)]
    with pytest.raises(DiskBudgetExceeded, match="budget of 500000 steps"):
        boundary_words(resolve(FrontDiagram(events)))


def _differential_projections():
    projs = {"unknot": unknot_projection(), "m821": resolve(grid_to_front(m821_grid()))}
    projs.update({f"torus2_{n}": torus2_projection(n) for n in (3, 5, 7, 9)})
    for seed in range(40):
        rng = random.Random(seed)
        front = grid_to_front(_random_knot_grid(rng, rng.choice([4, 5, 6, 7])))
        try:
            projs[f"random_{seed}"] = resolve(front)
        except DiagramError:
            continue  # nonzero rotation: the front has no graded resolution
    return projs


class _Forgetful(set):
    """A dead set that keeps no key, so no state is ever skipped."""

    def add(self, key):
        pass


def test_memoized_search_matches_search_without_memo(monkeypatch):
    # a dead-state memo may only skip subtrees that read no word
    projs = _differential_projections()
    assert sum(name.startswith("random_") for name in projs) >= 10

    def all_words():
        return {name: boundary_words(proj, budget=10**7) for name, proj in projs.items()}

    memoized = all_words()
    init = _diskcore._Search.__init__

    def without_memo(self, *args):
        init(self, *args)
        self.dead = _Forgetful()

    monkeypatch.setattr(_diskcore._Search, "__init__", without_memo)
    assert all_words() == memoized


def test_finished_search_is_freed_without_the_cyclic_collector():
    # a search holds its memo; nothing may keep it alive in a reference cycle
    proj = resolve(grid_to_front(m821_grid()))
    gc.disable()
    try:
        search = _diskcore._Search(proj, None)
        search.run()
        assert search.found and any(search.dead)
        ref = weakref.ref(search)
        del search
        assert ref() is None
    finally:
        gc.enable()


def test_torus2_builtin():
    # the (2,n) family: torus2:3 is the trefoil, and #Aug over F2 is (2^(n+1) - 1)/3
    assert dump_dsl(build_dga(builtin("torus2:3"))) == dump_dsl(build_dga(trefoil_projection()))
    for n in (3, 5, 7, 9, 11):
        augs = enumerate_augmentations(build_dga(builtin(f"torus2:{n}")), 2)
        assert len(augs) == (2 ** (n + 1) - 1) // 3, n
        assert len(set(augs)) == len(augs), n
    for bad in ("torus2:1", "torus2:4", "torus2:0"):
        with pytest.raises(BuiltinError, match="odd n >= 3"):
            builtin(bad)


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

def test_dsl_toy_roundtrip():
    text = "coeff F2\ngen e 1\ngen c 0\nd e = c*c + c\n"
    dga = load_dsl(text)
    # dump is canonical (terms sorted), and reloading reproduces the DGA
    assert dump_dsl(dga) == "coeff F2\ngen e 1\ngen c 0\nd e = c + c*c\n"
    assert load_dsl(dump_dsl(dga)) == dga


def test_dsl_rejects_degree_violation():
    with pytest.raises(DGAValidationError, match="validation"):
        load_dsl("coeff F2\ngen c 0\nd c = 1\n")


def test_dsl_unknot_over_laurent():
    dga = load_dsl("coeff Z[t]\ngen a 1\nd a = 1 + t\n")
    assert validate(dga).ok
    assert dga.ring is ZT
    from ldga.augment import enumerate_augmentations

    augs = enumerate_augmentations(dga, 2)
    assert len(augs) == 1


def test_dsl_parse_error_positions():
    with pytest.raises(DSLError, match="line 2"):
        load_dsl("coeff F2\ngen $ 1\n")
    with pytest.raises(DSLError, match="unknown factor"):
        load_dsl("coeff F2\ngen e 1\nd e = q\n")
    with pytest.raises(DSLError, match="coeff"):
        load_dsl("gen e 1\n")
    with pytest.raises(DSLError, match="t requires"):
        load_dsl("coeff F2\ngen e 1\nd e = t\n")


def test_dsl_integral_signs():
    dga = load_dsl("coeff Z\ngen c1 0\ngen c2 0\ngen e 1\nd e = c1 - c2\n")
    assert dga.diff_of("e") == Element.build(ZZ, {("c1",): 1, ("c2",): -1})
    assert "c1 - c2" in dump_dsl(dga)


def test_dsl_laurent_exponents():
    dga = load_dsl("coeff Z[t]\ngen a 1\nd a = 1 + t^-1\n")
    assert validate(dga).ok
    assert "t^-1" in dump_dsl(dga)
    assert load_dsl(dump_dsl(dga)) == dga


@pytest.mark.parametrize(
    "ring, terms, text",
    [
        (ZZ, {("x",): -1}, "-x"),
        (ZT, {("a",): Laurent(((-1, 1),)), ("b",): Laurent(((1, -2),))}, "t^-1*a - 2*t*b"),
        (ZT, {(): Laurent(((0, -1), (1, 1))), ("a", "b"): Laurent(((0, 3),))}, "-1 + t + 3*a*b"),
        (ZZ, {(): -3}, "-3"),
        (GF(3), {(): 2, ("a",): 1, ("b", "a"): 2}, "2 + a + 2*b*a"),
        (ZT, {}, "0"),
    ],
)
def test_element_prints_in_dsl_syntax(ring, terms, text):
    assert str(Element.build(ring, terms)) == text


@st.composite
def dsl_elements(draw):
    """An element over Z, Z[t] or a prime field in words of a and b."""
    ring = draw(st.sampled_from([ZZ, ZT] + [GF(p) for p in (2, 3, 5, 7, 11, 13)]))
    if ring is ZZ:
        coefficients = st.integers(-10**30, 10**30)
    elif ring is ZT:
        coefficients = st.dictionaries(
            st.integers(-4, 4), st.integers(-9, 9), max_size=4).map(Laurent.from_dict)
    else:
        coefficients = st.sampled_from(list(ring.elements()))
    words = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)
    return Element.sum(ring, draw(st.lists(st.tuples(words, coefficients), max_size=6)))


@given(dsl_elements())
@settings(max_examples=300)
def test_element_text_reads_back_as_a_d_line(el):
    text = f"coeff {el.ring.name}\ngen g 1\ngen a 0\ngen b 0\nd g = {el}\n"
    assert load_dsl(text).diff_of("g") == el


def test_validation_message_prints_elements_in_dsl_syntax():
    text = "coeff Z[t]\ngen x 2\ngen y 1\ngen a 0\nd x = t*y\nd y = 1 - a\n"
    with pytest.raises(DGAValidationError) as exc:
        load_dsl(text)
    assert str(exc.value).endswith("d(d(x)) = t - t*a != 0")


def test_dump_roundtrip_builtins():
    for name in ("twist:5", "twist:7"):
        dga = builtin(name)
        assert load_dsl(dump_dsl(dga)) == dga


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def test_dump_roundtrip_needs_prime_subfield_coefficients():
    # over F4 the DSL can only write 0 and 1: conjugating by an augmentation
    # with values in {0, 1} keeps every coefficient there, any other value
    # does not, and dump_dsl must refuse rather than write a different DGA
    dga = build_dga(trefoil_projection())
    augs = enumerate_augmentations(dga, 4)
    assert len(augs) == 17
    prime = [eps for eps in augs if {v for _, v in eps.values} <= {1}]
    assert len(prime) == 5
    for eps in augs:
        conj = conjugate(dga, eps)
        if eps in prime:
            assert load_dsl(dump_dsl(conj)) == conj
        else:
            with pytest.raises(ValueError, match="prime subfield"):
                dump_dsl(conj)


def test_twist_generator_counts():
    dga = twist_linearized(5)
    assert len(dga.generators) == 13
    assert len(dga.generators_of_degree(0)) == 7
    assert len(dga.generators_of_degree(1)) == 6


def test_twist_differential_case_split():
    dga = twist_linearized(7)
    assert dga.diff_of("e0") == Element.build(ZZ, {("c7",): 1})
    assert dga.diff_of("e1") == Element.build(ZZ, {("c1",): -1})
    assert dga.diff_of("e3") == Element.build(ZZ, {("c2",): 1, ("c3",): -1})
    assert dga.diff_of("e4") == Element.build(ZZ, {("c3",): -1, ("c4",): 1})


def test_twist_rejects_bad_n():
    with pytest.raises(ValueError):
        twist_linearized(4)
    with pytest.raises(ValueError):
        twist_linearized(3)


def test_builtin_dispatch():
    assert builtin("twist:5") == twist_linearized(5)
    assert builtin("twist_linearized(7)") == twist_linearized(7)
    assert builtin("m821_grid").size == 8
    assert len(builtin("unknot").crossings) == 1
    assert len(builtin("trefoil").crossings) == 5
    assert builtin("unknot_dsl") == unknot_dsl_dga()
    with pytest.raises(ValueError):
        builtin("nope")


def test_m821_fixture_copies_agree():
    from importlib import resources
    from pathlib import Path

    pkg = resources.files("ldga.fixtures").joinpath("m821.json").read_text()
    repo = Path(__file__).resolve().parents[1] / "fixtures" / "m821.json"
    assert pkg == repo.read_text()
