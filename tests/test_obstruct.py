from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldga.linhom import COHOMOLOGICAL, GradedModule, HOMOLOGICAL, homology_mod_p
from ldga.obstruct import (
    FEASIBLE,
    ObstructionStageError,
    ObstructionVerdict,
    _twist_variety,
    aug_injectivity_test,
    certify_nongeometric,
    euler_tb_check,
    obstruction_chain,
    seidel_profile,
)
from ldga.augment import parse_polysystem, torus_point_count, variety_points

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def coh(entries):
    return GradedModule("F2", COHOMOLOGICAL, entries)


def filling(entries, ring_tag="Z"):
    """A filling profile: the homological module H_i of the filling."""
    return GradedModule(ring_tag, HOMOLOGICAL, entries)


M821 = coh({-1: (1, ()), 0: (4, ()), 1: (2, ())})


# ---------------------------------------------------------------------------
# Seidel feasibility
# ---------------------------------------------------------------------------

def test_m821_polynomial_obstructed_at_dim_one():
    verdict = seidel_profile(M821, 1)
    assert isinstance(verdict, ObstructionVerdict)
    assert verdict.obstructed
    assert verdict.codes() == ["seidel.negative_degree"]


def test_spun_class_a_obstructed_via_top_class():
    from ldga.spin import kunneth_s1

    spun = kunneth_s1(GradedModule("F2", COHOMOLOGICAL, dict(M821.entries)))
    verdict = seidel_profile(spun, 2)
    assert verdict.obstructed
    assert verdict.codes() == ["seidel.negative_degree"]
    assert "H_3" in verdict.reasons[0][1]


def test_genus_one_profile_feasible():
    profile = seidel_profile(coh({0: (2, ()), 1: (1, ())}), 1)
    assert profile == filling({0: (1, ()), 1: (2, ())}, "F2")
    assert profile.free_rank(0) == 1
    assert profile.free_rank(1) == 2
    assert profile.free_rank(2) == 0


def test_profile_reads_back_input_dims():
    h = coh({0: (2, ()), 1: (1, ())})
    profile = seidel_profile(h, 1)
    for d, (free, tor) in h.entries.items():
        assert profile.entries[1 - d] == (free, tor)


def test_out_of_range_class_obstructed():
    verdict = seidel_profile(coh({0: (1, ()), 3: (1, ())}), 2)
    assert verdict.obstructed
    assert "seidel.degree_above_dimension" in verdict.codes()


def test_disconnected_profile_obstructed():
    verdict = seidel_profile(coh({1: (2, ()), 0: (1, ())}), 1)
    assert verdict.obstructed
    assert verdict.codes() == ["seidel.disconnected"]


modules = st.dictionaries(
    st.integers(min_value=-3, max_value=4),
    st.integers(min_value=0, max_value=3),
    max_size=5,
)


@given(modules, st.integers(min_value=1, max_value=4))
@settings(max_examples=80)
def test_negative_degree_always_obstructs(entries, n):
    entries = {d: (c, ()) for d, c in entries.items() if c}
    if not any(d < 0 and entries[d][0] for d in entries):
        return
    verdict = seidel_profile(coh(entries), n)
    assert isinstance(verdict, ObstructionVerdict)
    assert verdict.obstructed


# ---------------------------------------------------------------------------
# Euler characteristic / tb
# ---------------------------------------------------------------------------

def test_euler_tb_feasible():
    profile = filling({0: (1, ()), 1: (2, ())})
    assert euler_tb_check(profile, 1, 1).status == FEASIBLE


def test_euler_tb_mismatch():
    profile = filling({0: (1, ()), 1: (2, ())})
    verdict = euler_tb_check(profile, 1, 3)
    assert verdict.obstructed
    assert "euler.tb_mismatch" in verdict.codes()


def test_euler_odd_h1():
    profile = filling({0: (1, ()), 1: (3, ())})
    verdict = euler_tb_check(profile, 1, 2)
    assert "euler.odd_h1" in verdict.codes()


def test_euler_requires_dimension_one():
    profile = filling({0: (1, ())})
    with pytest.raises(ValueError):
        euler_tb_check(profile, 2, 1)


# ---------------------------------------------------------------------------
# augmentation-variety injectivity
# ---------------------------------------------------------------------------

def k_profile(k, torsion=()):
    return filling({0: (1, ()), 1: (k, tuple(torsion))})


def test_torus_count_obstruction():
    verdict = aug_injectivity_test(k_profile(2), {2: 1, 4: 3})
    assert verdict.obstructed
    assert "augvar.count_exceeds" in verdict.codes()
    assert "9" in verdict.reasons[0][1] and "3" in verdict.reasons[0][1]


def test_rank_one_torus_feasible():
    verdict = aug_injectivity_test(k_profile(1), {2: 1, 4: 3, 8: 7})
    assert verdict.status == FEASIBLE


def test_zero_rank_needs_nonempty_variety():
    verdict = aug_injectivity_test(k_profile(0), {2: 0, 4: 0})
    assert verdict.obstructed
    feasible = aug_injectivity_test(k_profile(0), {2: 1})
    assert feasible.status == FEASIBLE


def test_empty_count_table_rejected():
    with pytest.raises(ValueError, match="empty"):
        aug_injectivity_test(k_profile(1), {})


def test_injectivity_needs_integral_h1():
    # only an integral H_1 gives b_1 and its torsion; a field profile gives
    # k = dim H_1 - dim H_2 <= b_1, since H_2(L; F_p) holds Tor(H_1(L; Z), F_p)
    h = {0: (1, ()), 1: (2, ())}
    verdict = aug_injectivity_test(filling(h, "F2"), {2: 1, 4: 3})
    assert verdict.codes() == ["augvar.count_exceeds"] and "has 9 points" in verdict.reasons[0][1]
    # H_1(L) = Z + Z/2 fits H_1 = F2^2, H_2 = F2, and its torus has 3 points at q = 4
    assert aug_injectivity_test(filling({**h, 2: (1, ())}, "F2"), {2: 1, 4: 3}).status == FEASIBLE
    assert aug_injectivity_test(k_profile(1, (2,)), {2: 1, 4: 3}).status == FEASIBLE


TORSION = st.lists(st.integers(2, 12), max_size=3).map(tuple)


@given(st.integers(0, 3), TORSION, st.integers(0, 2), TORSION)
@example(1, (2,), 0, ())
@settings(max_examples=100)
def test_injectivity_is_sound_on_a_filling_and_its_f2_reduction(b, t1, c, t2):
    # the counts are the filling torus's own, so neither reading may obstruct
    h = filling({0: (1, ()), 1: (b, t1), 2: (c, t2)})
    counts = {q: torus_point_count(b, t1, q) for q in FIELD_ORDERS}
    for profile in (h, homology_mod_p(h, 2)):
        lch = GradedModule(profile.ring_tag, COHOMOLOGICAL,
                           {3 - i: e for i, e in profile.entries.items()})
        assert obstruction_chain(lch, 3, [], counts=lambda: counts).status == FEASIBLE


@given(
    st.integers(min_value=0, max_value=2),
    st.dictionaries(st.sampled_from([2, 4, 8]), st.integers(0, 60), min_size=1),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=80)
def test_injectivity_monotone_in_counts(k, counts, bump):
    base = aug_injectivity_test(k_profile(k), counts)
    bigger = {q: c + bump for q, c in counts.items()}
    after = aug_injectivity_test(k_profile(k), bigger)
    if base.status == FEASIBLE:
        assert after.status == FEASIBLE


# ---------------------------------------------------------------------------
# end-to-end certification
# ---------------------------------------------------------------------------

def stage_names(cert):
    return [e["stage"] for e in cert.evidence]


def test_certify_class_a():
    cert = certify_nongeometric("classA_m821")
    assert cert.verdict.obstructed
    assert cert.verdict.codes() == ["seidel.negative_degree"]
    assert "augment" in stage_names(cert)
    polys = next(e for e in cert.evidence if e["stage"] == "augment")["polynomials"]
    assert "t^-1 + 4 + 2t" in polys


def test_certify_class_a_spun():
    cert = certify_nongeometric("classA_spun", schedule=[1])
    assert cert.verdict.obstructed
    seidel = next(e for e in cert.evidence if e["stage"] == "seidel")
    assert "H_3" in seidel["verdict"]["reasons"][0]["detail"]


def test_certify_class_b_spun():
    cert = certify_nongeometric("classB_twist", n=5, schedule=[3], fields=(2, 4))
    assert cert.verdict.obstructed
    assert "augvar.count_exceeds" in cert.verdict.codes()
    names = stage_names(cert)
    for stage in ("homology_integral", "uct", "spin", "seidel", "variety_counts"):
        assert stage in names
    hom = next(e for e in cert.evidence if e["stage"] == "homology_integral")
    assert hom["module"]["entries"] == {"0": [2, []], "1": [1, []]}
    counts = next(e for e in cert.evidence if e["stage"] == "variety_counts")
    assert counts["counts"] == {"2": 1, "4": 3}


def test_certify_class_b_unspun():
    cert = certify_nongeometric("classB_twist", n=5, schedule=[], fields=(2, 4))
    assert cert.verdict.obstructed
    names = stage_names(cert)
    assert "euler_tb" in names
    euler = next(e for e in cert.evidence if e["stage"] == "euler_tb")
    assert euler["verdict"]["status"] == FEASIBLE
    seidel = next(e for e in cert.evidence if e["stage"] == "seidel")
    assert "profile" in seidel  # Seidel alone does not obstruct the knot


def test_class_b_euler_obstruction_decides(monkeypatch):
    # as in ``obstruct --tb``: the verdict is the Euler stage's, and no counts run
    import ldga.obstruct

    planted = ObstructionVerdict((("euler.tb_mismatch", "planted"),))
    calls = []

    def obstructed(profile, n, tb):
        calls.append((profile.free_rank(1), n, tb))
        return planted

    monkeypatch.setattr(ldga.obstruct, "euler_tb_check", obstructed)
    cert = certify_nongeometric("classB_twist", n=5, schedule=[], fields=(2, 4))
    assert cert.verdict == planted
    assert calls == [(2, 1, 1)]  # b_1 = 2, n = 1, tb = 1
    assert stage_names(cert)[-2:] == ["seidel", "euler_tb"]


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_certify_class_b_all_parameters(n, m):
    cert = certify_nongeometric("classB_twist", n=n, schedule=[m], fields=(2, 4))
    assert cert.verdict.obstructed
    assert "augvar.count_exceeds" in cert.verdict.codes()


def test_certify_class_b_n201():
    cert = certify_nongeometric("classB_twist", n=201, schedule=(3,), fields=(2, 4))
    assert cert.verdict.obstructed
    assert "augvar.count_exceeds" in cert.verdict.codes()
    hom = next(e for e in cert.evidence if e["stage"] == "homology_integral")
    assert hom["module"]["entries"] == {"0": [2, []], "1": [1, []]}


def test_certify_rejects_bad_case():
    with pytest.raises(ObstructionStageError):
        certify_nongeometric("classC")
    with pytest.raises(ObstructionStageError):
        certify_nongeometric("classB_twist")  # missing n
    with pytest.raises(ObstructionStageError):
        certify_nongeometric("classA_spun", schedule=[3])


@pytest.mark.parametrize("case", ["classA_m821", "classA_spun"])
def test_class_a_schedule_is_checked_before_any_stage(monkeypatch, case):
    import ldga.cedga
    import ldga.diagram

    def no_stage(*args, **kwargs):
        pytest.fail("a pipeline stage ran before the schedule check")

    monkeypatch.setattr(ldga.cedga, "m821_grid", no_stage)
    monkeypatch.setattr(ldga.diagram, "grid_to_front", no_stage)
    with pytest.raises(ObstructionStageError) as exc:
        certify_nongeometric(case, schedule=[1, 3])
    assert exc.value.stage == "schedule"


def test_certify_spin_bound_violation_names_the_stage():
    with pytest.raises(ObstructionStageError) as exc:
        certify_nongeometric("classB_twist", n=5, schedule=[2])
    assert exc.value.stage == "spin"


def test_certify_sphere_dim_below_one_names_the_stage():
    with pytest.raises(ObstructionStageError) as exc:
        certify_nongeometric("classB_twist", n=5, schedule=[0])
    assert exc.value.stage == "spin"
    assert "below 1" in str(exc.value)


def test_twist_variety_counts():
    assert {q: variety_points(_twist_variety(), q) for q in (2, 4, 8, 16)} == {
        2: 1, 4: 3, 8: 7, 16: 15
    }


def test_twist_variety_is_the_committed_fixture():
    # class B reads the code's system; the augvar golden reads the file
    text = (Path(__file__).resolve().parents[1] / "fixtures" / "twist_variety.sys").read_text()
    assert parse_polysystem(text) == _twist_variety()


def test_each_homology_is_computed_once(monkeypatch):
    # class A reuses the distinguished augmentation's homology; class B reads
    # its F2 homology off the integral module by universal coefficients
    from ldga import linhom

    calls = []
    real = linhom.homology_field
    monkeypatch.setattr(linhom, "homology_field", lambda cx: calls.append(cx) or real(cx))
    cert = certify_nongeometric("classA_spun")
    (stage,) = [e for e in cert.evidence if e["stage"] == "augment"]
    assert len(calls) == stage["count"] == 16
    calls.clear()
    certify_nongeometric("classB_twist", n=5, schedule=[3])
    assert calls == []
