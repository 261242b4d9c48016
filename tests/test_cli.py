import json
import subprocess
import sys
from pathlib import Path

import pytest

from ldga import augment, cedga, obstruct
from ldga._polytext import MAX_DIGITS
from ldga.algebra import GF, ValidationReport
from ldga.cli import main, parse_poly_text
from ldga.linhom import LinearizedComplex

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


# ---------------------------------------------------------------------------
# dga
# ---------------------------------------------------------------------------

def test_dga_builtin_twist_dump(capsys):
    code, out, err = run(capsys, "dga", "--builtin", "twist:5")
    assert code == 0
    assert out.count("gen ") == 13
    assert "d e0 = c5" in out
    from ldga.cedga import load_dsl, twist_linearized

    assert load_dsl(out) == twist_linearized(5)


def test_dga_grid_roundtrip(capsys):
    code, out, err = run(capsys, "dga", "--grid", str(FIXTURES / "m821.json"))
    assert code == 0
    from ldga.cedga import build_dga, load_dsl
    from ldga.diagram import grid_to_front, parse_grid, resolve

    direct = build_dga(resolve(grid_to_front(parse_grid((FIXTURES / "m821.json").read_text()))))
    assert load_dsl(out) == direct


def test_dga_bad_grid_exit_2(capsys):
    code, _, err = run(capsys, "dga", "--grid", str(FIXTURES / "bad.json"))
    assert code == 2
    assert "collide" in err


def test_dga_invalid_dsl_exit_3(capsys):
    code, _, err = run(capsys, "dga", "--dsl", str(FIXTURES / "invalid.dga"))
    assert code == 3


def test_dga_requires_one_source(capsys):
    code, _, err = run(capsys, "dga")
    assert code == 2


# ---------------------------------------------------------------------------
# augs / linpoly
# ---------------------------------------------------------------------------

def test_augs_trefoil(capsys):
    report, err = run_json(capsys, "augs", "--builtin", "trefoil", "--field", "2")
    assert report["result"]["count"] == 5
    assert report["schema"] == "ldga-report/1"
    assert "5 augmentations" in err


def test_augs_torus2_builtin(capsys):
    # closed form for the max-tb (2,n) torus knot over F2: (2^(n+1) - 1)/3
    report, _ = run_json(capsys, "augs", "--builtin", "torus2:9", "--field", "2")
    assert report["result"]["count"] == (2 ** 10 - 1) // 3 == 341


def test_augs_unknot_dsl_fixture(capsys):
    report, _ = run_json(capsys, "augs", "--dsl", str(FIXTURES / "unknot.dga"), "--field", "2")
    assert report["result"]["count"] == 1
    assert report["result"]["t_value"] == 1  # -1 in F2


@pytest.mark.parametrize(
    "argv, count, t_value",
    [
        (["--builtin", "unknot_dsl", "--field", "3"], 1, 2),  # -1 in F3
        (["--dsl", "no_root.dga", "--field", "3"], 0, None),  # b*b = -1 has no root in F3
        (["--dsl", "no_root.dga", "--field", "9"], 2, 2),  # but two in F9
    ],
)
def test_augs_t_value_over_laurent_dgas(capsys, monkeypatch, tmp_path, argv, count, t_value):
    monkeypatch.chdir(tmp_path)
    Path("no_root.dga").write_text("coeff Z[t]\ngen a 1\ngen b 0\nd a = 1 + b*b\n")
    report, _ = run_json(capsys, "augs", *argv)
    assert (report["result"]["count"], report["result"]["t_value"]) == (count, t_value)


def test_linpoly_m821_contains_target(capsys):
    report, _ = run_json(
        capsys, "linpoly", "--grid", str(FIXTURES / "m821.json"), "--field", "2", "--all-augs"
    )
    assert "t^-1 + 4 + 2t" in report["result"]["polynomials"]


def test_linpoly_twist(capsys):
    report, _ = run_json(capsys, "linpoly", "--builtin", "twist:5", "--field", "2", "--all-augs")
    assert set(report["result"]["polynomials"]) == {"2 + t"}


# ---------------------------------------------------------------------------
# spin / augvar / obstruct
# ---------------------------------------------------------------------------

def test_spin_integral(capsys):
    report, err = run_json(
        capsys, "spin", "--builtin", "twist:5", "--spin", "3", "--integral"
    )
    assert report["result"]["module"]["entries"] == {
        "0": [2, []], "1": [1, []], "3": [2, []], "4": [1, []]
    }
    assert "Z^2" in err


def test_spin_empty_schedule_has_no_stages(capsys):
    report, _ = run_json(capsys, "spin", "--builtin", "twist:5", "--spin", "", "--integral")
    assert [st["stage"] for st in report["stages"]] == ["start"]


def test_spin_field_kunneth(capsys):
    report, _ = run_json(
        capsys, "spin", "--grid", str(FIXTURES / "m821.json"), "--spin", "1", "--field", "2"
    )
    # diagram DGAs get linearized at the first augmentation (canonical order)
    stages = report["stages"]
    assert [s["stage"] for s in stages] == ["conjugate", "start", "kunneth_s1"]
    start = parse_poly_text(stages[1]["polynomial"]).as_dict()
    spun = parse_poly_text(stages[2]["polynomial"]).as_dict()
    expect = {}
    for d, c in start.items():
        expect[d] = expect.get(d, 0) + c
        expect[d + 1] = expect.get(d + 1, 0) + c
    assert spun == expect


def test_spin_field_follows_the_dga(capsys):
    # Z[t] without constant terms specializes t -> -1 into F2: d a = b is acyclic
    zt = str(FIXTURES / "zt_linear.dga")
    report, _ = run_json(capsys, "spin", "--dsl", zt)
    assert report["result"] == {"polynomial": "0"}
    code, _, err = run(capsys, "spin", "--dsl", zt, "--integral")
    assert code == 3
    report, _ = run_json(capsys, "spin", "--dsl", str(FIXTURES / "f3.dga"))
    assert report["result"] == {"polynomial": "1"}
    # an F2 diagram DGA extends to F4
    report, _ = run_json(capsys, "spin", "--builtin", "trefoil", "--field", "4")
    assert report["result"] == {"polynomial": "2 + t"}


@pytest.mark.parametrize(
    "source, field",
    [
        (["--dsl", str(FIXTURES / "f3.dga")], 3),
        (["--dsl", str(FIXTURES / "zt_linear.dga")], 2),
        (["--builtin", "twist:5"], 2),
        (["--builtin", "trefoil", "--field", "4"], 4),
        (["--builtin", "twist:5", "--integral"], None),
    ],
)
def test_spin_reports_the_field_it_used(capsys, source, field):
    report, _ = run_json(capsys, "spin", *source)
    assert report["inputs"]["field"] == field


def test_augvar_counts(capsys):
    report, _ = run_json(
        capsys, "augvar", "--system", str(FIXTURES / "twist_variety.sys"),
        "--fields", "2,4,8,16",
    )
    assert report["result"] == {"counts": {"2": 1, "4": 3, "8": 7, "16": 15}}


def test_augvar_solves_more_variables_than_the_recursion_limit(capsys, tmp_path):
    # one root, x = 2, of x^2 + 2x + 1 over F3 per variable, 1100 variables
    n = 1100
    system = tmp_path / "deep.sys"
    system.write_text(
        "var " + " ".join(f"x{i}" for i in range(n)) + ";\n"
        + "".join(f"eq x{i}*x{i} + 2*x{i} + 1;\n" for i in range(n))
    )
    report, _ = run_json(capsys, "augvar", "--system", str(system), "--fields", "3")
    assert report["result"]["counts"] == {"3": 1}


def test_obstruct_command(capsys):
    report, err = run_json(
        capsys, "obstruct", "--poly", "t^-1 + 4 + 2*t", "--dim", "1"
    )
    verdict = report["result"]["verdict"]
    assert verdict["status"] == "obstructed"
    assert verdict["reasons"][0]["code"] == "seidel.negative_degree"


def test_obstruct_feasible_then_counts(capsys):
    # Seidel and Euler/tb pass for 2 + t, but the variety counts still
    # obstruct: the genus-one torus needs 9 points over F4, the variety has 3
    report, _ = run_json(
        capsys, "obstruct", "--poly", "2 + t", "--dim", "1", "--tb", "1",
        "--counts", "2:1,4:3",
    )
    stages = {s["stage"]: s for s in report["stages"]}
    assert "profile" in stages["seidel"]
    assert stages["euler_tb"]["verdict"]["status"] == "feasible"
    verdict = report["result"]["verdict"]
    assert verdict["status"] == "obstructed"
    assert verdict["reasons"][0]["code"] == "augvar.count_exceeds"


def test_parse_poly_text():
    assert parse_poly_text("t^-1 + 4 + 2*t").as_dict() == {-1: 1, 0: 4, 1: 2}
    assert parse_poly_text("2 + t").as_dict() == {0: 2, 1: 1}
    assert parse_poly_text("3t^2").as_dict() == {2: 3}


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_class_b(capsys):
    report, err = run_json(
        capsys, "certify", "classB", "--n", "5", "--spin", "3", "--fields", "2,4"
    )
    verdict = report["result"]["verdict"]
    assert verdict["status"] == "obstructed"
    codes = [r["code"] for r in verdict["reasons"]]
    assert "augvar.count_exceeds" in codes
    detail = verdict["reasons"][0]["detail"]
    assert "9" in detail and "3" in detail


def test_certify_class_a(capsys):
    report, _ = run_json(capsys, "certify", "classA")
    assert report["result"]["verdict"]["status"] == "obstructed"


def test_certify_stage_error_exit_4(capsys):
    code, _, err = run(capsys, "certify", "classB", "--n", "5", "--spin", "2")
    assert code == 4
    assert "stage error" in err


@pytest.mark.parametrize("case", ["classA", "classA-spun"])
def test_certify_class_a_sphere_spin_exit_4(capsys, case):
    code, _, err = run(capsys, "certify", case, "--spin", "3")
    assert code == 4
    assert err.startswith("stage error: [schedule]")


@pytest.mark.parametrize(
    "spec, mode",
    [("2", "--integral"), ("3,2", "--field=2"), ("1,3", "--field=2")],
)
def test_spin_stage_error_exit_4(capsys, spec, mode):
    # a stable-bound violation, or a stable stage after a circle
    code, _, err = run(capsys, "spin", "--builtin", "twist:7", "--spin", spec, mode)
    assert code == 4
    assert err.startswith("stage error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def strip_timing(report):
    report = dict(report)
    report.pop("timing_ms", None)
    return report


REPORT_KEYS = {"schema", "tool", "command", "inputs", "stages", "result", "timing_ms"}


@pytest.mark.parametrize(
    "argv",
    [
        ["augs", "--builtin", "trefoil", "--field", "2"],
        ["linpoly", "--builtin", "trefoil", "--all-augs"],
        ["spin", "--builtin", "twist:5", "--spin", "3", "--integral"],
        ["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", "2,4"],
        ["obstruct", "--poly", "2 + t", "--dim", "1", "--tb", "1", "--counts", "2:1,4:3"],
        ["certify", "classB", "--n", "5", "--spin", "3"],
    ],
)
def test_reports_deterministic_modulo_timing(capsys, argv):
    r1, _ = run_json(capsys, *argv)
    r2, _ = run_json(capsys, *argv)
    assert strip_timing(r1) == strip_timing(r2)
    assert set(r1) == REPORT_KEYS
    assert r1["command"] == argv[0]
    assert set(r1["timing_ms"]) == {"total"}


@pytest.mark.parametrize(
    "argv",
    [
        ["augs", "--builtin", "trefoil", "--field", "3"],
        ["augs", "--builtin", "trefoil", "--field", "6"],
        ["augs", "--builtin", "nosuch"],
        ["certify", "classB", "--n", "4"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "2:x"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "2"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "0:1"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "6:1"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "2:-1"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "2:1,"],
        ["spin", "--dsl", str(FIXTURES / "f3.dga"), "--field", "5"],
        ["certify", "classA", "--fields", "6"],
        ["certify", "classA-spun", "--fields", "0"],
        ["certify", "classB", "--n", "5", "--fields", "2,6"],
        ["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", "1"],
        ["spin", "--builtin", "twist:5", "--spin", "0"],
        ["spin", "--builtin", "twist:5", "--spin", "-3", "--integral"],
        ["spin", "--builtin", "twist:5", "--spin", "3,0", "--integral"],
        ["certify", "classB", "--n", "5", "--spin", "0"],
        ["obstruct", "--poly", "1+t", "--dim", "0"],
        ["obstruct", "--poly", "1+t", "--dim", "-1"],
        ["dga", "--builtin", "trefoil", "--budget", "0"],
        ["dga", "--grid", str(FIXTURES / "m821.json"), "--budget", "-1"],
        ["certify", "classA", "--budget", "0"],
        ["certify", "classA", "--budget", "-1"],
        ["spin", "--builtin", "twist:5", "--spin", "3,,1", "--integral"],
        ["spin", "--builtin", "twist:5", "--spin", "3,", "--integral"],
        ["augs", "--builtin", "torus2:8"],
        ["augs", "--builtin", "torus2:1"],
        ["augs", "--builtin", "twist:5)"],
        ["augs", "--builtin", "twist(5"],
        ["augs", "--builtin", "twist_linearized:5"],
        ["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", "2,,4,"],
        ["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", ""],
        ["certify", "classA", "--fields", "2,"],
        ["certify", "classB", "--n", "5", "--fields", ",4"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "2:1,2:5,4:3"],
        ["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", "2,4,2"],
        ["certify", "classB", "--n", "5", "--fields", "4,2,4"],
        # int() reads most of these (1_6 as 16, +3 as 3); the integer reader takes
        # ASCII digits only, after one '-' for --tb
        ["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", "1_6"],
        ["spin", "--builtin", "twist:5", "--spin", "+3", "--integral"],
        ["augs", "--builtin", "trefoil", "--field", "1_6"],
        ["linpoly", "--builtin", "trefoil", "--field", "+2"],
        ["spin", "--builtin", "twist:5", "--spin", "3", "--field", "0_2"],
        ["certify", "classB", "--n", "0_5"],
        ["obstruct", "--poly", "2+t", "--dim", "+1"],
        ["obstruct", "--poly", "2+t", "--dim", "1", "--tb", "1_0"],
        ["obstruct", "--poly", "2+t", "--dim", "1", "--tb", "+1"],
        ["obstruct", "--poly", "2+t", "--dim", "1", "--tb", "- 1"],
        ["obstruct", "--poly", "2+t", "--dim", "1", "--tb", "-"],
        ["dga", "--builtin", "trefoil", "--budget", "5_000"],
        ["certify", "classA", "--budget", "1e6"],
        ["certify", "classB", "--n", "5.0"],
        # options that would otherwise be ignored
        ["spin", "--builtin", "twist:5", "--integral", "--field", "3"],
        ["spin", "--builtin", "twist:5", "--integral", "--field", "6"],
        ["obstruct", "--poly", "t^2", "--dim", "2", "--tb", "7"],
        ["certify", "classA", "--n", "5"],
        ["certify", "classA", "--spin", "1", "--n", "3"],
        ["certify", "classA-spun", "--n", "3"],
        ["certify", "classA", "--fields", "2,4"],
        ["certify", "classA-spun", "--fields", "2"],
        ["certify", "classB", "--n", "5", "--grid", str(FIXTURES / "m821.json")],
        ["certify", "classB", "--n", "5", "--budget", "100"],
        # --budget on inputs that run no disk search
        ["augs", "--dsl", str(FIXTURES / "unknot.dga"), "--budget", "1"],
        ["augs", "--builtin", "twist:5", "--budget", "1"],
        ["linpoly", "--builtin", "unknot_dsl", "--budget", "1"],
        ["spin", "--builtin", "twist_linearized(5)", "--spin", "3", "--budget", "9"],
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_integer_options_echo_ints(capsys):
    report, _ = run_json(capsys, "obstruct", "--poly", "2 + t", "--dim", " 1", "--tb", "-1")
    assert (report["inputs"]["dim"], report["inputs"]["tb"]) == (1, -1)
    assert report["result"]["verdict"]["status"] == "obstructed"  # chi = -1, -tb = 1
    report, _ = run_json(capsys, "augs", "--builtin", "trefoil", "--field", "04")
    assert report["inputs"]["field"] == 4 and report["result"]["count"] == 17
    code, _, err = run(capsys, "certify", "classB", "--n", "0_5")
    assert (code, err) == (2, "error: bad --n '0_5': expected a natural number, got '0_5'\n")


def test_certify_class_b_without_n_names_the_option(capsys):
    code, _, err = run(capsys, "certify", "classB")
    assert (code, err) == (2, "error: certify classB needs --n\n")


def test_certify_names_the_options_its_case_does_not_use(capsys):
    code, _, err = run(capsys, "certify", "classB", "--n", "5", "--grid", "g.json", "--budget", "9")
    assert (code, err) == (2, "error: certify classB does not use --grid, --budget\n")
    code, _, err = run(capsys, "certify", "classA-spun", "--n", "3", "--fields", "2")
    assert (code, err) == (2, "error: certify classA-spun does not use --n, --fields\n")


def test_certify_class_b_fields_default_to_2_and_4(capsys):
    argv = ["certify", "classB", "--n", "5", "--spin", "3"]
    default, _ = run_json(capsys, *argv)
    given, _ = run_json(capsys, *argv, "--fields", "2,4")
    assert strip_timing(default) == strip_timing(given)
    assert default["inputs"]["fields"] == "2,4"


@pytest.mark.parametrize("poly", ["", " + ", "0", "0*t"])
def test_zero_polynomial_is_bad_input(capsys, poly):
    code, _, err = run(capsys, "obstruct", "--poly", poly, "--dim", "1")
    assert code == 2
    assert err == f"error: polynomial {poly!r} is zero; linearized cohomology never is\n"


HUGE_FAMILY_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # a missing bound fails, not the host
sys.path.insert(0, sys.argv[1])
from ldga.cli import main
for argv in (["dga", "--builtin", "twist:99999999999"],
             ["dga", "--builtin", "torus2:99999999999"],
             ["certify", "classB", "--n", "99999999999"]):
    start = time.perf_counter()
    code = main(argv)
    print(code, time.perf_counter() - start, file=sys.stdout)
"""


def test_huge_family_sizes_exit_2_before_allocating():
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_FAMILY_CHILD, str(REPO / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    results = [line.split() for line in proc.stdout.splitlines()]
    assert [code for code, _ in results] == ["2", "2", "2"], proc.stderr
    assert all(float(seconds) < 0.5 for _, seconds in results), results
    assert proc.stderr.splitlines() == [
        f"error: twist family needs n <= {cedga.FAMILY_MAX_N}, got 99999999999",
        f"error: torus2 family needs n <= {cedga.FAMILY_MAX_N}, got 99999999999",
        f"error: twist family needs n <= {cedga.FAMILY_MAX_N}, got 99999999999",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["dga", "--builtin", "twist:" + "9" * 5000],
        ["dga", "--builtin", "torus2:" + "9" * 5000],
        ["dga", "--builtin", f"twist_linearized({'9' * 5000})"],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "2:" + "9" * 5000],
        ["obstruct", "--poly", "1+t", "--dim", "1", "--counts", "9" * 5000 + ":1"],
        ["augs", "--builtin", "trefoil", "--field", "9" * 5000],
        ["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", "2," + "9" * 5000],
        ["spin", "--builtin", "trefoil", "--spin", "1," + "9" * 5000],
    ],
)
def test_over_long_integers_exit_2(capsys, argv):
    # past int()'s 4300-digit limit: a bad parameter, not a ValueError
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"at most {MAX_DIGITS} are read" in err and len(err) < 200


@pytest.mark.parametrize(
    "text, echoed",
    [
        ("coeff F" + "1" * 1200 + "\ngen a 0\n", "(1201 characters)"),
        ("coeff F2\ngen a " + "a" * 2000 + "\n", "(2000 characters)"),
        # GF's reason, after the cut ring name, cuts the order
        ("coeff F1" + "0" * 998 + "\ngen a 0\n", "(999 characters) is not a prime power"),
        ("coeff Z\ngen " + "g" * 2000 + " 1\ngen a 0\nd " + "g" * 2000 + " = zz\n",
         "unknown factor 'zz' in d 'ggg"),
    ],
)
def test_over_long_operands_are_cut_in_messages(tmp_path, capsys, text, echoed):
    # the message keeps a prefix of the operand and states its length
    path = tmp_path / "long.dga"
    path.write_text(text)
    code, _, err = run(capsys, "dga", "--dsl", str(path))
    assert code == 2
    assert err.startswith("parse error: ") and echoed in err, err
    assert all(len(line) < 200 for line in err.splitlines()), err


ORDER = "1" + "0" * 998  # a 999-digit field order: read, then refused by GF
LONG = "g" * 2000


@pytest.mark.parametrize(
    "argv, text, echoed",
    [
        (["augs", "--builtin", "trefoil", "--field", ORDER], None,
         "(999 characters) is not a prime power"),
        (["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", f"2,{ORDER}"],
         None, "(999 characters) is not a prime power"),
        (["augvar", "--fields", "2", "--system"], f"var {LONG} a {LONG};\neq a;\n",
         "(2000 characters) declared twice"),
        (["obstruct", "--dim", "1", "--poly", "0*t" + "+0*t" * 2000], None, "is zero"),
        (["obstruct", "--dim", "1", "--poly", "2+" + LONG], None,
         "(2000 characters); the variable is t"),
        (["obstruct", "--poly", "2+t", "--dim", "1", "--counts", "6:" + "0" * 900 + "1"], None,
         "(903 characters): '6' is not a prime power"),
        (["obstruct", "--poly", "2+t", "--dim", "1", "--counts", "2:1,2:" + "0" * 900 + "1"],
         None, "(903 characters): field order 2 is repeated"),
    ],
    ids=["field", "fields", "var", "zero-poly", "poly-variable", "counts-field", "counts-repeat"],
)
def test_reasons_cut_their_operands(tmp_path, capsys, argv, text, echoed):
    # a reason that names an over-long operand keeps a prefix and the length
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = [*argv, str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and echoed in err, err
    assert err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize(
    "argv",
    [
        ["dga", "--grid"],
        ["dga", "--dsl"],
        ["augvar", "--system"],
        ["certify", "classA", "--grid"],
    ],
)
def test_non_utf8_input_files_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("parse error: ") and "utf-8" in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text",
    ['{"size": 2, "X": [' + "9" * 5000 + ', 1], "O": [1, 0]}', "[" * 100000 + "]" * 100000],
)
def test_grid_json_past_the_reader_limits_exits_2(tmp_path, capsys, text):
    # an integer past int()'s 4300 digits, and nesting past the recursion limit
    path = tmp_path / "grid.json"
    path.write_text(text)
    code, _, err = run(capsys, "dga", "--grid", str(path))
    assert code == 2
    assert err.startswith("parse error: grid file is not valid JSON") and err.count("\n") == 1


def test_family_bound_is_inclusive():
    assert len(cedga.twist_linearized(cedga.FAMILY_MAX_N).generators) == 2 * cedga.FAMILY_MAX_N + 3
    with pytest.raises(cedga.BuiltinError, match="needs n <="):
        cedga.builtin(f"torus2:{cedga.FAMILY_MAX_N + 2}")


def test_help_shows_the_library_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["dga", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {cedga.DEFAULT_DISK_BUDGET})" in text
    assert f"at most {cedga.FAMILY_MAX_N})" in text


MISSING = str(FIXTURES / "missing.json")
INVALID = str(FIXTURES / "invalid.dga")
STABILIZED = str(FIXTURES / "stabilized_unknot.json")
M821 = str(FIXTURES / "m821.json")
PREFIXES = ("error: ", "parse error: ", "validation error: ", "stage error: ")
BAD_DISKS = "bad-disks"  # leading tag: the disk search breaks the index identity


def _words_breaking_the_index_identity(diagram, budget=None):
    first = diagram.crossings[0].name
    return [(first, (first,))]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dga", "--grid", str(FIXTURES / "bad.json")], 2),
        (["dga", "--dsl", INVALID], 3),
        (["dga", "--builtin", "torus2:7", "--budget", "10"], 4),
        (["augs", "--grid", STABILIZED], 2),
        (["augs", "--dsl", INVALID], 3),
        (["augs", "--grid", str(FIXTURES / "m821.json"), "--budget", "5"], 4),
        (["linpoly", "--grid", MISSING], 2),
        (["linpoly", "--builtin", "trefoil", "--field", "6"], 2),
        (["linpoly", "--dsl", INVALID], 3),
        (["linpoly", "--builtin", "trefoil", "--budget", "3"], 4),
        (["spin", "--dsl", MISSING], 2),
        (["spin", "--builtin", "unknot_dsl", "--integral"], 3),
        (["spin", "--builtin", "twist:7", "--spin", "2", "--integral"], 4),
        (["augvar", "--system", MISSING], 2),
        (["obstruct", "--poly", "t^x", "--dim", "1"], 2),
        (["certify", "classA", "--grid", MISSING], 2),
        (["certify", "classB", "--n", "5", "--spin", "1"], 4),
        (["certify", "classA", "--grid", STABILIZED], 4),
        ([BAD_DISKS, "dga", "--grid", M821], 3),
        ([BAD_DISKS, "augs", "--grid", M821], 3),
        ([BAD_DISKS, "linpoly", "--grid", M821], 3),
        ([BAD_DISKS, "spin", "--grid", M821, "--spin", "1"], 3),
        ([BAD_DISKS, "certify", "classA", "--grid", M821], 3),
        (["dga", "--grid", str(FIXTURES / "bool_grid.json")], 2),
        (["augs", "--builtin", "m821_grid", "--budget", "5"], 4),
    ],
)
def test_every_subcommand_fails_with_its_documented_code(capsys, monkeypatch, argv, code):
    if argv[0] == BAD_DISKS:
        monkeypatch.setattr(cedga, "boundary_words", _words_breaking_the_index_identity)
        argv = argv[1:]
    got, _, err = run(capsys, *argv)
    assert got == code, err
    assert err.startswith(PREFIXES) and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_reports_carry_no_nan_or_infinity(tmp_path, capsys):
    # an empty variety reports its zero count and nothing else
    system = tmp_path / "empty.sys"
    system.write_text("var x; eq 2*x + 1;")
    code, out, err = run(capsys, "augvar", "--system", str(system), "--fields", "2,3")
    assert code == 0, err

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    result = json.loads(out, parse_constant=reject)["result"]
    assert result["counts"] == {"2": 0, "3": 1}
    assert "dimension" not in result


def test_report_writer_refuses_nan(monkeypatch, capsys):
    monkeypatch.setattr(augment, "variety_points", lambda system, q: float("nan"))
    with pytest.raises(ValueError, match="JSON"):
        main(["augvar", "--system", str(FIXTURES / "twist_variety.sys"), "--fields", "2,4"])


def test_seidel_profile_of_a_huge_dimension(capsys):
    # the profile reads only the classes present, never the range 0..n+1
    report, _ = run_json(capsys, "obstruct", "--poly", f"t^{10**9}", "--dim", str(10**9))
    assert report["stages"][0]["profile"]["homology"] == {"0": [1, []]}
    assert report["result"]["verdict"]["status"] == "feasible"


def test_bad_polysystem_exits_2(tmp_path, capsys):
    system = tmp_path / "bad.sys"
    system.write_text("var a; eq a*b + 1;")
    code, _, err = run(capsys, "augvar", "--system", str(system))
    assert code == 2
    assert err.startswith("parse error: ") and "undeclared" in err


def _fail_validation(dga):
    return ValidationReport(["planted"])


def _zero_solutions(ring, unknowns, equations):
    return [{u: 0 for u in unknowns}]


def _broken_complex(*args):
    return LinearizedComplex(GF(2), {0: ("a",), 1: ("b",), 2: ("c",)}, {1: [[1]], 2: [[1]]})


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("validate", _fail_validation, "conjugated DGA failed validation"),
        ("_backtrack", _zero_solutions, "solver produced an invalid augmentation"),
        ("linear_part", _broken_complex, "differential does not square to zero at degree 1"),
    ],
)
def test_internal_tripwires_exit_3(capsys, monkeypatch, name, fake, message):
    # a violated internal check is a validation failure, not bad input
    monkeypatch.setattr(augment, name, fake)
    code, _, err = run(capsys, "linpoly", "--builtin", "trefoil")
    assert code == 3
    assert err.startswith("validation error: ") and message in err
    assert "Traceback" not in err


def test_degree_writhe_tripwire_exits_3(capsys, monkeypatch):
    # every resolved front checks sum (-1)^degree = tb; break tb by one
    from ldga import diagram
    monkeypatch.setattr(diagram.FrontDiagram, "tb",
                        property(lambda front: front.writhe - front.n_right_cusps + 1))
    code, out, err = run(capsys, "dga", "--builtin", "trefoil")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "validation error: resolution breaks the degree/writhe identity: "
        "sum of (-1)^degree is 1, tb is 2"
    ]


def test_jobs_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["linpoly", "--builtin", "trefoil", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_oracle_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["augs", "--builtin", "trefoil", "--oracle"])
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "augs", "--builtin", "trefoil", "--field", "2", "--out", str(out)
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["result"]["count"] == 5


@pytest.mark.parametrize(
    "argv",
    [["augs", "--builtin", "trefoil", "--field", "2"], ["dga", "--builtin", "trefoil"]],
)
@pytest.mark.parametrize(
    "where, reason",
    [("missing/report.json", "No such file or directory"), ("", "Is a directory")],
)
def test_unwritable_out_path_exits_2(tmp_path, capsys, argv, where, reason):
    # a missing directory, or a directory given as the path
    path = tmp_path / where
    code, stdout, err = run(capsys, *argv, "--out", str(path))
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write report to {path}: {reason}\n"


@pytest.mark.parametrize(
    "argv, module, name",
    [(["certify", "classA"], obstruct, "certify_nongeometric"),
     (["dga", "--builtin", "trefoil"], cedga, "build_dga")],
)
@pytest.mark.parametrize(
    "where, reason",
    [("missing/r.json", "No such file or directory"), ("file/r.json", "Not a directory"),
     ("", "Is a directory")],
)
def test_unwritable_out_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                       module, name, where, reason):
    def never(*args, **kwargs):
        raise AssertionError(f"{name} ran before --out was checked")

    monkeypatch.setattr(module, name, never)
    (tmp_path / "file").write_text("")
    path = tmp_path / where
    code, stdout, err = run(capsys, *argv, "--out", str(path))
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write report to {path}: {reason}\n"


def test_failed_run_leaves_out_file_as_it_was(tmp_path, capsys):
    # disk-budget exhaustion is exit 4; the report is written only on success
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for path in (new, old):
        argv = ["augs", "--builtin", "torus2:3", "--budget", "1", "--out", str(path)]
        code, stdout, _ = run(capsys, *argv)
        assert (code, stdout) == (4, "")
    assert not new.exists()
    assert old.read_text() == "kept"
