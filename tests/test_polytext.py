"""The three polynomial-text formats, pinned row by row.

The DGA DSL (docs/dsl.md), polynomial-system files (docs/polysystem.md) and
``obstruct --poly`` share one term grammar.  Each valid row gives the parsed
object; each invalid row gives the exception, the CLI exit code and, for the
DSL, the error's line and column.  A row marked ``changed:`` says how the
three separate parsers that preceded the shared reader read it; every other
row reads as it did then.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldga._polytext import SHOW_MAX, parse_poly, quote, tokenize
from ldga.algebra import Laurent
from ldga.augment import AugmentationError, parse_polysystem
from ldga.cedga import DGAValidationError, DSLError, dump_dsl, load_dsl
from ldga.cli import CliError, main, parse_poly_text

BIG = "9" * 5000  # past int()'s 4300-digit limit
ZT = "coeff Z[t]\ngen a 1\ngen b 0\ngen c 0\n"  # the d line is line 5
F2 = "coeff F2\ngen e 1\ngen c 0\n"  # the d line is line 4

DSL_VALID = [
    (ZT + "d a = 1 + t", ZT + "d a = 1 + t\n"),
    # changed: read as 1 + t
    (ZT + "d a = 1 + t*t", ZT + "d a = 1 + t^2\n"),
    # changed: read as t^2 + b
    (ZT + "d a = t*t^2 + b", ZT + "d a = t^3 + b\n"),
    (ZT + "d a = b*t*c*t", ZT + "d a = t^2*b*c\n"),
    (ZT + "d a = t^-1 + 2*t^2*b*c", ZT + "d a = t^-1 + 2*t^2*b*c\n"),
    (ZT + "d a = -b - -c", ZT + "d a = -b + c\n"),
    (ZT + "d a = 3*b*2", ZT + "d a = 6*b\n"),
    (ZT + "d a = t ^2", ZT + "d a = t^2\n"),
    # changed: unexpected character '^' at (5, 8)
    (ZT + "d a = t^ -1", ZT + "d a = t^-1\n"),
    # changed: missing operator before 'b' at (5, 8)
    (ZT + "d a = 2b", ZT + "d a = 2*b\n"),
    ("coeff Z [ t ]\ngen a 1\nd a = 1 + t\n", "coeff Z[t]\ngen a 1\nd a = 1 + t\n"),
    ("coeff Z[t,t-1]\ngen a 1\nd a = 1 + t\n", "coeff Z[t]\ngen a 1\nd a = 1 + t\n"),
    ("# c\n\ncoeff F2 # x\ngen e 1\ngen c 0\nd e = c*c + c  # y\n", F2 + "d e = c + c*c\n"),
    ("coeff F4\ngen e 1\ngen c 0\nd e = 3*c + 2*c*c\n", "coeff F4\ngen e 1\ngen c 0\nd e = c\n"),
    ("coeff Z\ngen u -1\ngen x 0\nd x = 2*u + -u\n", "coeff Z\ngen u -1\ngen x 0\nd x = u\n"),
]

DSL_INVALID = [
    # changed: at (2, 4), the blank before the '$'
    ("coeff F2\ngen $ 1\n", DSLError, 2, 2, 5),
    (F2 + "d e = q", DSLError, 2, 4, 7),
    ("gen e 1\n", DSLError, 2, 1, 1),
    (F2 + "d e = t", DSLError, 2, 4, 7),
    (F2 + "d e = t^2", DSLError, 2, 4, 7),
    (F2 + "coeff F2\n", DSLError, 2, 4, 1),
    ("coeff F6\n", DSLError, 2, 1, 1),
    # GF(q) decides the orders: the reason follows "unknown coefficient ring"
    ("coeff F17\n", DSLError, 2, 1, 1),
    ("coeff F25\n", DSLError, 2, 1, 1),
    ("coeff F1\n", DSLError, 2, 1, 1),
    ("coeff F" + "7" * 1200 + "\n", DSLError, 2, 1, 1),
    ("coeff F2\ngen a\n", DSLError, 2, 2, 1),
    ("coeff F2\ngen a x\n", DSLError, 2, 2, 7),
    ("coeff F2\ngen a - x\n", DSLError, 2, 2, 7),
    ("coeff F2\ngen a -\n", DSLError, 2, 2, 7),
    ("coeff F2\ngen a 1 2\n", DSLError, 2, 2, 7),
    ("coeff F2\ngen t 1\n", DSLError, 2, 2, 5),
    ("coeff F2\ngen 1a 1\n", DSLError, 2, 2, 5),
    ("coeff F2\ngen a 1\ngen a 2\n", DSLError, 2, 3, 5),
    (F2 + "d z = 1", DSLError, 2, 4, 3),
    (F2 + "d e = c\nd e = c", DSLError, 2, 5, 3),
    (F2 + "foo", DSLError, 2, 4, 1),
    (F2 + "d e", DSLError, 2, 4, 1),
    (F2 + "d e =", DSLError, 2, 4, 1),
    (F2 + "d e = c c", DSLError, 2, 4, 9),
    (F2 + "d e = c = c", DSLError, 2, 4, 9),
    (F2 + "d e = c;", DSLError, 2, 4, 8),
    (F2 + "d e = *c", DSLError, 2, 4, 7),
    (F2 + "d e = 2^3", DSLError, 2, 4, 8),
    # changed: 'dangling exponent' at (4, 8), the '^'
    (F2 + "d e = c^2", DSLError, 2, 4, 7),
    # changed: 'empty term' at (5, 1)
    (ZT + "d a = b +", DSLError, 2, 5, 10),
    # changed: read as b
    (ZT + "d a = + b", DSLError, 2, 5, 7),
    # changed: read as b
    (ZT + "d a = b *", DSLError, 2, 5, 10),
    # changed: read as b
    (ZT + "d a = - - b", DSLError, 2, 5, 9),
    # changed: ValueError from int(), a traceback from the CLI
    ("coeff F2\ngen a " + BIG + "\n", DSLError, 2, 2, 7),
    # changed: ValueError from int(), a traceback from the CLI
    (ZT + "d a = " + BIG + "*b", DSLError, 2, 5, 7),
    # changed: ValueError from int(), a traceback from the CLI
    (ZT + "d a = t^" + BIG, DSLError, 2, 5, 9),
    ("coeff F2\ngen c 0\nd c = 1\n", DGAValidationError, 3, None, None),
]

SYSTEM_VALID = [
    ("var a b; eq a*b + 1;", ("a", "b"), [[(1, (("a", 1), ("b", 1))), (1, ())]]),
    ("var x; eq x^2;", ("x",), [[(1, (("x", 2),))]]),
    ("var a b;\n# c\neq a*b\n+1;", ("a", "b"), [[(1, (("a", 1), ("b", 1))), (1, ())]]),
    ("var a b; eq 2*a - 3*b^2;", ("a", "b"), [[(2, (("a", 1),)), (-3, (("b", 2),))]]),
    ("var a; eq a", ("a",), [[(1, (("a", 1),))]]),
    ("var a; eq a^0;", ("a",), [[(1, (("a", 0),))]]),
    ("var a;; eq a;;", ("a",), [[(1, (("a", 1),))]]),
    ("", (), []),
    ("var a\nb; eq b*a\n", ("a", "b"), [[(1, (("a", 1), ("b", 1)))]]),
    ("var a; eq -a;", ("a",), [[(-1, (("a", 1),))]]),
    ("var a; eq a*a^2*a;", ("a",), [[(1, (("a", 4),))]]),
    ("var a; eq 2*3*a;", ("a",), [[(6, (("a", 1),))]]),
    # changed: 'empty factor', an AugmentationError
    ("var a b; eq a - -b;", ("a", "b"), [[(1, (("a", 1),)), (1, (("b", 1),))]]),
    # changed: 'bad factor', an AugmentationError
    ("var a; eq a ^2;", ("a",), [[(1, (("a", 2),))]]),
    # changed: 'bad factor', an AugmentationError
    ("var a; eq 2a;", ("a",), [[(2, (("a", 1),))]]),
]

SYSTEM_INVALID = [
    "var a; eq a*;",
    "var a; eq a^x;",
    "var a; eq a^-1;",
    "var a; eq a*b;",
    "var a a;",
    "var 1a;",
    "var a, b;",
    "var;",
    "foo a;",
    "var a; eq a $ 1;",
    "var a b; eq a b;",
    "var a; eq ;",
    "var a; eq - - a;",
    # changed: read as a*b
    "var a b; eq a*b +;",
    # changed: read as a
    "var a; eq +a;",
    # changed: ValueError from int(), a traceback from the CLI
    "var a; eq a^" + BIG + ";",
    # changed: ValueError from int(), a traceback from the CLI
    "var a; eq " + BIG + "*a;",
]

POLY_VALID = [
    ("t^-1 + 4 + 2*t", {-1: 1, 0: 4, 1: 2}),
    ("2 + t", {0: 2, 1: 1}),
    ("3t^2", {2: 3}),
    ("2t", {1: 2}),
    ("2 t", {1: 2}),
    ("t^-1", {-1: 1}),
    ("t", {1: 1}),
    ("4", {0: 4}),
    ("t^1000000000", {1000000000: 1}),
    ("1\n+ t", {0: 1, 1: 1}),
    # changed: bad polynomial term
    ("t*t", {2: 1}),
    # changed: bad polynomial term
    ("t*2", {1: 2}),
    # changed: bad polynomial term
    ("2*3", {0: 6}),
    # changed: bad polynomial term
    ("t ^2", {2: 1}),
    # changed: bad polynomial term
    ("t^ -1", {-1: 1}),
    # changed: bad polynomial term
    ("t^-1*t", {0: 1}),
    # changed: nonnegative coefficients ('-0' is 0)
    ("1 - 0", {0: 1}),
]

POLY_INVALID = [
    "1 - t",
    "-t",
    "t^x",
    "x",
    "",
    " + ",
    "0",
    "0*t",
    # changed: read as 1
    "+1",
    # changed: read as 1
    "1 +",
    # changed: read as 1 + t
    "1 + + t",
    # changed: ValueError from int(), a traceback from the CLI
    BIG,
    # changed: ValueError from int(), a traceback from the CLI
    "t^" + BIG,
]


def one_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize("text, dump", DSL_VALID)
def test_dsl_reads(text, dump):
    assert dump_dsl(load_dsl(text)) == dump


@pytest.mark.parametrize("text, exc, code, line, col", DSL_INVALID)
def test_dsl_rejects(tmp_path, capsys, text, exc, code, line, col):
    with pytest.raises(exc) as info:
        load_dsl(text)
    assert (getattr(info.value, "line", None), getattr(info.value, "col", None)) == (line, col)
    path = tmp_path / "bad.dga"
    path.write_text(text)
    assert main(["dga", "--dsl", str(path)]) == code
    one_line(capsys, "parse error: " if code == 2 else "validation error: ")


def test_quote_cuts_only_over_long_operands():
    # an operand of up to SHOW_MAX characters is echoed as before, by repr
    for text in ("", "F17", "a" * SHOW_MAX):
        assert quote(text) == repr(text)
    cut = quote("F" + "7" * SHOW_MAX)
    assert cut == repr("F" + "7" * (SHOW_MAX // 2 - 1)) + f"... ({SHOW_MAX + 1} characters)"


@pytest.mark.parametrize("text, variables, equations", SYSTEM_VALID)
def test_system_reads(text, variables, equations):
    system = parse_polysystem(text)
    assert system.variables == variables
    assert system.equations == tuple(tuple(eq) for eq in equations)


@pytest.mark.parametrize("text", SYSTEM_INVALID)
def test_system_rejects(tmp_path, capsys, text):
    with pytest.raises(AugmentationError):
        parse_polysystem(text)
    path = tmp_path / "bad.sys"
    path.write_text(text)
    assert main(["augvar", "--system", str(path), "--fields", "2"]) == 2
    one_line(capsys, "parse error: ")


@pytest.mark.parametrize("text, dims", POLY_VALID)
def test_poly_reads(text, dims):
    assert parse_poly_text(text).as_dict() == dims


@pytest.mark.parametrize("text", POLY_INVALID)
def test_poly_rejects(capsys, text):
    with pytest.raises(CliError):
        parse_poly_text(text)
    assert main(["obstruct", f"--poly={text}", "--dim", "1"]) == 2
    one_line(capsys, "error: ")


# Poincare polynomials as the reports print them; --poly reads each one back
POINCARE_TEXT = [
    ({-1: 1, 0: 4, 1: 2}, "t^-1 + 4 + 2t"),
    ({0: 2, 1: 3, 2: 1}, "2 + 3t + t^2"),
    ({}, "0"),
]


@pytest.mark.parametrize("dims, text", POINCARE_TEXT)
def test_poincare_text(dims, text):
    poly = Laurent.from_dict(dims)
    assert str(poly) == text
    if dims:  # the zero polynomial is bad --poly input
        assert parse_poly_text(text) == poly


def read_laurent(text: str) -> Laurent:
    """A polynomial in t, signed coefficients included, through the shared reader."""
    def error(line, col, message):
        return AssertionError(f"{text!r} at column {col}: {message}")

    out: dict[int, int] = {}
    for coeff, powers in parse_poly(tokenize(text, error), 0, error)[0]:
        assert all(name == "t" for _, _, name, _ in powers), text
        e = sum(1 if k is None else k for *_, k in powers)
        out[e] = out.get(e, 0) + coeff
    return Laurent.from_dict(out)


@given(st.dictionaries(st.integers(-40, 40), st.integers(-10**30, 10**30), max_size=8))
@settings(max_examples=300)
def test_laurent_text_reads_back(terms):
    poly = Laurent.from_dict(terms)
    assert read_laurent(str(poly)) == poly
