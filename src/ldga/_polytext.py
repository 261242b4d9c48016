"""One reader for the polynomial text of the DGA DSL (docs/dsl.md), of
polynomial-system files (docs/polysystem.md) and of ``obstruct --poly``:

    poly    = term , { ( "+" | "-" ) , term } ;
    term    = [ "-" ] , factor , { "*" , factor } ;
    factor  = natural , [ power ] | power ;     (* 2t is 2*t *)
    power   = name , [ "^" , integer ] ;
    integer = [ "-" ] , natural ;

A term reads as (coefficient, powers): its sign times its naturals, and each
power as (line, column, name, exponent or None), whose names each format
interprets.  Errors are raised as ``error(line, column, message)``, so each
format keeps its own exception.
"""

from __future__ import annotations

import re

# The most digits of an integer literal or a term's coefficient: int() and
# str() refuse more than 4300.
MAX_DIGITS = 1000
_LIMIT = 10**MAX_DIGITS

_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[-+*^=;\[\],])|\S")

# The longest operand an error message echoes whole; a longer one is cut.
SHOW_MAX = 64


def quote(text: str) -> str:
    """An operand as an error message echoes it: its repr, or, past SHOW_MAX
    characters, the repr of a prefix and the length."""
    if len(text) > SHOW_MAX:
        return f"{text[:SHOW_MAX // 2]!r}... ({len(text)} characters)"
    return repr(text)


def _show(text: str) -> str:
    return quote(text) if text else "nothing"


def tokenize(text: str, error) -> list[tuple[int, int, str]]:
    """(line, column, text) tokens, then an empty one; '#' comments to the end of a line."""
    tokens = []
    lines = text.splitlines() or [""]
    for lineno, line in enumerate(lines, start=1):
        for m in _TOKEN.finditer(line.split("#", 1)[0]):
            if m[1] is None:
                raise error(lineno, m.start() + 1, f"unexpected character {m[0]!r}")
            tokens.append((lineno, m.start() + 1, m[1]))
    tokens.append((len(lines), len(lines[-1]) + 1, ""))
    return tokens


def natural(token: tuple[int, int, str], error) -> int:
    """The value of a token of at most MAX_DIGITS ASCII digits."""
    line, col, text = token
    if not (text.isascii() and text.isdigit()):
        raise error(line, col, f"expected a natural number, got {_show(text)}")
    if len(text) > MAX_DIGITS:
        raise error(line, col, f"a {len(text)}-digit integer; at most {MAX_DIGITS} are read")
    return int(text)


def integer(tokens, i: int, error) -> tuple[int, int]:
    """The integer at tokens[i] and the index after it; errors point at tokens[i]."""
    line, col, text = tokens[i]
    if text == "-":
        return -natural((line, col, tokens[i + 1][2]), error), i + 2
    return natural(tokens[i], error), i + 1


def parse_poly(tokens, i: int, error, stop=("",)):
    """The terms of the poly at tokens[i], and the index of the token in
    ``stop`` that ends it."""
    terms, sign = [], 1
    while True:
        if tokens[i][2] == "-":
            sign, i = -sign, i + 1
        coeff, powers = sign, []
        while True:
            number = tokens[i][2].isdigit()
            if number:
                coeff *= natural(tokens[i], error)
                if abs(coeff) >= _LIMIT:
                    raise error(*tokens[i][:2], f"a coefficient of over {MAX_DIGITS} digits")
                i += 1
            line, col, name = tokens[i]
            if name.isidentifier():
                exponent, i = None, i + 1
                if tokens[i][2] == "^":
                    exponent, i = integer(tokens, i + 1, error)
                powers.append((line, col, name, exponent))
            elif not number:
                raise error(line, col, f"expected a factor, got {_show(name)}")
            if tokens[i][2] != "*":
                break
            i += 1
        terms.append((coeff, powers))
        line, col, op = tokens[i]
        if op in stop:
            return terms, i
        if op not in ("+", "-"):
            raise error(line, col, f"missing operator before {_show(op)}")
        sign, i = (1 if op == "+" else -1), i + 1
