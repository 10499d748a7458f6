"""Expression parsers for manifolds and links.

The grammars cover exactly what the printers emit, so every value
printed by the tool re-parses to an equal value:

  manifold := matom ('#' matom)*
  matom    := 'S3' | 'S1xS2' | 'ST' | 'T2xI' | 'ZxS1'
            | 'L' '(' int ',' int ')'
            | ('S2' | 'D2' | 'M2') '(' int (',' int)* ')'
            | 'C' '(' int ',' int ')'
            | 'SFS' '(' int ';' frac (',' frac)* ')'
            | 'tag' '(' label ')'
            | 'U' '[' manifold (',' manifold)* ']'

  link     := latom ('+' latom)*
  latom    := 'unknot' | 'unlink' '(' int ')' | 'b' '(' frac ')'
            | 'mont' '(' int ';' frac (',' frac)* ')'

  frac     := int ('/' int)?

Whitespace is insignificant.  Syntax errors raise ParseError with the
offending position; ill-formed but grammatical input (for example the
non-coprime "L(4,2)") raises the constructors' IllFormedClaimError.
"""

from __future__ import annotations

import re

from .links import Link, link_connected_sum, montesinos, two_bridge, unlink, Unknot
from .manifolds import (BASE_D2, BASE_M2, BASE_S2, CableSpace, Manifold,
                        OpaqueTag, S3, S1xS2, SfsS2, SolidTorus, T2xI,
                        ZxS1, connected_sum, lens_space,
                        sfs_orders, torus_union)
from .slopes import Slope, int_limit_error


class ParseError(ValueError):
    """A syntax error, carrying the 0-based position where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(-?\d+|[A-Za-z][A-Za-z0-9_-]*|[(),;/#+\[\]])")
_SPACE = re.compile(r"\s*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.at = 0  # where the last token read began

    def next(self) -> str:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            at = _SPACE.match(self.text, self.pos).end()
            if at == len(self.text):
                raise ParseError("unexpected end of input", at)
            raise ParseError(f"unexpected character {self.text[at]!r}", at)
        self.at, self.pos = m.start(1), m.end()
        return m.group(1)

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r}", self.at)

    def accept(self, token: str) -> bool:
        m = _TOKEN.match(self.text, self.pos)
        if m is None or m.group(1) != token:
            return False
        self.at, self.pos = m.start(1), m.end()
        return True

    def integer(self) -> int:
        got = self.next()
        try:
            return int(got)
        except ValueError:
            message = int_limit_error(got) or f"expected an integer, got {got!r}"
            raise ParseError(message, self.at) from None

    def fraction(self) -> Slope:
        p = self.integer()
        if self.accept("/"):
            return Slope(p, self.integer())
        return Slope(p, 1)

    def separated(self, read, sep: str) -> list:
        """read (sep read)*"""
        found = [read(self)]
        while self.accept(sep):
            found.append(read(self))
        return found

    def done(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()
        if self.pos < len(self.text):
            raise ParseError(f"trailing input {self.text[self.pos:]!r}", self.pos)


def _int_args(s: _Scanner) -> list[int]:
    s.expect("(")
    args = s.separated(_Scanner.integer, ",")
    s.expect(")")
    return args


def _seifert_args(s: _Scanner) -> tuple[int, list[Slope]]:
    """'(' int ';' frac (',' frac)* ')', shared by SFS and mont."""
    s.expect("(")
    e = s.integer()
    s.expect(";")
    fractions = s.separated(_Scanner.fraction, ",")
    s.expect(")")
    return e, fractions


_FIXED_MANIFOLDS = {
    "S3": S3,
    "S1xS2": S1xS2,
    "ST": SolidTorus,
    "T2xI": T2xI,
    "ZxS1": ZxS1,
}


def _manifold_atom(s: _Scanner) -> Manifold:
    head = s.next()
    at = s.at
    if head in _FIXED_MANIFOLDS:
        return _FIXED_MANIFOLDS[head]()
    if head == "L":
        args = _int_args(s)
        if len(args) != 2:
            raise ParseError("L takes exactly two parameters", at)
        return lens_space(args[0], args[1])
    if head in (BASE_S2, BASE_D2, BASE_M2):
        return sfs_orders(head, _int_args(s))
    if head == "C":
        args = _int_args(s)
        if len(args) != 2:
            raise ParseError("C takes exactly two parameters", at)
        return CableSpace(args[0], args[1])
    if head == "SFS":
        e, fibers = _seifert_args(s)
        return SfsS2(e, tuple((f.q, f.p) for f in fibers))
    if head == "tag":
        s.expect("(")
        label = s.next()
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]*", label):
            raise ParseError(f"expected a tag label, got {label!r}", s.at)
        s.expect(")")
        return OpaqueTag(label)
    if head == "U":
        s.expect("[")
        pieces = s.separated(_manifold_sum, ",")
        s.expect("]")
        return torus_union(*pieces)
    raise ParseError(f"unknown manifold {head!r}", at)


def _manifold_sum(s: _Scanner) -> Manifold:
    parts = s.separated(_manifold_atom, "#")
    return connected_sum(*parts) if len(parts) > 1 else parts[0]


def parse_manifold_expr(text: str) -> Manifold:
    """Parse a manifold expression into its normalized value."""
    s = _Scanner(text)
    m = _manifold_sum(s)
    s.done()
    return m


def _link_atom(s: _Scanner) -> Link:
    head = s.next()
    at = s.at
    if head == "unknot":
        return Unknot()
    if head == "unlink":
        args = _int_args(s)
        if len(args) != 1:
            raise ParseError("unlink takes exactly one parameter", at)
        return unlink(args[0])
    if head == "b":
        s.expect("(")
        f = s.fraction()
        s.expect(")")
        return two_bridge(f.p, f.q)
    if head == "mont":
        return montesinos(*_seifert_args(s))
    raise ParseError(f"unknown link {head!r}", at)


def parse_link_expr(text: str) -> Link:
    """Parse a link expression into its normalized value."""
    s = _Scanner(text)
    parts = s.separated(_link_atom, "+")
    s.done()
    return link_connected_sum(*parts) if len(parts) > 1 else parts[0]
