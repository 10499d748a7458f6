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


# One token, else one stray non-space character.  Only a token is
# captured, so findall lists a stray character as "".
_TOKEN = re.compile(r"(-?\d+|[A-Za-z][A-Za-z0-9_-]*|[(),;/#+\[\]])|\S")


class _Scanner:
    """The tokens of a text, split once and read by index.

    A stray character is listed as "", and a "" ends the list for the end
    of input.  A "" never equals the token that accept() asks for and
    next() raises on it, so reading never passes the first "".  Positions
    are found by scanning the text again, only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")
        self.i = 0  # index of the next token

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the start of the index-th token."""
        return ParseError(message, self._start(index))

    def _start(self, index: int) -> int:
        for k, m in enumerate(_TOKEN.finditer(self.text)):
            if k == index:
                return m.start()
        return len(self.text)

    def _unreadable(self) -> ParseError:
        """The error for the stray character or the end at self.i."""
        at = self._start(self.i)
        if at == len(self.text):
            return ParseError("unexpected end of input", at)
        return ParseError(f"unexpected character {self.text[at]!r}", at)

    def next(self) -> str:
        token = self.tokens[self.i]
        if not token:
            raise self._unreadable()
        self.i += 1
        return token

    def expect(self, token: str) -> None:
        got = self.tokens[self.i]
        if got != token:
            if not got:
                raise self._unreadable()
            raise self.error(f"expected {token!r}, got {got!r}", self.i)
        self.i += 1

    def accept(self, token: str) -> bool:
        if self.tokens[self.i] != token:
            return False
        self.i += 1
        return True

    def integer(self) -> int:
        got = self.tokens[self.i]
        try:
            value = int(got)
        except ValueError:
            if not got:
                raise self._unreadable() from None
            message = int_limit_error(got) or f"expected an integer, got {got!r}"
            raise self.error(message, self.i) from None
        self.i += 1
        return value

    def fraction(self) -> Slope:
        p = self.integer()
        if self.accept("/"):
            return Slope(p, self.integer())
        return Slope(p, 1)

    def separated(self, read, sep: str) -> list:
        """read (sep read)*"""
        found = [read(self)]
        while self.tokens[self.i] == sep:
            self.i += 1
            found.append(read(self))
        return found

    def done(self) -> None:
        if self.i < len(self.tokens) - 1:
            at = self._start(self.i)
            raise ParseError(f"trailing input {self.text[at:]!r}", at)


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
    at = s.i
    head = s.next()
    if head in _FIXED_MANIFOLDS:
        return _FIXED_MANIFOLDS[head]()
    if head == "L":
        args = _int_args(s)
        if len(args) != 2:
            raise s.error("L takes exactly two parameters", at)
        return lens_space(args[0], args[1])
    if head in (BASE_S2, BASE_D2, BASE_M2):
        return sfs_orders(head, _int_args(s))
    if head == "C":
        args = _int_args(s)
        if len(args) != 2:
            raise s.error("C takes exactly two parameters", at)
        return CableSpace(args[0], args[1])
    if head == "SFS":
        e, fibers = _seifert_args(s)
        return SfsS2(e, tuple((f.q, f.p) for f in fibers))
    if head == "tag":
        s.expect("(")
        label = s.next()
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]*", label):
            raise s.error(f"expected a tag label, got {label!r}", s.i - 1)
        s.expect(")")
        return OpaqueTag(label)
    if head == "U":
        s.expect("[")
        pieces = s.separated(_manifold_sum, ",")
        s.expect("]")
        return torus_union(*pieces)
    raise s.error(f"unknown manifold {head!r}", at)


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
    at = s.i
    head = s.next()
    if head == "unknot":
        return Unknot()
    if head == "unlink":
        args = _int_args(s)
        if len(args) != 1:
            raise s.error("unlink takes exactly one parameter", at)
        return unlink(args[0])
    if head == "b":
        s.expect("(")
        f = s.fraction()
        s.expect(")")
        return two_bridge(f.p, f.q)
    if head == "mont":
        return montesinos(*_seifert_args(s))
    raise s.error(f"unknown link {head!r}", at)


def parse_link_expr(text: str) -> Link:
    """Parse a link expression into its normalized value."""
    s = _Scanner(text)
    parts = s.separated(_link_atom, "+")
    s.done()
    return link_connected_sum(*parts) if len(parts) > 1 else parts[0]
