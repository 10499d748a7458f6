import json
import random
import re
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehncalc.cli import main
from dehncalc.links import (Unknot, link_connected_sum, montesinos, two_bridge,
                            unlink)
from dehncalc.manifolds import (BASE_D2, BASE_M2, BASE_S2, CableSpace,
                                IllFormedClaimError, Lens, OpaqueTag, S3,
                                S1xS2, SfsS2, SolidTorus, T2xI, ZxS1,
                                connected_sum, lens_space, sfs_orders,
                                torus_union)
from dehncalc.parsing import ParseError, parse_link_expr, parse_manifold_expr
from dehncalc.slopes import Slope, int_limit_error, parse_slope


def test_manifold_atoms():
    assert parse_manifold_expr("S3") == S3()
    assert parse_manifold_expr("S1xS2") == S1xS2()
    assert parse_manifold_expr("ST") == SolidTorus()
    assert parse_manifold_expr("T2xI") == T2xI()
    assert parse_manifold_expr("ZxS1") == ZxS1()
    assert parse_manifold_expr("L(6,5)") == Lens(6, 1)
    assert parse_manifold_expr("L(0,1)") == S1xS2()
    assert parse_manifold_expr("L(1,0)") == S3()
    assert parse_manifold_expr("S2(2,3,5)") == sfs_orders(BASE_S2, (2, 3, 5))
    assert parse_manifold_expr("D2(2,7)") == sfs_orders(BASE_D2, (2, 7))
    assert parse_manifold_expr("M2(3)") == sfs_orders(BASE_M2, (3,))
    assert parse_manifold_expr("C(1,2)") == CableSpace(1, 2)
    assert parse_manifold_expr("SFS(-1; 1/2, 1/3, 1/5)") == \
        SfsS2(-1, ((2, 1), (3, 1), (5, 1)))
    assert parse_manifold_expr("tag(lens-type)") == OpaqueTag("lens-type")


def test_manifold_compound():
    assert parse_manifold_expr("L(3,1)#L(4,1)") == \
        connected_sum(Lens(3, 1), Lens(4, 1))
    assert parse_manifold_expr("  L( 3 , 1 )  #  L( 4 , 1 ) ") == \
        connected_sum(Lens(3, 1), Lens(4, 1))
    assert parse_manifold_expr("U[C(1,2), D2(2,3)]") == \
        torus_union(CableSpace(1, 2), sfs_orders(BASE_D2, (2, 3)))
    assert parse_manifold_expr("ST # L(2,1)") == \
        connected_sum(SolidTorus(), Lens(2, 1))


def _assert_parse_errors(parse, table):
    for text, message, position in table:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.position) == \
            (f"{message} (at position {position})", position), text


# Every error site of the manifold grammar: input, message, position.
_MANIFOLD_ERRORS = [
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("L(3,1)#", "unexpected end of input", 7),
    ("U[ST", "unexpected end of input", 4),
    ("$", "unexpected character '$'", 0),
    ("L(3,1) # $", "unexpected character '$'", 9),
    ("L(3;1)", "expected ')', got ';'", 3),
    ("SFS(1)", "expected ';', got ')'", 5),
    ("SFS 1", "expected '(', got '1'", 4),
    ("U[ST, ST)", "expected ']', got ')'", 8),
    ("L(x,1)", "expected an integer, got 'x'", 2),
    ("L(3, )", "expected an integer, got ')'", 5),
    ("SFS(1; 1/2, x)", "expected an integer, got 'x'", 12),
    ("SFS(1; 1/ 2, 1/3, 1/)", "expected an integer, got ')'", 20),
    ("S2(2,3,5) junk", "trailing input 'junk'", 10),
    ("L(3,1) L(4,1)", "trailing input 'L(4,1)'", 7),
    ("L(3,1)  $ ", "trailing input '$ '", 8),
    ("tag()", "expected a tag label, got ')'", 4),
    ("tag( 1)", "expected a tag label, got '1'", 5),
    ("tag(()", "expected a tag label, got '('", 4),
    ("L(4)", "L takes exactly two parameters", 0),
    ("  L( 1, 2, 3 )", "L takes exactly two parameters", 2),
    ("ST # C(1)", "C takes exactly two parameters", 5),
    ("C(1,2,3)", "C takes exactly two parameters", 0),
    ("Q3", "unknown manifold 'Q3'", 0),
    ("  Q3", "unknown manifold 'Q3'", 2),
    ("U[ST,]", "unknown manifold ']'", 5),
    ("b(3/1)", "unknown manifold 'b'", 0),
]


def test_manifold_syntax_errors_carry_position():
    _assert_parse_errors(parse_manifold_expr, _MANIFOLD_ERRORS)


def test_manifold_semantic_errors():
    with pytest.raises(IllFormedClaimError):
        parse_manifold_expr("L(4,2)")
    with pytest.raises(IllFormedClaimError):
        parse_manifold_expr("C(2,4)")
    with pytest.raises(IllFormedClaimError):
        parse_manifold_expr("U[ST]")


def test_manifold_degenerate_rewrites():
    assert parse_manifold_expr("S2(2,3)") == OpaqueTag("lens-type")
    assert parse_manifold_expr("D2(5)") == SolidTorus()


def test_link_expressions():
    assert parse_link_expr("b(7/3)") == two_bridge(7, 3)
    assert parse_link_expr("b(5)") == two_bridge(5, 1)
    assert parse_link_expr("b(0/1)") == unlink(2)
    assert parse_link_expr("b(1/0)") == Unknot()
    assert parse_link_expr("unknot").__class__.__name__ == "Unknot"
    assert parse_link_expr("unlink(3)") == unlink(3)
    assert parse_link_expr("mont(-1; 1/2, 1/3, 1/5)") == \
        montesinos(-1, [Slope(1, 2), Slope(1, 3), Slope(1, 5)])
    assert parse_link_expr("b(3/1) + b(4/1)") == \
        link_connected_sum(two_bridge(3, 1), two_bridge(4, 1))


def test_every_fraction_is_two_bridge(capsys):
    # b(p/q) is two_bridge(p, q) at every fraction, so its cover is L(p, q):
    # b(1/0) is the unknot over S3, b(0/1) the 2-unlink over S1xS2.
    pairs = [(p, q) for p in range(-12, 13) for q in range(-12, 13)
             if gcd(p, q) == 1]
    assert {(1, 0), (-1, 0), (0, 1)} <= set(pairs)
    for p, q in pairs:
        text = f"b({p}/{q})"
        assert parse_link_expr(text) == two_bridge(p, q), text
        assert main(["cover", text, "--format", "json"]) == 0, text
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["manifold"] == str(lens_space(p, q)), text


# Every error site of the link grammar: input, message, position.
_LINK_ERRORS = [
    ("", "unexpected end of input", 0),
    ("b(7/3) +", "unexpected end of input", 8),
    ("mont(0; 1/2, 1/3, 1/5", "unexpected end of input", 21),
    ("b(7/3)+ %", "unexpected character '%'", 8),
    ("b 7", "expected '(', got '7'", 2),
    ("mont(1 1/2)", "expected ';', got '1'", 7),
    ("b(7/3]", "expected ')', got ']'", 5),
    ("b(7/x)", "expected an integer, got 'x'", 4),
    ("b(7/)", "expected an integer, got ')'", 4),
    ("unlink()", "expected an integer, got ')'", 7),
    ("b(7/3) b", "trailing input 'b'", 7),
    ("unknot # unknot", "trailing input '# unknot'", 7),
    ("unlink(2,3)", "unlink takes exactly one parameter", 0),
    ("b(3) + unlink( 2 , 3 )", "unlink takes exactly one parameter", 7),
    ("braid(3)", "unknown link 'braid'", 0),
    ("b(3) +  L(3,1)", "unknown link 'L'", 8),
]


def test_link_errors():
    _assert_parse_errors(parse_link_expr, _LINK_ERRORS)
    with pytest.raises(IllFormedClaimError):
        parse_link_expr("mont(0; 1/2, 1/3)")
    with pytest.raises(IllFormedClaimError):
        parse_link_expr("unlink(0)")


def _random_manifold(rng, depth=0):
    kind = rng.randrange(8 if depth else 6)
    if kind == 0:
        p = rng.randint(2, 90)
        q = rng.choice([x for x in range(1, p) if gcd(x, p) == 1])
        return Lens(p, q)
    if kind == 1:
        return rng.choice([S3(), S1xS2(), SolidTorus(), T2xI(), ZxS1()])
    if kind == 2:
        return sfs_orders(BASE_S2, tuple(rng.randint(2, 9) for _ in range(3)))
    if kind == 3:
        fibers = []
        for _ in range(rng.randint(3, 4)):
            a = rng.randint(2, 9)
            b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
            fibers.append((a, b))
        return SfsS2(rng.randint(-3, 3), tuple(fibers))
    if kind == 4:
        s = rng.randint(1, 5)
        t = rng.choice([x for x in range(2, 7) if gcd(x, s) == 1])
        return CableSpace(s, t)
    if kind == 5:
        return torus_union(CableSpace(1, 2),
                           sfs_orders(BASE_D2, (2, rng.randint(2, 9))))
    if kind == 6:
        return connected_sum(_random_manifold(rng, 1), _random_manifold(rng, 1))
    return OpaqueTag(rng.choice(["toroidal", "lens-type",
                                 "toroidal_irreducible_nonSFS"]))


def test_print_parse_round_trip_random():
    rng = random.Random(31337)
    for _ in range(200):
        m = _random_manifold(rng)
        assert parse_manifold_expr(str(m)) == m


def _random_link(rng):
    kind = rng.randrange(3)
    if kind == 0:
        p = rng.randint(2, 70)
        q = rng.choice([x for x in range(1, p) if gcd(x, p) == 1])
        return two_bridge(p, q)
    if kind == 1:
        branches = []
        for _ in range(3):
            a = rng.randint(2, 9)
            b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
            branches.append(Slope(b, a))
        return montesinos(rng.randint(-3, 3), branches)
    return link_connected_sum(two_bridge(3, 1), two_bridge(rng.randint(2, 20), 1))


def test_link_print_parse_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        link = _random_link(rng)
        assert parse_link_expr(str(link)) == link


_MANIFOLD_WORDS = ["S3", "S1xS2", "ST", "T2xI", "ZxS1", "L", "S2", "D2", "M2",
                   "C", "SFS", "tag", "U", "lens-type", "toroidal"]
_LINK_WORDS = ["unknot", "unlink", "b", "mont"]
# Punctuation of both grammars, then characters neither grammar accepts.
_SYMBOLS = ["(", ")", ",", ";", "/", "#", "+", "[", "]",
            "$", "-", "*", "\u00e9", "\t", "\u00a0"]


_PRINTED_TOKEN = re.compile(r"-?\d+|[A-Za-z][A-Za-z0-9_-]*|\S")


def _edit(tokens, edits):
    tokens = list(tokens)
    for i, op, token in edits:
        i %= len(tokens) + 1
        if op == "insert":
            tokens.insert(i, token)
        elif i < len(tokens):
            tokens[i:i + 1] = [token] if op == "replace" else []
    return tokens


def _texts(words, random_value):
    """Up to 24 tokens, each followed by nothing or a space: drawn from
    the grammar's alphabet plus stray characters, or read off a printed
    random value with up to two tokens deleted, replaced or inserted."""
    token = st.one_of(st.sampled_from(words + _SYMBOLS),
                      st.integers(-3, 12).map(str))
    printed = st.randoms(use_true_random=False).map(
        lambda rng: _PRINTED_TOKEN.findall(str(random_value(rng))))
    edits = st.lists(st.tuples(st.integers(0, 24),
                               st.sampled_from(["delete", "replace", "insert"]),
                               token), max_size=2)
    tokens = st.one_of(st.lists(token, max_size=24),
                       st.builds(_edit, printed, edits)
                       .filter(lambda ts: len(ts) <= 24))
    spaces = st.lists(st.sampled_from(["", " "]), min_size=24, max_size=24)
    return st.builds(lambda ts, sp: "".join(t + s for t, s in zip(ts, sp)),
                     tokens, spaces)


def _assert_parses_or_rejects(parse, text):
    """A value whose printed form re-parses to it, or a ValueError; a
    syntax error points inside the text."""
    try:
        value = parse(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text), (text, exc)
        return
    except ValueError as exc:
        assert isinstance(exc, IllFormedClaimError) or \
            str(exc) == "slope 0/0 is not defined", (text, exc)
        return
    assert parse(str(value)) == value, text


@settings(max_examples=400, deadline=None, database=None)
@given(_texts(_MANIFOLD_WORDS, _random_manifold))
def test_manifold_grammar_fuzz(text):
    _assert_parses_or_rejects(parse_manifold_expr, text)


@settings(max_examples=400, deadline=None, database=None)
@given(_texts(_LINK_WORDS, _random_link))
def test_link_grammar_fuzz(text):
    _assert_parses_or_rejects(parse_link_expr, text)


def test_overlong_integer_names_its_length():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    nines = "9" * (limit + 1)
    too_long = f"has {limit + 1} digits, more than the limit of {limit}"
    _assert_parse_errors(parse_link_expr, [
        (f"b({nines}/2)", f"integer 99999999... {too_long}", 2),
        (f"b(3 / -{nines})", f"integer -99999999... {too_long}", 6),
    ])
    _assert_parse_errors(parse_manifold_expr, [
        (f"L(3,1) # L({nines},2)", f"integer 99999999... {too_long}", 11),
    ])
    for text in (nines, f"{nines}/2", f" 1 / -{nines}"):
        with pytest.raises(ValueError) as err:
            parse_slope(text)
        sign = "-" if "-" in text else ""
        assert str(err.value) == f"bad slope: integer {sign}99999999... {too_long}"
    # One digit fewer is an integer like any other.
    assert parse_manifold_expr(f"L({nines[1:]},2)").p == int(nines[1:])


# ---------------------------------------------------------------------------
# Differential test against a reference parser
#
# The reference is the regex-per-token scanner that the token-list scanner
# replaced, with the grammar written against it: it matches one token at a
# time from the current offset and knows each token's position as it reads
# it.  Both must give equal values, or the same exception type, message
# and position.

_REF_TOKEN = re.compile(r"\s*(-?\d+|[A-Za-z][A-Za-z0-9_-]*|[(),;/#+\[\]])")
_REF_SPACE = re.compile(r"\s*")


class _RefScanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.at = 0  # where the last token read began

    def next(self):
        m = _REF_TOKEN.match(self.text, self.pos)
        if not m:
            at = _REF_SPACE.match(self.text, self.pos).end()
            if at == len(self.text):
                raise ParseError("unexpected end of input", at)
            raise ParseError(f"unexpected character {self.text[at]!r}", at)
        self.at, self.pos = m.start(1), m.end()
        return m.group(1)

    def expect(self, token):
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r}", self.at)

    def accept(self, token):
        m = _REF_TOKEN.match(self.text, self.pos)
        if m is None or m.group(1) != token:
            return False
        self.at, self.pos = m.start(1), m.end()
        return True

    def integer(self):
        got = self.next()
        try:
            return int(got)
        except ValueError:
            message = int_limit_error(got) or f"expected an integer, got {got!r}"
            raise ParseError(message, self.at) from None

    def fraction(self):
        p = self.integer()
        if self.accept("/"):
            return Slope(p, self.integer())
        return Slope(p, 1)

    def separated(self, read, sep):
        found = [read(self)]
        while self.accept(sep):
            found.append(read(self))
        return found

    def done(self):
        self.pos = _REF_SPACE.match(self.text, self.pos).end()
        if self.pos < len(self.text):
            raise ParseError(f"trailing input {self.text[self.pos:]!r}", self.pos)


def _ref_int_args(s):
    s.expect("(")
    args = s.separated(_RefScanner.integer, ",")
    s.expect(")")
    return args


def _ref_seifert_args(s):
    s.expect("(")
    e = s.integer()
    s.expect(";")
    fractions = s.separated(_RefScanner.fraction, ",")
    s.expect(")")
    return e, fractions


_REF_FIXED_MANIFOLDS = {"S3": S3, "S1xS2": S1xS2, "ST": SolidTorus,
                        "T2xI": T2xI, "ZxS1": ZxS1}


def _ref_manifold_atom(s):
    head = s.next()
    at = s.at
    if head in _REF_FIXED_MANIFOLDS:
        return _REF_FIXED_MANIFOLDS[head]()
    if head == "L":
        args = _ref_int_args(s)
        if len(args) != 2:
            raise ParseError("L takes exactly two parameters", at)
        return lens_space(args[0], args[1])
    if head in (BASE_S2, BASE_D2, BASE_M2):
        return sfs_orders(head, _ref_int_args(s))
    if head == "C":
        args = _ref_int_args(s)
        if len(args) != 2:
            raise ParseError("C takes exactly two parameters", at)
        return CableSpace(args[0], args[1])
    if head == "SFS":
        e, fibers = _ref_seifert_args(s)
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
        pieces = s.separated(_ref_manifold_sum, ",")
        s.expect("]")
        return torus_union(*pieces)
    raise ParseError(f"unknown manifold {head!r}", at)


def _ref_manifold_sum(s):
    parts = s.separated(_ref_manifold_atom, "#")
    return connected_sum(*parts) if len(parts) > 1 else parts[0]


def _ref_parse_manifold_expr(text):
    s = _RefScanner(text)
    m = _ref_manifold_sum(s)
    s.done()
    return m


def _ref_link_atom(s):
    head = s.next()
    at = s.at
    if head == "unknot":
        return Unknot()
    if head == "unlink":
        args = _ref_int_args(s)
        if len(args) != 1:
            raise ParseError("unlink takes exactly one parameter", at)
        return unlink(args[0])
    if head == "b":
        s.expect("(")
        f = s.fraction()
        s.expect(")")
        return two_bridge(f.p, f.q)
    if head == "mont":
        return montesinos(*_ref_seifert_args(s))
    raise ParseError(f"unknown link {head!r}", at)


def _ref_parse_link_expr(text):
    s = _RefScanner(text)
    parts = s.separated(_ref_link_atom, "+")
    s.done()
    return link_connected_sum(*parts) if len(parts) > 1 else parts[0]


def _outcome(parse, text):
    """The value parsed, or the exception's type, message and position."""
    try:
        return "value", parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _assert_same_as_reference(parse, reference, text):
    assert _outcome(parse, text) == _outcome(reference, text), text


# Texts at the edges of the token regex: Unicode digits and spaces, stray
# characters inside and after words and numbers, and signs without digits.
_EDGE_TEXTS = [
    "L(٣,1)", "L(3,١)", "L(3,1) #　L(4,1) ",
    "Sé", "L(3,1)é", "_x", "L_(3,1)", "-", "L(3,-)", "L(3,--1)",
    "1_000", "L(1_0,3)", "b(7/3)\x1c", "\x1cb(7/3)", " b(7/3)",
    "b(-7/-3)", "b(7/3)+", "U[", "U[ST#", "tag(x-y_2)", "tag(-x)",
    "SFS(0;1/2,1/3,1/5)#L(3,1)", "mont(0;1/2,1/3,1/5)+unknot",
]


@pytest.mark.parametrize("parse, reference, table", [
    (parse_manifold_expr, _ref_parse_manifold_expr, _MANIFOLD_ERRORS),
    (parse_link_expr, _ref_parse_link_expr, _LINK_ERRORS),
], ids=["manifold", "link"])
def test_error_tables_match_reference(parse, reference, table):
    for text, _, _ in table:
        _assert_same_as_reference(parse, reference, text)
    for text in _EDGE_TEXTS:
        _assert_same_as_reference(parse, reference, text)


@settings(max_examples=400, deadline=None, database=None)
@given(_texts(_MANIFOLD_WORDS, _random_manifold))
def test_manifold_parser_matches_reference(text):
    _assert_same_as_reference(parse_manifold_expr, _ref_parse_manifold_expr, text)


@settings(max_examples=400, deadline=None, database=None)
@given(_texts(_LINK_WORDS, _random_link))
def test_link_parser_matches_reference(text):
    _assert_same_as_reference(parse_link_expr, _ref_parse_link_expr, text)
