import copy
import pickle
import random

import pytest

from dehncalc.slopes import (INFINITY, Slope, apply_unimodular,
                             continued_fraction, distance, format_slope,
                             from_continued_fraction, parse_slope)


def test_canonical_forms():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(1, -2) == Slope(-1, 2)
    assert Slope(-3, -6) == Slope(1, 2)
    assert Slope(0, 7) == Slope(0, 1)
    assert Slope(5, 0) == INFINITY
    assert Slope(-2, 0) == INFINITY
    assert INFINITY == Slope(1, 0)


def test_zero_zero_rejected():
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_slope_is_an_immutable_value():
    r = Slope(p=-6, q=-4)
    assert (r.p, r.q) == (3, 2)
    assert repr(r) == "Slope(p=3, q=2)"
    assert repr(INFINITY) == "Slope(p=1, q=0)"
    assert hash(r) == hash((3, 2))
    assert r == Slope(3, 2) and not r != Slope(3, 2)
    assert r != Slope(3, 1)
    # Equal only to another Slope: not to a pair, a number or a look-alike.
    assert r != (3, 2)
    assert Slope(2) != 2
    assert r.__eq__(type("Fake", (), {"p": 3, "q": 2})()) is NotImplemented
    assert len({Slope(1, 2), Slope(2, 4), Slope(-1, -2)}) == 1
    for change in (lambda: setattr(r, "p", 1), lambda: setattr(r, "x", 1),
                   lambda: delattr(r, "q")):
        with pytest.raises(AttributeError):
            change()
    assert (r.p, r.q) == (3, 2)
    for clone in (copy.copy, copy.deepcopy,
                  lambda x: pickle.loads(pickle.dumps(x))):
        for s in (r, INFINITY, Slope(-7)):
            c = clone(s)
            assert type(c) is Slope
            assert (c.p, c.q) == (s.p, s.q) and c == s
            assert hash(c) == hash(s)
            with pytest.raises(AttributeError):
                c.q = 5


def test_distance_basics():
    assert distance(Slope(0), INFINITY) == 1
    assert distance(Slope(1, 2), Slope(1, 3)) == 1
    assert distance(Slope(0), Slope(4)) == 4
    assert distance(Slope(-1, 2), INFINITY) == 2
    assert distance(Slope(3, 5), Slope(3, 5)) == 0


def test_distance_symmetric_and_zero_iff_equal():
    rng = random.Random(9001)
    slopes = [INFINITY, Slope(0)] + [
        Slope(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(60)
    ]
    for r1 in slopes:
        for r2 in slopes:
            d = distance(r1, r2)
            assert d == distance(r2, r1)
            assert (d == 0) == (r1 == r2)


_GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)))


def _random_unimodular(rng):
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 6)):
        g = rng.choice(_GENERATORS)
        m = (
            (m[0][0] * g[0][0] + m[0][1] * g[1][0],
             m[0][0] * g[0][1] + m[0][1] * g[1][1]),
            (m[1][0] * g[0][0] + m[1][1] * g[1][0],
             m[1][0] * g[0][1] + m[1][1] * g[1][1]),
        )
    return m


def test_distance_unimodular_invariance():
    rng = random.Random(411)
    for _ in range(300):
        r1 = Slope(rng.randint(-40, 40), rng.randint(0, 9))
        r2 = Slope(rng.randint(-40, 40), rng.randint(0, 9))
        m = _random_unimodular(rng)
        assert distance(apply_unimodular(m, r1), apply_unimodular(m, r2)) == \
            distance(r1, r2)


def test_apply_unimodular_validates_determinant():
    with pytest.raises(ValueError):
        apply_unimodular(((2, 0), (0, 1)), Slope(1, 2))
    assert apply_unimodular(((1, 0), (0, 1)), Slope(3, 7)) == Slope(3, 7)


def test_continued_fraction_small_values():
    assert continued_fraction(INFINITY) == ()
    assert continued_fraction(Slope(3)) == (3,)
    assert continued_fraction(Slope(5, 2)) == (2, 2)
    assert from_continued_fraction((2, 2)) == Slope(5, 2)
    assert from_continued_fraction(()) == INFINITY
    assert from_continued_fraction((4,)) == Slope(4)


def test_continued_fraction_round_trip_exhaustive():
    for p in range(-30, 31):
        for q in range(0, 13):
            if p == 0 and q == 0:
                continue
            r = Slope(p, q)
            terms = continued_fraction(r)
            assert from_continued_fraction(terms) == r
            if len(terms) > 1:
                assert all(t >= 1 for t in terms[1:])
                assert terms[-1] >= 2


def test_continued_fraction_round_trip_random_large():
    rng = random.Random(77)
    for _ in range(200):
        r = Slope(rng.randint(-10**6, 10**6), rng.randint(1, 10**5))
        assert from_continued_fraction(continued_fraction(r)) == r


def test_parse_and_format():
    assert parse_slope("inf") == INFINITY
    assert parse_slope("0") == Slope(0)
    assert parse_slope("-1/2") == Slope(-1, 2)
    assert parse_slope("6/4") == Slope(3, 2)
    assert format_slope(INFINITY) == "inf"
    assert format_slope(Slope(-1, 2)) == "-1/2"
    assert format_slope(Slope(5)) == "5"
    for text in ("", "a", "1/2/3", "1.5", "--2"):
        with pytest.raises(ValueError):
            parse_slope(text)


def test_parse_format_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        r = Slope(rng.randint(-99, 99), rng.randint(0, 20))
        assert parse_slope(format_slope(r)) == r
