import random
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dehncalc.links import (ConnSumLink, TwoBridge, Unknot,
                            Unlink, link_connected_sum, link_determinant,
                            montesinos, numerator_closure, two_bridge, unlink)
from dehncalc.cover import double_branched_cover
from dehncalc.manifolds import (IllFormedClaimError, SfsS2, connected_sum,
                                lens_space)
from dehncalc.slopes import INFINITY, Slope


def test_two_bridge_normalization():
    assert TwoBridge(7, 3) == TwoBridge(7, 2)
    assert TwoBridge(7, 3) == TwoBridge(7, 4)  # mirror conflated
    assert TwoBridge(-50, 29) == TwoBridge(50, 19)
    assert TwoBridge(50, 29) == TwoBridge(50, 19)
    with pytest.raises(IllFormedClaimError):
        TwoBridge(4, 2)
    with pytest.raises(IllFormedClaimError):
        TwoBridge(1, 0)


def test_two_bridge_factory_degenerates():
    assert two_bridge(0, 1) == Unlink(2)
    assert two_bridge(1, 0) == Unknot()
    assert two_bridge(-1, 5) == Unknot()
    assert two_bridge(3, 1) == TwoBridge(3, 1)


def test_unlink_factory():
    assert unlink(1) == Unknot()
    assert unlink(2) == Unlink(2)
    with pytest.raises(IllFormedClaimError):
        unlink(0)
    with pytest.raises(IllFormedClaimError):
        Unlink(1)


def test_numerator_closure():
    assert numerator_closure(Slope(0)) == Unlink(2)
    assert numerator_closure(INFINITY) == Unknot()
    assert numerator_closure(Slope(7, 3)) == TwoBridge(7, 2)
    assert numerator_closure(Slope(-7, 3)) == TwoBridge(7, 2)
    assert numerator_closure(Slope(5)) == TwoBridge(5, 1)
    assert numerator_closure(Slope(1, 5)) == Unknot()


_WINDOW = range(-12, 13)


def test_numerator_closure_is_the_two_bridge_dictionary():
    # N(p/q) = b(p/q) lifts to L(p, q) and has determinant |p| at every
    # slope, 0 and 1/0 included.
    slopes = {Slope(p, q) for p in _WINDOW for q in _WINDOW if p or q}
    assert {Slope(0), INFINITY} <= slopes
    for r in slopes:
        closure = numerator_closure(r)
        assert double_branched_cover(closure) == lens_space(r.p, r.q), r
        assert link_determinant(closure) == abs(r.p), r


def test_montesinos_normalization():
    m = montesinos(0, [Slope(3, 2), Slope(1, 3), Slope(1, 5)])
    assert m.e == 1  # 3/2 = 1 + 1/2 folds into e
    assert m.branches == (Slope(1, 2), Slope(1, 3), Slope(1, 5))
    n = montesinos(-1, [Slope(1, 5), Slope(1, 2), Slope(1, 3)])
    assert n.branches == (Slope(1, 2), Slope(1, 3), Slope(1, 5))
    with pytest.raises(IllFormedClaimError,
                       match=r"^montesinos branch 2 is an integer; fold it into e$"):
        montesinos(0, [Slope(2), Slope(1, 3), Slope(1, 5)])
    with pytest.raises(IllFormedClaimError,
                       match=r"^montesinos branch must be finite$"):
        montesinos(0, [INFINITY, Slope(1, 3), Slope(1, 5)])
    with pytest.raises(IllFormedClaimError, match=(
            r"^montesinos needs >= 3 branches; with fewer the link is 2-bridge$")):
        montesinos(0, [Slope(1, 2), Slope(1, 3)])


def _fold_branches(e, branches):
    """The per-branch rule the Montesinos normal form replaced, kept as
    the reference: integer parts into e, branches into (0, 1), sorted by
    (denominator, numerator)."""
    normalized = []
    for r in branches:
        e += r.p // r.q
        normalized.append(Slope(r.p % r.q, r.q))
    normalized.sort(key=lambda r: (r.q, r.p))
    return e, tuple(normalized)


# Finite, non-integer slopes, negative and improper ones included.
_BRANCH = st.builds(Slope, st.integers(-60, 60), st.integers(2, 12)).filter(
    lambda r: r.q > 1)


@given(st.integers(-20, 20), st.lists(_BRANCH, min_size=3, max_size=5))
def test_montesinos_normal_form_is_its_covers(e, branches):
    link = montesinos(e, branches)
    assert (link.e, link.branches) == _fold_branches(e, branches)
    assert link.cover == SfsS2(link.e, link.fibers)


def test_link_connected_sum():
    t, f = two_bridge(3, 1), two_bridge(4, 1)
    s = link_connected_sum(t, f)
    assert isinstance(s, ConnSumLink)
    assert s == link_connected_sum(f, t)
    assert link_connected_sum(t, Unknot()) == t
    assert link_connected_sum(Unknot(), Unknot()) == Unknot()
    nested = link_connected_sum(s, t)
    assert nested.summands == (two_bridge(3, 1), two_bridge(3, 1), two_bridge(4, 1))


def test_conn_sum_link_built_directly_is_normalised():
    a, b, c = TwoBridge(3, 1), TwoBridge(5, 2), TwoBridge(7, 3)
    s = ConnSumLink((c, Unknot(), ConnSumLink((b, a)), Unknot()))
    assert s.summands == (a, b, c)
    assert s == link_connected_sum(a, b, c)
    assert str(s) == "b(3/1) + b(5/2) + b(7/2)"
    for parts in ((), (a,), (Unknot(), a, Unknot())):
        with pytest.raises(IllFormedClaimError, match="ConnSumLink needs >= 2"):
            ConnSumLink(parts)


def test_link_determinant_two_bridge():
    for p in range(2, 40):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert link_determinant(two_bridge(p, q)) == p
    assert link_determinant(Unknot()) == 1
    assert link_determinant(Unlink(2)) == 0
    assert link_determinant(Unlink(5)) == 0


def test_link_determinant_montesinos():
    m = montesinos(-1, [Slope(1, 2), Slope(1, 3), Slope(1, 5)])
    assert link_determinant(m) == 1  # |-30 + 15 + 10 + 6|
    m = montesinos(0, [Slope(1, 2), Slope(1, 2), Slope(1, 3)])
    assert link_determinant(m) == 16  # |0 + 6 + 6 + 4|
    m = montesinos(-1, [Slope(1, 2), Slope(1, 4), Slope(1, 4)])
    assert link_determinant(m) == 0  # |-32 + 16 + 8 + 8|


def test_link_determinant_multiplicative_over_sums():
    rng = random.Random(606)
    pool = [two_bridge(p, q) for p in range(2, 15)
            for q in range(1, p) if gcd(p, q) == 1]
    for _ in range(60):
        parts = rng.sample(pool, rng.randint(2, 4))
        expected = 1
        for part in parts:
            expected *= link_determinant(part)
        assert link_determinant(link_connected_sum(*parts)) == expected


def test_printed_forms():
    assert str(two_bridge(50, 29)) == "b(50/19)"
    assert str(montesinos(-1, [Slope(1, 2), Slope(1, 3), Slope(1, 5)])) == \
        "mont(-1; 1/2, 1/3, 1/5)"
    assert str(link_connected_sum(two_bridge(4, 1), two_bridge(3, 1))) == \
        "b(3/1) + b(4/1)"
    assert str(unlink(3)) == "unlink(3)"
    # A sum of every kind of part prints one form, and its cover and
    # determinant are those of its parts, whatever order they come in.
    parts = (unlink(2), two_bridge(5, 2), two_bridge(3, 1),
             montesinos(-1, [Slope(1, 2), Slope(1, 3), Slope(1, 5)]))
    for order in permutations(parts):
        mixed = link_connected_sum(*order)
        assert str(mixed) == \
            "mont(-1; 1/2, 1/3, 1/5) + b(3/1) + b(5/2) + unlink(2)"
        assert double_branched_cover(mixed) == \
            connected_sum(*map(double_branched_cover, order))
        assert link_determinant(mixed) == \
            prod(map(link_determinant, order)) == 0
