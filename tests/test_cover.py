import random
from math import gcd

import pytest

from dehncalc.cover import double_branched_cover
from dehncalc.diagrams import oracle_cross_check
from dehncalc.links import (ConnSumLink, link_connected_sum, link_determinant,
                            montesinos, two_bridge, unlink, Unknot, Unlink)
from dehncalc.manifolds import (Lens, S3, S1xS2, SfsS2, classify_finite_type,
                                connected_sum, h1, lens_space)
from dehncalc.slopes import Slope


def test_cover_base_cases():
    assert double_branched_cover(Unknot()) == S3()
    assert double_branched_cover(unlink(2)) == S1xS2()
    assert double_branched_cover(unlink(3)) == connected_sum(S1xS2(), S1xS2())
    assert double_branched_cover(unlink(4)) == \
        connected_sum(S1xS2(), S1xS2(), S1xS2())


def test_cover_two_bridge_is_lens():
    assert double_branched_cover(two_bridge(50, 29)) == Lens(50, 19)
    for p in range(2, 30):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert double_branched_cover(two_bridge(p, q)) == lens_space(p, q)


def test_cover_montesinos_is_seifert():
    m = montesinos(-1, [Slope(1, 2), Slope(1, 3), Slope(1, 5)])
    assert double_branched_cover(m) == SfsS2(-1, ((2, 1), (3, 1), (5, 1)))
    assert h1(double_branched_cover(m)).order == 1


def test_cover_respects_sums():
    s = link_connected_sum(two_bridge(3, 1), two_bridge(4, 1))
    assert double_branched_cover(s) == connected_sum(Lens(3, 1), Lens(4, 1))


def test_h1_of_cover_is_determinant_exhaustive():
    for p in range(2, 100):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            res = h1(double_branched_cover(two_bridge(p, q)))
            assert res.order == p == link_determinant(two_bridge(p, q))


def _random_link(rng):
    kind = rng.randrange(4)
    if kind == 0:
        p = rng.randint(2, 60)
        q = rng.choice([x for x in range(1, p) if gcd(x, p) == 1])
        return two_bridge(p, q)
    if kind == 1:
        branches = []
        for _ in range(rng.randint(3, 4)):
            a = rng.randint(2, 9)
            b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
            branches.append(Slope(b, a))
        return montesinos(rng.randint(-3, 3), branches)
    if kind == 2:
        return unlink(rng.randint(1, 3))
    parts = [_random_link(rng) for _ in range(2)]
    return link_connected_sum(*parts)


def test_h1_of_cover_is_determinant_random_assemblies():
    rng = random.Random(20260823)
    for _ in range(200):
        link = _random_link(rng)
        det = link_determinant(link)
        res = h1(double_branched_cover(link))
        if det == 0:
            assert not res.is_finite
        else:
            assert res.order == det
        # The determinant is read off the cover, so the diagrams are the
        # independent side: every assembly they can draw must match.
        parts = link.summands if isinstance(link, ConnSumLink) else (link,)
        if not any(isinstance(part, (Unknot, Unlink)) for part in parts):
            assert oracle_cross_check(link).match, str(link)


@pytest.mark.parametrize("guard, wrong", [
    (classify_finite_type, two_bridge(3, 1)),
    (double_branched_cover, Lens(3, 1)),
    (link_determinant, "b(3/1)"),
])
def test_guards_reject_what_is_not_their_shape(guard, wrong):
    with pytest.raises(TypeError, match=r"^not a (manifold|link): "):
        guard(wrong)
