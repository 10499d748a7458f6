import json
import random
from math import gcd

import pytest

from dehncalc.cables import (cable_fill, meridian_distance_cabled,
                             meridian_distance_squared, winding_bound)
from dehncalc.cli import main
from dehncalc.manifolds import (BASE_D2, CableSpace, ConnSum, Lens,
                                SfsOrdersOnly, SolidTorus, connected_sum, h1,
                                lens_space, sfs_orders)
from dehncalc.slopes import Slope, distance


def _random_slope(rng):
    while True:
        p, q = rng.randint(-20, 20), rng.randint(0, 8)
        if p or q:
            return Slope(p, q)


def test_cable_fill_exhaustive_distance_cases():
    rng = random.Random(505)
    for t in range(2, 10):
        for s in range(1, t):
            if gcd(s, t) != 1:
                continue
            for _ in range(50):
                gamma = _random_slope(rng)
                r = _random_slope(rng)
                d = distance(r, gamma)
                m = cable_fill(CableSpace(s, t), gamma, r)
                if d == 0:
                    assert m == connected_sum(SolidTorus(), lens_space(t, s))
                    # always carries a lens summand of order t
                    assert isinstance(m, ConnSum)
                    lens = [x for x in m.summands if isinstance(x, Lens)]
                    assert len(lens) == 1 and h1(lens[0]).order == t
                elif d == 1:
                    assert m == SolidTorus()
                else:
                    assert m == sfs_orders(BASE_D2, (t, d))


def test_cable_fill_spot_values():
    space, gamma = CableSpace(1, 2), Slope(0)
    assert cable_fill(space, gamma, Slope(0)) == \
        connected_sum(SolidTorus(), Lens(2, 1))
    assert cable_fill(space, gamma, Slope(-1)) == SolidTorus()
    assert cable_fill(space, gamma, Slope(2)) == SfsOrdersOnly(BASE_D2, (2, 2))
    assert cable_fill(CableSpace(2, 3), Slope(1), Slope(4)) == \
        SfsOrdersOnly(BASE_D2, (3, 3))


def test_describe_cable_fill_flags_extensions(capsys):
    # The cable verb describes a filling of C(2,3) along gamma = 1; only a
    # distance of 2 or more from the cabling slope is an extension.
    for r, d in (("1", 0), ("0", 1), ("4", 3)):
        assert main(["cable", "--s", "2", "--t", "3", "--gamma", "1", r]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["distance_from_cabling"] == d
        assert row["extension"] is (d >= 2)
        assert row["manifold"] == str(
            cable_fill(CableSpace(2, 3), Slope(1), Slope(int(r))))
    assert row["manifold"] == "D2(3,3)"


def test_meridian_distance_cabled():
    assert meridian_distance_cabled(2, 1) == 2
    assert meridian_distance_cabled(3, 1) == 3
    assert meridian_distance_cabled(2, 0) == 0
    for t in range(2, 12):
        for delta in range(0, 6):
            assert meridian_distance_cabled(t, delta) >= 2 * delta
    with pytest.raises(ValueError):
        meridian_distance_cabled(1, 3)
    with pytest.raises(ValueError):
        meridian_distance_cabled(2, -1)


def test_meridian_distance_squared():
    assert meridian_distance_squared(2, 4) == 16
    assert meridian_distance_squared(3, 1) == 9
    assert meridian_distance_squared(2, 0) == 0
    with pytest.raises(ValueError):
        meridian_distance_squared(1, 4)


def test_winding_bound():
    assert winding_bound(2) == 4
    assert winding_bound(3) == 9
    assert all(winding_bound(w + 1) > winding_bound(w) for w in range(2, 10))
    with pytest.raises(ValueError):
        winding_bound(1)
