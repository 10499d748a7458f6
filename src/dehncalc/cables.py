"""Filling arithmetic for cable spaces.

A cable space C(s, t) sits between two torus boundaries; filling the
outside along a slope r is controlled entirely by the distance from r to
the cabling slope gamma.  The two standard cases are distance 0 (the
cabling slope itself, giving a reducible manifold) and distance 1 (a
solid torus); larger distances give a Seifert piece over the disk and
are flagged as an extension of the standard rules.
"""

from __future__ import annotations

from .manifolds import (BASE_D2, CableSpace, Manifold, SolidTorus,
                        connected_sum, lens_space, sfs_orders)
from .slopes import Slope, distance


def cable_fill(space: CableSpace, gamma: Slope, r: Slope) -> Manifold:
    """Fill the outer boundary of the cable space along r, where gamma is
    its cabling slope (``CableSpace`` already enforces t >= 2 and
    gcd(s, t) = 1).

    At the cabling slope the result is SolidTorus # L(t, s); at distance
    1 from it, a solid torus; at distance d >= 2, the Seifert piece
    D2(t, d) (an extension beyond the cases the claim tables use).
    """
    d = distance(r, gamma)
    if d == 0:
        return connected_sum(SolidTorus(), lens_space(space.t, space.s))
    if d == 1:
        return SolidTorus()
    return sfs_orders(BASE_D2, (space.t, d))


def _require(name: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def meridian_distance_cabled(t: int, delta_in: int) -> int:
    """Distance between the images of two slopes after (s, t)-cabling: |t| * delta."""
    _require("t", t, 2)
    _require("delta_in", delta_in, 0)
    return t * delta_in


def meridian_distance_squared(v: int, delta_in: int) -> int:
    """Distance pushforward through a degree-v covering of the filling torus."""
    _require("v", v, 2)
    _require("delta_in", delta_in, 0)
    return v * v * delta_in


def winding_bound(w: int) -> int:
    """Lower bound w^2 on the distance forced by winding number w."""
    _require("w", w, 2)
    return w * w
