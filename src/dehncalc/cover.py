"""The double branched cover dictionary from links to 3-manifolds."""

from __future__ import annotations

from .links import ConnSumLink, Link, MontesinosLink, TwoBridge, Unknot, Unlink
from .manifolds import Lens, Manifold, S3, S1xS2, SfsS2, connected_sum


def double_branched_cover(l: Link) -> Manifold:
    """Double cover of S^3 branched over the link.

    b(p, q) lifts to L(p, q), a Montesinos link to the Seifert space over
    S^2 with the same data, the n-unlink to a sum of n - 1 copies of
    S1xS2, and the dictionary respects connected sums.
    """
    if isinstance(l, Unknot):
        return S3()
    if isinstance(l, Unlink):
        return connected_sum(*(S1xS2() for _ in range(l.components - 1)))
    if isinstance(l, TwoBridge):
        return Lens(l.p, l.q)
    if isinstance(l, MontesinosLink):
        return SfsS2(l.e, tuple((r.q, r.p) for r in l.branches))
    if isinstance(l, ConnSumLink):
        return connected_sum(*(double_branched_cover(part) for part in l.parts))
    raise TypeError(f"not a link: {l!r}")
