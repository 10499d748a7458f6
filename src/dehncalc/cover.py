"""The double branched cover dictionary from links to 3-manifolds."""

from __future__ import annotations

from .links import Link
from .manifolds import Manifold


def double_branched_cover(l: Link) -> Manifold:
    """Double cover of S^3 branched over the link.

    b(p, q) lifts to L(p, q), a Montesinos link to the Seifert space over
    S^2 with the same data, the n-unlink to a sum of n - 1 copies of
    S1xS2, and the dictionary respects connected sums.
    """
    if not isinstance(l, Link):
        raise TypeError(f"not a link: {l!r}")
    return l.cover
