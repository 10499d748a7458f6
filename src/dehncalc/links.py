"""Links on the branch-locus side of the double branched cover dictionary.

Links are tracked up to mirror image, which matches working with
unoriented covers: the 2-bridge parameters are normalized exactly like
lens-space parameters, so b(p, q) and its mirror b(p, p - q) share one
normal form.
"""

from __future__ import annotations

from math import gcd

from .manifolds import (IllFormedClaimError, Lens, Manifold, S3, S1xS2, SfsS2,
                        _normal_form, connected_sum, flat_summands, h1,
                        normalize_lens_pair)
from .slopes import Slope
from .value import Value


class Link(Value):
    """Base class for link descriptions, each an immutable value.  Each
    shape declares the facts annotated here in its own class: as a class
    attribute when the fact is fixed for the shape, as a property when it
    depends on its fields, or, for a Montesinos link's cover, as the value
    its ``__init__`` normalises through.  A sum of links is flat, so it is
    never a summand and has no ``sort_key``."""

    cover: Manifold  # the double cover of S^3 branched over the link
    sort_key: tuple  # orders the parts of a sum


class Unknot(Link):
    cover = S3()
    sort_key = ("Unknot", ())

    def __str__(self) -> str:
        return "unknot"


class Unlink(Link):
    def __init__(self, components: int) -> None:
        if components < 2:
            raise IllFormedClaimError("Unlink needs >= 2 components; use unlink()")
        self.__dict__.update(components=components)

    cover = property(lambda self: connected_sum(
        *(S1xS2() for _ in range(self.components - 1))))
    sort_key = property(lambda self: ("Unlink", (self.components,)))

    def __str__(self) -> str:
        return f"unlink({self.components})"


def unlink(components: int) -> Link:
    if components < 1:
        raise IllFormedClaimError("unlink needs >= 1 component")
    return Unknot() if components == 1 else Unlink(components)


class TwoBridge(Link):
    """The 2-bridge link b(p, q), normalized to the minimal equivalent q."""

    def __init__(self, p: int, q: int) -> None:
        p, q = normalize_lens_pair(p, q, "b", "two_bridge")
        self.__dict__.update(p=p, q=q)

    cover = property(lambda self: Lens(self.p, self.q))
    sort_key = property(lambda self: ("TwoBridge", (self.p, self.q)))

    def __str__(self) -> str:
        return f"b({self.p}/{self.q})"


def two_bridge(p: int, q: int) -> Link:
    """b(p, q) with the degenerate cases folded in: b(0, 1) is the 2-unlink
    and b(+-1, q) is the unknot."""
    if abs(p) >= 2:
        return TwoBridge(p, q)
    if gcd(p, q) != 1:
        raise IllFormedClaimError(f"b({p},{q}) needs gcd(p, q) = 1")
    return Unknot() if p else Unlink(2)


def numerator_closure(r: Slope) -> Link:
    """Numerator closure N(p/q) of the rational tangle with fraction r = p/q.

    N(p/q) is the 2-bridge link b(p/q), so its double branched cover is
    L(p, q) and its determinant is |p|: N(1/0) is the unknot and N(0) the
    2-component unlink.
    """
    return two_bridge(r.p, r.q)


class MontesinosLink(Link):
    """Montesinos link with integer twist e and branch fractions beta/alpha.

    Branches are stored as slopes normalized into (0, 1): integer parts
    are folded into e, and at least three genuine branches are required
    (with fewer the link is 2-bridge and should be written that way).
    The normal form is that of the cover SFS(e; beta1/alpha1, ...),
    which ``__init__`` builds once and keeps as ``cover``.
    """

    def __init__(self, e: int, branches: tuple[Slope, ...]) -> None:
        for r in branches:
            if r.is_infinite:
                raise IllFormedClaimError("montesinos branch must be finite")
            if r.q == 1:
                raise IllFormedClaimError(
                    f"montesinos branch {r} is an integer; fold it into e"
                )
        if len(branches) < 3:
            raise IllFormedClaimError(
                "montesinos needs >= 3 branches; with fewer the link is 2-bridge"
            )
        cover = SfsS2(e, tuple((r.q, r.p) for r in branches))
        self.__dict__.update(e=cover.e, branches=tuple(
            Slope(beta, alpha) for alpha, beta in cover.fibers), cover=cover)

    fibers = property(lambda self: self.cover.fibers)
    sort_key = property(lambda self: ("Montesinos", (self.e,) + self.fibers))

    def __str__(self) -> str:
        parts = ", ".join(str(r) for r in self.branches)
        return f"mont({self.e}; {parts})"


def montesinos(e: int, branches) -> MontesinosLink:
    return MontesinosLink(e, tuple(branches))


class ConnSumLink(Link):
    """Connected sum of links, kept flat, unknot-free and sorted like ConnSum."""

    def __init__(self, summands: tuple[Link, ...]) -> None:
        summands = flat_summands(summands, ConnSumLink, Unknot)
        if len(summands) < 2:
            raise IllFormedClaimError(
                "ConnSumLink needs >= 2 nontrivial parts; use link_connected_sum()"
            )
        self.__dict__.update(summands=summands)

    cover = property(
        lambda self: connected_sum(*(l.cover for l in self.summands)))

    def __str__(self) -> str:
        return " + ".join(str(l) for l in self.summands)


def link_connected_sum(*parts: Link) -> Link:
    flat = flat_summands(parts, ConnSumLink, Unknot)
    if len(flat) < 2:
        return flat[0] if flat else Unknot()
    return _normal_form(ConnSumLink, summands=flat)


def link_determinant(l: Link) -> int:
    """The link determinant: |H1| of the double branched cover, 0 when H1
    is infinite (so it is multiplicative under connected sum)."""
    if not isinstance(l, Link):
        raise TypeError(f"not a link: {l!r}")
    return h1(l.cover).order or 0
