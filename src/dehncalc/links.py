"""Links on the branch-locus side of the double branched cover dictionary.

Links are tracked up to mirror image, which matches working with
unoriented covers: the 2-bridge parameters are normalized exactly like
lens-space parameters, so b(p, q) and its mirror b(p, p - q) share one
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .manifolds import IllFormedClaimError, lens_parameter_orbit, _sfs_s2_h1_order
from .slopes import Slope


class Link:
    """Base class for link descriptions."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return type(self).__name__


@dataclass(frozen=True)
class Unknot(Link):
    def __str__(self) -> str:
        return "unknot"


@dataclass(frozen=True)
class Unlink(Link):
    components: int

    def __post_init__(self) -> None:
        if self.components < 2:
            raise IllFormedClaimError("Unlink needs >= 2 components; use unlink()")

    def __str__(self) -> str:
        return f"unlink({self.components})"


def unlink(components: int) -> Link:
    if components < 1:
        raise IllFormedClaimError("unlink needs >= 1 component")
    return Unknot() if components == 1 else Unlink(components)


@dataclass(frozen=True)
class TwoBridge(Link):
    """The 2-bridge link b(p, q), normalized to the minimal equivalent q."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p = abs(self.p)
        if p < 2:
            raise IllFormedClaimError(
                f"b({self.p},{self.q}) is degenerate; use two_bridge() for |p| <= 1"
            )
        q = self.q % p
        if gcd(p, q) != 1:
            raise IllFormedClaimError(f"b({self.p},{self.q}) needs gcd(p, q) = 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", lens_parameter_orbit(p, q)[0])

    def __str__(self) -> str:
        return f"b({self.p}/{self.q})"


def two_bridge(p: int, q: int) -> Link:
    """b(p, q) with the degenerate cases folded in: b(0, 1) is the 2-unlink
    and b(+-1, q) is the unknot."""
    if gcd(p, q) != 1:
        raise IllFormedClaimError(f"b({p},{q}) needs gcd(p, q) = 1")
    if p == 0:
        return Unlink(2)
    if abs(p) == 1:
        return Unknot()
    return TwoBridge(p, q)


def numerator_closure(r: Slope) -> Link:
    """Numerator closure of the rational tangle with fraction r.

    Tangle fractions here count vertical twists, so the infinity tangle
    closes to the 2-component unlink and the 0-tangle to the unknot;
    every other slope closes to the 2-bridge link b(|p|, q).
    """
    if r.is_infinite:
        return Unlink(2)
    if r.p == 0:
        return Unknot()
    return two_bridge(r.p, r.q)


@dataclass(frozen=True)
class MontesinosLink(Link):
    """Montesinos link with integer twist e and branch fractions beta/alpha.

    Branches are stored as slopes normalized into (0, 1): integer parts
    are folded into e, and at least three genuine branches are required
    (with fewer the link is 2-bridge and should be written that way).
    """

    e: int
    branches: tuple[Slope, ...]

    def __post_init__(self) -> None:
        e = self.e
        normalized = []
        for r in self.branches:
            if r.is_infinite:
                raise IllFormedClaimError("montesinos branch must be finite")
            e += r.p // r.q
            beta = r.p % r.q
            if beta == 0:
                raise IllFormedClaimError(
                    f"montesinos branch {r} is an integer; fold it into e"
                )
            normalized.append(Slope(beta, r.q))
        if len(normalized) < 3:
            raise IllFormedClaimError(
                "montesinos needs >= 3 branches; with fewer the link is 2-bridge"
            )
        normalized.sort(key=lambda r: (r.q, r.p))
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "branches", tuple(normalized))

    def __str__(self) -> str:
        parts = ", ".join(str(r) for r in self.branches)
        return f"mont({self.e}; {parts})"


def montesinos(e: int, branches) -> MontesinosLink:
    return MontesinosLink(e, tuple(branches))


@dataclass(frozen=True)
class ConnSumLink(Link):
    """Connected sum of links, flat and sorted; unknot parts are absorbed."""

    parts: tuple[Link, ...]

    def __post_init__(self) -> None:
        flat = _flatten(self.parts)
        if len(flat) < 2:
            raise IllFormedClaimError(
                "ConnSumLink needs >= 2 nontrivial parts; use link_connected_sum()"
            )
        object.__setattr__(self, "parts", tuple(sorted(flat, key=_link_key)))

    def __str__(self) -> str:
        return " + ".join(str(l) for l in self.parts)


def link_connected_sum(*parts: Link) -> Link:
    flat = _flatten(parts)
    if len(flat) < 2:
        return flat[0] if flat else Unknot()
    return ConnSumLink(tuple(flat))


def _flatten(parts) -> list[Link]:
    """Parts with nested sums spliced in and unknot parts dropped."""
    flat: list[Link] = []
    for l in parts:
        if isinstance(l, ConnSumLink):
            flat.extend(l.parts)
        elif not isinstance(l, Unknot):
            flat.append(l)
    return flat


def _link_key(l: Link):
    if isinstance(l, TwoBridge):
        return ("TwoBridge", (l.p, l.q))
    if isinstance(l, MontesinosLink):
        return ("Montesinos", (l.e,) + tuple((r.q, r.p) for r in l.branches))
    if isinstance(l, Unlink):
        return ("Unlink", (l.components,))
    if isinstance(l, ConnSumLink):
        return ("ConnSum", tuple(_link_key(x) for x in l.parts))
    return (type(l).__name__, ())


def link_determinant(l: Link) -> int:
    """The link determinant, multiplicative under connected sum."""
    if isinstance(l, Unknot):
        return 1
    if isinstance(l, Unlink):
        return 0
    if isinstance(l, TwoBridge):
        return l.p
    if isinstance(l, MontesinosLink):
        return _sfs_s2_h1_order(l.e, tuple((r.q, r.p) for r in l.branches))
    if isinstance(l, ConnSumLink):
        det = 1
        for part in l.parts:
            det *= link_determinant(part)
        return det
    raise TypeError(f"not a link: {l!r}")
