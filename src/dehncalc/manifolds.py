"""Closed-form catalog of the 3-manifolds that show up as fillings.

Every manifold is a small immutable description: lens spaces and Seifert
fibered spaces over S^2 carry exact invariants, while a few shapes are
deliberately partial (exceptional-fiber orders without their framings, or
an opaque tag for a manifold we only know qualitatively).  Partial shapes
make comparisons three-valued instead of silently guessing.

Conventions:
  * Lens spaces are unoriented: L(p, q) is stored with p >= 2 and q the
    minimum of {+-q^{+-1} mod p}, which is a complete invariant.
  * SfsS2(e, fibers) is the Seifert space over S^2 with integer Euler
    term e and normalized exceptional fibers 0 < beta < alpha, at least
    three of them (fewer would be a lens space in disguise).
  * SfsOrdersOnly(base, orders) records only the exceptional-fiber
    orders over base S2, D2, or M2 (Mobius band).
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import gcd, prod
from operator import attrgetter

from .value import Value


class IllFormedClaimError(ValueError):
    """A manifold description violates its arithmetic side conditions."""


class IndeterminateError(Exception):
    """The requested answer is not determined by a partial description."""


TAG_TOROIDAL_IRREDUCIBLE = "toroidal_irreducible_nonSFS"
TAG_TOROIDAL = "toroidal"
TAG_LENS_TYPE = "lens-type"

# "prime" is tracked separately from "reducible": the lens-type tag covers
# both lens spaces and S1xS2, so its reducibility is unknown but it is prime.
_TAG_PROPS: dict[str, dict[str, bool]] = {
    TAG_TOROIDAL_IRREDUCIBLE: {"closed": True, "reducible": False, "prime": True,
                               "toroidal": True},
    TAG_TOROIDAL: {"closed": True, "toroidal": True},
    TAG_LENS_TYPE: {"closed": True, "prime": True, "toroidal": False},
}


# ---------------------------------------------------------------------------
# Values of the shape facts: first homology and finite type


class H1Result(Value):
    """|H1| when finite (free_rank = 0), otherwise the free rank with order None."""

    def __init__(self, order: int | None, free_rank: int) -> None:
        self.__dict__.update(order=order, free_rank=free_rank)

    @classmethod
    def finite(cls, order: int) -> "H1Result":
        return cls(order=order, free_rank=0)

    @classmethod
    def infinite(cls, free_rank: int) -> "H1Result":
        return cls(order=None, free_rank=free_rank)

    @property
    def is_finite(self) -> bool:
        return self.order is not None


class FiniteType(Enum):
    CYCLIC = "cyclic"
    DIHEDRAL = "dihedral"
    TETRAHEDRAL = "tetrahedral"
    OCTAHEDRAL = "octahedral"
    ICOSAHEDRAL = "icosahedral"
    NOT_FINITE = "not_finite"
    UNKNOWN = "unknown"

    # Hashed by identity, in C: Enum's __hash__ is a Python-level call.
    __hash__ = object.__hash__


_EUCLIDEAN_TRIPLES = ((2, 3, 6), (2, 4, 4), (3, 3, 3))
_TETRA_OCTA_ICOSA = {3: FiniteType.TETRAHEDRAL, 4: FiniteType.OCTAHEDRAL,
                     5: FiniteType.ICOSAHEDRAL}


def _s2_finite_type(orders: tuple[int, ...] | None) -> FiniteType:
    """Finite type over S^2 with these sorted orders, if any: three orders
    are spherical iff 1/a + 1/b + 1/c > 1, exactly (2, 2, n) and (2, 3, 3-5)."""
    if orders is None or len(orders) != 3:
        return FiniteType.NOT_FINITE
    a, b, c = orders
    if a == 2 and b == 2:
        return FiniteType.DIHEDRAL
    if a == 2 and b == 3:
        return _TETRA_OCTA_ICOSA.get(c, FiniteType.NOT_FINITE)
    return FiniteType.NOT_FINITE


# ---------------------------------------------------------------------------
# The shapes


class Manifold(Value):
    """Base class of the shapes below, each an immutable value.

    The facts are the class variables annotated here.  Each shape
    declares every one in its own class: as a class keyword when the fact
    is fixed for the shape, or as a property when it depends on the
    shape's fields.  A fact is None where the description does not decide
    it.
    """

    closed: bool | None
    # Known reducible: true exactly for connected sums and S1xS2.
    reducible: bool | None
    # The description proves the manifold prime.
    prime: bool
    # Contains an essential torus.
    toroidal: bool | None
    # The normal form is a complete invariant up to mirror image.
    rigid: bool
    # The boundary tori are incompressible (those of a solid torus are not).
    incompressible_boundary: bool
    # S3, a lens space or S1xS2.
    lens_like: bool
    # The >= 3 exceptional orders of a Seifert description over S^2.
    s2_orders: tuple[int, ...] | None
    # First homology; None when the description does not determine it.
    homology: H1Result | None
    finite_type: FiniteType
    # Orders the summands of a sum and the pieces of a torus union.
    sort_key: tuple

    def __init_subclass__(cls, **facts) -> None:
        super().__init_subclass__()
        unknown = set(facts) - set(SHAPE_FACTS)
        for name, value in facts.items():
            setattr(cls, name, value)
        missing = [f for f in SHAPE_FACTS if f not in vars(cls)]
        if unknown or missing:
            raise TypeError(f"{cls.__name__}: unknown facts {sorted(unknown)}, "
                            f"undeclared facts {missing}")

    def mirror(self) -> "Manifold":
        """The orientation-reversed description; a normal form that forgets
        orientation is its own mirror."""
        return self

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return type(self).__name__


SHAPE_FACTS = tuple(Manifold.__annotations__)
_sort_key = attrgetter("sort_key")


def _normal_form(cls, **fields) -> Manifold:
    """A shape from fields already in its normal form, skipping the checks
    and rewrites of its __init__."""
    shape = object.__new__(cls)
    shape.__dict__.update(fields)
    return shape


class S3(Manifold, closed=True, reducible=False, prime=True, toroidal=False,
         rigid=True, incompressible_boundary=False, lens_like=True,
         s2_orders=None, homology=H1Result.finite(1),
         finite_type=FiniteType.CYCLIC, sort_key=("S3", ())):
    def __str__(self) -> str:
        return "S3"


class S1xS2(Manifold, closed=True, reducible=True, prime=True, toroidal=False,
            rigid=True, incompressible_boundary=False, lens_like=True,
            s2_orders=None, homology=H1Result.infinite(1),
            finite_type=FiniteType.NOT_FINITE, sort_key=("S1xS2", ())):
    def __str__(self) -> str:
        return "S1xS2"


class SolidTorus(Manifold, closed=False, reducible=False, prime=True,
                 toroidal=None, rigid=True, incompressible_boundary=False,
                 lens_like=False, s2_orders=None,
                 homology=H1Result.infinite(1),
                 finite_type=FiniteType.NOT_FINITE,
                 sort_key=("SolidTorus", ())):
    def __str__(self) -> str:
        return "ST"


class T2xI(Manifold, closed=False, reducible=False, prime=True, toroidal=None,
           rigid=True, incompressible_boundary=True, lens_like=False,
           s2_orders=None, homology=H1Result.infinite(2),
           finite_type=FiniteType.NOT_FINITE, sort_key=("T2xI", ())):
    def __str__(self) -> str:
        return "T2xI"


class ZxS1(Manifold, closed=False, reducible=False, prime=True, toroidal=None,
           rigid=True, incompressible_boundary=True, lens_like=False,
           s2_orders=None, homology=H1Result.infinite(3),
           finite_type=FiniteType.NOT_FINITE, sort_key=("ZxS1", ())):
    """Product of a compact planar surface Z with S^1 (an exceptional filling)."""

    def __str__(self) -> str:
        return "ZxS1"


def lens_parameter_orbit(p: int, q: int) -> tuple[int, ...]:
    """All residues in [1, p) giving the same unoriented lens space as L(p, q)."""
    if p < 2:
        raise ValueError("orbit needs p >= 2")
    q %= p
    if gcd(p, q) != 1:
        raise ValueError(f"gcd({p}, {q}) != 1")
    inv = pow(q, -1, p)
    return tuple(sorted({q, p - q, inv, p - inv}))


def normalize_lens_pair(p: int, q: int, name: str,
                        builder: str) -> tuple[int, int]:
    """(p, q) in the unoriented lens normal form; name and builder word
    the errors, as in "L(4,2) needs gcd(p, q) = 1"."""
    n = abs(p)
    if n < 2:
        raise IllFormedClaimError(
            f"{name}({p},{q}) is degenerate; use {builder}() for |p| <= 1")
    try:
        inv = pow(q, -1, n)
    except ValueError:  # q is not a unit mod p
        raise IllFormedClaimError(f"{name}({p},{q}) needs gcd(p, q) = 1") from None
    q %= n
    return n, min(q, n - q, inv, n - inv)


class Lens(Manifold, closed=True, reducible=False, prime=True, toroidal=False,
           rigid=True, incompressible_boundary=False, lens_like=True,
           s2_orders=None, finite_type=FiniteType.CYCLIC):
    """L(p, q), normalized on construction to the canonical unoriented form."""

    def __init__(self, p: int, q: int) -> None:
        p, q = normalize_lens_pair(p, q, "L", "lens_space")
        self.__dict__.update(p=p, q=q)

    homology = property(lambda self: H1Result.finite(self.p))
    sort_key = property(lambda self: ("Lens", (self.p, self.q)))

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


def lens_space(p: int, q: int) -> Manifold:
    """L(p, q) with the degenerate cases folded in: L(0, 1) = S1xS2, L(+-1, q) = S3."""
    if abs(p) >= 2:
        p, q = normalize_lens_pair(p, q, "L", "lens_space")
        return _normal_form(Lens, p=p, q=q)
    if gcd(p, q) != 1:
        raise IllFormedClaimError(f"L({p},{q}) needs gcd(p, q) = 1")
    return S3() if p else S1xS2()


def lens_homeomorphic(a: Manifold, b: Manifold) -> bool:
    """Whether two lens-space-like manifolds are (unoriented) homeomorphic.

    Both arguments must be Lens, S3, or S1xS2; they are rigid, so
    ``manifold_compare`` decides them.
    """
    for m in (a, b):
        if not m.lens_like:
            raise ValueError(f"not a lens-space-like manifold: {m}")
    return manifold_compare(a, b) is Comparison.EQUAL


class SfsS2(Manifold, closed=True, reducible=False, prime=True, rigid=True,
            incompressible_boundary=False, lens_like=False):
    """Seifert space over S^2 with exact invariants (e; beta1/alpha1, ...)."""

    def __init__(self, e: int, fibers: tuple[tuple[int, int], ...]) -> None:
        normalized = []
        for alpha, beta in fibers:
            if alpha == 0:
                raise IllFormedClaimError("exceptional fiber with alpha = 0")
            if alpha < 0:
                alpha, beta = -alpha, -beta
            e += beta // alpha
            beta %= alpha
            if gcd(alpha, beta) != 1:
                raise IllFormedClaimError(f"fiber ({alpha},{beta}) needs gcd = 1")
            if alpha > 1:
                normalized.append((alpha, beta))
        if len(normalized) < 3:
            raise IllFormedClaimError(
                "SfsS2 needs at least three exceptional fibers; fewer is lens-type"
            )
        self.__dict__.update(e=e, fibers=tuple(sorted(normalized)))

    orders = property(lambda self: tuple(alpha for alpha, _ in self.fibers))

    s2_orders = orders
    finite_type = property(lambda self: _s2_finite_type(self.orders))
    sort_key = property(lambda self: ("SfsS2", (self.e,) + self.fibers))

    @property
    def homology(self) -> H1Result:
        # |H1| = |e A + sum_i beta_i A / alpha_i| with A = prod(alpha); each
        # division is exact.  H1 is infinite when that is 0.
        whole = prod(alpha for alpha, _ in self.fibers)
        total = self.e * whole + sum(beta * (whole // alpha)
                                     for alpha, beta in self.fibers)
        return H1Result.finite(abs(total)) if total else H1Result.infinite(1)

    @property
    def toroidal(self) -> bool:
        """Four or more fibers give a vertical essential torus.  With three,
        only a Euclidean base with e0 = 0 (infinite H1) is toroidal, as a
        torus bundle; a hyperbolic base with e0 = 0 is H2 x R and
        atoroidal (Scott 1983)."""
        return len(self.fibers) >= 4 or (
            self.orders in _EUCLIDEAN_TRIPLES and not self.homology.is_finite)

    def mirror(self) -> "SfsS2":
        return SfsS2(-self.e - len(self.fibers),
                     tuple((a, a - b) for a, b in self.fibers))

    def __str__(self) -> str:
        parts = ", ".join(f"{b}/{a}" for a, b in self.fibers)
        return f"SFS({self.e}; {parts})"


BASE_S2 = "S2"
BASE_D2 = "D2"
BASE_M2 = "M2"

_MIN_ORDER_COUNT = {BASE_S2: 3, BASE_D2: 2, BASE_M2: 1}


class SfsOrdersOnly(Manifold, reducible=False, prime=True, rigid=False,
                    lens_like=False, homology=None):
    """A Seifert space known only by base and exceptional-fiber orders."""

    def __init__(self, base: str, orders: tuple[int, ...]) -> None:
        if base not in _MIN_ORDER_COUNT:
            raise IllFormedClaimError(f"unknown base {base!r}")
        normalized = tuple(sorted(orders))
        if normalized and normalized[0] < 2:
            raise IllFormedClaimError(f"orders must be >= 2, got {orders}")
        if len(normalized) < _MIN_ORDER_COUNT[base]:
            raise IllFormedClaimError(
                f"{base} base with {len(normalized)} orders has an exact form; "
                "use sfs_orders()"
            )
        self.__dict__.update(base=base, orders=normalized)

    closed = property(lambda self: self.base == BASE_S2)
    incompressible_boundary = property(
        lambda self: self.base in (BASE_D2, BASE_M2))
    s2_orders = property(
        lambda self: self.orders if self.base == BASE_S2 else None)
    finite_type = property(lambda self: _s2_finite_type(self.s2_orders))
    sort_key = property(lambda self: ("SfsOrders:" + self.base, self.orders))

    @property
    def toroidal(self) -> bool | None:
        # A spherical triple forces an atoroidal small Seifert space;
        # otherwise the missing Euler number can flip the answer.
        return None if self.finite_type is FiniteType.NOT_FINITE else False

    def __str__(self) -> str:
        return f"{self.base}({','.join(str(a) for a in self.orders)})"


def sfs_orders(base: str, orders: tuple[int, ...] | list[int]) -> Manifold:
    """Orders-only Seifert shape, rewriting the degenerate cases exactly.

    Orders equal to 1 are dropped and signs are ignored (only |order|
    matters for an orders-only description); an order of 0 is rejected.
    Degenerate rewrites: a D2 base with <= 1 exceptional fiber is a solid
    torus, an M2 base with none is the twisted piece D2(2, 2), and an S2
    base with <= 2 fibers is only known to be lens-type, which stays
    opaque.
    """
    cleaned = []
    for a in orders:
        a = abs(a)
        if a == 0:
            raise IllFormedClaimError("exceptional fiber of order 0")
        if a > 1:
            cleaned.append(a)
    if base == BASE_S2 and len(cleaned) < 3:
        return OpaqueTag(TAG_LENS_TYPE)
    if base == BASE_D2 and len(cleaned) < 2:
        return SolidTorus()
    if base == BASE_M2 and not cleaned:
        return SfsOrdersOnly(BASE_D2, (2, 2))
    if base not in _MIN_ORDER_COUNT:
        raise IllFormedClaimError(f"unknown base {base!r}")
    cleaned.sort()
    return _normal_form(SfsOrdersOnly, base=base, orders=tuple(cleaned))


class CableSpace(Manifold, closed=False, reducible=False, prime=True,
                 toroidal=None, rigid=True, incompressible_boundary=True,
                 lens_like=False, s2_orders=None,
                 homology=H1Result.infinite(2),
                 finite_type=FiniteType.NOT_FINITE):
    """C(s, t): the exterior of an (s, t)-curve in a solid torus, t >= 2 strands."""

    def __init__(self, s: int, t: int) -> None:
        if t < 2:
            raise IllFormedClaimError(f"C({s},{t}) needs t >= 2")
        if gcd(s, t) != 1:
            raise IllFormedClaimError(f"C({s},{t}) needs gcd(s, t) = 1")
        # s up to sign mod t: a meridional twist of the solid torus takes
        # C(s, t) to C(s + t, t), and the mirror takes it to C(-s, t).
        self.__dict__.update(s=min(s % t, -s % t), t=t)

    sort_key = property(lambda self: ("Cable", (self.s, self.t)))

    def __str__(self) -> str:
        return f"C({self.s},{self.t})"


def _tag_prop(name: str, unknown: bool | None = None) -> property:
    return property(lambda self: _TAG_PROPS.get(self.label, {}).get(name, unknown))


class OpaqueTag(Manifold, rigid=False, incompressible_boundary=False,
                lens_like=False, s2_orders=None, homology=None):
    """A manifold known only through qualitative properties (see _TAG_PROPS)."""

    def __init__(self, label: str) -> None:
        self.__dict__.update(label=label)

    closed = _tag_prop("closed")
    reducible = _tag_prop("reducible")
    toroidal = _tag_prop("toroidal")
    prime = _tag_prop("prime", False)
    finite_type = property(lambda self: FiniteType.NOT_FINITE if self.toroidal
                           else FiniteType.UNKNOWN)
    sort_key = property(lambda self: ("Tag:" + self.label, ()))

    def __str__(self) -> str:
        return f"tag({self.label})"


def _sum_fact(answers, decisive: bool) -> bool | None:
    """A fact of a sum: one summand with the decisive answer settles it,
    and so do all summands agreeing on the other answer."""
    answers = list(answers)
    if any(a is decisive for a in answers):
        return decisive
    if all(a is (not decisive) for a in answers):
        return not decisive
    return None


def flat_summands(parts, sum_type: type, unit_type: type) -> tuple:
    """Summands of a sum of parts, for manifolds and links alike: nested
    sums (sum_type) spliced in, units (unit_type) dropped, sorted by key."""
    flat = []
    for m in parts:
        if isinstance(m, sum_type):
            flat.extend(m.summands)
        elif not isinstance(m, unit_type):
            flat.append(m)
    flat.sort(key=_sort_key)
    return tuple(flat)


class ConnSum(Manifold, reducible=True, prime=False,
              incompressible_boundary=False, lens_like=False, s2_orders=None,
              finite_type=FiniteType.NOT_FINITE):
    """Connected sum, kept flat, S3-free, and sorted so equality is structural."""

    def __init__(self, summands: tuple[Manifold, ...]) -> None:
        summands = flat_summands(summands, ConnSum, S3)
        if len(summands) < 2:
            raise IllFormedClaimError(
                "ConnSum needs >= 2 nontrivial summands; use connected_sum()"
            )
        self.__dict__.update(summands=summands)

    closed = property(
        lambda self: _sum_fact((m.closed for m in self.summands), False))
    toroidal = property(
        lambda self: _sum_fact((m.toroidal for m in self.summands), True))
    rigid = property(lambda self: all(m.rigid for m in self.summands))
    sort_key = property(
        lambda self: ("ConnSum", tuple(m.sort_key for m in self.summands)))

    @property
    def homology(self) -> H1Result | None:
        parts = [m.homology for m in self.summands]
        if any(r is None for r in parts):
            return None
        rank = sum(r.free_rank for r in parts)
        if rank:
            return H1Result.infinite(rank)
        return H1Result.finite(prod(r.order for r in parts))

    def mirror(self) -> Manifold:
        return connected_sum(*(m.mirror() for m in self.summands))

    def __str__(self) -> str:
        return " # ".join(str(m) for m in self.summands)


def connected_sum(*summands: Manifold) -> Manifold:
    """Connected sum with S3 summands absorbed and singletons unwrapped."""
    flat = flat_summands(summands, ConnSum, S3)
    if len(flat) < 2:
        return flat[0] if flat else S3()
    return _normal_form(ConnSum, summands=flat)


class TorusUnion(Manifold, prime=False, toroidal=None, rigid=False,
                 incompressible_boundary=False, lens_like=False,
                 s2_orders=None, homology=None,
                 finite_type=FiniteType.NOT_FINITE,
                 closed=None):  # it may or may not use up all its boundary
    """A union of two or more pieces glued along boundary tori, gluing unspecified."""

    def __init__(self, pieces: tuple[Manifold, ...]) -> None:
        if len(pieces) < 2:
            raise IllFormedClaimError("TorusUnion needs >= 2 pieces")
        self.__dict__.update(pieces=tuple(sorted(pieces, key=_sort_key)))

    @property
    def reducible(self) -> bool | None:
        # Irreducible pieces glued along incompressible tori stay irreducible.
        if all(m.incompressible_boundary for m in self.pieces):
            return False
        return None

    sort_key = property(
        lambda self: ("TorusUnion", tuple(m.sort_key for m in self.pieces)))

    def __str__(self) -> str:
        return f"U[{', '.join(str(m) for m in self.pieces)}]"


def torus_union(*pieces: Manifold) -> TorusUnion:
    return TorusUnion(tuple(pieces))


# ---------------------------------------------------------------------------
# First homology, reducibility, finite-type classification


def h1(m: Manifold) -> H1Result:
    """First homology for every exact shape; raises on partial descriptions."""
    result = m.homology
    if result is None:
        raise IndeterminateError(f"h1 is not determined by {m}")
    return result


def is_reducible(m: Manifold) -> bool:
    """True exactly for connected sums and S1xS2; every other shape is prime."""
    return m.reducible is True


def classify_finite_type(m: Manifold) -> FiniteType:
    """Fundamental-group finiteness type of a manifold description.

    Partial shapes still classify exactly when the orders pin the answer
    down (a spherical triple of orders forces a nonzero Euler number, so
    no framing data is needed); the lens-type tag is the one genuinely
    unknown case.
    """
    if not isinstance(m, Manifold):
        raise TypeError(f"not a manifold: {m!r}")
    return m.finite_type


# ---------------------------------------------------------------------------
# Three-valued comparison


class Comparison(Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    INDETERMINATE = "indeterminate"

    __hash__ = object.__hash__  # as FiniteType's


# Read once: Comparison.EQUAL is a lookup through the enum's metaclass.
_EQUAL, _DISTINCT, _UNSURE = (Comparison.EQUAL, Comparison.DISTINCT,
                              Comparison.INDETERMINATE)


# Facts that are homeomorphism invariants: two descriptions that both
# decide one of them, differently, are distinct.  Homology is not among
# them: a description has one exactly when it is rigid, and the battery
# runs only when one side is not.
_INVARIANT_FACTS = ("closed", "reducible", "toroidal")


def _compare_conn_sums(m1: ConnSum, m2: ConnSum) -> Comparison:
    """Compare sums, one with a partial summand, by uniqueness of prime
    decompositions: the summands must biject.  A partial summand never
    compares EQUAL, so the best a bijection can show is INDETERMINATE."""
    if len(m1.summands) != len(m2.summands):
        return _DISTINCT
    for perm in itertools.permutations(m2.summands):
        if all(manifold_compare(a, b) is not _DISTINCT
               for a, b in zip(m1.summands, perm)):
            return _UNSURE
    return _DISTINCT


def manifold_compare(m1: Manifold, m2: Manifold) -> Comparison:
    """Sound three-valued homeomorphism comparison of two descriptions.

    EQUAL and DISTINCT are only returned when the descriptions prove it;
    partial shapes (orders-only, tags, torus unions) give INDETERMINATE
    whenever the missing data could change the answer.
    """
    if m1.rigid and m2.rigid:
        # A rigid normal form is complete up to mirror image, and a sum is
        # its oriented prime summands up to one global orientation
        # (Kneser-Milnor), so its mirror flips every summand at once.  A
        # normal form that forgets orientation is its own mirror.
        if m2 == m1:
            return _EQUAL
        mirror = m1.mirror()
        return _EQUAL if mirror is not m1 and m2 == mirror else _DISTINCT
    if m1 == m2:
        # Identical partial descriptions may still denote different manifolds.
        return _UNSURE

    # One side (at least) is partial: run the invariant battery.
    for fact in _INVARIANT_FACTS:
        a, b = getattr(m1, fact), getattr(m2, fact)
        if a is not None and b is not None and a != b:
            return _DISTINCT

    sum1, sum2 = isinstance(m1, ConnSum), isinstance(m2, ConnSum)
    if sum1 and sum2:
        return _compare_conn_sums(m1, m2)
    if sum1 or sum2:
        total, single = (m1, m2) if sum1 else (m2, m1)
        # A sum of >= 2 provably prime pieces cannot be a prime manifold.
        if single.prime and all(m.prime for m in total.summands):
            return _DISTINCT
        return _UNSURE
    return _compare_seifert(m1, m2)


def _compare_seifert(m1: Manifold, m2: Manifold) -> Comparison:
    """Two unequal descriptions, neither a sum and one at least partial,
    compared by their Seifert data."""
    orders1, orders2 = m1.s2_orders, m2.s2_orders
    if orders1 is not None and orders2 is not None:
        # Seifert spaces over S^2 with >= 3 fibers have a unique such
        # presentation, so the order multiset is a homeomorphism invariant.
        return _UNSURE if orders1 == orders2 else _DISTINCT
    if (orders1 is None) != (orders2 is None) and (m1.lens_like or m2.lens_like):
        # Lens-like spaces never fiber over S^2 with >= 3 exceptional fibers.
        return _DISTINCT

    if m1.closed is False and m2.closed is False:
        # Sums aside, only the rigid bounded atoms (solid torus, T2xI, ZxS1,
        # cable space) and orders-only pieces over D2/M2 declare closed
        # False, and not both sides are rigid.  Such a piece has a unique
        # Seifert structure, so no other piece or rigid atom equals it.
        return _DISTINCT
    return _UNSURE


def manifold_equal(m1: Manifold, m2: Manifold) -> bool:
    """Two-valued comparison; raises IndeterminateError when undecided."""
    outcome = manifold_compare(m1, m2)
    if outcome is Comparison.INDETERMINATE:
        raise IndeterminateError(f"cannot decide {m1} vs {m2}")
    return outcome is Comparison.EQUAL
