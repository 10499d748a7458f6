import copy
import pickle
import random
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehncalc import manifolds
from dehncalc.links import TwoBridge, two_bridge
from dehncalc.manifolds import (BASE_D2, BASE_M2, BASE_S2, SHAPE_FACTS,
                                CableSpace, Comparison, ConnSum, FiniteType,
                                H1Result, IllFormedClaimError,
                                IndeterminateError, Lens, Manifold,
                                OpaqueTag, S3, S1xS2, SfsOrdersOnly, SfsS2,
                                SolidTorus, T2xI, TAG_LENS_TYPE, TAG_TOROIDAL,
                                TAG_TOROIDAL_IRREDUCIBLE, TorusUnion, ZxS1,
                                classify_finite_type, connected_sum, h1,
                                is_reducible, lens_homeomorphic,
                                lens_parameter_orbit, lens_space,
                                manifold_compare, manifold_equal, sfs_orders,
                                torus_union)
from dehncalc.reports import Status


# ---------------------------------------------------------------------------
# Lens spaces


def test_lens_normalization_spot_values():
    assert Lens(6, 5) == Lens(6, 1)
    assert Lens(50, 29) == Lens(50, 19)
    assert Lens(7, 3) == Lens(7, 2)
    assert Lens(-50, 29) == Lens(50, 19)
    assert Lens(5, 7) == Lens(5, 2)


def test_lens_parameter_orbit():
    assert lens_parameter_orbit(5, 2) == (2, 3)
    assert lens_parameter_orbit(7, 3) == (2, 3, 4, 5)
    assert lens_parameter_orbit(2, 1) == (1,)


def test_lens_parameter_orbit_rejects_bad_parameters():
    with pytest.raises(ValueError, match="orbit needs p >= 2"):
        lens_parameter_orbit(1, 1)
    with pytest.raises(ValueError, match=r"gcd\(6, 4\) != 1"):
        lens_parameter_orbit(6, 10)


def test_lens_laws_exhaustive_small():
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            m = Lens(p, q)
            assert Lens(m.p, m.q) == m  # idempotent
            assert Lens(p, p - q) == m  # mirror
            assert Lens(p, pow(q, -1, p)) == m  # inverse
            assert 0 < m.q < p or (p == 2 and m.q == 1)


def test_lens_space_degenerate_factory():
    assert lens_space(0, 1) == S1xS2()
    assert lens_space(1, 0) == S3()
    assert lens_space(-1, 3) == S3()
    assert lens_space(4, 1) == Lens(4, 1)
    with pytest.raises(IllFormedClaimError):
        lens_space(4, 2)
    with pytest.raises(IllFormedClaimError):
        Lens(1, 0)


_LENS_INTS = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**60, 10**60))


@settings(max_examples=300, deadline=None, database=None)
@given(_LENS_INTS, _LENS_INTS)
def test_lens_normal_form_is_orbit_minimum(p, q):
    if abs(p) < 2:
        with pytest.raises(IllFormedClaimError) as err:
            Lens(p, q)
        assert str(err.value) == \
            f"L({p},{q}) is degenerate; use lens_space() for |p| <= 1"
    elif gcd(p, q) == 1:
        least = lens_parameter_orbit(abs(p), q)[0]
        assert (Lens(p, q).p, Lens(p, q).q) == (abs(p), least)
        assert (TwoBridge(p, q).p, TwoBridge(p, q).q) == (abs(p), least)
        assert lens_space(p, q) == Lens(p, q)
    if gcd(p, q) != 1:
        builders = [(lens_space, "L"), (two_bridge, "b")]
        if abs(p) >= 2:
            builders += [(Lens, "L"), (TwoBridge, "b")]
        for build, name in builders:
            with pytest.raises(IllFormedClaimError) as err:
                build(p, q)
            assert str(err.value) == f"{name}({p},{q}) needs gcd(p, q) = 1"


def test_lens_homeomorphic():
    assert lens_homeomorphic(Lens(6, 5), Lens(6, 1))
    assert lens_homeomorphic(Lens(7, 2), Lens(7, 3))
    assert not lens_homeomorphic(Lens(7, 1), Lens(7, 2))
    assert not lens_homeomorphic(Lens(5, 1), Lens(7, 1))
    assert lens_homeomorphic(S3(), S3())
    assert not lens_homeomorphic(S3(), S1xS2())
    with pytest.raises(ValueError):
        lens_homeomorphic(Lens(5, 1), sfs_orders(BASE_S2, (2, 3, 5)))


# ---------------------------------------------------------------------------
# Seifert spaces


def test_sfs_s2_normalization():
    m = SfsS2(0, ((2, 3), (3, 1), (5, 1)))  # 3/2 = 1 + 1/2
    assert m.e == 1
    assert m.fibers == ((2, 1), (3, 1), (5, 1))
    n = SfsS2(-2, ((5, -1), (3, 2), (2, 1)))  # -1/5 = -1 + 4/5
    assert n.e == -3
    assert n.fibers == ((2, 1), (3, 2), (5, 4))
    with pytest.raises(IllFormedClaimError):
        SfsS2(0, ((2, 1), (3, 1)))


def test_sfs_s2_fiber_rewrites_and_rejections():
    # A negative alpha flips both signs, and an alpha of 1 folds into e.
    m = SfsS2(0, ((-2, 1), (3, 1), (5, 2), (1, 4)))  # 1/-2 = -1 + 1/2
    assert (m.e, m.fibers) == (3, ((2, 1), (3, 1), (5, 2)))
    assert m == SfsS2(3, ((5, 2), (2, 1), (3, 1)))
    with pytest.raises(IllFormedClaimError, match="alpha = 0"):
        SfsS2(0, ((2, 1), (0, 1), (3, 1), (5, 1)))
    with pytest.raises(IllFormedClaimError, match=r"fiber \(4,2\) needs gcd = 1"):
        SfsS2(0, ((2, 1), (3, 1), (4, 6)))


def test_sfs_s2_toroidal():
    # e0 = 0 over a hyperbolic triple: H2 x R, atoroidal.
    assert not SfsS2(-1, ((5, 1), (5, 1), (5, 3))).toroidal
    # e0 = 0 over each Euclidean triple: a torus bundle.
    for fibers in (((3, 1), (3, 1), (3, 1)), ((2, 1), (4, 1), (4, 1)),
                   ((2, 1), (3, 1), (6, 1))):
        assert SfsS2(-1, fibers).toroidal
    # e0 != 0 over a Euclidean triple: Nil geometry, atoroidal.
    assert not SfsS2(-2, ((3, 1), (3, 1), (3, 1))).toroidal
    assert SfsS2(0, ((2, 1), (3, 1), (5, 1), (7, 1))).toroidal


def test_sfs_mirror_involution():
    rng = random.Random(33)
    for _ in range(100):
        fibers = []
        for _ in range(rng.randint(3, 5)):
            a = rng.randint(2, 9)
            b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
            fibers.append((a, b))
        m = SfsS2(rng.randint(-4, 4), tuple(fibers))
        assert m.mirror().mirror() == m
        assert h1(m.mirror()).order == h1(m).order


def test_sfs_mirror_spot_value():
    m = SfsS2(-1, ((2, 1), (3, 1), (5, 1)))
    assert m.mirror() == SfsS2(-2, ((2, 1), (3, 2), (5, 4)))


def test_sfs_orders_only_validation():
    assert SfsOrdersOnly(BASE_S2, (2, 3, 5)).orders == (2, 3, 5)
    assert SfsOrdersOnly(BASE_S2, (5, 2, 3)).orders == (2, 3, 5)
    with pytest.raises(IllFormedClaimError):
        SfsOrdersOnly(BASE_S2, (2, 3))
    with pytest.raises(IllFormedClaimError):
        SfsOrdersOnly(BASE_D2, (2,))
    with pytest.raises(IllFormedClaimError):
        SfsOrdersOnly("RP2", (2, 3, 5))
    with pytest.raises(IllFormedClaimError):
        SfsOrdersOnly(BASE_S2, (2, 3, 0))


def test_sfs_orders_factory_degenerate_rewrites():
    assert sfs_orders(BASE_S2, (2, 3)) == OpaqueTag(TAG_LENS_TYPE)
    assert sfs_orders(BASE_S2, ()) == OpaqueTag(TAG_LENS_TYPE)
    assert sfs_orders(BASE_D2, (5,)) == SolidTorus()
    assert sfs_orders(BASE_D2, ()) == SolidTorus()
    assert sfs_orders(BASE_D2, (2, 1, 3)) == SfsOrdersOnly(BASE_D2, (2, 3))
    assert sfs_orders(BASE_M2, ()) == SfsOrdersOnly(BASE_D2, (2, 2))
    assert sfs_orders(BASE_S2, (-2, 3, -5)) == SfsOrdersOnly(BASE_S2, (2, 3, 5))
    with pytest.raises(IllFormedClaimError):
        sfs_orders(BASE_S2, (2, 0, 5))
    with pytest.raises(IllFormedClaimError, match="^unknown base 'RP2'$"):
        sfs_orders("RP2", (2, 3, 5))


# ---------------------------------------------------------------------------
# Connected sums and torus unions


def test_connected_sum_normalization():
    a, b = Lens(2, 1), Lens(3, 1)
    assert connected_sum(a, b) == connected_sum(b, a)
    assert connected_sum(a, S3()) == a
    assert connected_sum(S3(), S3()) == S3()
    nested = connected_sum(connected_sum(a, b), a)
    assert isinstance(nested, ConnSum)
    assert nested.summands == (a, a, b)
    with pytest.raises(IllFormedClaimError):
        ConnSum((a,))


def test_conn_sum_built_directly_is_normalised():
    a, b, c = Lens(2, 1), Lens(3, 1), Lens(5, 2)
    m = ConnSum((c, S3(), ConnSum((b, a)), S3()))
    assert m.summands == (a, b, c)
    assert m == connected_sum(a, b, c)
    assert str(m) == "L(2,1) # L(3,1) # L(5,2)"
    with pytest.raises(IllFormedClaimError, match="ConnSum needs >= 2"):
        ConnSum((S3(), a, S3()))


def test_torus_union_sorted_equality():
    d1 = sfs_orders(BASE_D2, (2, 3))
    d2 = sfs_orders(BASE_D2, (2, 5))
    assert torus_union(d1, d2) == torus_union(d2, d1)
    with pytest.raises(IllFormedClaimError):
        TorusUnion((d1,))


def test_cable_space_validation():
    c = CableSpace(1, 2)
    assert c.s == 1 and c.t == 2
    with pytest.raises(IllFormedClaimError):
        CableSpace(1, 1)
    with pytest.raises(IllFormedClaimError):
        CableSpace(2, 4)


def test_cable_space_normal_form():
    # A meridional twist takes C(s, t) to C(s + t, t); the mirror to C(-s, t).
    for a, b in (((1, 2), (3, 2)), ((1, 2), (-1, 2)), ((1, 3), (2, 3))):
        assert manifold_compare(CableSpace(*a), CableSpace(*b)) is \
            Comparison.EQUAL
    assert manifold_compare(CableSpace(1, 5), CableSpace(2, 5)) is \
        Comparison.DISTINCT
    assert str(CableSpace(3, 2)) == "C(1,2)"


# ---------------------------------------------------------------------------
# First homology


def test_h1_base_cases():
    assert h1(S3()) == H1Result(1, 0)
    assert h1(Lens(50, 19)) == H1Result(50, 0)
    assert h1(S1xS2()) == H1Result(None, 1)
    assert h1(SolidTorus()) == H1Result(None, 1)
    assert h1(T2xI()) == H1Result(None, 2)
    assert h1(CableSpace(1, 2)) == H1Result(None, 2)
    assert h1(ZxS1()).free_rank >= 1


def test_h1_seifert_formula():
    # |e| * product(alpha) + sum of beta * partial products, by hand:
    poincare = SfsS2(-1, ((2, 1), (3, 1), (5, 1)))
    assert h1(poincare) == H1Result(1, 0)  # |-30 + 15 + 10 + 6| = 1
    m = SfsS2(-1, ((2, 1), (3, 1), (7, 1)))
    assert h1(m) == H1Result(1, 0)  # |-42 + 21 + 14 + 6| = 1
    m = SfsS2(0, ((2, 1), (2, 1), (3, 1)))
    assert h1(m) == H1Result(16, 0)  # |0 + 6 + 6 + 4| = 16
    euclidean = SfsS2(-1, ((2, 1), (4, 1), (4, 1)))
    assert h1(euclidean) == H1Result(None, 1)  # |-32 + 16 + 8 + 8| = 0


def _sfs_h1_by_partial_products(e: int, fibers) -> H1Result:
    """The reference: one product of the other orders per fiber, quadratic
    in the number of fibers."""
    total = e * prod(alpha for alpha, _ in fibers)
    for i, (_, beta) in enumerate(fibers):
        total += beta * prod(alpha for j, (alpha, _) in enumerate(fibers)
                             if j != i)
    return H1Result(abs(total), 0) if total else H1Result(None, 1)


_FIBERS = st.lists(st.integers(2, 60).flatmap(lambda alpha: st.tuples(
    st.just(alpha),
    st.integers(1, alpha - 1).filter(lambda beta: gcd(alpha, beta) == 1))),
    min_size=3, max_size=12)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(-10, 10), _FIBERS)
@example(-3, [(2, 1), (3, 1), (6, 1), (6, 5), (3, 2), (2, 1)])
def test_h1_seifert_matches_partial_products(e, fibers):
    m = SfsS2(e, tuple(fibers))
    assert m.homology == _sfs_h1_by_partial_products(m.e, m.fibers)


def test_h1_connected_sum_multiplicative():
    rng = random.Random(2718)
    pieces = [Lens(p, q) for p in range(2, 12)
              for q in range(1, p) if gcd(p, q) == 1]
    for _ in range(80):
        chosen = rng.sample(pieces, rng.randint(2, 4))
        total = h1(connected_sum(*chosen))
        prod = 1
        for m in chosen:
            prod *= h1(m).order
        assert total == H1Result(prod, 0)
    with_free = connected_sum(Lens(3, 1), S1xS2(), S1xS2())
    assert h1(with_free) == H1Result(None, 2)


def test_h1_indeterminate_cases():
    with pytest.raises(IndeterminateError):
        h1(SfsOrdersOnly(BASE_S2, (2, 3, 5)))
    with pytest.raises(IndeterminateError):
        h1(OpaqueTag(TAG_LENS_TYPE))


# ---------------------------------------------------------------------------
# Reducibility


def test_is_reducible():
    assert is_reducible(connected_sum(Lens(2, 1), Lens(3, 1)))
    assert is_reducible(S1xS2())
    assert not is_reducible(S3())
    assert not is_reducible(Lens(5, 2))
    assert not is_reducible(SfsS2(-1, ((2, 1), (3, 1), (5, 1))))
    assert not is_reducible(SolidTorus())


# ---------------------------------------------------------------------------
# Finite-type classifier


_SPHERICAL = {(2, 3, 3): FiniteType.TETRAHEDRAL,
              (2, 3, 4): FiniteType.OCTAHEDRAL,
              (2, 3, 5): FiniteType.ICOSAHEDRAL}


def test_classifier_brute_force_dual_route():
    for a in range(2, 101):
        for b in range(a, 101):
            for c in range(b, 101):
                got = classify_finite_type(SfsOrdersOnly(BASE_S2, (a, b, c)))
                spherical = b * c + a * c + a * b > a * b * c
                assert (got is not FiniteType.NOT_FINITE) == spherical, (a, b, c)
                if (a, b) == (2, 2):
                    assert got is FiniteType.DIHEDRAL
                elif (a, b, c) in _SPHERICAL:
                    assert got is _SPHERICAL[a, b, c]
                else:
                    assert got is FiniteType.NOT_FINITE


def test_classifier_base_cases():
    assert classify_finite_type(S3()) is FiniteType.CYCLIC
    assert classify_finite_type(Lens(50, 19)) is FiniteType.CYCLIC
    assert classify_finite_type(S1xS2()) is FiniteType.NOT_FINITE
    assert classify_finite_type(connected_sum(Lens(2, 1), Lens(3, 1))) is \
        FiniteType.NOT_FINITE
    assert classify_finite_type(SolidTorus()) is FiniteType.NOT_FINITE
    assert classify_finite_type(OpaqueTag(TAG_TOROIDAL)) is FiniteType.NOT_FINITE
    assert classify_finite_type(OpaqueTag(TAG_TOROIDAL_IRREDUCIBLE)) is \
        FiniteType.NOT_FINITE
    assert classify_finite_type(OpaqueTag(TAG_LENS_TYPE)) is FiniteType.UNKNOWN


def test_classifier_exact_seifert():
    assert classify_finite_type(SfsS2(-1, ((2, 1), (3, 1), (5, 1)))) is \
        FiniteType.ICOSAHEDRAL
    assert classify_finite_type(SfsS2(-1, ((2, 1), (3, 1), (7, 1)))) is \
        FiniteType.NOT_FINITE
    four = SfsS2(-1, ((2, 1), (2, 1), (2, 1), (2, 1)))
    assert classify_finite_type(four) is FiniteType.NOT_FINITE


# ---------------------------------------------------------------------------
# Comparison


def test_compare_rigid_classes():
    assert manifold_compare(Lens(7, 1), Lens(7, 1)) is Comparison.EQUAL
    assert manifold_compare(Lens(7, 1), Lens(7, 2)) is Comparison.DISTINCT
    assert manifold_compare(Lens(5, 1), Lens(7, 1)) is Comparison.DISTINCT
    assert manifold_compare(S3(), Lens(2, 1)) is Comparison.DISTINCT
    assert manifold_compare(Lens(6, 5), Lens(6, 1)) is Comparison.EQUAL
    m = SfsS2(-1, ((2, 1), (3, 1), (5, 1)))
    assert manifold_compare(m, m.mirror()) is Comparison.EQUAL
    assert manifold_compare(m, SfsS2(-1, ((2, 1), (3, 1), (7, 1)))) is \
        Comparison.DISTINCT


def test_compare_rigid_self_mirror_compares_once(monkeypatch):
    """A lens space is its own mirror, so a DISTINCT pair needs one
    equality test, not a second one against the same mirror."""
    calls = []
    eq = Lens.__eq__

    def counted(self, other):
        calls.append((str(self), str(other)))
        return eq(self, other)

    monkeypatch.setattr(Lens, "__eq__", counted)
    assert manifold_compare(Lens(7, 1), Lens(7, 2)) is Comparison.DISTINCT
    assert calls == [("L(7,2)", "L(7,1)")]


def test_compare_sums():
    s1 = connected_sum(Lens(2, 1), Lens(3, 1))
    s2 = connected_sum(Lens(3, 1), Lens(2, 1))
    assert manifold_compare(s1, s2) is Comparison.EQUAL
    s3 = connected_sum(Lens(2, 1), Lens(5, 1))
    assert manifold_compare(s1, s3) is Comparison.DISTINCT
    # a sum of two provably prime pieces is never a single lens space
    assert manifold_compare(s1, Lens(6, 1)) is Comparison.DISTINCT
    assert manifold_compare(connected_sum(Lens(2, 1), Lens(2, 1)),
                            Lens(4, 1)) is Comparison.DISTINCT


def test_compare_partial_shapes():
    orders = SfsOrdersOnly(BASE_S2, (2, 3, 7))
    assert manifold_compare(orders, orders) is Comparison.INDETERMINATE
    assert manifold_compare(orders, SfsOrdersOnly(BASE_S2, (2, 3, 5))) is \
        Comparison.DISTINCT  # h1-free spherical vs aspherical split
    assert manifold_compare(OpaqueTag(TAG_LENS_TYPE), Lens(5, 1)) is \
        Comparison.INDETERMINATE
    assert manifold_compare(OpaqueTag(TAG_TOROIDAL_IRREDUCIBLE),
                            SfsOrdersOnly(BASE_S2, (2, 3, 5))) is \
        Comparison.DISTINCT  # toroidal vs spherical orders
    assert manifold_compare(OpaqueTag(TAG_TOROIDAL_IRREDUCIBLE),
                            connected_sum(Lens(2, 1), Lens(3, 1))) is \
        Comparison.DISTINCT  # irreducible vs reducible


def test_compare_orders_vs_lens():
    assert manifold_compare(SfsOrdersOnly(BASE_S2, (2, 2, 13)), Lens(13, 1)) is \
        Comparison.DISTINCT
    assert manifold_compare(SfsOrdersOnly(BASE_S2, (2, 3, 5)), S3()) is \
        Comparison.DISTINCT


def test_manifold_equal():
    assert manifold_equal(Lens(6, 5), Lens(6, 1))
    assert not manifold_equal(Lens(7, 1), Lens(7, 2))
    with pytest.raises(IndeterminateError):
        manifold_equal(OpaqueTag(TAG_LENS_TYPE), Lens(5, 1))


def test_printed_forms():
    assert str(Lens(6, 5)) == "L(6,1)"
    assert str(connected_sum(Lens(3, 1), Lens(2, 1))) == "L(2,1) # L(3,1)"
    assert str(sfs_orders(BASE_S2, (5, 2, 3))) == "S2(2,3,5)"
    assert str(SfsS2(-1, ((2, 1), (3, 1), (5, 1)))) == "SFS(-1; 1/2, 1/3, 1/5)"
    assert str(torus_union(CableSpace(1, 2), sfs_orders(BASE_D2, (2, 3)))) == \
        "U[C(1,2), D2(2,3)]"
    assert str(OpaqueTag(TAG_TOROIDAL)) == "tag(toroidal)"


# ---------------------------------------------------------------------------
# Shape facts


def _shapes(cls=Manifold):
    for sub in cls.__subclasses__():
        if sub.__module__ == manifolds.__name__:
            yield sub
            yield from _shapes(sub)


def test_every_shape_declares_every_fact():
    shapes = list(_shapes())
    assert len(shapes) == 12
    for shape in shapes:
        assert [f for f in SHAPE_FACTS if f not in vars(shape)] == [], shape


def test_shape_missing_a_fact_is_rejected():
    with pytest.raises(TypeError, match="undeclared facts"):
        class Half(Manifold, closed=True):
            pass


@pytest.mark.parametrize("verdicts", [FiniteType, Comparison, Status])
def test_verdict_members_hash_by_identity(verdicts):
    # Hashed in C by identity, not through Enum's Python-level __hash__;
    # members must still work as dict keys, compare by identity and
    # come back as themselves from a pickle or a copy.
    words = {member: member.value for member in verdicts}
    for member in verdicts:
        assert hash(member) == object.__hash__(member)
        assert verdicts(member.value) is verdicts[member.name] is member
        for twin in (pickle.loads(pickle.dumps(member)), copy.copy(member),
                     copy.deepcopy(member)):
            assert twin is member
            assert words[twin] == member.value
        assert [m for m in verdicts if m == member] == [member]
