"""Characterization of every shape's verdicts over a fixed corpus.

The corpus holds one or more members of every shape, including sums that
are rigid or partial and torus unions with compressible and
incompressible pieces.  No sum has more than one chiral lens summand, so
no entry depends on how orientations of lens summands are matched.  The
expected values pin h1, the finite type, reducibility, the printed form
and the whole pairwise comparison matrix.
"""

import pytest

from dehncalc.manifolds import (_TAG_PROPS, BASE_D2, BASE_M2, BASE_S2,
                                CableSpace, Comparison, ConnSum,
                                IndeterminateError, Lens, OpaqueTag, S3,
                                S1xS2, SfsOrdersOnly, SfsS2, SolidTorus, T2xI,
                                TAG_LENS_TYPE, TAG_TOROIDAL,
                                TAG_TOROIDAL_IRREDUCIBLE, TorusUnion, ZxS1,
                                classify_finite_type, connected_sum, h1,
                                is_reducible, manifold_compare, sfs_orders,
                                torus_union)

X = SfsS2(-1, ((2, 1), (3, 1), (5, 1)))
Y = SfsS2(0, ((2, 1), (2, 1), (3, 1)))

CORPUS = (
    S3(), S1xS2(), SolidTorus(), T2xI(), ZxS1(),
    Lens(2, 1), Lens(3, 1), Lens(5, 2), Lens(7, 2),
    X, X.mirror(), Y,
    SfsS2(-1, ((3, 1), (3, 1), (3, 1))),
    SfsS2(0, ((2, 1), (2, 1), (2, 1), (2, 1))),
    sfs_orders(BASE_S2, (2, 3, 5)), sfs_orders(BASE_S2, (2, 3, 7)),
    sfs_orders(BASE_S2, (2, 2, 5)), sfs_orders(BASE_S2, (2, 2, 2, 3)),
    sfs_orders(BASE_D2, (2, 3)), sfs_orders(BASE_D2, (2, 5)),
    sfs_orders(BASE_M2, (2,)), sfs_orders(BASE_M2, (3,)),
    CableSpace(1, 2), CableSpace(3, 2), CableSpace(1, 3),
    OpaqueTag(TAG_TOROIDAL_IRREDUCIBLE), OpaqueTag(TAG_TOROIDAL),
    OpaqueTag(TAG_LENS_TYPE),
    torus_union(CableSpace(1, 2), sfs_orders(BASE_D2, (2, 3))),
    torus_union(SolidTorus(), CableSpace(1, 2)),
    torus_union(T2xI(), ZxS1()),
    torus_union(connected_sum(Lens(2, 1), CableSpace(1, 2)),
                sfs_orders(BASE_D2, (2, 3))),
    connected_sum(Lens(2, 1), Lens(3, 1)),
    connected_sum(Lens(2, 1), Lens(3, 1), Lens(5, 2)),
    connected_sum(Lens(3, 1), X),
    connected_sum(Lens(3, 1), X.mirror()),
    connected_sum(X, Y),
    connected_sum(X.mirror(), Y.mirror()),
    connected_sum(S1xS2(), Lens(2, 1)),
    connected_sum(Lens(2, 1), SolidTorus()),
    connected_sum(Lens(2, 1), Lens(2, 1)),
    connected_sum(Lens(2, 1), sfs_orders(BASE_S2, (2, 3, 7))),
    connected_sum(Lens(2, 1), sfs_orders(BASE_S2, (2, 3, 11))),
    connected_sum(Lens(5, 2), OpaqueTag(TAG_LENS_TYPE)),
    connected_sum(Lens(2, 1), sfs_orders(BASE_D2, (2, 3))),
    connected_sum(Lens(2, 1),
                  torus_union(CableSpace(1, 2), sfs_orders(BASE_D2, (2, 3)))),
    connected_sum(Lens(3, 1), OpaqueTag(TAG_TOROIDAL)),
)

# (str, h1 as (order, free rank) or None when indeterminate, finite type,
#  is_reducible), one row per corpus member.
EXPECTED_FACTS = (
    ('S3', (1, 0), 'cyclic', False),
    ('S1xS2', (None, 1), 'not_finite', True),
    ('ST', (None, 1), 'not_finite', False),
    ('T2xI', (None, 2), 'not_finite', False),
    ('ZxS1', (None, 3), 'not_finite', False),
    ('L(2,1)', (2, 0), 'cyclic', False),
    ('L(3,1)', (3, 0), 'cyclic', False),
    ('L(5,2)', (5, 0), 'cyclic', False),
    ('L(7,2)', (7, 0), 'cyclic', False),
    ('SFS(-1; 1/2, 1/3, 1/5)', (1, 0), 'icosahedral', False),
    ('SFS(-2; 1/2, 2/3, 4/5)', (1, 0), 'icosahedral', False),
    ('SFS(0; 1/2, 1/2, 1/3)', (16, 0), 'dihedral', False),
    ('SFS(-1; 1/3, 1/3, 1/3)', (None, 1), 'not_finite', False),
    ('SFS(0; 1/2, 1/2, 1/2, 1/2)', (32, 0), 'not_finite', False),
    ('S2(2,3,5)', None, 'icosahedral', False),
    ('S2(2,3,7)', None, 'not_finite', False),
    ('S2(2,2,5)', None, 'dihedral', False),
    ('S2(2,2,2,3)', None, 'not_finite', False),
    ('D2(2,3)', None, 'not_finite', False),
    ('D2(2,5)', None, 'not_finite', False),
    ('M2(2)', None, 'not_finite', False),
    ('M2(3)', None, 'not_finite', False),
    ('C(1,2)', (None, 2), 'not_finite', False),
    ('C(1,2)', (None, 2), 'not_finite', False),
    ('C(1,3)', (None, 2), 'not_finite', False),
    ('tag(toroidal_irreducible_nonSFS)', None, 'not_finite', False),
    ('tag(toroidal)', None, 'not_finite', False),
    ('tag(lens-type)', None, 'unknown', False),
    ('U[C(1,2), D2(2,3)]', None, 'not_finite', False),
    ('U[C(1,2), ST]', None, 'not_finite', False),
    ('U[T2xI, ZxS1]', None, 'not_finite', False),
    ('U[C(1,2) # L(2,1), D2(2,3)]', None, 'not_finite', False),
    ('L(2,1) # L(3,1)', (6, 0), 'not_finite', True),
    ('L(2,1) # L(3,1) # L(5,2)', (30, 0), 'not_finite', True),
    ('L(3,1) # SFS(-1; 1/2, 1/3, 1/5)', (3, 0), 'not_finite', True),
    ('L(3,1) # SFS(-2; 1/2, 2/3, 4/5)', (3, 0), 'not_finite', True),
    ('SFS(-1; 1/2, 1/3, 1/5) # SFS(0; 1/2, 1/2, 1/3)', (16, 0), 'not_finite', True),
    ('SFS(-3; 1/2, 1/2, 2/3) # SFS(-2; 1/2, 2/3, 4/5)', (16, 0), 'not_finite', True),
    ('L(2,1) # S1xS2', (None, 1), 'not_finite', True),
    ('L(2,1) # ST', (None, 1), 'not_finite', True),
    ('L(2,1) # L(2,1)', (4, 0), 'not_finite', True),
    ('L(2,1) # S2(2,3,7)', None, 'not_finite', True),
    ('L(2,1) # S2(2,3,11)', None, 'not_finite', True),
    ('L(5,2) # tag(lens-type)', None, 'not_finite', True),
    ('L(2,1) # D2(2,3)', None, 'not_finite', True),
    ('L(2,1) # U[C(1,2), D2(2,3)]', None, 'not_finite', True),
    ('L(3,1) # tag(toroidal)', None, 'not_finite', True),
)

# One row per corpus member m1, one character per member m2, giving
# manifold_compare(m1, m2): "=" equal, "x" distinct, "?" indeterminate.
EXPECTED_MATRIX = (
    '=xxxxxxxxxxxxxxxxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  #  0 S3
    'x=xxxxxxxxxxxxxxxxxxxxxxxxx?x?x?xxxxxxxxxxxxx?x',  #  1 S1xS2
    'xx=xxxxxxxxxxxxxxxxxxxxxxxxx????xxxxxxxxxxxxxxx',  #  2 ST
    'xxx=xxxxxxxxxxxxxxxxxxxxxxxx????xxxxxxxxxxxxxxx',  #  3 T2xI
    'xxxx=xxxxxxxxxxxxxxxxxxxxxxx????xxxxxxxxxxxxxxx',  #  4 ZxS1
    'xxxxx=xxxxxxxxxxxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  #  5 L(2,1)
    'xxxxxx=xxxxxxxxxxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  #  6 L(3,1)
    'xxxxxxx=xxxxxxxxxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  #  7 L(5,2)
    'xxxxxxxx=xxxxxxxxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  #  8 L(7,2)
    'xxxxxxxxx==xxx?xxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  #  9 SFS(-1; 1/2, 1/3, 1/5)
    'xxxxxxxxx==xxx?xxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  # 10 SFS(-2; 1/2, 2/3, 4/5)
    'xxxxxxxxxxx=xxxxxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  # 11 SFS(0; 1/2, 1/2, 1/3)
    'xxxxxxxxxxxx=xxxxxxxxxxxx??x????xxxxxxxxxxxxxxx',  # 12 SFS(-1; 1/3, 1/3, 1/3)
    'xxxxxxxxxxxxx=xxxxxxxxxxx??x????xxxxxxxxxxxxxxx',  # 13 SFS(0; 1/2, 1/2, 1/2, 1/2)
    'xxxxxxxxx??xxx?xxxxxxxxxxxx?????xxxxxxxxxxxxxxx',  # 14 S2(2,3,5)
    'xxxxxxxxxxxxxxx?xxxxxxxxx???????xxxxxxxxxxxxxxx',  # 15 S2(2,3,7)
    'xxxxxxxxxxxxxxxx?xxxxxxxxxx?????xxxxxxxxxxxxxxx',  # 16 S2(2,2,5)
    'xxxxxxxxxxxxxxxxx?xxxxxxx???????xxxxxxxxxxxxxxx',  # 17 S2(2,2,2,3)
    'xxxxxxxxxxxxxxxxxx?xxxxxxxxx????xxxxxxxxxxxxxxx',  # 18 D2(2,3)
    'xxxxxxxxxxxxxxxxxxx?xxxxxxxx????xxxxxxxxxxxxxxx',  # 19 D2(2,5)
    'xxxxxxxxxxxxxxxxxxxx?xxxxxxx????xxxxxxxxxxxxxxx',  # 20 M2(2)
    'xxxxxxxxxxxxxxxxxxxxx?xxxxxx????xxxxxxxxxxxxxxx',  # 21 M2(3)
    'xxxxxxxxxxxxxxxxxxxxxx==xxxx????xxxxxxxxxxxxxxx',  # 22 C(1,2)
    'xxxxxxxxxxxxxxxxxxxxxx==xxxx????xxxxxxxxxxxxxxx',  # 23 C(3,2)
    'xxxxxxxxxxxxxxxxxxxxxxxx=xxx????xxxxxxxxxxxxxxx',  # 24 C(1,3)
    'xxxxxxxxxxxx??x?x?xxxxxxx??x????xxxxxxxxxxxxxxx',  # 25 tag(toroidal_irreducible_nonSFS)
    'xxxxxxxxxxxx??x?x?xxxxxxx??x????xxxxxxxxx??xx??',  # 26 tag(toroidal)
    '??xxx???????xx????xxxxxxxxx?????xxxxxxxxxxxxx?x',  # 27 tag(lens-type)
    '?x??????????????????????????????xxxxxxxxxxxxxxx',  # 28 U[C(1,2), D2(2,3)]
    '???????????????????????????????????????????????',  # 29 U[C(1,2), ST]
    '?x??????????????????????????????xxxxxxxxxxxxxxx',  # 30 U[T2xI, ZxS1]
    '???????????????????????????????????????????????',  # 31 U[C(1,2) # L(2,1), D2(2,3)]
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?=xxxxxxxxxxxx?x',  # 32 L(2,1) # L(3,1)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?x=xxxxxxxxxxxxx',  # 33 L(2,1) # L(3,1) # L(5,2)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xx==xxxxxxxxxxx',  # 34 L(3,1) # SFS(-1; 1/2, 1/3, 1/5)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xx==xxxxxxxxxxx',  # 35 L(3,1) # SFS(-2; 1/2, 2/3, 4/5)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xxxx==xxxxxxxxx',  # 36 SFS(-1; 1/2, 1/3, 1/5) # SFS(0; 1/2, 1/2, 1/3)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xxxx==xxxxxxxxx',  # 37 SFS(-3; 1/2, 1/2, 2/3) # SFS(-2; 1/2, 2/3, 4/5)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xxxxxx=xxxxxxxx',  # 38 L(2,1) # S1xS2
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xxxxxxx=xxxxx?x',  # 39 L(2,1) # ST
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xxxxxxxx=xxxx?x',  # 40 L(2,1) # L(2,1)
    'xxxxxxxxxxxxxxxxxxxxxxxxxx?xx?x?xxxxxxxxx?xxx?x',  # 41 L(2,1) # S2(2,3,7)
    'xxxxxxxxxxxxxxxxxxxxxxxxxx?xx?x?xxxxxxxxxx?xx?x',  # 42 L(2,1) # S2(2,3,11)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xxxxxxxxxxx?x?x',  # 43 L(5,2) # tag(lens-type)
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx?x?xxxxxxxxxxxx??x',  # 44 L(2,1) # D2(2,3)
    'x?xxxxxxxxxxxxxxxxxxxxxxxx??x?x??xxxxxx???????x',  # 45 L(2,1) # U[C(1,2), D2(2,3)]
    'xxxxxxxxxxxxxxxxxxxxxxxxxx?xx?x?xxxxxxxxxxxxxx?',  # 46 L(3,1) # tag(toroidal)
)

_SYMBOL = {Comparison.EQUAL: "=", Comparison.DISTINCT: "x",
           Comparison.INDETERMINATE: "?"}


def _h1(m):
    try:
        res = h1(m)
    except IndeterminateError:
        return None
    return (res.order, res.free_rank)


# Member 23, C(3,2), prints as its normal form C(1,2); its id keeps the
# constructed form so that the ids stay unique.
_IDS = [str(m) for m in CORPUS]
_IDS[23] = "C(3,2)"


@pytest.mark.parametrize("m, expected", list(zip(CORPUS, EXPECTED_FACTS)),
                         ids=_IDS)
def test_single_shape_verdicts(m, expected):
    text, homology, finite_type, reducible = expected
    assert str(m) == text
    assert _h1(m) == homology
    assert classify_finite_type(m).value == finite_type
    assert is_reducible(m) is reducible


def test_homology_is_known_exactly_when_rigid():
    # manifold_compare leaves homology out of its invariant battery on
    # the strength of this.
    for m in CORPUS:
        assert m.rigid == (m.homology is not None), str(m)


def test_bounded_shapes_are_rigid_atoms_or_bounded_seifert_pieces():
    # _compare_seifert calls two unequal bounded descriptions, neither a
    # sum and not both rigid, DISTINCT on the strength of this: a new
    # bounded partial shape must fail here rather than read DISTINCT.
    assert not any(props.get("closed") is False
                   for props in _TAG_PROPS.values())
    assert OpaqueTag("foo").closed is None
    assert TorusUnion.closed is None
    bounded = [m for m in CORPUS
               if m.closed is False and not isinstance(m, ConnSum)]
    assert bounded
    for m in bounded:
        assert m.rigid or (isinstance(m, SfsOrdersOnly)
                           and m.base in (BASE_D2, BASE_M2)), str(m)


def test_corpus_tables_cover_the_corpus():
    assert len(EXPECTED_FACTS) == len(CORPUS)
    assert len(EXPECTED_MATRIX) == len(CORPUS)
    assert all(len(row) == len(CORPUS) for row in EXPECTED_MATRIX)


def test_pairwise_comparison_matrix():
    observed = tuple("".join(_SYMBOL[manifold_compare(a, b)] for b in CORPUS)
                     for a in CORPUS)
    for a, want, got in zip(CORPUS, EXPECTED_MATRIX, observed):
        assert got == want, f"row {a}"
