"""Metamorphic laws of manifold_compare.

Sums are drawn as lists of raw summands, so that each move is made on the
data before any normal form is taken: ("L", p, q) is the oriented lens
space L(p, q), ("SFS", e, fibers) the Seifert space over S^2, and
("P", m) a partial description drawn from the shape corpus.

The laws: moves that keep the oriented manifold (permuting summands,
L(p, q) -> L(p, q^-1), the fibre move (alpha, beta) -> (alpha, beta +
alpha) with e - 1) and mirroring the whole sum never give DISTINCT; a
change of |H1| never gives EQUAL; the comparison is symmetric; a sum with
a partial summand is never EQUAL to anything; and mirroring one chiral
SFS summand of a sum with another chiral SFS summand gives DISTINCT.

Lens summands are stored unoriented, so the matching law for a sum with
two chiral lens summands, one of them mirrored, is not checked here: its
verdict waits on oriented lens normal forms (ROADMAP item 2).
"""

from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dehncalc.manifolds import (Comparison, ConnSum, Lens, SfsS2,
                                connected_sum, manifold_compare)
from test_shape_facts import CORPUS

_PARTIALS = [m for m in CORPUS if not m.rigid and not isinstance(m, ConnSum)]


@st.composite
def _lens(draw):
    p = draw(st.integers(2, 30))
    q = draw(st.sampled_from([q for q in range(1, p) if gcd(p, q) == 1]))
    return ("L", p, q)


@st.composite
def _sfs(draw):
    fibers = []
    for _ in range(draw(st.integers(3, 4))):
        a = draw(st.integers(2, 7))
        b = draw(st.sampled_from([b for b in range(1, a) if gcd(a, b) == 1]))
        fibers.append((a, b))
    return ("SFS", draw(st.integers(-3, 3)), tuple(fibers))


_RIGID = st.one_of(_lens(), _sfs())
_PARTIAL = st.sampled_from(_PARTIALS).map(lambda m: ("P", m))


def _sums(partial=st.one_of(st.none(), _PARTIAL)):
    """Raw sums of one to four rigid summands, with at most one partial."""
    return st.tuples(st.lists(_RIGID, min_size=1, max_size=4), partial).map(
        lambda t: t[0] + ([t[1]] if t[1] else []))


def _build(parts):
    return connected_sum(*(
        Lens(s[1], s[2]) if s[0] == "L" else
        SfsS2(s[1], s[2]) if s[0] == "SFS" else s[1] for s in parts))


def _mirror(s):
    """-L(p, q) = L(p, -q) and -SFS(e; b_i/a_i) = SFS(-e; -b_i/a_i); a
    partial description forgets orientation."""
    if s[0] == "L":
        return ("L", s[1], -s[2])
    if s[0] == "SFS":
        return ("SFS", -s[1], tuple((a, -b) for a, b in s[2]))
    return s


def _invert_lens(s):
    return ("L", s[1], pow(s[2], -1, s[1])) if s[0] == "L" else s


def _fibre_move(s, k):
    if s[0] != "SFS":
        return s
    fibers = list(s[2])
    a, b = fibers[k % len(fibers)]
    fibers[k % len(fibers)] = (a, b + a)
    return ("SFS", s[1] - 1, tuple(fibers))


def _both_ways(m1, m2):
    return manifold_compare(m1, m2), manifold_compare(m2, m1)


@settings(max_examples=200, deadline=None, database=None)
@given(_sums(), st.randoms(use_true_random=False), st.integers(0, 3))
def test_moves_that_keep_the_manifold_never_give_distinct(parts, rnd, k):
    m = _build(parts)
    shuffled = list(parts)
    rnd.shuffle(shuffled)
    for moved in (shuffled,
                  [_invert_lens(s) for s in parts],
                  [_fibre_move(s, k) for s in parts],
                  [_mirror(s) for s in parts]):
        assert Comparison.DISTINCT not in _both_ways(m, _build(moved)), moved


@settings(max_examples=200, deadline=None, database=None)
@given(_sums(partial=st.none()), _RIGID, st.integers(0, 3))
def test_a_change_of_h1_never_gives_equal(parts, new, i):
    changed = list(parts)
    changed[i % len(parts)] = new
    m1, m2 = _build(parts), _build(changed)
    assume(m1.homology != m2.homology)
    assert Comparison.EQUAL not in _both_ways(m1, m2)


_MANIFOLDS = st.one_of(st.sampled_from(CORPUS), _sums().map(_build))


@settings(max_examples=200, deadline=None, database=None)
@given(_MANIFOLDS, _MANIFOLDS, _sums())
def test_compare_is_symmetric(a, b, parts):
    mirrored = [_mirror(s) for s in parts]
    for m1, m2 in ((a, b), (a, a), (_build(parts), _build(mirrored))):
        forward, backward = _both_ways(m1, m2)
        assert forward is backward, (str(m1), str(m2))


@settings(max_examples=200, deadline=None, database=None)
@given(_sums(partial=_PARTIAL), _MANIFOLDS)
def test_a_sum_with_a_partial_summand_is_never_equal(parts, other):
    m = _build(parts)
    for m2 in (other, m, _build([_mirror(s) for s in parts])):
        assert Comparison.EQUAL not in _both_ways(m, m2), str(m2)


@settings(max_examples=200, deadline=None, database=None)
@given(_sfs(), _sfs(), st.lists(_lens(), max_size=3))
def test_mirroring_one_of_two_chiral_sfs_summands_gives_distinct(x, y, lenses):
    for s in (x, y):
        assume(_build([s]) != _build([_mirror(s)]))
    m1 = _build([x, y] + lenses)
    m2 = _build([_mirror(x), y] + lenses)
    assert _both_ways(m1, m2) == (Comparison.DISTINCT, Comparison.DISTINCT)
