import copy
import pickle
import random
from contextlib import contextmanager
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehncalc import diagrams
from dehncalc.diagrams import (CombinatorialMap, OracleReport,
                               build_standard_diagram, checkerboard,
                               exact_determinant, faces, goeritz_determinant,
                               goeritz_matrix, montesinos_diagram,
                               oracle_cross_check, random_montesinos,
                               spanning_tree_sum, two_bridge_diagram)
from dehncalc.links import (Unknot, link_connected_sum, link_determinant,
                            montesinos, two_bridge)
from dehncalc.manifolds import Lens, connected_sum
from dehncalc.slopes import INFINITY, Slope, from_continued_fraction


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Dense Bareiss fraction-free determinant, the reference for
    ``exact_determinant``."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _dense(rows: list[dict[int, int]]) -> list[list[int]]:
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i][j] = v
    return out


def _reference_checkerboard(m: CombinatorialMap, larger: bool = False):
    """The face-search colouring, the reference for ``checkerboard``.

    Faces come from ``faces``, colours from a search over the faces from
    face 0 (a face it never reaches keeps colour 0), and white is the
    smaller class, ties going to face 0's, or with ``larger`` the other
    class.  Returns the face colours, the white faces and one (wi, wj,
    eta) incidence per crossing, wi and wj indexing the white faces.
    """
    face_list = faces(m)
    face_of = [0] * len(m.pairing)
    for idx, cycle in enumerate(face_list):
        for d in cycle:
            face_of[d] = idx
    colors = [-1] * len(face_list)
    colors[0] = 0
    queue = [0]
    while queue:
        i = queue.pop()
        other = 1 - colors[i]
        for d in face_list[i]:
            j = face_of[m.pairing[d]]
            if colors[j] < 0:
                colors[j] = other
                queue.append(j)
            elif colors[j] != other:
                raise ValueError("diagram faces are not checkerboard colorable")
    colors = [c if c >= 0 else 0 for c in colors]
    white_color = (colors.count(0) > colors.count(1)) ^ larger
    white = [i for i, c in enumerate(colors) if c == white_color]
    white_index = {f: k for k, f in enumerate(white)}
    incidences = []
    for k, over in enumerate(m.crossings):
        east, north, west, south = face_of[4 * k:4 * k + 4]
        assert colors[north] == colors[south] != colors[east] == colors[west]
        sign = 1 if over == 0 else -1
        if colors[east] == white_color:
            incidences.append((white_index[east], white_index[west], sign))
        else:
            incidences.append((white_index[north], white_index[south], -sign))
    return colors, white, incidences


def _reference_goeritz(m: CombinatorialMap, larger: bool = False
                       ) -> list[list[tuple[int, int]]]:
    """The Goeritz matrix as lists of (column, value) pairs, built from the
    reference incidences, the reference for ``goeritz_matrix``."""
    _, white, incidences = _reference_checkerboard(m, larger)
    g: list[dict[int, int]] = [{} for _ in white]
    for wi, wj, eta in incidences:
        if wi != wj:
            ri, rj = g[wi], g[wj]
            ri[wj] = ri.get(wj, 0) - eta
            rj[wi] = rj.get(wi, 0) - eta
            ri[wi] = ri.get(wi, 0) + eta
            rj[wj] = rj.get(wj, 0) + eta
    return [[(j, v) for j, v in row.items() if v] for row in g]


def _color(board, d: int) -> int:
    return board.bits[d >> 2] ^ (d & 1)


def _incidences(m: CombinatorialMap, board) -> list[tuple[int, int, int]]:
    """(wi, wj, eta) per crossing read off the board: the white corner pair
    (NE and SW when the NE corner is white, else NW and SE) and its sign,
    +1 for over = 0 at a NE-white corner, flipped by either change."""
    out = []
    for k, over in enumerate(m.crossings):
        flip = board.bits[k] ^ board.white_color
        out.append((board.face_of[4 * k + flip],
                    board.face_of[4 * k + 2 + flip], 1 - 2 * (over ^ flip)))
    return out


def _kink() -> CombinatorialMap:
    m = CombinatorialMap([0], [1, 0, 3, 2])
    m.validate()
    return m


def test_single_crossing_kink():
    m = _kink()
    assert len(faces(m)) == 3
    assert goeritz_determinant(m) == 1  # Reidemeister-1 unknot


def test_hopf_link_diagram():
    m = two_bridge_diagram(2, 1)
    m.validate()
    assert len(m.crossings) == 2
    assert len(faces(m)) == 4
    assert goeritz_determinant(m) == 2


def test_trefoil_diagram():
    m = two_bridge_diagram(3, 1)
    m.validate()
    assert len(m.crossings) == 3
    assert len(faces(m)) == 5
    board = checkerboard(m)
    classes = {(_color(board, d), board.face_of[d]) for d in range(12)}
    sizes = sorted(sum(c == x for c, _ in classes) for x in (0, 1))
    assert sizes == [2, 3]
    assert len(board.white) == 2
    assert goeritz_determinant(m) == 3


def test_two_bridge_spot_determinants():
    assert goeritz_determinant(two_bridge_diagram(50, 29)) == 50
    assert goeritz_determinant(two_bridge_diagram(99, 98)) == 99
    assert goeritz_determinant(two_bridge_diagram(7, 3)) == 7
    r = from_continued_fraction([3] * 334)
    diagram = two_bridge_diagram(r.p, r.q)
    assert len(diagram.crossings) == 1002
    assert goeritz_determinant(diagram) == r.p
    r = from_continued_fraction([3] * 1334)
    diagram = two_bridge_diagram(r.p, r.q)
    assert len(diagram.crossings) == 4002
    assert goeritz_determinant(diagram) == r.p


def test_ten_thousand_crossing_two_bridge_determinant():
    # A 5,747-bit determinant: the elimination's integers grow to minor
    # size, so any fraction or gcd bookkeeping on them shows here.
    r = from_continued_fraction([3] * 3334)
    diagram = two_bridge_diagram(r.p, r.q)
    assert len(diagram.crossings) == 10002
    assert goeritz_determinant(diagram) == r.p


def test_long_branch_montesinos_determinant():
    # Each branch's outer face meets about a sixth of all white faces, so
    # the minor keeps dense fan rows whose entries fall many steps behind.
    branches = [from_continued_fraction(terms) for terms in
                ([3, 1, 2] * 100, [2, 2] * 150, [1, 3, 2] * 100)]
    link = montesinos(1, [Slope(r.q, r.p) for r in branches])
    diagram = montesinos_diagram(link.e, link.branches)
    assert len(diagram.crossings) == 1801
    assert max(len(row) for row in goeritz_matrix(diagram)) > 150
    assert goeritz_determinant(diagram) == link_determinant(link)


def test_montesinos_diagram_crossing_count_and_determinant():
    branches = (Slope(1, 2), Slope(1, 3), Slope(1, 5))
    m = montesinos_diagram(-1, branches)
    m.validate()
    assert len(m.crossings) == 11  # 2 + 3 + 5 twists plus one e-twist
    assert goeritz_determinant(m) == 1


@pytest.mark.parametrize("e", [-2, 2])
def test_only_a_negative_twist_batch_flips_its_flags(e):
    # |det| cannot see a flip of every flag, since the mirror diagram has
    # the same determinant, so the flags are read directly.  The |e|
    # crossings of the twist batch are built last.
    flags = montesinos_diagram(e, (Slope(1, 2), Slope(2, 3),
                                   Slope(3, 7))).crossings
    assert flags[-abs(e):] == [int(e < 0)] * abs(e)
    assert flags[:-abs(e)] == [0] * (len(flags) - abs(e))


def test_build_standard_diagram_dispatch():
    assert len(build_standard_diagram(two_bridge(5, 2)).crossings) > 0
    with pytest.raises(ValueError):
        build_standard_diagram(Unknot())


@pytest.mark.parametrize("build, message", [
    (lambda: montesinos_diagram(0, (INFINITY,)),
     "unsupported twist sequence ()"),
    (lambda: two_bridge_diagram(3, 3), "need 0 < q < p, got (3, 3)"),
    (lambda: montesinos_diagram(0, ()),
     "montesinos diagram needs at least one branch"),
    # A last term of 1 after others would leave an empty bottom batch.
    (lambda: diagrams._rational_tangle(CombinatorialMap([], []), (2, 1)),
     "unsupported twist sequence (2, 1)"),
], ids=["infinite-branch", "q-not-below-p", "no-branch", "last-term-one"])
def test_builders_reject_what_they_cannot_draw(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_validate_rejects_broken_maps():
    broken = [
        ([0], [1, 0, 3], "3 darts for 1 crossings"),
        ([0], [1, 0, 3, 2, 5, 4, 7, 6], "8 darts for 1 crossings"),
        ([2], [1, 0, 3, 2], "over flags"),
        ([0], [0, 1, 3, 2], "free involution"),  # darts paired with themselves
        ([0], [1, 0, 3, -1], "free involution"),  # a dangling dart
        ([0], [1, 0, 5, 4], "free involution"),  # past the last dart
        ([0], [1, 2, 3, 0], "free involution"),  # not an involution
        ([0, 0], [1, 0, 3, 2, 5, 4, 7, 6], "not connected"),  # two kinks
        ([0], [2, 3, 0, 1], "not a sphere"),  # one face: a torus
    ]
    for crossings, pairing, reason in broken:
        with pytest.raises(ValueError, match=reason):
            CombinatorialMap(crossings, pairing).validate()


def test_checkerboard_rejects_a_one_face_torus_map():
    # NE is joined to SW and NW to SE: one face, which meets itself across
    # every edge, so no colouring exists.  validate() rejects the map on
    # its face count; the colouring must reject it on its own.
    m = CombinatorialMap([0], [2, 3, 0, 1])
    with pytest.raises(ValueError, match="not a sphere"):
        m.validate()
    for colour in (checkerboard, goeritz_determinant, _reference_checkerboard):
        with pytest.raises(ValueError, match="not checkerboard colorable"):
            colour(m)


def test_faces_deterministic():
    m = two_bridge_diagram(17, 5)
    assert faces(m) == faces(m)
    # sphere Euler count, explicitly
    assert len(faces(m)) == len(m.crossings) + 2


def test_checkerboard_structure():
    rng = random.Random(12)
    for _ in range(20):
        p = rng.randint(2, 40)
        q = rng.choice([x for x in range(1, p) if gcd(x, p) == 1])
        m = two_bridge_diagram(p, q)
        board = checkerboard(m)
        assert len(board.bits) == len(m.crossings)
        assert len(board.face_of) == len(m.pairing)
        n_white = len(board.white)
        assert n_white <= len(faces(m)) - n_white
        incidences = _incidences(m, board)
        assert incidences == _reference_checkerboard(m)[2]
        for wi, wj, eta in incidences:
            assert 0 <= wi < n_white and 0 <= wj < n_white
            assert eta in (1, -1)


@st.composite
def _links(draw):
    """A two-bridge link from 2-8 continued-fraction terms in 1..6, or a
    Montesinos link with 3-4 branches of alpha up to 13 and e in -4..4."""
    if draw(st.booleans()):
        r = from_continued_fraction(
            draw(st.lists(st.integers(1, 6), min_size=2, max_size=8)))
        return two_bridge(r.p, r.q)
    branches = []
    for _ in range(draw(st.integers(3, 4))):
        alpha = draw(st.integers(2, 13))
        beta = draw(st.sampled_from(
            [b for b in range(1, alpha) if gcd(b, alpha) == 1]))
        branches.append(Slope(beta, alpha))
    return montesinos(draw(st.integers(-4, 4)), branches)


def _quarter_turn(m: CombinatorialMap, turned: set[int]) -> CombinatorialMap:
    """The same diagram with each crossing in ``turned`` relabelled a
    quarter turn (its old NW dart becomes its NE dart) and its over flag
    flipped, since its overstrand now runs through the other diagonal."""
    def new(d):
        return d - d % 4 + (d - 1) % 4 if d // 4 in turned else d

    pairing = [0] * len(m.pairing)
    for d, e in enumerate(m.pairing):
        pairing[new(d)] = new(e)
    return CombinatorialMap(
        [1 - over if k in turned else over
         for k, over in enumerate(m.crossings)], pairing)


@settings(max_examples=200, deadline=None, database=None)
@given(_links(), st.randoms(use_true_random=False))
def test_diagram_laws(link, rnd):
    """The map laws, read off the dart contract alone: crossing k owns
    darts 4k..4k+3 and rho steps to the next of them."""
    m = build_standard_diagram(link)
    m.validate()
    n = 4 * len(m.crossings)
    assert len(m.pairing) == n

    def rho(d):
        return 4 * (d // 4) + (d + 1) % 4

    cycles = faces(m)
    assert sorted(d for cycle in cycles for d in cycle) == list(range(n))
    for cycle in cycles:
        for i, d in enumerate(cycle):
            assert cycle[(i + 1) % len(cycle)] == rho(m.pairing[d])
    assert len(cycles) == len(m.crossings) + 2

    _assert_checkerboard_laws(m)
    assert goeritz_determinant(m) == link_determinant(link)
    # Turning crossings changes which corner pair is white there, and so
    # the sign rule, but not the link.
    turned = _quarter_turn(
        m, {k for k in range(len(m.crossings)) if rnd.random() < 0.5})
    turned.validate()
    _assert_checkerboard_laws(turned)
    assert goeritz_determinant(turned) == link_determinant(link)


def _assert_checkerboard_laws(m: CombinatorialMap) -> None:
    """The board and the Goeritz matrix against the face-search reference
    and the laws they obey on a sphere diagram."""
    board = checkerboard(m)
    cycles = faces(m)
    n = len(m.pairing)
    # face_of, with the colour, gives the partition into face orbits, and
    # numbers each colour class in order of the faces' lowest darts.
    keys = [(_color(board, cycle[0]), board.face_of[cycle[0]])
            for cycle in cycles]
    for key, cycle in zip(keys, cycles):
        assert {(_color(board, d), board.face_of[d]) for d in cycle} == {key}
    for x in (0, 1):
        assert [i for c, i in keys if c == x] == \
            list(range(sum(c == x for c, _ in keys)))
    assert board.white == [cycle[0] for cycle in cycles
                           if _color(board, cycle[0]) == board.white_color]
    assert 2 * len(board.white) <= len(cycles)
    if 2 * len(board.white) == len(cycles):
        assert board.white_color == _color(board, 0)
    for d in range(n):
        assert _color(board, d) != _color(board, m.pairing[d])
    for k in range(len(m.crossings)):
        corners = [_color(board, d) for d in range(4 * k, 4 * k + 4)]
        assert corners in ([0, 1, 0, 1], [1, 0, 1, 0])

    rows = goeritz_matrix(m)
    assert rows == [dict(row) for row in _reference_goeritz(m)]
    for i, row in enumerate(rows):
        assert all(row.values())
        assert sum(row.values()) == 0
        for j, v in row.items():
            assert rows[j][i] == v


def test_goeritz_matrix_symmetric_zero_row_sums():
    rng = random.Random(99)
    diagrams = []
    for _ in range(15):
        p = rng.randint(3, 60)
        q = rng.choice([x for x in range(1, p) if gcd(x, p) == 1])
        diagrams.append(two_bridge_diagram(p, q))
    etas = set()
    for _ in range(40):
        link = random_montesinos(rng)
        assert -3 <= link.e <= 3
        diagram = montesinos_diagram(link.e, link.branches)
        etas.update(eta for _, _, eta in
                    _incidences(diagram, checkerboard(diagram)))
        diagrams.append(diagram)
    assert etas == {1, -1}
    for diagram in diagrams:
        rows = goeritz_matrix(diagram)
        assert rows == [dict(row) for row in _reference_goeritz(diagram)]
        for row in rows:
            assert all(row.values())
        g = _dense(rows)
        for i, row in enumerate(g):
            assert sum(row) == 0
            for j in range(len(g)):
                assert g[i][j] == g[j][i]


def test_goeritz_deletion_invariance():
    rng = random.Random(7)
    for _ in range(10):
        p = rng.randint(3, 50)
        q = rng.choice([x for x in range(1, p) if gcd(x, p) == 1])
        g = _dense(goeritz_matrix(two_bridge_diagram(p, q)))
        n = len(g)
        dets = set()
        for k in rng.sample(range(n), min(3, n)):
            minor = [[g[i][j] for j in range(n) if j != k]
                     for i in range(n) if i != k]
            dets.add(abs(exact_determinant(minor)))
        assert len(dets) == 1


def test_exact_determinant_small_cases():
    assert exact_determinant([]) == 1
    assert exact_determinant([[7]]) == 7
    assert exact_determinant([[1, 2], [3, 4]]) == -2
    assert exact_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert exact_determinant([[1, 2], [2, 4]]) == 0
    # A row swap, on a copy: the input is left as it was.
    rows = [[0, 1], [1, 0]]
    assert exact_determinant(rows) == -1
    assert rows == [[0, 1], [1, 0]]


@st.composite
def _square_matrices(draw) -> list[list[int]]:
    """n x n matrices, n in 0..8, entries in -4..4, any share of zeros."""
    n = draw(st.integers(0, 8))
    cells = draw(st.lists(st.integers(-4, 4), min_size=n * n,
                          max_size=n * n))
    nonzero = draw(st.integers(0, n * n))
    kept = set(draw(st.permutations(range(n * n)))[:nonzero])
    return [[cells[i * n + j] if i * n + j in kept else 0 for j in range(n)]
            for i in range(n)]


@settings(max_examples=300, deadline=None, database=None)
@given(_square_matrices())
@example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # singular, dependent rows
@example([[0, 0, 0], [1, 2, 3], [4, 0, 1]])  # singular, zero row
@example([[2, 3], [-1, 4]])  # non-symmetric
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # zero diagonal, 3-cycle
@example([[0, 2, -1], [3, 0, 4], [-2, 1, 0]])  # zero diagonal, dense
def test_exact_determinant_matches_bareiss(rows):
    assert exact_determinant(rows) == _bareiss_determinant(rows)


_WEIGHTS = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def _sparse_square_matrices(draw) -> list[list[int]]:
    """n x n matrices, n in 9..24, half of them symmetric, with 5-50% of
    their cells (of the upper triangle, when symmetric) set to a nonzero.
    So many zeros make zero pivots, and so row swaps, common at every
    step, past the sizes of ``_square_matrices``.  Hypothesis draws the
    cells and values itself, so a failure shrinks and replays."""
    n = draw(st.integers(9, 24))
    symmetric = draw(st.booleans())
    cells = [(i, j) for i in range(n) for j in range(i if symmetric else 0, n)]
    count = draw(st.integers(len(cells) // 20, len(cells) // 2))
    kept = draw(st.lists(st.sampled_from(cells), min_size=count,
                         max_size=count, unique=True))
    values = draw(st.lists(_WEIGHTS, min_size=count, max_size=count))
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(kept, values):
        rows[i][j] = v
        if symmetric:
            rows[j][i] = v
    return rows


@settings(max_examples=200, deadline=None, database=None)
@given(_sparse_square_matrices())
def test_exact_determinant_matches_bareiss_on_sparse_matrices(rows):
    assert exact_determinant(rows) == _bareiss_determinant(rows)


def test_exact_determinant_matches_bareiss_on_goeritz_minors():
    rng = random.Random(2024)
    for _ in range(200):
        link = random_montesinos(rng, 11)
        g = _dense(goeritz_matrix(montesinos_diagram(link.e, link.branches)))
        minor = [row[1:] for row in g[1:]]
        assert exact_determinant(minor) == _bareiss_determinant(minor)


def test_hub_deleted_determinant_matches_dense_face_zero_minor():
    rng = random.Random(31)
    diagrams = []
    for _ in range(100):
        link = random_montesinos(rng)
        diagrams.append(montesinos_diagram(link.e, link.branches))
    for _ in range(50):
        r = from_continued_fraction(
            [rng.randint(1, 6) for _ in range(rng.randint(2, 8))])
        diagrams.append(two_bridge_diagram(r.p, r.q))
    for diagram in diagrams:
        g = _dense(goeritz_matrix(diagram))
        minor = [row[1:] for row in g[1:]]
        assert goeritz_determinant(diagram) == \
            abs(_bareiss_determinant(minor))


@st.composite
def _tree_sum_graphs(draw) -> list[dict[int, int]]:
    """Laplacian rows {column: value} of a signed weighted multigraph.

    It starts from a K4, K5 or wheel core, which no leaf, series or
    parallel step reduces, or from one vertex.  Then it hangs leaves,
    splits edges in two, doubles edges and adds edges at random; a split
    or a double may give the new edge the opposite weight, which makes a
    series f of 0 or a parallel t of 0.  Parallel edges add up into one
    entry, kept when it is 0.  A quarter of the graphs get a second
    component, whose first minors are 0.
    """
    core = draw(st.sampled_from(("vertex", "K4", "K5", "wheel")))
    if core == "wheel":
        k = draw(st.integers(3, 6))
        n = k + 1
        pairs = [(0, i) for i in range(1, n)] + \
            [(i, i % k + 1) for i in range(1, n)]
    else:
        n = {"vertex": 1, "K4": 4, "K5": 5}[core]
        pairs = list(combinations(range(n), 2))
    edges = [(i, j, draw(_WEIGHTS)) for i, j in pairs]
    for _ in range(draw(st.integers(0, 12))):
        step = draw(st.sampled_from(("leaf", "split", "double", "edge")))
        w = draw(_WEIGHTS)
        if step == "leaf" or not edges:
            edges.append((draw(st.integers(0, n - 1)), n, w))
            n += 1
        elif step == "split":
            i, j, x = edges.pop(draw(st.integers(0, len(edges) - 1)))
            edges += [(i, n, x), (n, j, draw(st.sampled_from((w, -x))))]
            n += 1
        elif step == "double":
            i, j, x = draw(st.sampled_from(edges))
            edges.append((i, j, draw(st.sampled_from((w, -x)))))
        else:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            edges.append((i, j, w))
    if draw(st.integers(0, 3)) == 0:
        size = draw(st.integers(1, 3))
        edges += [(i, i + 1, draw(_WEIGHTS)) for i in range(n, n + size - 1)]
        n += size
    g: list[dict[int, int]] = [{} for _ in range(n)]
    for i, j, w in edges:
        for a, b in ((i, j), (j, i)):
            g[a][b] = g[a].get(b, 0) - w
            g[a][a] = g[a].get(a, 0) + w
    return g


# A K4 whose core's first row has a 0 on the diagonal: a row swap.
_ROW_SWAP_K4 = [{0: -6, 1: 2, 2: 2, 3: 2}, {0: 2, 1: 0, 2: -1, 3: -1},
                {0: 2, 1: -1, 2: -3, 3: 2}, {0: 2, 1: -1, 2: 2, 3: -3}]
# A K4 with two equal rows: a singular core.
_SINGULAR_K4 = [{0: -6, 1: 2, 2: 2, 3: 2}, {0: 2, 1: -6, 2: 2, 3: 2},
                {0: 2, 1: 2, 2: -2, 3: -2}, {0: 2, 1: 2, 2: -2, 3: -2}]


@settings(max_examples=400, deadline=None, database=None)
@given(_tree_sum_graphs())
# A path of edges 2, 2 beside an edge -1: a parallel t of 0.
@example([{0: 1, 1: -2, 2: 1}, {0: -2, 1: 4, 2: -2}, {0: 1, 1: -2, 2: 1}])
# A K4 with a path of edges 1, -1 beside one of its edges: a series f
# of 0 left in the core.
@example([{0: 4, 1: -1, 2: -1, 3: -1, 4: -1},
          {0: -1, 1: 3, 2: -1, 3: -1},
          {0: -1, 1: -1, 2: 3, 3: -1},
          {0: -1, 1: -1, 2: -1, 3: 2, 4: 1},
          {0: -1, 3: 1, 4: 0}])
# Folds that merge onto an edge that is itself a fold: fd is not 1.
@example([{0: 0, 1: 1, 2: -1}, {0: 1, 1: -1, 3: 1, 4: -1},
          {0: -1, 2: 1, 3: 1, 4: -1}, {1: 1, 2: 1, 3: -2},
          {1: -1, 2: -1, 4: 2}])
@example(_ROW_SWAP_K4)
@example(_SINGULAR_K4)
def test_spanning_tree_sum_matches_bareiss(g):
    """The fold against the dense Bareiss determinant of the first minor
    that deletes row and column 0, sign included."""
    minor = [[row.get(j, 0) for j in range(1, len(g))] for row in g[1:]]
    assert spanning_tree_sum([dict(row) for row in g]) == \
        _bareiss_determinant(minor)


@contextmanager
def _recorded_cores():
    """A list of the rows that each ``exact_determinant`` call in the
    block receives."""
    cores = []

    def record(rows):
        cores.append(rows)
        return exact_determinant(rows)

    with mock.patch.object(diagrams, "exact_determinant", record):
        yield cores


def test_k4_examples_reach_a_core():
    """The two K4 examples of the fold test reach ``exact_determinant``:
    one whose first pivot is 0, and one whose determinant is 0."""
    with _recorded_cores() as cores:
        assert spanning_tree_sum([dict(row) for row in _ROW_SWAP_K4]) == 10
        assert spanning_tree_sum([dict(row) for row in _SINGULAR_K4]) == 0
    swap, singular = cores
    assert len(swap) == len(singular) == 3
    assert swap[0][0] == 0
    assert _bareiss_determinant(singular) == 0


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(_links(), min_size=1, max_size=3))
def test_standard_diagrams_fold_to_an_empty_core(parts):
    """The Tait graphs of standard 2-bridge and Montesinos diagrams are
    series-parallel, so the fold leaves ``exact_determinant`` nothing,
    in every part of a sum too."""
    with _recorded_cores() as cores:
        report = oracle_cross_check(link_connected_sum(*parts))
    assert report.match
    assert cores == [[]] * len(parts)


def _finger(m: CombinatorialMap, a: int, b: int) -> CombinatorialMap:
    """A Reidemeister II move: the edge at dart a pushed over the edge at
    dart b across the face on the right of both (a and b lie in one face
    orbit), which adds two crossings and a bigon face between them.
    Each new crossing has darts E, N, W, S counterclockwise, the old
    edge b running E to W and the finger N to S over it."""
    pairing = [*m.pairing, *[0] * 8]
    p, q = len(m.pairing), len(m.pairing) + 4

    def join(x, y):
        pairing[x], pairing[y] = y, x

    end_a, end_b = m.pairing[a], m.pairing[b]
    join(a, p + 1)
    join(p + 3, q + 3)
    join(q + 1, end_a)
    join(b, q)
    join(q + 2, p)
    join(p + 2, end_b)
    return CombinatorialMap([*m.crossings, 1, 1], pairing)


# The 2-crossing unknot: a circle's arc pushed over another of its arcs.
_RII_UNKNOT = CombinatorialMap([1, 1], [6, 2, 1, 7, 5, 4, 0, 3])


@pytest.mark.parametrize("base, moves, det, core", [
    (_RII_UNKNOT, (), 1, False),
    # The two new crossings join one pair of white faces with opposite
    # signs, and nothing else joins them: goeritz_matrix drops a 0 entry.
    (_RII_UNKNOT, ((1, 4),), 1, False),
    # In the larger class a fold merges two opposite edges: t = 0.
    (_RII_UNKNOT, ((1, 3), (1, 4)), 1, False),
    # In the larger class a bigon's series f is 0 and stays in the core.
    (_RII_UNKNOT, ((1, 4), (1, 6)), 1, True),
    # A trefoil with one bigon, in one of its bigons and in a triangle.
    (two_bridge_diagram(3, 1), ((0, 6),), 3, False),
    (two_bridge_diagram(3, 1), ((1, 9),), 3, False),
    (two_bridge_diagram(3, 1), ((1, 5), (15, 6)), 3, False),
    (two_bridge_diagram(3, 1), ((1, 9), (14, 5)), 3, True),
], ids=["unknot", "unknot-cancel", "unknot-t0", "unknot-core", "trefoil",
        "trefoil-triangle", "trefoil-cancel", "trefoil-core"])
def test_reidemeister_two_bigons(base, moves, det, core):
    """Hand-built bigon maps keep their determinant through the Goeritz
    matrix of either colour class."""
    m = base
    for a, b in moves:
        m = _finger(m, a, b)
    m.validate()
    rows = goeritz_matrix(m)
    assert all(all(row.values()) for row in rows)
    assert rows == [dict(row) for row in _reference_goeritz(m)]
    assert goeritz_determinant(m) == det
    with _recorded_cores() as cores:
        for larger in (False, True):
            g = [dict(row) for row in _reference_goeritz(m, larger)]
            assert abs(spanning_tree_sum(g)) == det
    assert any(cores) == core


def test_reidemeister_two_bigon_cancels_a_goeritz_entry():
    """The map behind "unknot-cancel": its two crossings join one pair of
    white faces with opposite signs, and no other crossing joins them."""
    m = _finger(_RII_UNKNOT, 1, 4)
    totals: dict[tuple[int, int], int] = {}
    for wi, wj, eta in _reference_checkerboard(m)[2]:
        if wi != wj:
            pair = (min(wi, wj), max(wi, wj))
            totals[pair] = totals.get(pair, 0) + eta
    assert 0 in totals.values()


def test_two_bridge_determinant_law():
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert goeritz_determinant(two_bridge_diagram(p, q)) == p


def test_montesinos_determinant_against_formula():
    rng = random.Random(4242)
    for _ in range(60):
        link = random_montesinos(rng)
        diagram = montesinos_diagram(link.e, link.branches)
        assert goeritz_determinant(diagram) == link_determinant(link)


def test_oracle_cross_check():
    rep = oracle_cross_check(two_bridge(2, 1))
    assert rep.match and rep.goeritz == rep.formula == rep.h1_order == 2
    rep = oracle_cross_check(montesinos(-1, [Slope(1, 2), Slope(1, 4),
                                             Slope(1, 4)]))
    assert rep.match and rep.formula == 0 and rep.h1_order is None
    total = oracle_cross_check(link_connected_sum(two_bridge(3, 1),
                                                  two_bridge(5, 2)))
    assert total.match and total.formula == 15
    assert total.crossings == \
        oracle_cross_check(two_bridge(3, 1)).crossings + \
        oracle_cross_check(two_bridge(5, 2)).crossings


def test_oracle_report_is_an_immutable_record():
    rep = OracleReport("b(7/2)", 5, 7, 7, 7, True)
    expected = {"link": "b(7/2)", "crossings": 5, "goeritz": 7, "formula": 7,
                "h1_order": 7, "match": True}
    assert list(vars(rep).items()) == list(expected.items())
    assert list(vars(oracle_cross_check(two_bridge(7, 3))).items()) == \
        list(expected.items())
    assert vars(OracleReport(**expected)) == expected
    for change in (lambda: setattr(rep, "match", False),
                   lambda: setattr(rep, "extra", 1),
                   lambda: delattr(rep, "goeritz")):
        with pytest.raises(AttributeError, match="is immutable"):
            change()
    assert vars(rep) == expected
    for twin in (copy.copy(rep), copy.deepcopy(rep),
                 pickle.loads(pickle.dumps(rep))):
        assert type(twin) is OracleReport
        assert list(vars(twin).items()) == list(expected.items())


@pytest.mark.parametrize("name, fault, expected", [
    # The formula side is |H1| of the cover: an extra L(2,1) summand
    # doubles its order.
    ("double_branched_cover",
     lambda cover: lambda l: connected_sum(cover(l), Lens(2, 1)), (7, 14)),
    ("goeritz_determinant", lambda det: lambda m: det(m) + 1, (8, 7)),
], ids=["cover", "goeritz"])
def test_oracle_fails_on_a_planted_fault(monkeypatch, name, fault, expected):
    monkeypatch.setattr(diagrams, name, fault(getattr(diagrams, name)))
    rep = oracle_cross_check(two_bridge(7, 3))
    assert not rep.match
    assert (rep.goeritz, rep.formula) == expected


def test_random_montesinos_deterministic():
    a = random_montesinos(random.Random(3))
    b = random_montesinos(random.Random(3))
    assert a == b
    assert len(a.branches) == 3
    assert all(2 <= r.q <= 9 for r in a.branches)
