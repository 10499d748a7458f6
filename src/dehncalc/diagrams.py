"""Diagram-level determinant oracle, independent of the closed formulas.

Link diagrams are stored as combinatorial maps on flat dart arrays.
Crossing k owns darts 4k..4k+3, listed counterclockwise from the
north-east corner (NE, NW, SW, SE), so the rotation rho that steps to the
next dart of the same crossing is arithmetic: rho(d) = d - d % 4 +
(d + 1) % 4.  An involution ``pairing`` joins darts into edges.  Faces
are recovered purely combinatorially as orbits of rho composed with the
pairing, so nothing here trusts the tangle calculus: the standard
diagrams are rebuilt from continued fractions crossing by crossing and
checkerboard colored.  Their Goeritz matrix is the Laplacian of the
white-face (Tait) graph, so its first minor is a weighted spanning-tree
sum, folded over leaves, series and parallel edges in exact integers;
only what does not fold reaches a dense Bareiss elimination.

Conventions (pinned by the b(p, q) determinant suite):
  * the strand through NE and SW (darts 4k and 4k+2) is the overstrand
    when over = 0, the strand through NW and SE when over = 1;
  * positive twists use over = 0 for both horizontal (right) and
    vertical (bottom) batches, which yields the alternating 4-plats; a
    negative twist count flips the flag.
"""

from __future__ import annotations

from math import gcd, prod

from .cover import double_branched_cover
from .links import ConnSumLink, Link, MontesinosLink, TwoBridge, montesinos
from .manifolds import h1
from .slopes import Slope, continued_fraction
from .value import Value

_OVER_RIGHT = 0
_OVER_BOTTOM = 0


class CombinatorialMap(Value):
    """A link diagram: ``crossings[k]`` is the over flag of crossing k,
    which owns darts 4k..4k+3, and ``pairing[d]`` is the dart joined to
    dart d.  The builders below extend both lists in place."""

    def __init__(self, crossings: list[int], pairing: list[int]) -> None:
        self.__dict__.update(crossings=crossings, pairing=pairing)

    def validate(self) -> None:
        """Check 4-regularity, the edge involution, connectivity, and the
        sphere Euler count F = V + 2."""
        pairing = self.pairing
        n = len(pairing)
        if n != 4 * len(self.crossings):
            raise ValueError(f"{n} darts for {len(self.crossings)} crossings")
        if any(over not in (0, 1) for over in self.crossings):
            raise ValueError("over flags must be 0 or 1")
        for d, e in enumerate(pairing):
            if not 0 <= e < n or e == d or pairing[e] != d:
                raise ValueError("pairing is not a free involution")
        reached = bytearray(n)
        frontier = [0] if n else []
        while frontier:
            d = frontier.pop()
            for nxt in (d - d % 4 + (d + 1) % 4, pairing[d]):
                if not reached[nxt]:
                    reached[nxt] = 1
                    frontier.append(nxt)
        if not all(reached):
            raise ValueError("diagram is not connected")
        n_faces = len(faces(self))
        if n_faces != len(self.crossings) + 2:
            raise ValueError(
                f"{n_faces} faces for {len(self.crossings)} crossings; "
                "the map is not a sphere diagram"
            )


def faces(m: CombinatorialMap) -> list[tuple[int, ...]]:
    """Face orbits of d -> rho(pairing[d]), each a dart cycle starting at
    its lowest dart, in order of that dart.

    The corner between consecutive darts (d_i, d_{i+1}) of a crossing
    belongs to the face whose orbit contains d_{i+1}.
    """
    pairing = m.pairing
    visited = bytearray(len(pairing))
    out = []
    for start in range(len(pairing)):
        if visited[start]:
            continue
        cycle = []
        d = start
        while not visited[d]:
            visited[d] = 1
            cycle.append(d)
            e = pairing[d]
            d = e - e % 4 + (e + 1) % 4
        out.append(tuple(cycle))
    return out


class Checkerboard(Value):
    """A checkerboard colouring, one bit per crossing: the face at dart d
    has colour ``bits[d >> 2] ^ (d & 1)``, so corners alternate at every
    crossing, and index ``face_of[d]`` within its colour class, a class
    numbered in order of lowest darts.  White is the smaller class (ties
    go to the colour of dart 0's face), and ``white[k]`` is the lowest
    dart of white face k."""

    def __init__(self, bits: bytearray, face_of: list[int], white_color: int,
                 white: list[int]) -> None:
        self.__dict__.update(bits=bits, face_of=face_of,
                             white_color=white_color, white=white)


def checkerboard(m: CombinatorialMap) -> Checkerboard:
    pairing = m.pairing
    # bits[k] stays 2 until a face reaches crossing k.
    bits = bytearray(b"\2") * len(m.crossings)
    face_of = [-1] * len(pairing)
    starts: tuple[list[int], list[int]] = ([], [])
    for start in range(len(pairing)):
        if face_of[start] >= 0:
            continue
        if bits[start >> 2] == 2:  # crossing 0, or a new component
            bits[start >> 2] = 0
        color = bits[start >> 2] ^ (start & 1)
        index = len(starts[color])
        starts[color].append(start)
        other = color ^ 1
        d = start
        while face_of[d] < 0:
            face_of[d] = index
            e = pairing[d]
            # The face at e, across the edge (d, e), has the other colour.
            want = other ^ (e & 1)
            bit = bits[e >> 2]
            if bit != want:
                if bit != 2:
                    raise ValueError(
                        "diagram faces are not checkerboard colorable")
                bits[e >> 2] = want
            d = e + 1 if e & 3 != 3 else e - 3  # rho(e)
    # Dart 0's face has colour bits[0] = 0.
    white_color = 0 if len(starts[0]) <= len(starts[1]) else 1
    return Checkerboard(bits, face_of, white_color, starts[white_color])


# A square integer matrix as rows of (column, value) pairs, one per nonzero.
SparseRows = list[list[tuple[int, int]]]


def goeritz_matrix(m: CombinatorialMap) -> list[dict[int, int]]:
    """Full Goeritz matrix on the white faces as rows {column: value} of
    its nonzeros; it is symmetric and its rows sum to zero."""
    board = checkerboard(m)
    face_of, white_color = board.face_of, board.white_color
    g: list[dict[int, int]] = [{} for _ in board.white]
    for d, over, bit in zip(range(0, len(face_of), 4), m.crossings,
                            board.bits):
        # The white corners are NE and SW (darts d, d + 2) when the NE
        # corner is white, else NW and SE, where the sign flips.
        flip = bit ^ white_color
        wi, wj = face_of[d + flip], face_of[d + 2 + flip]
        if wi != wj:
            x = 2 * (over ^ flip) - 1  # -eta, the off-diagonal entry
            ri, rj = g[wi], g[wj]
            ri[wj] = ri.get(wj, 0) + x
            rj[wi] = rj.get(wi, 0) + x
    # Rows sum to zero, which fixes the diagonal.
    for i, row in enumerate(g):
        if 0 in row.values():
            row = g[i] = {j: v for j, v in row.items() if v}
        diagonal = sum(row.values())
        if diagonal:
            row[i] = -diagonal
    return g


def exact_determinant(rows: SparseRows) -> int:
    """Exact determinant of a square integer matrix by dense fraction-free
    (Bareiss 1968) elimination, whose cost grows as the cube of its size.

    ``rows`` lists each row's entries as (column, value) pairs; a column
    left out is 0.  Step k swaps up the first row below with a nonzero in
    column k when the pivot is 0, flipping the sign, and sets each entry
    below and right of the pivot to (a * pivot - left * up) / prev, prev
    being the pivot before.  Entries stay minors of the input (Sylvester's
    identity), so every division is exact, and the last pivot is the
    determinant up to the sign."""
    n = len(rows)
    a = [[0] * n for _ in rows]
    for dense, row in zip(a, rows):
        for j, v in row:
            dense[j] = v
    sign = prev = 1
    for k in range(n):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        pivot, up = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            left = row[k]
            row[k + 1:] = [(v * pivot - left * u) // prev
                           for v, u in zip(row[k + 1:], up)]
        prev = pivot
    return sign * prev


def spanning_tree_sum(g: list[dict[int, int]]) -> int:
    """The first minor of a symmetric matrix with zero row sums, given as
    rows {column: value}; ``g`` is consumed.

    Such a matrix is the Laplacian of the graph on its rows with an edge
    of weight -g[i][j] between i and j, so every first minor is the sum
    over spanning trees T of the product of their weights (Kirchhoff).
    Each edge carries an integer pair (t, f), the conductance t / f,
    which starts as (-g[i][j], 1), and the sum is kept as factor * S,
    S being the sum over spanning trees T of prod(t, e in T) *
    prod(f, e not in T).  Vertices of degree at most 2 fold away:
      * a leaf's edge is in every tree, so the factor takes its t;
      * a vertex on edges (ta, fa) and (tb, fb) becomes one edge
        (ta * tb, ta * fb + fa * tb) between its neighbours, which merges
        with an edge (td, fd) already there as (t * fd + f * td, f * fd);
      * a vertex left with no edge while others remain means no tree,
        so 0.
    A series step whose f would be 0 is skipped.  What is left when more
    than one vertex is, a core of vertices of degree 3 or more and of
    skipped series steps (standard 2-bridge and Montesinos diagrams leave
    none), goes to ``exact_determinant``: its Laplacian in conductances,
    each row scaled to integers by the product of its edges' f, with the
    row and column of the vertex with the most edges deleted.  S is that
    determinant times the deleted row's scale over the product of every
    core edge's f, an exact division.

    An edge is stored as the entry g[i][j] itself until a fold replaces
    it by its pair, which saves building a pair for every entry.
    """
    for i, row in enumerate(g):
        row.pop(i, None)
    factor, left = 1, len(g)
    work = [*range(left)]
    while left > 1 and work:
        v = work.pop()
        nbrs = g[v]
        if nbrs is None or len(nbrs) > 2:
            continue
        if len(nbrs) == 2:
            (a, ea), (b, eb) = nbrs.items()
            ta, fa = ea if type(ea) is tuple else (-ea, 1)
            tb, fb = eb if type(eb) is tuple else (-eb, 1)
            f = ta * fb + fa * tb
            if not f:
                continue
            t = ta * tb
            ra, rb = g[a], g[b]
            del ra[v], rb[v]
            d = ra.get(b)
            if d is not None:
                td, fd = d if type(d) is tuple else (-d, 1)
                t, f = t * fd + f * td, f * fd
            ra[b] = rb[a] = (t, f)
            if len(ra) <= 2:
                work.append(a)
            if len(rb) <= 2:
                work.append(b)
        elif nbrs:
            (u, e), = nbrs.items()
            factor *= e[0] if type(e) is tuple else -e
            ru = g[u]
            del ru[v]
            if len(ru) <= 2:
                work.append(u)
        else:
            return 0
        g[v] = None
        left -= 1
    rows = []
    root_scale = edges_f = 1
    if left > 1:
        core = [i for i, nbrs in enumerate(g) if nbrs is not None]
        root = max(core, key=lambda i: len(g[i]))
        index = {i: k for k, i in enumerate(i for i in core if i != root)}
        for i in core:
            pairs = [(j, e if type(e) is tuple else (-e, 1))
                     for j, e in g[i].items()]
            edges_f *= prod(f for j, (_, f) in pairs if j > i)
            scale = prod(f for _, (_, f) in pairs)
            if i == root:
                root_scale = scale
                continue
            row = [(index[i], sum(t * scale // f for _, (t, f) in pairs))]
            row += [(index[j], -t * scale // f)
                    for j, (t, f) in pairs if j != root]
            rows.append(row)
    return factor * exact_determinant(rows) * root_scale // edges_f


def goeritz_determinant(m: CombinatorialMap) -> int:
    """|det| of the Goeritz matrix with one row and column deleted.

    The matrix is symmetric with zero row sums, so every first minor has
    the same |det|: a sum over spanning trees of the white-face (Tait)
    graph, which ``spanning_tree_sum`` folds in exact integers.
    """
    return abs(spanning_tree_sum(goeritz_matrix(m)))


# ---------------------------------------------------------------------------
# Standard diagrams from continued fractions


def _join(m: CombinatorialMap, d1: int, d2: int) -> None:
    m.pairing[d1] = d2
    m.pairing[d2] = d1


def _flag(base: int, count: int) -> int:
    return base if count >= 0 else 1 - base


def _add_right(m: CombinatorialMap, ne: int, se: int,
               count: int) -> tuple[int, int]:
    """Twist |count| crossings onto the east side, whose dangling darts are
    ne and se: each crossing's NW and SW darts join the NE and SE darts of
    the one before it.  Returns the new east darts, the last crossing's NE
    and SE entries, which are placeholders until they are joined."""
    n = abs(count)
    if not n:
        return ne, se
    first = len(m.pairing)
    m.crossings.extend([_flag(_OVER_RIGHT, count)] * n)
    for c in range(first, first + 4 * n, 4):
        m.pairing.extend((c + 5, c - 4, c - 1, c + 6))
    _join(m, ne, first + 1)
    _join(m, se, first + 2)
    return len(m.pairing) - 4, len(m.pairing) - 1


def _add_bottom(m: CombinatorialMap, sw: int, se: int,
                count: int) -> tuple[int, int]:
    """Twist |count| crossings onto the south side, whose dangling darts
    are sw and se: each crossing's NE and NW darts join the SE and SW
    darts of the one before it.  Returns the new south darts, the last
    crossing's SW and SE entries, which are placeholders until they are
    joined."""
    n = abs(count)
    if not n:
        return sw, se
    first = len(m.pairing)
    m.crossings.extend([_flag(_OVER_BOTTOM, count)] * n)
    for c in range(first, first + 4 * n, 4):
        m.pairing.extend((c - 1, c - 2, c + 5, c + 4))
    _join(m, se, first)
    _join(m, sw, first + 1)
    return len(m.pairing) - 2, len(m.pairing) - 1


def _rational_tangle(m: CombinatorialMap,
                     terms: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Build the rational tangle of the continued fraction [a1, ..., an]
    and return its dangling boundary darts (nw, ne, sw, se).

    Twist batches are applied from a_n down to a_1, alternating bottom
    and right steps so that step k is a right batch exactly when k is
    odd; the running tangle fraction picks up each term in continued
    fraction position.  Every term must be >= 1 except a1, which may be
    0 (used for tangles with fraction in (0, 1)).
    """
    n = len(terms)
    if n == 0 or any(a < 1 for a in terms[1:]) or terms[0] < 0 or terms[-1] < 1:
        raise ValueError(f"unsupported twist sequence {terms}")
    # The a_n batch starts from one crossing, its four darts dangling, and
    # twists on the rest.
    right = n % 2 == 1
    ne = len(m.pairing)
    nw, sw, se = ne + 1, ne + 2, ne + 3
    m.crossings.append(_OVER_RIGHT if right else _OVER_BOTTOM)
    m.pairing.extend((-1, -1, -1, -1))
    if right:
        ne, se = _add_right(m, ne, se, terms[-1] - 1)
    else:
        sw, se = _add_bottom(m, sw, se, terms[-1] - 1)
    for k in range(n - 1, 0, -1):
        if k % 2 == 1:
            ne, se = _add_right(m, ne, se, terms[k - 1])
        else:
            sw, se = _add_bottom(m, sw, se, terms[k - 1])
    return nw, ne, sw, se


def two_bridge_diagram(p: int, q: int) -> CombinatorialMap:
    """Standard alternating 4-plat diagram of b(p, q), any coprime 0 < q < p."""
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got ({p}, {q})")
    return montesinos_diagram(0, (Slope(p, q),))


def montesinos_diagram(e: int, branches: tuple[Slope, ...]) -> CombinatorialMap:
    """Numerator closure of the branch tangles side by side plus e twists."""
    if not branches:
        raise ValueError("montesinos diagram needs at least one branch")
    m = CombinatorialMap([], [])
    nw, ne, sw, se = _rational_tangle(m, continued_fraction(branches[0]))
    for r in branches[1:]:
        b_nw, b_ne, b_sw, b_se = _rational_tangle(m, continued_fraction(r))
        _join(m, ne, b_nw)
        _join(m, se, b_sw)
        ne, se = b_ne, b_se
    ne, se = _add_right(m, ne, se, e)
    _join(m, nw, ne)
    _join(m, sw, se)
    return m


def build_standard_diagram(l: Link) -> CombinatorialMap:
    if isinstance(l, TwoBridge):
        return two_bridge_diagram(l.p, l.q)
    if isinstance(l, MontesinosLink):
        return montesinos_diagram(l.e, l.branches)
    raise ValueError(
        f"no standard diagram for {l}; the oracle draws 2-bridge and "
        "Montesinos parts only"
    )


# ---------------------------------------------------------------------------
# Cross-checking the two computation routes


class OracleReport(Value):
    """The Goeritz determinant of one link against |H1| of its double
    branched cover; ``formula`` is that order, or 0 when H1 is infinite.
    The fields, in order, are the columns of the oracle verb."""

    def __init__(self, link: str, crossings: int, goeritz: int, formula: int,
                 h1_order: int | None, match: bool) -> None:
        self.__dict__.update(link=link, crossings=crossings, goeritz=goeritz,
                             formula=formula, h1_order=h1_order, match=match)

    def as_dict(self) -> dict:
        return dict(vars(self))


def oracle_cross_check(l: Link) -> OracleReport:
    """Compare the Goeritz determinant of freshly built diagrams with |H1|
    of the double branched cover (Gordon-Litherland 1978).

    Every diagram is built before the cover, so a part without a standard
    diagram fails before a cover of any size is computed."""
    # Link sums are flat, and the determinant is multiplicative over them.
    det_goeritz, crossings = 1, 0
    for part in l.summands if isinstance(l, ConnSumLink) else (l,):
        m = build_standard_diagram(part)
        det_goeritz *= goeritz_determinant(m)
        crossings += len(m.crossings)
    order = h1(double_branched_cover(l)).order
    formula = order or 0
    return OracleReport(str(l), crossings, det_goeritz, formula, order,
                        det_goeritz == formula)


def random_montesinos(rng, max_alpha: int = 9) -> MontesinosLink:
    """A 3-branch Montesinos link drawn by rng, alphas up to max_alpha."""
    branches = []
    for _ in range(3):
        alpha = rng.randint(2, max_alpha)
        beta = rng.choice([b for b in range(1, alpha) if gcd(b, alpha) == 1])
        branches.append(Slope(beta, alpha))
    return montesinos(rng.randint(-3, 3), branches)
