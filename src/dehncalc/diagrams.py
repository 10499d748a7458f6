"""Diagram-level determinant oracle, independent of the closed formulas.

Link diagrams are stored as combinatorial maps on flat dart arrays.
Crossing k owns darts 4k..4k+3, listed counterclockwise from the
north-east corner (NE, NW, SW, SE), so the rotation rho that steps to the
next dart of the same crossing is arithmetic: rho(d) = d - d % 4 +
(d + 1) % 4.  An involution ``pairing`` joins darts into edges.  Faces
are recovered purely combinatorially as orbits of rho composed with the
pairing, so nothing here trusts the tangle calculus: the standard
diagrams are rebuilt from continued fractions crossing by crossing and
checkerboard colored.  The white-face (Tait) graph is read straight off
the colouring, and its spanning-tree sum, which is every first minor of
the Goeritz matrix (its Laplacian), is folded over leaves, series and
parallel edges in exact integers; only what does not fold reaches a
dense Bareiss elimination.

Conventions (pinned by the b(p, q) determinant suite):
  * the strand through NE and SW (darts 4k and 4k+2) is the overstrand
    when over = 0, the strand through NW and SE when over = 1;
  * every crossing has over = 0, which yields the alternating 4-plats,
    except the |e| twist crossings of a Montesinos link with e < 0,
    where over = 1.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from math import gcd, prod

from .cover import double_branched_cover
from .links import ConnSumLink, Link, MontesinosLink, TwoBridge, montesinos
from .manifolds import h1
from .slopes import Slope, continued_fraction
from .value import Value


class CombinatorialMap(Value):
    """A link diagram: ``crossings[k]`` is the over flag of crossing k,
    which owns darts 4k..4k+3, and ``pairing[d]`` is the dart joined to
    dart d.  The builders below make ``pairing`` an ``array('i')``, 4
    bytes a dart; any sequence of ints will do."""

    def __init__(self, crossings: list[int],
                 pairing: array | list[int]) -> None:
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
    """Walk the face orbits in order of their lowest darts.  A face
    takes its colour from the bit of its first dart's crossing, and
    every next dart of the face, across an edge from the one before, has
    that colour too (the faces at the two ends of an edge differ): that
    sets the bit of each crossing the face reaches and checks any bit
    already set.  A crossing that no face has reached yet when a face
    starts there takes its bit from ``_seed_bit``.  Each colour class
    keeps its faces' lowest darts in an ``array('i')``, 4 bytes a face,
    and only the white one becomes a list."""
    pairing = m.pairing
    n = len(pairing)
    step = _face_steps(pairing)
    # bits[k] stays 2 until a face reaches crossing k.
    bits = bytearray(b"\2") * len(m.crossings)
    face_of = [-1] * n
    starts = (array("i"), array("i"))
    for start in range(n):
        if face_of[start] >= 0:
            continue
        bit = bits[start >> 2]
        if bit == 2:  # dart 0's crossing takes bit 0
            bit = bits[start >> 2] = (
                start and _seed_bit(pairing, bits, start >> 2))
        color = bit ^ (start & 1)
        face_starts = starts[color]
        index = len(face_starts)
        face_starts.append(start)
        d = start
        while face_of[d] < 0:
            face_of[d] = index
            d = step[d]
            # The next dart of the face has its colour.
            want = color ^ (d & 1)
            bit = bits[d >> 2]
            if bit != want:
                if bit != 2:
                    raise ValueError(
                        "diagram faces are not checkerboard colorable")
                bits[d >> 2] = want
    # Dart 0's face has colour bits[0] = 0.
    white_color = 0 if len(starts[0]) <= len(starts[1]) else 1
    return Checkerboard(bits, face_of, white_color,
                        starts[white_color].tolist())


# rho on the lowest byte of a dart in an array('i'): its two low bits,
# the corner, step on by one mod 4 and the other bits stay.
_RHO_LOW_BYTE = bytes(b & 0xFC | (b + 1) & 3 for b in range(256))
_WIDTH = array("i").itemsize
_LOW = 0 if sys.byteorder == "little" else _WIDTH - 1


def _face_steps(pairing: array | list[int]) -> array:
    """rho(pairing[d]) for every dart d, the next dart of d's face, made
    at C speed: the darts' bytes, with each lowest byte translated."""
    raw = bytearray(array("i", pairing))
    raw[_LOW::_WIDTH] = raw[_LOW::_WIDTH].translate(_RHO_LOW_BYTE)
    return array("i", raw)


def _seed_bit(pairing: array | list[int], bits: bytearray, k: int) -> int:
    """The bit of crossing k, which no face has reached: the edge rule,
    bits[e >> 2] = bits[d >> 2] ^ ((d ^ e ^ 1) & 1) for every edge
    (d, e), read along a path to the first coloured crossing that a
    search over the edges from k finds; 0 if it finds none, as for
    crossing 0 or a crossing of a new component.  Standard diagrams,
    walked from their lowest darts, never need one."""
    # relative[j] is bits[j] ^ bits[k], for each crossing j found.
    relative = {k: 0}
    frontier = [k]
    while frontier:
        j = frontier.pop()
        for d in range(4 * j, 4 * j + 4):
            e = pairing[d]
            rel = relative[j] ^ ((d ^ e ^ 1) & 1)
            if bits[e >> 2] != 2:
                return bits[e >> 2] ^ rel
            if e >> 2 not in relative:
                relative[e >> 2] = rel
                frontier.append(e >> 2)
    return 0


def tait_graph(m: CombinatorialMap) -> list[dict[int, int]]:
    """The white-face (Tait) graph of the checkerboard, as rows {j: w}
    over the white faces: each crossing that joins two white faces adds
    its sign to the weight w of their edge, so parallel edges are summed,
    and an edge whose weights sum to 0 is dropped.  A crossing whose
    white corners lie in one face adds no loop.  The graph is symmetric
    and its Laplacian is the Goeritz matrix."""
    board = checkerboard(m)
    face_of, white_color = board.face_of, board.white_color
    g: list[dict[int, int]] = [{} for _ in board.white]
    # The white corners are NE and SW when the NE corner is white, else
    # NW and SE, where the sign flips.
    for ne, nw, sw, se, over, bit in zip(
            islice(face_of, 0, None, 4), islice(face_of, 1, None, 4),
            islice(face_of, 2, None, 4), islice(face_of, 3, None, 4),
            m.crossings, board.bits):
        if bit == white_color:
            wi, wj, w = ne, sw, 1 - 2 * over
        else:
            wi, wj, w = nw, se, 2 * over - 1
        if wi != wj:
            ri, rj = g[wi], g[wj]
            ri[wj] = ri.get(wj, 0) + w
            rj[wi] = rj.get(wi, 0) + w
    for i, row in enumerate(g):
        if 0 in row.values():
            g[i] = {j: w for j, w in row.items() if w}
    return g


def goeritz_matrix(m: CombinatorialMap) -> list[dict[int, int]]:
    """Full Goeritz matrix on the white faces as rows {column: value} of
    its nonzeros: the Laplacian of ``tait_graph``, so it is symmetric and
    its rows sum to zero."""
    g = []
    for i, row in enumerate(tait_graph(m)):
        degree = sum(row.values())
        row = {j: -w for j, w in row.items()}
        if degree:
            row[i] = degree
        g.append(row)
    return g


def exact_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by dense fraction-free
    (Bareiss 1968) elimination, whose cost grows as the cube of its size.

    ``rows`` is left as it is: the elimination works on a copy.  Step k
    swaps up the first row below with a nonzero in column k when the pivot
    is 0, flipping the sign, and sets each entry below and right of the
    pivot to (a * pivot - left * up) / prev, prev being the pivot before.
    Entries stay minors of the input (Sylvester's identity), so every
    division is exact, and the last pivot is the determinant up to the
    sign."""
    n, a = len(rows), [row[:] for row in rows]
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
    """The sum over spanning trees T of the product of their edge
    weights, for the graph whose rows ``g[i]`` are {j: w}, an edge of
    weight w between i and j, stored in both rows (no loops); by
    Kirchhoff, any first minor of its Laplacian.  ``g`` is consumed.

    Each edge carries an integer pair (t, f), the conductance t / f,
    which starts as (w, 1), and the sum is kept as factor * S, S being
    the sum over spanning trees T of prod(t, e in T) * prod(f, e not in
    T).  Vertices of degree at most 2 fold away:
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

    An edge is stored as its weight w itself until a fold replaces it by
    its pair, which saves building a pair for every edge.
    """
    factor, left = 1, len(g)
    work = [*range(left)]
    while left > 1 and work:
        v = work.pop()
        nbrs = g[v]
        if nbrs is None or len(nbrs) > 2:
            continue
        if len(nbrs) == 2:
            (a, ta), (b, tb) = nbrs.items()
            fa = fb = 1
            if type(ta) is tuple:
                ta, fa = ta
            if type(tb) is tuple:
                tb, fb = tb
            f = ta * fb + fa * tb
            if not f:
                continue
            t = ta * tb
            ra, rb = g[a], g[b]
            del ra[v], rb[v]
            d = ra.get(b)
            if d is not None:
                if type(d) is tuple:
                    td, fd = d
                    t, f = t * fd + f * td, f * fd
                else:
                    t += f * d
            ra[b] = rb[a] = (t, f)
            if len(ra) <= 2:
                work.append(a)
            if len(rb) <= 2:
                work.append(b)
        elif nbrs:
            (u, e), = nbrs.items()
            factor *= e[0] if type(e) is tuple else e
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
            pairs = [(j, e if type(e) is tuple else (e, 1))
                     for j, e in g[i].items()]
            edges_f *= prod(f for j, (_, f) in pairs if j > i)
            scale = prod(f for _, (_, f) in pairs)
            if i == root:
                root_scale = scale
                continue
            row = [0] * len(index)
            row[index[i]] = sum(t * scale // f for _, (t, f) in pairs)
            for j, (t, f) in pairs:
                if j != root:
                    row[index[j]] = -t * scale // f
            rows.append(row)
    return factor * exact_determinant(rows) * root_scale // edges_f


def goeritz_determinant(m: CombinatorialMap) -> int:
    """|det| of the Goeritz matrix with one row and column deleted.

    The matrix is the Laplacian of the white-face (Tait) graph, so every
    first minor has the same |det|: the sum over its spanning trees,
    which ``spanning_tree_sum`` folds in exact integers straight from
    ``tait_graph``.
    """
    return abs(spanning_tree_sum(tait_graph(m)))


# ---------------------------------------------------------------------------
# Standard diagrams from continued fractions


def _twist_terms(terms: tuple[int, ...]) -> tuple[int, ...]:
    """The continued fraction [a1, ..., an] of a branch, if the builder
    can draw it: every term must be >= 1 except a1, which may be 0 (a
    tangle with fraction in (0, 1)), and with two or more terms the last
    must be >= 2, as in every canonical continued fraction."""
    n = len(terms)
    if (n == 0 or any(a < 1 for a in terms[1:]) or terms[0] < 0
            or terms[-1] < 1 + (n > 1)):
        raise ValueError(f"unsupported twist sequence {terms}")
    return terms


def two_bridge_diagram(p: int, q: int) -> CombinatorialMap:
    """Standard alternating 4-plat diagram of b(p, q), any coprime 0 < q < p."""
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got ({p}, {q})")
    return montesinos_diagram(0, (Slope(p, q),))


def montesinos_diagram(e: int, branches: tuple[Slope, ...]) -> CombinatorialMap:
    """Numerator closure of the branch tangles side by side plus e twists.

    The crossings are counted first, the sum of every branch's twist
    terms plus |e|, and then added one at a time by two step rules on
    the dangling darts:
      * a right step joins the new crossing's NW and SW darts to the
        east darts (ne, se) and exposes its NE and SE darts as new ones;
      * a bottom step joins its NE and NW darts to the south darts
        (se, sw) and exposes its SW and SE darts.
    A branch's tangle starts from one crossing, its four darts dangling,
    and adds its terms a_n down to a_1, a_i by right steps when i is
    odd and by bottom steps when i is even, the first crossing counting
    toward a_n; its running fraction picks up each term in continued
    fraction position.  The |e| twists continue the last branch's a_1
    right steps, with flag 1 exactly when e < 0.  Last, each branch's
    west darts (nw, sw) join the east darts of the branch before it, and
    the first branch's those of the last, which closes the diagram.
    """
    if not branches:
        raise ValueError("montesinos diagram needs at least one branch")
    tangles = [_twist_terms(continued_fraction(r)) for r in branches]
    twists = abs(e)
    a1, *rest = tangles[-1]
    tangles[-1] = (a1 + twists, *rest)
    n = sum(map(sum, tangles))
    crossings = [0] * n
    crossings[n - twists:] = [int(e < 0)] * twists
    pairing = array("i", [0]) * (4 * n)
    d, sides = 0, []
    for terms in tangles:
        ne, nw, sw, se = d, d + 1, d + 2, d + 3
        first = d + 4  # the first crossing starts the a_n batch
        for i in range(len(terms) - 1, -1, -1):
            d += 4 * terms[i]
            if i % 2:  # a bottom step at each crossing c
                for c in range(first, d, 4):
                    pairing[se], pairing[c] = c, se
                    pairing[sw], pairing[c + 1] = c + 1, sw
                    sw, se = c + 2, c + 3
            else:  # a right step
                for c in range(first, d, 4):
                    pairing[ne], pairing[c + 1] = c + 1, ne
                    pairing[se], pairing[c + 2] = c + 2, se
                    ne, se = c, c + 3
            first = d
        sides.append((nw, sw, ne, se))
    for (_, _, ne, se), (nw, sw, _, _) in zip(sides, sides[1:] + sides[:1]):
        pairing[ne], pairing[nw] = nw, ne
        pairing[se], pairing[sw] = sw, se
    return CombinatorialMap(crossings, pairing)


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
