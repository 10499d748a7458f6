"""Diagram-level determinant oracle, independent of the closed formulas.

Link diagrams are stored as combinatorial maps: each crossing owns four
darts listed counterclockwise starting at the north-east corner, and an
involution pairs darts into edges.  Faces are recovered purely
combinatorially as orbits of rho composed with the pairing, so nothing
here trusts the tangle calculus: the standard diagrams are rebuilt from
continued fractions crossing by crossing, checkerboard colored, and fed
through the Goeritz matrix to an exact integer determinant.

Conventions (pinned by the b(p, q) determinant suite):
  * crossing darts: positions 0..3 are NE, NW, SW, SE;
  * the strand through darts 0 and 2 is the overstrand when over = 0,
    the strand through darts 1 and 3 when over = 1;
  * positive twists use over = 0 for both horizontal (right) and
    vertical (bottom) batches, which yields the alternating 4-plats; a
    negative twist count flips the flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .cover import double_branched_cover
from .links import (ConnSumLink, Link, MontesinosLink, TwoBridge, montesinos,
                    link_determinant)
from .manifolds import h1
from .slopes import Slope, continued_fraction

_OVER_RIGHT = 0
_OVER_BOTTOM = 0


@dataclass(frozen=True)
class Crossing:
    """Four darts counterclockwise from NE, plus which diagonal is on top."""

    darts: tuple[int, int, int, int]
    over: int


@dataclass
class CombinatorialMap:
    crossings: list[Crossing]
    pairing: dict[int, int]

    def darts(self) -> list[int]:
        return [d for c in self.crossings for d in c.darts]

    def validate(self) -> None:
        """Check 4-regularity, the edge involution, connectivity, and the
        sphere Euler count F = V + 2."""
        seen = set()
        for c in self.crossings:
            if len(c.darts) != 4 or c.over not in (0, 1):
                raise ValueError(f"bad crossing {c}")
            for d in c.darts:
                if d in seen:
                    raise ValueError(f"dart {d} appears twice")
                seen.add(d)
        if set(self.pairing) != seen:
            raise ValueError("pairing domain does not match the darts")
        for d, e in self.pairing.items():
            if d == e or self.pairing[e] != d:
                raise ValueError("pairing is not a free involution")
        if self.crossings:
            rho = _rotation(self)
            reached = {self.crossings[0].darts[0]}
            frontier = list(reached)
            while frontier:
                d = frontier.pop()
                for nxt in (rho[d], self.pairing[d]):
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            if reached != seen:
                raise ValueError("diagram is not connected")
        n_faces = len(faces(self))
        if n_faces != len(self.crossings) + 2:
            raise ValueError(
                f"{n_faces} faces for {len(self.crossings)} crossings; "
                "the map is not a sphere diagram"
            )


def _rotation(m: CombinatorialMap) -> dict[int, int]:
    rho = {}
    for c in m.crossings:
        for i, d in enumerate(c.darts):
            rho[d] = c.darts[(i + 1) % 4]
    return rho


def faces(m: CombinatorialMap) -> list[tuple[int, ...]]:
    """Face orbits of the map, each a dart cycle, in deterministic order.

    The corner between consecutive darts (d_i, d_{i+1}) of a crossing
    belongs to the face whose orbit contains d_{i+1}.
    """
    rho = _rotation(m)
    sigma = m.pairing
    out = []
    visited: set[int] = set()
    for start in sorted(rho):
        if start in visited:
            continue
        cycle = []
        d = start
        while d not in visited:
            visited.add(d)
            cycle.append(d)
            d = rho[sigma[d]]
        out.append(tuple(cycle))
    return out


@dataclass
class Checkerboard:
    """Checkerboard data: faces, their 2-coloring, and per-crossing
    (white corner pair, sign) incidences.

    ``white`` holds indices into ``face_list`` of the smaller color
    class (ties broken toward the class of face 0), and ``incidences``
    has one (wi, wj, eta) triple per crossing, wi and wj indexing
    ``white``.
    """

    face_list: list[tuple[int, ...]]
    colors: list[int]
    white: list[int]
    incidences: list[tuple[int, int, int]] = field(default_factory=list)


def checkerboard(m: CombinatorialMap) -> Checkerboard:
    face_list = faces(m)
    face_of = {}
    for idx, cycle in enumerate(face_list):
        for d in cycle:
            face_of[d] = idx

    colors: list[int | None] = [None] * len(face_list)
    colors[0] = 0
    queue = [0]
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(face_list))}
    for d, e in m.pairing.items():
        if d < e:
            adjacency[face_of[d]].add(face_of[e])
            adjacency[face_of[e]].add(face_of[d])
    while queue:
        i = queue.pop()
        for j in adjacency[i]:
            if colors[j] is None:
                colors[j] = 1 - colors[i]  # type: ignore[operator]
                queue.append(j)
            elif colors[j] == colors[i]:
                raise ValueError("diagram faces are not checkerboard colorable")
    final_colors = [c if c is not None else 0 for c in colors]

    by_color = {0: [i for i, c in enumerate(final_colors) if c == 0],
                1: [i for i, c in enumerate(final_colors) if c == 1]}
    white_color = min((len(by_color[c]), c) for c in (0, 1))[1]
    white = by_color[white_color]
    white_index = {f: k for k, f in enumerate(white)}

    board = Checkerboard(face_list, final_colors, white)
    for c in m.crossings:
        east = face_of[c.darts[0]]
        north = face_of[c.darts[1]]
        west = face_of[c.darts[2]]
        south = face_of[c.darts[3]]
        if (final_colors[north] != final_colors[south]
                or final_colors[east] != final_colors[west]
                or final_colors[north] == final_colors[east]):
            raise ValueError("corner colors do not alternate at a crossing")
        over_sign = 1 if c.over == 0 else -1
        if final_colors[east] == white_color:
            pair, pair_sign = (east, west), 1
        else:
            pair, pair_sign = (north, south), -1
        board.incidences.append(
            (white_index[pair[0]], white_index[pair[1]], over_sign * pair_sign)
        )
    return board


SparseRows = list[list[tuple[int, int]]]
"""A square integer matrix as rows of (column, value) pairs, one pair per
nonzero entry."""


def goeritz_matrix(m: CombinatorialMap) -> SparseRows:
    """Full Goeritz matrix on the white faces as sparse rows (the matrix
    is symmetric and its rows sum to zero)."""
    board = checkerboard(m)
    g: list[dict[int, int]] = [{} for _ in board.white]
    for wi, wj, eta in board.incidences:
        if wi != wj:
            ri, rj = g[wi], g[wj]
            ri[wj] = ri.get(wj, 0) - eta
            rj[wi] = rj.get(wi, 0) - eta
            ri[wi] = ri.get(wi, 0) + eta
            rj[wj] = rj.get(wj, 0) + eta
    return [[(j, v) for j, v in row.items() if v] for row in g]


def exact_determinant(rows: SparseRows) -> int:
    """Exact determinant of a square integer matrix by sparse elimination.

    ``rows`` lists each row's nonzeros as (column, value) pairs.  Each row
    is kept as a dict of its nonzeros and an integer scale, with
    stored row = true row * scale, so all arithmetic stays in int.  Rows
    become pivot rows in order of their initial nonzero count; the pivot
    is the diagonal entry when it is nonzero and the smallest remaining
    column otherwise.  Every other row t with entry x in the pivot column
    becomes p * t - x * pivot_row, and is then divided, with its scale, by
    their gcd.  The pivot rows form a triangular matrix, so the
    determinant is sign(pivot permutation) * prod(p) / prod(scale).  That
    quotient is kept as a reduced fraction num / den, so den ends as +-1.
    """
    n = len(rows)
    store = [{j: v for j, v in row if v} for row in rows]
    holders: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(store):
        for j in row:
            holders[j].append(i)
    scale = [1] * n
    done = [False] * n
    pivot_col = [0] * n
    num = den = 1
    for r in sorted(range(n), key=lambda i: len(store[i])):
        pivot_row = store[r]
        if not pivot_row:
            return 0
        c = r if r in pivot_row else min(pivot_row)
        p = pivot_row.pop(c)
        done[r] = True
        pivot_col[r] = c
        num *= p
        den *= scale[r]
        g = gcd(num, den)
        num //= g
        den //= g
        # holders[c] may list a row twice, or a row whose entry cancelled.
        for t in holders[c]:
            target = store[t]
            if done[t] or c not in target:
                continue
            x = target.pop(c)
            target = {j: p * v for j, v in target.items()}
            for j, v in pivot_row.items():
                w = target.get(j)
                if w is None:
                    target[j] = -x * v
                    holders[j].append(t)
                elif w == x * v:
                    del target[j]
                else:
                    target[j] = w - x * v
            s = scale[t] * p
            g = gcd(s, *target.values())
            if g != 1:
                target = {j: v // g for j, v in target.items()}
                s //= g
            store[t] = target
            scale[t] = s
    sign = 1
    seen = [False] * n
    for start in range(n):
        i = start
        while not seen[i]:
            seen[i] = True
            i = pivot_col[i]
            if i != start:
                sign = -sign
    return sign * num // den


def goeritz_determinant(m: CombinatorialMap) -> int:
    """|det| of the Goeritz matrix with one row and column deleted.

    The matrix is symmetric with zero row sums, so every first minor has
    the same |det|.  The deleted face is the one with the most nonzeros
    (the lowest index on ties): that hub row would otherwise take part in
    every elimination step next to it and fill in the most.
    """
    g = goeritz_matrix(m)
    hub = max(range(len(g)), key=lambda i: len(g[i]), default=0)
    minor = [[(j - (j > hub), v) for j, v in row if j != hub]
             for i, row in enumerate(g) if i != hub]
    return abs(exact_determinant(minor))


# ---------------------------------------------------------------------------
# Standard diagrams from continued fractions


class _Builder:
    def __init__(self) -> None:
        self.crossings: list[Crossing] = []
        self.pairing: dict[int, int] = {}
        self._next_dart = 0

    def crossing(self, over: int) -> tuple[int, int, int, int]:
        base = self._next_dart
        self._next_dart += 4
        darts = (base, base + 1, base + 2, base + 3)
        self.crossings.append(Crossing(darts, over))
        return darts

    def join(self, d1: int, d2: int) -> None:
        assert d1 not in self.pairing and d2 not in self.pairing
        self.pairing[d1] = d2
        self.pairing[d2] = d1

    def finish(self) -> CombinatorialMap:
        return CombinatorialMap(self.crossings, self.pairing)


@dataclass
class _Tangle:
    """Dangling boundary darts of a partial tangle."""

    nw: int
    ne: int
    sw: int
    se: int


def _flag(base: int, count: int) -> int:
    return base if count >= 0 else 1 - base


def _add_right(b: _Builder, t: _Tangle, count: int) -> None:
    over = _flag(_OVER_RIGHT, count)
    for _ in range(abs(count)):
        ne, nw, sw, se = b.crossing(over)
        b.join(t.ne, nw)
        b.join(t.se, sw)
        t.ne, t.se = ne, se


def _add_bottom(b: _Builder, t: _Tangle, count: int) -> None:
    over = _flag(_OVER_BOTTOM, count)
    for _ in range(abs(count)):
        ne, nw, sw, se = b.crossing(over)
        b.join(t.sw, nw)
        b.join(t.se, ne)
        t.sw, t.se = sw, se


def _rational_tangle(b: _Builder, terms: tuple[int, ...]) -> _Tangle:
    """Build the rational tangle of the continued fraction [a1, ..., an].

    Twist batches are applied from a_n down to a_1, alternating bottom
    and right steps so that step k is a right batch exactly when k is
    odd; the running tangle fraction picks up each term in continued
    fraction position.  Every term must be >= 1 except a1, which may be
    0 (used for tangles with fraction in (0, 1)).
    """
    n = len(terms)
    if n == 0 or any(a < 1 for a in terms[1:]) or terms[0] < 0 or terms[-1] < 1:
        raise ValueError(f"unsupported twist sequence {terms}")
    # The a_n batch starts from one crossing and twists on the rest.
    right = n % 2 == 1
    ne, nw, sw, se = b.crossing(_OVER_RIGHT if right else _OVER_BOTTOM)
    t = _Tangle(nw=nw, ne=ne, sw=sw, se=se)
    (_add_right if right else _add_bottom)(b, t, terms[-1] - 1)
    for k in range(n - 1, 0, -1):
        if k % 2 == 1:
            _add_right(b, t, terms[k - 1])
        else:
            _add_bottom(b, t, terms[k - 1])
    return t


def two_bridge_diagram(p: int, q: int) -> CombinatorialMap:
    """Standard alternating 4-plat diagram of b(p, q), any coprime 0 < q < p."""
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got ({p}, {q})")
    return montesinos_diagram(0, (Slope(p, q),))


def montesinos_diagram(e: int, branches: tuple[Slope, ...]) -> CombinatorialMap:
    """Numerator closure of the branch tangles side by side plus e twists."""
    b = _Builder()
    t: _Tangle | None = None
    for r in branches:
        branch = _rational_tangle(b, continued_fraction(r))
        if t is None:
            t = branch
        else:
            b.join(t.ne, branch.nw)
            b.join(t.se, branch.sw)
            t.ne, t.se = branch.ne, branch.se
    if t is None:
        raise ValueError("montesinos diagram needs at least one branch")
    _add_right(b, t, e)
    b.join(t.nw, t.ne)
    b.join(t.sw, t.se)
    return b.finish()


def build_standard_diagram(l: Link) -> CombinatorialMap:
    if isinstance(l, TwoBridge):
        return two_bridge_diagram(l.p, l.q)
    if isinstance(l, MontesinosLink):
        return montesinos_diagram(l.e, l.branches)
    raise ValueError(
        f"no standard diagram for {l}; connected sums are handled summand-wise"
    )


# ---------------------------------------------------------------------------
# Cross-checking the two computation routes


@dataclass(frozen=True)
class OracleReport:
    """Determinant of one link computed twice, plus the covering homology."""

    link: str
    crossings: int
    goeritz: int
    formula: int
    h1_order: int | None
    match: bool

    def as_dict(self) -> dict:
        return {"link": self.link, "crossings": self.crossings,
                "goeritz": self.goeritz, "formula": self.formula,
                "h1_order": self.h1_order, "match": self.match}


def _diagram_determinant(l: Link) -> tuple[int, int]:
    """(goeritz determinant, crossing count), multiplicative over sums."""
    if isinstance(l, ConnSumLink):
        det, crossings = 1, 0
        for part in l.parts:
            d, c = _diagram_determinant(part)
            det *= d
            crossings += c
        return det, crossings
    m = build_standard_diagram(l)
    return goeritz_determinant(m), len(m.crossings)


def oracle_cross_check(l: Link) -> OracleReport:
    """Compare the Goeritz determinant of a freshly built diagram with the
    closed formula and with |H1| of the double branched cover."""
    det_formula = link_determinant(l)
    det_goeritz, crossings = _diagram_determinant(l)
    h1_res = h1(double_branched_cover(l))
    match = det_goeritz == det_formula
    if det_formula == 0:
        match = match and not h1_res.is_finite
    else:
        match = match and h1_res.order == det_formula
    return OracleReport(str(l), crossings, det_goeritz, det_formula,
                        h1_res.order, match)


def random_montesinos(rng: random.Random, max_alpha: int = 9) -> MontesinosLink:
    """A seeded random 3-branch Montesinos link with alphas up to max_alpha."""
    branches = []
    for _ in range(3):
        alpha = rng.randint(2, max_alpha)
        beta = rng.choice([b for b in range(1, alpha) if gcd(b, alpha) == 1])
        branches.append(Slope(beta, alpha))
    return montesinos(rng.randint(-3, 3), branches)
