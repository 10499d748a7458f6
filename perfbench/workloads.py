"""Seeded workloads: generated inputs, the timed call, reference checks.

A workload yields rounds of operations.  A round has a fixed shape (the
same strata in the same order for every seed); the seed picks only the
values inside each stratum, so runs with different seeds do the same
amount of work of the same shape.  Runs stop at a round boundary, which
keeps every percentile the harness reports inside one stratum.

Expected values come from the generator's own arithmetic: continued
fractions, the Montesinos determinant formula, the documented family
domains, and Kneser-Milnor on oriented summand lists.  Nothing here
calls dehncalc to compute what dehncalc should answer.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Callable

from dehncalc import cli, manifolds, parsing


@dataclass
class Op:
    """One timed call into dehncalc.

    ``call`` returns (seconds inside dehncalc, output text, raw value);
    ``check`` returns one message per failed unit of work.  ``units`` is
    the number of operations the call performs (links, grid points or
    pairs); ``group`` keys per-layer counts taken around the call in the
    traced run.  ``tolerated`` is the one wrong output text that is the
    documented unsound compare (ROADMAP item 1): it counts as a failed
    operation but does not make the run incorrect.  ``latency_sample`` is
    false for calls left out of the latency percentiles.
    """

    call: Callable[[], tuple[float, str, object]]
    check: Callable[[str, object], list[str]]
    units: int
    sizes: Counter = field(default_factory=Counter)
    group: str = ""
    tolerated: str | None = None
    latency_sample: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float
    trace_rounds: int
    make_round: Callable[[random.Random, Path, int], list[Op]]


def _cli_call(argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
        return elapsed, out.getvalue(), (code, err.getvalue())
    return call


def _exit_problem(value, expected_units: int) -> list[str]:
    code, err = value
    if code != 0:
        return [f"exit {code}: {err.strip()[:200]}"] * expected_units
    return []


# ---------------------------------------------------------------------------
# Continued fractions and link determinants, computed independently


def _cf_value(terms) -> tuple[int, int]:
    """(p, q) with p/q = [a1, ..., an] = a1 + 1/(a2 + ...)."""
    p, q = 1, 0
    for a in reversed(terms):
        p, q = a * p + q, p
    return p, q


def _composition(rng: random.Random, total: int, parts: int,
                 hi: int = 5) -> list[int]:
    """A random split of ``total`` into ``parts`` terms in 1..hi."""
    terms = [1] * parts
    rest = total - parts
    while rest:
        i = rng.randrange(parts)
        if terms[i] < hi:
            terms[i] += 1
            rest -= 1
    return terms


def _twist_terms(rng: random.Random, crossings: int) -> list[int]:
    """Continued-fraction terms summing to ``crossings``, last term >= 2.

    Odd and even positions each carry half the crossings, which pins the
    number of white faces (the Goeritz matrix size) to about
    crossings / 2 for every seed.
    """
    k = max(crossings // 6, (crossings + 9) // 10)
    odd = _composition(rng, crossings // 2, k)
    even = _composition(rng, crossings - crossings // 2, k)
    if even[-1] == 1:
        j = even.index(max(even))
        even[-1], even[j] = even[j], even[-1]
    return [x for pair in zip(odd, even) for x in pair]


def _cf_sum(p: int, q: int) -> int:
    """Sum of the floor continued-fraction terms of p/q (p, q > 0)."""
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


def _two_bridge(rng: random.Random, crossings: int):
    terms = _twist_terms(rng, crossings)
    p, q = _cf_value(terms)
    return f"b({p}/{q})", p, sum(terms), "two_bridge"


def _montesinos(e: int, branches: list[tuple[int, int]]):
    """Expression, determinant and crossings of mont(e; beta_i/alpha_i).

    The determinant is |e * prod(alpha) + sum beta_i * prod_{j != i}
    alpha_j|; the standard diagram has a twist crossing per CF term of
    each alpha_i/beta_i plus |e| more.
    """
    prod = math.prod(alpha for alpha, _ in branches)
    det = abs(e * prod + sum(beta * (prod // alpha) for alpha, beta in branches))
    text = "mont({}; {})".format(
        e, ", ".join(f"{beta}/{alpha}" for alpha, beta in branches))
    crossings = abs(e) + sum(_cf_sum(alpha, beta) for alpha, beta in branches)
    return text, det, crossings, "montesinos"


def _small_branch(rng: random.Random) -> tuple[int, int]:
    alpha = rng.randint(2, 11)
    return alpha, rng.choice([b for b in range(1, alpha) if gcd(b, alpha) == 1])


def _check_oracle_rows(text: str, value, dets: list[int]) -> list[str]:
    problems = _exit_problem(value, len(dets))
    if problems:
        return problems
    report = json.loads(text)
    rows = report["results"]
    if report["status"] != "ok" or len(rows) != len(dets):
        return [f"status {report['status']}, {len(rows)} rows"] * len(dets)
    for row, det in zip(rows, dets):
        if not (row["match"] is True and row["goeritz"] == det
                and row["formula"] == det):
            problems.append(f"{row['link']}: expected determinant {det}, "
                            f"got {row}")
    return problems


def _oracle_op(exprs: list[tuple[str, int, int, str]], argv: list[str],
               bin_width: int) -> Op:
    """``exprs`` holds (text, determinant, crossings, kind) per link."""
    dets = [det for _, det, _, _ in exprs]
    sizes = Counter()
    for _, _, crossings, kind in exprs:
        sizes[f"crossings.{crossings // bin_width * bin_width}"] += 1
        sizes[f"links.{kind}"] += 1
    return Op(_cli_call(argv), lambda text, value: _check_oracle_rows(
        text, value, dets), len(exprs), sizes)


# ---------------------------------------------------------------------------
# oracle-large


_LARGE_CROSSINGS = (310, 150, 390, 230, 430, 190, 350, 270)
_LARGE_BRANCHES = (90, 90, 90)


def _oracle_large_round(rng: random.Random, work: Path, index: int) -> list[Op]:
    ops = []
    for crossings in _LARGE_CROSSINGS:
        expr = _two_bridge(rng, crossings)
        ops.append(_oracle_op([expr], ["oracle", expr[0]], 50))
    expr = _montesinos(rng.randint(-3, 3), [
        _cf_value(_twist_terms(rng, c)) for c in _LARGE_BRANCHES])
    ops.insert(4, _oracle_op([expr], ["oracle", expr[0]], 50))
    return ops


# ---------------------------------------------------------------------------
# oracle-small


_SMALL_CHUNK = 100


def _oracle_small_round(rng: random.Random, work: Path, index: int) -> list[Op]:
    exprs = [_two_bridge(rng, rng.randint(4, 24))
             for _ in range(_SMALL_CHUNK // 2)]
    exprs += [_montesinos(rng.randint(-3, 3),
                          [_small_branch(rng) for _ in range(3)])
              for _ in range(_SMALL_CHUNK // 2)]
    rng.shuffle(exprs)
    path = work / f"oracle-small-{index}.txt"
    path.write_text("".join(f"{text}\n" for text, _, _, _ in exprs),
                    encoding="utf-8")
    return [_oracle_op(exprs, ["oracle", "--batch", str(path)], 5)]


# ---------------------------------------------------------------------------
# sweep


# Documented domains (README / family-list), restated independently.
_DOMAINS = {
    "cyclic": lambda p, q: p >= 2 and q >= 4,
    "ew_prior": lambda p: p >= 2,
    "dihedral": lambda p, q: p >= 3 and q >= 3,
    "dihedral_aux_Np": lambda p: p >= 3,
    "octahedral": lambda p: p >= 3,
    "octahedral_aux_Np": lambda p: p >= 3,
    "icosahedral_lee": lambda p, q: (abs(p) >= 2 and q != 0
                                     and (abs(p), abs(q)) != (2, 1)),
}
# (family, verb, format) in round order; one call per entry.
_SWEEP_CALLS = tuple(
    (family, verb, fmt)
    for family in _DOMAINS
    for verb, fmt in (("family-sweep", "json"), ("family-verify", "tsv"))
) + (("bz_w6", "family-sweep", "json"),
     ("tetrahedral", "family-verify", "tsv"),
     ("icosahedral_second", "family-sweep", "json"))
_GRID_SIDE = 20
_GRID_LINE = 400


def _grid(rng: random.Random, family: str):
    """(argv ranges, expected params texts) for one seeded window."""
    if family not in _DOMAINS:
        return [], [""]
    if family == "icosahedral_lee":
        lows = (rng.randint(-25, 5), rng.randint(-25, 5))
    elif family in ("cyclic", "dihedral"):
        lows = (rng.randint(0, 60), rng.randint(0, 60))
    else:
        lows = (rng.randint(0, 600),)
    width = _GRID_SIDE if len(lows) == 2 else _GRID_LINE
    names = ("p", "q")[:len(lows)]
    args = []
    for name, lo in zip(names, lows):
        args += [f"--{name}", f"{lo}..{lo + width - 1}"]
    combos = itertools.product(*(range(lo, lo + width) for lo in lows))
    expected = [",".join(f"{n}={v}" for n, v in zip(names, combo))
                for combo in combos if _DOMAINS[family](*combo)]
    return args, expected


def _check_sweep_json(text: str, value, expected: list[str]) -> list[str]:
    problems = _exit_problem(value, len(expected))
    if problems:
        return problems
    report = json.loads(text)
    rows = report["results"]
    if report["status"] != "ok" or [r["params"] for r in rows] != expected:
        return [f"status {report['status']}, {len(rows)} points reported, "
                f"{len(expected)} expected"] * len(expected)
    return [f"{r['params']}: {r['status']}" for r in rows
            if r["status"] != "pass" or r["failed"] or r["indeterminate"]]


def _check_verify_tsv(text: str, value, expected: list[str]) -> list[str]:
    problems = _exit_problem(value, len(expected))
    if problems:
        return problems
    lines = text.rstrip("\n").split("\n")
    header = lines[3].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[4:]]
    seen = list(dict.fromkeys(r["params"] for r in rows))
    if lines[2] != "# status\tok" or seen != expected:
        return [f"{lines[2]!r}, {len(seen)} points reported, "
                f"{len(expected)} expected"] * len(expected)
    failed = {r["params"] for r in rows if r["status"] != "pass"}
    return [f"{params}: a check did not pass" for params in sorted(failed)]


def _sweep_round(rng: random.Random, work: Path, index: int) -> list[Op]:
    ops = []
    for family, verb, fmt in _SWEEP_CALLS:
        args, expected = _grid(rng, family)
        checker = _check_sweep_json if fmt == "json" else _check_verify_tsv
        ops.append(Op(
            _cli_call([verb, family, "--format", fmt, *args]),
            lambda text, value, exp=expected, chk=checker: chk(text, value, exp),
            len(expected),
            Counter({f"points.{family}": len(expected), f"calls.{verb}": 1}),
            f"family.{family}",
            # A singleton call is one point at a whole call's fixed cost;
            # the latency percentiles are taken over grid calls only.
            latency_sample=family in _DOMAINS))
    return ops


# ---------------------------------------------------------------------------
# compare-sums: oriented summands and the Kneser-Milnor reference
#
# A summand is ("L", p, q) for the oriented lens space L(p, q), ("SFS", e,
# fibers) for an oriented Seifert space over S^2 with normalized fibers
# (alpha, beta), 0 < beta < alpha, or ("S2", orders) for a Seifert space
# known only by its three exceptional orders (a partial description).


def _text(s) -> str:
    if s[0] == "L":
        return f"L({s[1]},{s[2]})"
    if s[0] == "SFS":
        return "SFS({}; {})".format(
            s[1], ", ".join(f"{b}/{a}" for a, b in s[2]))
    return "S2({})".format(",".join(map(str, s[1])))


def _sfs(e: int, fibers) -> tuple:
    return ("SFS", e, tuple(sorted(fibers)))


def _mirror(s) -> tuple:
    """-L(p, q) = L(p, -q); -SFS(e; b_i/a_i) = SFS(-e - k; (a_i - b_i)/a_i)."""
    if s[0] == "L":
        return ("L", s[1], -s[2] % s[1])
    if s[0] == "SFS":
        return _sfs(-s[1] - len(s[2]), ((a, a - b) for a, b in s[2]))
    return s


def _orders(s) -> tuple[int, ...] | None:
    if s[0] == "SFS":
        return tuple(sorted(a for a, _ in s[2]))
    if s[0] == "S2":
        return s[1]
    return None


def _edge(a, b) -> str:
    """E, D or I: what the two summand descriptions prove (oriented)."""
    if a[0] == "L" or b[0] == "L":
        if a[0] != b[0]:
            return "D"
        p, q, q2 = a[1], a[2], b[2]
        return "E" if p == b[1] and q2 in (q, pow(q, -1, p)) else "D"
    if a[0] == "SFS" and b[0] == "SFS":
        return "E" if a == b else "D"
    return "I" if _orders(a) == _orders(b) else "D"


def _perfect_matching(left, right, allowed: str) -> bool:
    owner: list[int | None] = [None] * len(right)

    def augment(i: int, seen: set[int]) -> bool:
        for j, b in enumerate(right):
            if j not in seen and _edge(left[i], b) in allowed:
                seen.add(j)
                if owner[j] is None or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(left)))


def kneser_milnor(m: list, n: list) -> str:
    """Verdict for two connected sums given as oriented summand lists.

    M and N are homeomorphic (unoriented) iff the oriented prime summands
    of M match those of N or of -N.  EQUAL needs a perfect matching of
    proven-equal summands; DISTINCT needs every perfect matching, under
    both orientations of N, to use a proven-distinct pair.
    """
    if len(m) != len(n):
        return "distinct"
    sides = (n, [_mirror(s) for s in n])
    if any(_perfect_matching(m, side, "E") for side in sides):
        return "equal"
    if not any(_perfect_matching(m, side, "EI") for side in sides):
        return "distinct"
    return "indeterminate"


def _random_lens(rng: random.Random, chiral: bool = False,
                 two_classes: bool = False):
    while True:
        p = rng.randint(3, 40)
        q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
        if chiral and (q * q + 1) % p == 0:
            continue
        if two_classes and p in (3, 4, 6):
            continue
        return ("L", p, q)


def _random_sfs(rng: random.Random):
    fibers = []
    for _ in range(3):
        alpha = rng.randint(2, 6)
        fibers.append((alpha, rng.choice(
            [b for b in range(1, alpha) if gcd(alpha, b) == 1])))
    return _sfs(rng.randint(-3, 2), fibers)


def _random_partial(rng: random.Random):
    # c >= 7 keeps partial orders apart from the SFS orders (alpha <= 6).
    return ("S2", (rng.randint(2, 3), rng.randint(3, 6), rng.randint(7, 19)))


def _random_rigid(rng: random.Random, count: int) -> list:
    # A fixed lens/SFS split per count keeps the cost of a stratum steady
    # across seeds (an SFS compare costs more than a lens compare).
    lenses = (3 * count + 4) // 5
    return ([_random_lens(rng) for _ in range(lenses)]
            + [_random_sfs(rng) for _ in range(count - lenses)])


def _pair_distinct_h1(rng, n):
    changed = _random_lens(rng, two_classes=True)
    m = [changed] + _random_rigid(rng, n - 1)
    p, q = changed[1], changed[2]
    orbit = {q, p - q, pow(q, -1, p), p - pow(q, -1, p)}
    q2 = rng.choice([x for x in range(1, p) if gcd(p, x) == 1 and x not in orbit])
    return m, [("L", p, q2)] + m[1:]


def _pair_equal_mirror(rng, n):
    m = _random_rigid(rng, n)
    return m, [_mirror(s) for s in m]


def _with_partial(rng, n):
    # One partial summand: a second one doubles the cost of the 8-summand
    # pair, which then dominates the round and its run-to-run spread.
    return [_random_partial(rng)] + _random_rigid(rng, n - 1)


def _pair_identical_partial(rng, n):
    m = _with_partial(rng, n)
    return m, list(m)


def _pair_partial_orders(rng, n):
    m = _with_partial(rng, n)
    a, b, c = m[0][1]
    c2 = rng.choice([x for x in range(7, 20) if x != c])
    return m, [("S2", (a, b, c2))] + m[1:]


def _pair_chiral(rng, n):
    m = [_random_lens(rng, chiral=True), _random_lens(rng, chiral=True)]
    m += _random_rigid(rng, n - 2)
    chiral = [i for i, s in enumerate(m)
              if s[0] == "L" and (s[2] * s[2] + 1) % s[1] != 0]
    flip = set(rng.sample(chiral, rng.randint(1, len(chiral) - 1)))
    return m, [_mirror(s) if i in flip else s for i, s in enumerate(m)]


# (class name, generator, true verdict); the generator retries until the
# Kneser-Milnor reference gives that verdict for the drawn summands.
COMPARE_CLASSES = (
    ("distinct_h1", _pair_distinct_h1, "distinct"),
    ("equal_mirror", _pair_equal_mirror, "equal"),
    ("identical_partial", _pair_identical_partial, "indeterminate"),
    ("partial_orders", _pair_partial_orders, "distinct"),
    ("chiral", _pair_chiral, "distinct"),
)
_SUMMAND_COUNTS = range(2, 9)


def _compare_call(a: str, b: str):
    def call():
        start = perf_counter()
        verdict = manifolds.manifold_compare(parsing.parse_manifold_expr(a),
                                             parsing.parse_manifold_expr(b))
        elapsed = perf_counter() - start
        return elapsed, verdict.value, verdict
    return call


def _compare_op(rng: random.Random, cls: str, make, truth: str, n: int) -> Op:
    for _ in range(1000):
        m, other = make(rng, n)
        if kneser_milnor(m, other) == truth:
            break
    else:
        raise RuntimeError(f"no {cls} pair with {n} summands")
    rng.shuffle(other)
    a = " # ".join(_text(s) for s in m)
    b = " # ".join(_text(s) for s in other)

    def check(text: str, value) -> list[str]:
        if text == truth:
            return []
        return [f"{cls}: {a} vs {b}: expected {truth}, got {text}"]

    return Op(_compare_call(a, b), check, 1,
              Counter({f"summands.{n}": 1, f"class.{cls}": 1}),
              f"summands.{n}", tolerated="equal" if cls == "chiral" else None)


def _compare_round(rng: random.Random, work: Path, index: int) -> list[Op]:
    return [_compare_op(rng, cls, make, truth, n)
            for n in _SUMMAND_COUNTS
            for cls, make, truth in COMPARE_CLASSES]


# Tail percentiles are fixed per workload, so that a faster or slower
# program is compared at the same percentile; each is the highest step of
# 50/75/90/95/99 that keeps at least ten samples beyond it at the seed's
# speed in a 20-second run, and sits inside one stratum of the round.
WORKLOADS = {w.name: w for w in (
    Workload("oracle-large", 75.0, 3, _oracle_large_round),
    Workload("oracle-small", 95.0, 100, _oracle_small_round),
    Workload("sweep", 95.0, 10, _sweep_round),
    Workload("compare-sums", 90.0, 1, _compare_round),
)}
