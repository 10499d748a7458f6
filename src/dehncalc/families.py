"""Claim tables for ten twist families of fillings, with verification.

Each family records, per slope, a closed-form description of the filled
manifold, together with a list of machine-checkable claims: the distance
between the designated reducible and finite slopes, reducibility and
finite-type classifications, and provable distinctness of selected
pairs.  Checks never assume what they are supposed to establish; they
run the catalog's classifiers on the built manifolds and report a
three-valued outcome.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .manifolds import (BASE_D2, BASE_S2, CableSpace, FiniteType,
                        Comparison, IllFormedClaimError, Manifold, OpaqueTag,
                        S1xS2, TAG_TOROIDAL, TAG_TOROIDAL_IRREDUCIBLE, ZxS1,
                        classify_finite_type, connected_sum,
                        lens_space, manifold_compare, sfs_orders, torus_union)
from .reports import STATUS_WORDS, Status, combine_status
from .slopes import INFINITY, Slope, distance, format_slope
from .value import Value


class DomainError(ValueError):
    """Parameters are outside the family's domain of validity."""


class Claim(Value):
    """One slope of a family: the filled manifold in closed form."""

    def __init__(self, slope: Slope, formula: str,
                 build: Callable[..., Manifold]) -> None:
        self.__dict__.update(slope=slope, formula=formula, build=build)


class Check(Value):
    """A verifiable assertion about a family's claims.

    Kinds: "wellformed", "distance", "reducible", "finite_type",
    "distinct".  ``when`` restricts a check to part of the domain; a
    check whose predicate rejects the parameters is simply not run.
    """

    def __init__(self, kind: str, slopes: tuple[Slope, ...] = (),
                 expected: object = None,
                 when: Callable[[dict], bool] | None = None) -> None:
        self.__dict__.update(kind=kind, slopes=slopes, expected=expected,
                             when=when)


class Edge(Value):
    """A pointer from one family to a related one (e.g. closed members).

    ``slope_text`` names the filling slope the edge lives at, when there
    is one; it is text because some edges use a symbolic slope ("1/q").
    Slopes named here count as rows of the family's table, so checks may
    refer to them.
    """

    def __init__(self, target: str, note: str,
                 slope_text: str | None = None) -> None:
        self.__dict__.update(target=target, note=note, slope_text=slope_text)


class FamilySpec(Value):
    """A family's claim table, compiled once when it is made.

    A claim whose builder names no parameter (``lambda **_: S1xS2()``, or
    ``lambda: ...`` in a family without parameters) is built here, once,
    unless building it raises; then every point builds it.  Every check
    that reads only claims built here is settled here too, as a distance
    check, which reads none, always is.
    """

    def __init__(self, name: str, description: str,
                 param_names: tuple[str, ...], domain_doc: str,
                 in_domain: Callable[..., bool], claims: tuple[Claim, ...],
                 checks: tuple[Check, ...],
                 designated_pair: tuple[Slope, Slope] | None = None,
                 edges: tuple[Edge, ...] = ()) -> None:
        fields = self.__dict__
        fields.update(name=name, description=description,
                      param_names=param_names, domain_doc=domain_doc,
                      in_domain=in_domain, claims=claims, checks=checks,
                      designated_pair=designated_pair, edges=edges)
        # Not fields: the fillings built once (None where each point builds
        # its own), and the checks compiled into (when, run, args) triples,
        # which are data, so equal tables compile to equal plans; see
        # _compile_check.
        fields["built"] = tuple(map(_built_once, claims))
        fields["plan"] = tuple((check.when, *_compile_check(self, check))
                               for check in checks)

    def claim_at(self, r: Slope) -> Claim:
        for c in self.claims:
            if c.slope == r:
                return c
        slopes = ", ".join(format_slope(c.slope) for c in self.claims)
        raise ValueError(
            f"family {self.name} has no claim at slope {format_slope(r)} "
            f"(claimed slopes: {slopes})"
        )


class CheckResult(Value):
    def __init__(self, kind: str, detail: str, status: Status,
                 observed: str) -> None:
        fields = self.__dict__  # item writes beat __dict__.update
        fields["kind"] = kind
        fields["detail"] = detail
        fields["status"] = status
        fields["observed"] = observed


class VerificationReport(Value):
    def __init__(self, family: str, params: dict, status: Status,
                 checks: tuple[CheckResult, ...]) -> None:
        fields = self.__dict__
        fields["family"] = family
        fields["params"] = params
        fields["status"] = status
        fields["checks"] = checks


class SweepReport(Value):
    def __init__(self, family: str, ranges: dict, points: int, passed: int,
                 failed: int, indeterminate: int,
                 failures: tuple[dict, ...] = ()) -> None:
        self.__dict__.update(family=family, ranges=ranges, points=points,
                             passed=passed, failed=failed,
                             indeterminate=indeterminate, failures=failures)


# A check's answer: True passes, False fails, None (undecided) is indeterminate.
_STATUS = {True: Status.PASS, False: Status.FAIL, None: Status.INDETERMINATE}

# The words of the verdict enums, read per point from plain dicts rather
# than through the enums' Python-level value property.
_FINITE_TYPE_WORDS = {t: t.value for t in FiniteType}
_COMPARISON_WORDS = {c: c.value for c in Comparison}
_UNKNOWN = FiniteType.UNKNOWN
_DISTINCT_ANSWERS = {Comparison.DISTINCT: True, Comparison.EQUAL: False}


def _built_once(claim: Claim) -> Manifold | None:
    """The claim's filling, if its builder names no parameter and builds."""
    code = getattr(claim.build, "__code__", None)
    if code is None or code.co_argcount or code.co_kwonlyargcount:
        return None
    try:
        return claim.build()
    except Exception:  # raised again, and reported, at every point
        return None


def _wellformed(fill, args):
    slots, ok = args
    try:
        for i in slots:
            fill(i)
    except IllFormedClaimError as exc:
        return CheckResult("wellformed", "all claims build", Status.FAIL,
                           str(exc))
    return ok


def _distance(fill, args):
    r1, r2, expected, detail = args
    d = distance(r1, r2)
    return CheckResult("distance", detail, _STATUS[d == expected], str(d))


def _reducible(fill, args):
    i, detail = args
    m = fill(i)
    return CheckResult("reducible", detail, _STATUS[m.reducible], str(m))


def _finite_type(fill, args):
    i, expected, detail = args
    m = fill(i)
    observed = classify_finite_type(m)
    answer = None if observed is _UNKNOWN else observed is expected
    return CheckResult("finite_type", detail, _STATUS[answer],
                       f"{m} -> {_FINITE_TYPE_WORDS[observed]}")


def _distinct(fill, args):
    i1, i2, detail = args
    m1, m2 = fill(i1), fill(i2)
    outcome = manifold_compare(m1, m2)
    return CheckResult("distinct", detail, _STATUS[_DISTINCT_ANSWERS.get(outcome)],
                       f"{m1} vs {m2}: {_COMPARISON_WORDS[outcome]}")


def _settled(fill, result):
    return result


def _compile_check(spec: FamilySpec, check: Check):
    """One check as ``(run, args)``: ``run(fill, args)`` is its result at a
    point, where ``fill(i)`` is the point's filling at claim position i.
    The kind, the detail text and the claim positions depend on the family
    alone, so they are settled here, and so is the whole result of a check
    whose claims were all built once; an unknown kind, or an unclaimed
    slope that a check would build, raises ``ValueError``.
    """
    slot = lambda r: spec.claims.index(spec.claim_at(r))
    kind = check.kind
    if kind == "wellformed":
        slots = tuple(i for i, m in enumerate(spec.built) if m is None)
        run, args = _wellformed, (slots, CheckResult(
            "wellformed", "all claims build", Status.PASS, "ok"))
    elif kind == "distance":
        r1, r2 = check.slopes
        slots = ()
        run, args = _distance, (r1, r2, check.expected, (
            f"distance({format_slope(r1)}, {format_slope(r2)}) = {check.expected}"))
    elif kind == "reducible":
        (r,) = check.slopes
        slots = (slot(r),)
        run, args = _reducible, (*slots, f"filling({format_slope(r)}) is reducible")
    elif kind == "finite_type":
        (r,) = check.slopes
        slots = (slot(r),)
        run, args = _finite_type, (*slots, check.expected, (
            f"classify(filling({format_slope(r)})) = {check.expected.value}"))
    elif kind == "distinct":
        r1, r2 = check.slopes
        slots = (slot(r1), slot(r2))
        run, args = _distinct, (*slots, (
            f"filling({format_slope(r1)}) != filling({format_slope(r2)})"))
    else:
        raise ValueError(f"family {spec.name}: unknown check kind {kind!r}")

    if any(spec.built[i] is None for i in slots):
        return run, args
    return _settled, run(spec.built.__getitem__, args)


# ---------------------------------------------------------------------------
# The family tables


_CYCLIC = FamilySpec(
    name="cyclic",
    description="Twist family whose 0-filling is a lens sum and whose "
                "infinity-filling is a large lens space",
    param_names=("p", "q"),
    domain_doc="p >= 2, q >= 4",
    in_domain=lambda p, q: p >= 2 and q >= 4,
    claims=(
        Claim(Slope(0), "L(p,1) # L(q-2,1)",
              lambda p, q: connected_sum(lens_space(p, 1), lens_space(q - 2, 1))),
        Claim(INFINITY, "L((3p+2)(-2q+1)+6, (3p+2)q-3)",
              lambda p, q: lens_space((3 * p + 2) * (-2 * q + 1) + 6,
                                      (3 * p + 2) * q - 3)),
        Claim(Slope(-1), "tag(toroidal_irreducible_nonSFS)",
              lambda **_: OpaqueTag(TAG_TOROIDAL_IRREDUCIBLE)),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.CYCLIC),
        Check("distinct", (INFINITY, Slope(-1))),
    ),
    designated_pair=(Slope(0), INFINITY),
)

_EW_PRIOR = FamilySpec(
    name="ew_prior",
    description="One-parameter family with cyclic 0-filling and reducible "
                "1/3-filling",
    param_names=("p",),
    domain_doc="p >= 2",
    in_domain=lambda p: p >= 2,
    claims=(
        Claim(Slope(0), "L((p-1)(p+3)+1, p+3)",
              lambda p: lens_space((p - 1) * (p + 3) + 1, p + 3)),
        Claim(Slope(1, 3), "L(3,1) # L(2,1)",
              lambda **_: connected_sum(lens_space(3, 1), lens_space(2, 1))),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(1, 3), Slope(0)), 1),
        Check("reducible", (Slope(1, 3),)),
        Check("finite_type", (Slope(0),), FiniteType.CYCLIC),
    ),
    designated_pair=(Slope(1, 3), Slope(0)),
    edges=(Edge("bz_w6", "at p = 2 the 0-filling L(6,5) is the same lens "
                         "space as the infinity-filling L(6,1) there"),),
)

_BZ_W6 = FamilySpec(
    name="bz_w6",
    description="A single knot exterior with reducible 1-filling and lens "
                "infinity-filling",
    param_names=(),
    domain_doc="no parameters",
    in_domain=lambda: True,
    claims=(
        Claim(Slope(1), "L(3,1) # L(2,1)",
              lambda: connected_sum(lens_space(3, 1), lens_space(2, 1))),
        Claim(INFINITY, "L(6,1)", lambda: lens_space(6, 1)),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(1), INFINITY), 1),
        Check("reducible", (Slope(1),)),
        Check("finite_type", (INFINITY,), FiniteType.CYCLIC),
    ),
    designated_pair=(Slope(1), INFINITY),
)

_DIHEDRAL = FamilySpec(
    name="dihedral",
    description="Two-parameter family pairing a reducible 0-filling with a "
                "prism infinity-filling",
    param_names=("p", "q"),
    domain_doc="p >= 3, q >= 3",
    in_domain=lambda p, q: p >= 3 and q >= 3,
    claims=(
        Claim(Slope(0), "L(p,1) # L(2q+1,1)",
              lambda p, q: connected_sum(lens_space(p, 1),
                                         lens_space(2 * q + 1, 1))),
        Claim(INFINITY, "S2(2,2,2pq-p-2)",
              lambda p, q: sfs_orders(BASE_S2, (2, 2, 2 * p * q - p - 2))),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.DIHEDRAL),
    ),
    designated_pair=(Slope(0), INFINITY),
)

_DIHEDRAL_AUX = FamilySpec(
    name="dihedral_aux_Np",
    description="Tangle-exterior family behind the dihedral one; its 1/q "
                "fillings are the closed dihedral members",
    param_names=("p",),
    domain_doc="p >= 3",
    in_domain=lambda p: p >= 3,
    claims=(
        Claim(INFINITY, "D2(2,p+2)",
              lambda p: sfs_orders(BASE_D2, (2, p + 2))),
        Claim(Slope(0), "U[C(1,2), D2(2,p)]",
              lambda p: torus_union(CableSpace(1, 2),
                                    sfs_orders(BASE_D2, (2, p)))),
        Claim(Slope(1), "D2(2,p-2)",
              lambda p: sfs_orders(BASE_D2, (2, p - 2))),
        Claim(Slope(2), "ZxS1", lambda **_: ZxS1()),
    ),
    checks=(
        Check("wellformed"),
        Check("distinct", (INFINITY, Slope(1))),
        Check("distance", (Slope(0), Slope(2)), 2),
    ),
    edges=(Edge("dihedral", "the closed members are the 1/q fillings of "
                            "this exterior", slope_text="1/q"),),
)

_TETRAHEDRAL = FamilySpec(
    name="tetrahedral",
    description="A filling triple realizing the tetrahedral type next to a "
                "reducible and a dihedral filling",
    param_names=(),
    domain_doc="no parameters",
    in_domain=lambda: True,
    claims=(
        Claim(Slope(0), "L(3,1) # L(3,1)",
              lambda: connected_sum(lens_space(3, 1), lens_space(3, 1))),
        Claim(INFINITY, "S2(2,3,3)",
              lambda: sfs_orders(BASE_S2, (2, 3, 3))),
        Claim(Slope(1), "S2(2,2,7)",
              lambda: sfs_orders(BASE_S2, (2, 2, 7))),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.TETRAHEDRAL),
        Check("finite_type", (Slope(1),), FiniteType.DIHEDRAL),
        Check("distinct", (INFINITY, Slope(1))),
    ),
    designated_pair=(Slope(0), INFINITY),
)

_OCTAHEDRAL = FamilySpec(
    name="octahedral",
    description="One-parameter family pairing a reducible 0-filling with "
                "the octahedral infinity-filling",
    param_names=("p",),
    domain_doc="p >= 3",
    in_domain=lambda p: p >= 3,
    claims=(
        Claim(Slope(0), "L(2,1) # S2(4,p,2p+1)",
              lambda p: connected_sum(lens_space(2, 1),
                                      sfs_orders(BASE_S2, (4, p, 2 * p + 1)))),
        Claim(INFINITY, "S2(2,3,4)",
              lambda **_: sfs_orders(BASE_S2, (2, 3, 4))),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.OCTAHEDRAL),
    ),
    designated_pair=(Slope(0), INFINITY),
)

_OCTAHEDRAL_AUX = FamilySpec(
    name="octahedral_aux_Np",
    description="Tangle-exterior family behind the octahedral one; its "
                "slope-4 filling is the closed member",
    param_names=("p",),
    domain_doc="p >= 3",
    in_domain=lambda p: p >= 3,
    claims=(
        Claim(Slope(0), "L(2,1) # D2(p,2p+1)",
              lambda p: connected_sum(lens_space(2, 1),
                                      sfs_orders(BASE_D2, (p, 2 * p + 1)))),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(0), Slope(4)), 4),
        Check("reducible", (Slope(0),)),
    ),
    edges=(Edge("octahedral", "the closed member is the slope-4 filling of "
                              "this exterior", slope_text="4"),),
)


_LEE_FINITE_AT_0 = frozenset({(3, -1), (-4, -1)})
_LEE_FINITE_AT_MINUS_1 = frozenset({(-3, 1), (4, 1)})


_ICOSAHEDRAL_LEE = FamilySpec(
    name="icosahedral_lee",
    description="Two-parameter family with an S1xS2 filling at -1/2 and "
                "icosahedral fillings at four exceptional parameter pairs",
    param_names=("p", "q"),
    domain_doc="|p| >= 2, q != 0, (p, q) not in {(+-2, +-1)}",
    in_domain=lambda p, q: abs(p) >= 2 and q != 0 and (abs(p), abs(q)) != (2, 1),
    claims=(
        Claim(Slope(-1, 2), "S1xS2", lambda **_: S1xS2()),
        Claim(Slope(0), "S2(|p-1|, |2q-1|, |pq+q-1|)",
              lambda p, q: sfs_orders(BASE_S2, (abs(p - 1), abs(2 * q - 1),
                                                abs(p * q + q - 1)))),
        Claim(Slope(-1), "S2(|p+1|, |2q+1|, |pq-q-1|)",
              lambda p, q: sfs_orders(BASE_S2, (abs(p + 1), abs(2 * q + 1),
                                                abs(p * q - q - 1)))),
        Claim(INFINITY, "tag(toroidal)", lambda **_: OpaqueTag(TAG_TOROIDAL)),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(0), Slope(-1, 2)), 1),
        Check("distance", (Slope(-1), Slope(-1, 2)), 1),
        Check("distance", (Slope(-1, 2), INFINITY), 2),
        Check("reducible", (Slope(-1, 2),)),
        Check("finite_type", (Slope(0),), FiniteType.ICOSAHEDRAL,
              when=lambda ps: (ps["p"], ps["q"]) in _LEE_FINITE_AT_0),
        Check("finite_type", (Slope(-1),), FiniteType.ICOSAHEDRAL,
              when=lambda ps: (ps["p"], ps["q"]) in _LEE_FINITE_AT_MINUS_1),
    ),
    designated_pair=(Slope(-1, 2), Slope(0)),
)

_ICOSAHEDRAL_SECOND = FamilySpec(
    name="icosahedral_second",
    description="A filling triple realizing the icosahedral type next to a "
                "reducible filling and a non-finite Seifert filling",
    param_names=(),
    domain_doc="no parameters",
    in_domain=lambda: True,
    claims=(
        Claim(Slope(0), "L(3,1) # L(4,1)",
              lambda: connected_sum(lens_space(3, 1), lens_space(4, 1))),
        Claim(INFINITY, "S2(2,3,5)",
              lambda: sfs_orders(BASE_S2, (2, 3, 5))),
        Claim(Slope(1), "S2(2,3,7)",
              lambda: sfs_orders(BASE_S2, (2, 3, 7))),
    ),
    checks=(
        Check("wellformed"),
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.ICOSAHEDRAL),
        Check("finite_type", (Slope(1),), FiniteType.NOT_FINITE),
        Check("distinct", (INFINITY, Slope(1))),
    ),
    designated_pair=(Slope(0), INFINITY),
)


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec for spec in (
        _CYCLIC, _EW_PRIOR, _BZ_W6, _DIHEDRAL, _DIHEDRAL_AUX, _TETRAHEDRAL,
        _OCTAHEDRAL, _OCTAHEDRAL_AUX, _ICOSAHEDRAL_LEE, _ICOSAHEDRAL_SECOND,
    )
}


def family_catalog() -> tuple[FamilySpec, ...]:
    return tuple(FAMILIES.values())


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(FAMILIES)
        raise ValueError(f"unknown family {name!r} (known: {known})") from None


def _check_names(spec: FamilySpec, names) -> None:
    if set(names) != set(spec.param_names):
        wanted = ", ".join(spec.param_names) or "none"
        raise DomainError(
            f"family {spec.name} takes parameters: {wanted}; got {sorted(names)}"
        )


def _check_params(spec: FamilySpec, params: dict) -> None:
    _check_names(spec, params)
    if not spec.in_domain(**params):
        raise DomainError(
            f"parameters {params} are outside the domain of {spec.name} "
            f"({spec.domain_doc})"
        )


def evaluate_filling(name: str, params: dict, r: Slope) -> Manifold:
    """The closed-form filling of a family member at a claimed slope."""
    spec = get_family(name)
    _check_params(spec, params)
    return spec.claim_at(r).build(**params)


def verify_family(name: str, params: dict) -> VerificationReport:
    """Run every applicable check of a family at one parameter point.

    The point starts from the fillings the spec built once; each other
    claim is built on first use and memoized by position, and one that
    fails to build is not memoized, so every check needing it raises.
    """
    spec = get_family(name)
    _check_params(spec, params)
    claims = spec.claims
    built: list[Manifold | None] = list(spec.built)

    def fill(i: int) -> Manifold:
        m = built[i]
        if m is None:
            m = built[i] = claims[i].build(**params)
        return m

    results = tuple([run(fill, args) for when, run, args in spec.plan
                     if when is None or when(params)])
    return VerificationReport(spec.name, dict(params),
                              combine_status([r.status for r in results]),
                              results)


def grid_points(spec: FamilySpec,
                ranges: dict[str, tuple[int, int]]) -> Iterator[dict]:
    """The in-domain points of an inclusive grid, ordered by parameter
    tuple and made one at a time.  The names are checked at the call."""
    _check_names(spec, ranges)
    return (params for params in _grid(spec.param_names, ranges)
            if spec.in_domain(**params))


def _grid(names: tuple[str, ...],
          ranges: dict[str, tuple[int, int]]) -> Iterator[dict]:
    """Every point of the grid, ordered by parameter tuple.  Unlike
    itertools.product, which copies each axis first, this holds one point
    per parameter at a time."""
    if not names:
        yield {}
        return
    lo, hi = ranges[names[-1]]
    for head in _grid(names[:-1], ranges):
        for value in range(lo, hi + 1):
            yield {**head, names[-1]: value}


def sweep_point_reports(
    name: str, ranges: dict[str, tuple[int, int]]
) -> Iterator[VerificationReport]:
    """Verify a family at every in-domain point of an inclusive grid,
    one point at a time as the iterator is read.

    Out-of-domain grid points are skipped.  Results are ordered by
    parameter tuple.  The family and the names are checked at the call.
    """
    return (verify_family(name, params)
            for params in grid_points(get_family(name), ranges))


def sweep_verify(name: str, ranges: dict[str, tuple[int, int]]) -> SweepReport:
    """Verify a family over an inclusive integer grid, aggregated."""
    spec = get_family(name)
    points = dict.fromkeys(Status, 0)
    failures = []
    for report in sweep_point_reports(name, ranges):
        points[report.status] += 1
        failures.extend({"params": report.params, "detail": c.detail,
                         "status": STATUS_WORDS[c.status], "observed": c.observed}
                        for c in report.checks if c.status is not Status.PASS)
    return SweepReport(spec.name, {k: tuple(v) for k, v in ranges.items()},
                       sum(points.values()), points[Status.PASS],
                       points[Status.FAIL], points[Status.INDETERMINATE],
                       tuple(failures))


def scan_icosahedral_pairs(bound: int = 10) -> dict[str, tuple[tuple[int, int], ...]]:
    """Parameter pairs of icosahedral_lee whose 0- or (-1)-filling is
    icosahedral, discovered by classifying the claimed fillings over the
    window |p|, |q| <= bound rather than asserted."""
    spec = get_family("icosahedral_lee")
    claims = {text: spec.claim_at(Slope(int(text))) for text in ("0", "-1")}
    hits: dict[str, list[tuple[int, int]]] = {text: [] for text in claims}
    for params in grid_points(spec, {"p": (-bound, bound), "q": (-bound, bound)}):
        for text, claim in claims.items():
            m = claim.build(**params)
            if classify_finite_type(m) is FiniteType.ICOSAHEDRAL:
                hits[text].append((params["p"], params["q"]))
    return {k: tuple(sorted(v)) for k, v in hits.items()}
