"""Claim tables for ten twist families of fillings, with verification.

Each family records, per slope, a closed-form description of the filled
manifold, together with a list of machine-checkable claims: the distance
between the designated reducible and finite slopes, reducibility and
finite-type classifications, and provable distinctness of selected
pairs.  Checks never assume what they are supposed to establish; they
run the catalog's classifiers on the built manifolds and report a
three-valued outcome.

A claim is stated once, as the formula that ``family-fill`` prints; its
table reads it into the one function that makes the constructor calls
it names.  The grammar is the manifold grammar of ``parsing`` on the
atoms the tables use, with each integer argument arithmetic in the
family's parameters (one letter each), a product written by
juxtaposition ("3p", "2pq", "(3p+2)q"):

  formula := atom ('#' atom)*
  atom    := 'S1xS2' | 'ZxS1' | 'ST' | 'tag' '(' label ')'
           | ('L' | 'C') '(' num ',' num ')'
           | ('S2' | 'D2') '(' num (',' num)* ')'
           | 'U' '[' formula (',' formula)* ']'
  num     := term (('+' | '-') term)*
  term    := '-'? factor (param | '(' num ')')*
  factor  := digits | param | '(' num ')' | '|' num '|'

Whitespace between tokens is insignificant.  A claim whose formula
reads no parameter is built once per family, when its table is made.

A domain, the text that ``family-list`` and ``DomainError`` print, is
read into the predicate of a point; ',' is "and", "+-c" matches |x| = c:

  domain  := cond (',' cond)*
  cond    := num ('>=' | '!=') num   (a num that does not open with '(')
           | '(' num (',' num)* ')' 'not' 'in' '{' point (',' point)* '}'
  point   := '(' '+-'? num (',' '+-'? num)* ')'
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Iterator

# The constructors a claim formula names are read from this module's
# namespace when its function runs, so rebinding one here is seen.
from .manifolds import (CableSpace, FiniteType, Comparison,
                        IllFormedClaimError, Manifold, OpaqueTag, S1xS2,
                        SolidTorus, ZxS1, classify_finite_type,
                        connected_sum, lens_space, manifold_compare,
                        sfs_orders, torus_union)
from .reports import STATUS_WORDS, Status, combine_status
from .slopes import INFINITY, Slope, distance, format_slope
from .value import Value


class DomainError(ValueError):
    """Parameters are outside the family's domain of validity."""


class Claim(Value):
    """One slope of a family: the filled manifold, as formula text in the
    grammar of this module, which the family's table reads."""

    def __init__(self, slope: Slope, formula: str) -> None:
        self.__dict__.update(slope=slope, formula=formula)


class Check(Value):
    """A verifiable assertion about a family's claims.

    Kinds: "wellformed" (run first by every plan, so no table lists it),
    "distance", "reducible", "finite_type", "distinct".  ``when``, if given,
    lists the only points it runs at: domain tuples in ``param_names`` order.
    """

    def __init__(self, kind: str, slopes: tuple[Slope, ...] = (),
                 expected: object = None,
                 when: frozenset[tuple[int, ...]] | None = None) -> None:
        self.__dict__.update(kind=kind, slopes=slopes, expected=expected,
                             when=when)


class Edge(Value):
    """A pointer from one family to a related one (e.g. closed members).

    ``slope_text`` names the filling slope the edge lives at, when there
    is one; it is text because some edges use a symbolic slope ("1/q").
    It is not a row of the family's table: only a distance check, which
    builds nothing, may name a slope that no claim has.
    """

    def __init__(self, target: str, note: str,
                 slope_text: str | None = None) -> None:
        self.__dict__.update(target=target, note=note, slope_text=slope_text)


class FamilySpec(Value):
    """A family's claim table, compiled once when it is made.

    Each claim's formula is read into ``builders[i]``, a function of the
    parameters by name, and the domain into ``in_domain``; text outside
    the grammar raises ``ValueError`` here.  A claim whose formula reads
    no parameter is built here, once, so one that does not build refuses
    the table.  The plan runs the wellformed check, then ``checks``; one
    that reads only claims built here (none, for distance) is settled
    here.  ``designated_pair`` is the slopes of the first reducible check
    and the first finite_type check expecting a finite type, or None.
    """

    def __init__(self, name: str, description: str,
                 param_names: tuple[str, ...], domain: str,
                 claims: tuple[Claim, ...], checks: tuple[Check, ...],
                 edges: tuple[Edge, ...] = ()) -> None:
        fields = self.__dict__
        fields.update(name=name, description=description, param_names=param_names,
                      domain=domain, claims=claims, checks=checks, edges=edges)
        # Not fields: each claim's builder, the fillings built once (None
        # where each point builds its own), the domain's predicate and the
        # plan, data that equal tables compile equal; see _compile_check.
        compiled = [_builder(c.formula, param_names) for c in claims]
        fields["builders"] = tuple(build for build, _ in compiled)
        fields["built"] = tuple(None if reads else build()
                                for build, reads in compiled)
        fields["in_domain"] = (_builder(domain, param_names, True)[0]
                               if param_names else _everywhere)
        fields["plan"] = tuple((check.when, *_compile_check(self, check))
                               for check in (Check("wellformed"), *checks))
        pair = [next((c.slopes[0] for c in checks if c.kind == kind
                      and c.expected not in (FiniteType.NOT_FINITE, _UNKNOWN)), None)
                for kind in ("reducible", "finite_type")]
        fields["designated_pair"] = None if None in pair else tuple(pair)

    def slot(self, r: Slope) -> int:
        """The position of the claim at slope r in ``claims``,
        ``builders`` and ``built``."""
        for i, c in enumerate(self.claims):
            if c.slope == r:
                return i
        slopes = ", ".join(format_slope(c.slope) for c in self.claims)
        raise ValueError(
            f"family {self.name} has no claim at slope {format_slope(r)} "
            f"(claimed slopes: {slopes})"
        )


# A formula token: a multi-letter atom, a tag with its label, digits, a
# domain's operator or word, or any other one non-space character.
_FORMULA_TOKEN = re.compile(
    r"S1xS2|ZxS1|ST|S2|D2|tag\([A-Za-z][A-Za-z0-9_-]*\)|[0-9]+|>=|!=|not|in|\S")
_FIXED_ATOMS = {"S1xS2": "S1xS2()", "ZxS1": "ZxS1()", "ST": "SolidTorus()"}


class _FormulaReader:
    """Reads a claim formula or a domain, as ``what`` says, by recursive
    descent into the text of one Python expression; ``reads`` records
    whether it names a parameter."""

    def __init__(self, formula: str, names: tuple[str, ...], what: str) -> None:
        self.formula, self.names, self.what, self.reads = formula, names, what, False
        self.tokens, self.i = _FORMULA_TOKEN.findall(formula) + [""], 0

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.what} {self.formula!r}: {message}")

    def take(self, expected: str | None = None) -> str:
        token = self.tokens[self.i]
        if not token or expected not in (None, token):
            got = repr(token) if token else "the end"
            raise self.error(f"expected {expected or 'more'}, got {got}")
        self.i += 1
        return token

    def separated(self, read, sep: str) -> list[str]:
        """read (sep read)*"""
        items = [read()]
        while self.tokens[self.i] == sep:
            self.i += 1
            items.append(read())
        return items

    def enclosed(self, read, brackets: str) -> list[str]:
        self.take(brackets[0])
        items = self.separated(read, ",")
        self.take(brackets[1])
        return items

    def manifold(self) -> str:
        parts = self.separated(self.atom, "#")
        return parts[0] if len(parts) == 1 else f"connected_sum({', '.join(parts)})"

    def atom(self) -> str:
        head = self.take()
        if head in _FIXED_ATOMS:
            return _FIXED_ATOMS[head]
        if head.startswith("tag("):
            return f"OpaqueTag({head[4:-1]!r})"
        if head not in ("U", "S2", "D2", "L", "C"):
            raise self.error(f"unknown atom {head!r}")
        args = (self.enclosed(self.manifold, "[]") if head == "U"
                else self.enclosed(self.number, "()"))
        if head == "U":
            return f"torus_union({', '.join(args)})"
        if head in ("S2", "D2"):
            return f"sfs_orders({head!r}, ({', '.join(args)},))"
        if len(args) != 2:
            raise self.error(f"{head} takes two arguments")
        return f"{'lens_space' if head == 'L' else 'CableSpace'}({', '.join(args)})"

    def number(self) -> str:
        text = self.term()
        while self.tokens[self.i] in ("+", "-"):
            text += f" {self.take()} {self.term()}"
        return text

    def term(self) -> str:
        text = "-" if self.tokens[self.i] == "-" else ""
        self.i += len(text)
        text += self.factor()
        while self.tokens[self.i] == "(" or self.tokens[self.i] in self.names:
            text += " * " + self.factor()
        return text

    def factor(self) -> str:
        token = self.take()
        if token.isdecimal():
            return str(int(token))
        if token in self.names:
            self.reads = True
            return token
        if token in ("(", "|"):
            inner = self.number()
            self.take(")" if token == "(" else "|")
            return f"({inner})" if token == "(" else f"abs({inner})"
        if token.isalpha():
            raise self.error(f"undeclared parameter {token!r}")
        raise self.error(f"expected an integer argument, got {token!r}")

    def condition(self) -> str:
        if self.tokens[self.i] != "(":
            left = self.number()
            op = self.take("!=" if self.tokens[self.i] == "!=" else ">=")
            return f"{left} {op} {self.number()}"
        params = self.enclosed(self.number, "()")
        self.take("not")
        self.take("in")
        points = self.enclosed(lambda: self.enclosed(self.coordinate, "()"), "{}")
        if any(len(point) != len(params) for point in points):
            raise self.error(f"expected points of {len(params)} values")
        return "not (" + " or ".join(" and ".join(map(str.format, point, params))
                                     for point in points) + ")"

    def coordinate(self) -> str:  # a test with {} for its parameter
        either_sign = self.tokens[self.i:self.i + 2] == ["+", "-"]
        self.i += 2 * either_sign
        return ("abs({})" if either_sign else "{}") + " == " + self.number()


@functools.cache
def _builder(formula: str, names: tuple[str, ...],
             domain: bool = False) -> tuple[Callable[..., object], bool]:
    """The one function that builds a claim formula's filling, or tests a
    point of a domain, from the parameters by name, and whether the text
    reads any of them (if not, the function takes no argument but
    ``**_``).  It is compiled in this module's namespace, once per text."""
    reader = _FormulaReader(formula, names, "domain" if domain else "claim formula")
    body = (" and ".join(reader.separated(reader.condition, ",")) if domain
            else reader.manifold())
    if reader.tokens[reader.i]:
        raise reader.error(f"trailing text from {reader.tokens[reader.i]!r}")
    signature = ", ".join(names) if reader.reads else "**_"
    namespace: dict = {}
    exec(compile(f"def build({signature}):\n    return {body}\n",
                 f"<{reader.what} {formula}>", "exec"), globals(), namespace)
    return namespace["build"], reader.reads


def _everywhere() -> bool:  # the domain of a family without parameters
    return True


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
    slot = spec.slot
    kind = check.kind
    for point in check.when or ():
        if type(point) is not tuple or len(point) != len(spec.param_names) \
                or not spec.in_domain(**dict(zip(spec.param_names, point))):
            raise ValueError(f"family {spec.name}: {kind} check point {point!r} "
                             f"is not a point of its domain ({spec.domain})")
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
    domain="p >= 2, q >= 4",
    claims=(
        Claim(Slope(0), "L(p,1) # L(q-2,1)"),
        Claim(INFINITY, "L((3p+2)(-2q+1)+6, (3p+2)q-3)"),
        Claim(Slope(-1), "tag(toroidal_irreducible_nonSFS)"),
    ),
    checks=(
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.CYCLIC),
        Check("distinct", (INFINITY, Slope(-1))),
    ),
)

_EW_PRIOR = FamilySpec(
    name="ew_prior",
    description="One-parameter family with cyclic 0-filling and reducible "
                "1/3-filling",
    param_names=("p",),
    domain="p >= 2",
    claims=(
        Claim(Slope(0), "L((p-1)(p+3)+1, p+3)"),
        Claim(Slope(1, 3), "L(3,1) # L(2,1)"),
    ),
    checks=(
        Check("distance", (Slope(1, 3), Slope(0)), 1),
        Check("reducible", (Slope(1, 3),)),
        Check("finite_type", (Slope(0),), FiniteType.CYCLIC),
    ),
    edges=(Edge("bz_w6", "at p = 2 the 0-filling L(6,5) is the same lens "
                         "space as the infinity-filling L(6,1) there"),),
)

_BZ_W6 = FamilySpec(
    name="bz_w6",
    description="A single knot exterior with reducible 1-filling and lens "
                "infinity-filling",
    param_names=(),
    domain="no parameters",
    claims=(
        Claim(Slope(1), "L(3,1) # L(2,1)"),
        Claim(INFINITY, "L(6,1)"),
    ),
    checks=(
        Check("distance", (Slope(1), INFINITY), 1),
        Check("reducible", (Slope(1),)),
        Check("finite_type", (INFINITY,), FiniteType.CYCLIC),
    ),
)

_DIHEDRAL = FamilySpec(
    name="dihedral",
    description="Two-parameter family pairing a reducible 0-filling with a "
                "prism infinity-filling",
    param_names=("p", "q"),
    domain="p >= 3, q >= 3",
    claims=(
        Claim(Slope(0), "L(p,1) # L(2q+1,1)"),
        Claim(INFINITY, "S2(2,2,2pq-p-2)"),
    ),
    checks=(
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.DIHEDRAL),
    ),
)

_DIHEDRAL_AUX = FamilySpec(
    name="dihedral_aux_Np",
    description="Tangle-exterior family behind the dihedral one; its 1/q "
                "fillings are the closed dihedral members",
    param_names=("p",),
    domain="p >= 3",
    claims=(
        Claim(INFINITY, "D2(2,p+2)"),
        Claim(Slope(0), "U[C(1,2), D2(2,p)]"),
        Claim(Slope(1), "D2(2,p-2)"),
        Claim(Slope(2), "ZxS1"),
    ),
    checks=(
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
    domain="no parameters",
    claims=(
        Claim(Slope(0), "L(3,1) # L(3,1)"),
        Claim(INFINITY, "S2(2,3,3)"),
        Claim(Slope(1), "S2(2,2,7)"),
    ),
    checks=(
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.TETRAHEDRAL),
        Check("finite_type", (Slope(1),), FiniteType.DIHEDRAL),
        Check("distinct", (INFINITY, Slope(1))),
    ),
)

_OCTAHEDRAL = FamilySpec(
    name="octahedral",
    description="One-parameter family pairing a reducible 0-filling with "
                "the octahedral infinity-filling",
    param_names=("p",),
    domain="p >= 3",
    claims=(
        Claim(Slope(0), "L(2,1) # S2(4,p,2p+1)"),
        Claim(INFINITY, "S2(2,3,4)"),
    ),
    checks=(
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.OCTAHEDRAL),
    ),
)

_OCTAHEDRAL_AUX = FamilySpec(
    name="octahedral_aux_Np",
    description="Tangle-exterior family behind the octahedral one; its "
                "slope-4 filling is the closed member",
    param_names=("p",),
    domain="p >= 3",
    claims=(
        Claim(Slope(0), "L(2,1) # D2(p,2p+1)"),
    ),
    checks=(
        Check("distance", (Slope(0), Slope(4)), 4),
        Check("reducible", (Slope(0),)),
    ),
    edges=(Edge("octahedral", "the closed member is the slope-4 filling of "
                              "this exterior", slope_text="4"),),
)


_ICOSAHEDRAL_LEE = FamilySpec(
    name="icosahedral_lee",
    description="Two-parameter family with an S1xS2 filling at -1/2 and "
                "icosahedral fillings at four exceptional parameter pairs",
    param_names=("p", "q"),
    domain="|p| >= 2, q != 0, (p, q) not in {(+-2, +-1)}",
    claims=(
        Claim(Slope(-1, 2), "S1xS2"),
        Claim(Slope(0), "S2(|p-1|, |2q-1|, |pq+q-1|)"),
        Claim(Slope(-1), "S2(|p+1|, |2q+1|, |pq-q-1|)"),
        Claim(INFINITY, "tag(toroidal)"),
    ),
    checks=(
        Check("distance", (Slope(0), Slope(-1, 2)), 1),
        Check("distance", (Slope(-1), Slope(-1, 2)), 1),
        Check("distance", (Slope(-1, 2), INFINITY), 2),
        Check("reducible", (Slope(-1, 2),)),
        Check("finite_type", (Slope(0),), FiniteType.ICOSAHEDRAL,
              when=frozenset({(3, -1), (-4, -1)})),
        Check("finite_type", (Slope(-1),), FiniteType.ICOSAHEDRAL,
              when=frozenset({(-3, 1), (4, 1)})),
    ),
)

_ICOSAHEDRAL_SECOND = FamilySpec(
    name="icosahedral_second",
    description="A filling triple realizing the icosahedral type next to a "
                "reducible filling and a non-finite Seifert filling",
    param_names=(),
    domain="no parameters",
    claims=(
        Claim(Slope(0), "L(3,1) # L(4,1)"),
        Claim(INFINITY, "S2(2,3,5)"),
        Claim(Slope(1), "S2(2,3,7)"),
    ),
    checks=(
        Check("distance", (Slope(0), INFINITY), 1),
        Check("reducible", (Slope(0),)),
        Check("finite_type", (INFINITY,), FiniteType.ICOSAHEDRAL),
        Check("finite_type", (Slope(1),), FiniteType.NOT_FINITE),
        Check("distinct", (INFINITY, Slope(1))),
    ),
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


def _check_params(name: str, params: dict) -> FamilySpec:
    """The family named, once its parameters are checked."""
    spec = get_family(name)
    _check_names(spec, params)
    if not spec.in_domain(**params):
        raise DomainError(
            f"parameters {params} are outside the domain of {spec.name} "
            f"({spec.domain})"
        )
    return spec


def evaluate_filling(name: str, params: dict, r: Slope) -> Manifold:
    """The closed-form filling of a family member at a claimed slope."""
    spec = _check_params(name, params)
    return spec.builders[spec.slot(r)](**params)


def verify_family(name: str, params: dict) -> VerificationReport:
    """Run every applicable check of a family at one parameter point.

    The point starts from the fillings the spec built once; each other
    claim is built on first use and memoized by position, and one that
    fails to build is not memoized, so every check needing it raises.
    """
    spec = _check_params(name, params)
    builders = spec.builders
    built: list[Manifold | None] = list(spec.built)

    def fill(i: int) -> Manifold:
        m = built[i]
        if m is None:
            m = built[i] = builders[i](**params)
        return m

    results = tuple([run(fill, args) for when, run, args in spec.plan
                     if when is None
                     or tuple(map(params.__getitem__, spec.param_names)) in when])
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
    points = dict.fromkeys(Status, 0)
    failures = []
    for report in sweep_point_reports(name, ranges):
        points[report.status] += 1
        failures.extend({"params": report.params, "detail": c.detail,
                         "status": STATUS_WORDS[c.status], "observed": c.observed}
                        for c in report.checks if c.status is not Status.PASS)
    return SweepReport(name, {k: tuple(v) for k, v in ranges.items()},
                       sum(points.values()), points[Status.PASS],
                       points[Status.FAIL], points[Status.INDETERMINATE],
                       tuple(failures))


def scan_icosahedral_pairs(bound: int = 10) -> dict[str, tuple[tuple[int, int], ...]]:
    """Parameter pairs of icosahedral_lee whose 0- or (-1)-filling is
    icosahedral, discovered by classifying the claimed fillings over the
    window |p|, |q| <= bound rather than asserted."""
    spec = get_family("icosahedral_lee")
    builders = {text: spec.builders[spec.slot(Slope(int(text)))]
                for text in ("0", "-1")}
    hits: dict[str, list[tuple[int, int]]] = {text: [] for text in builders}
    for params in grid_points(spec, {"p": (-bound, bound), "q": (-bound, bound)}):
        for text, build in builders.items():
            m = build(**params)
            if classify_finite_type(m) is FiniteType.ICOSAHEDRAL:
                hits[text].append((params["p"], params["q"]))
    return {k: tuple(sorted(v)) for k, v in hits.items()}
