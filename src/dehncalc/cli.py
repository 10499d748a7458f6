"""Command-line interface.

Verbs: distance, classify, cover, cable, family-list, family-fill,
family-verify, family-sweep, oracle.  Every verb emits one report
(--format json|tsv) and exits 0 on ok, 1 on any check failure, 2 on
usage errors, and 3 on indeterminate-only outcomes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import re
import sys

from .reports import (FORMATS, STATUS_WORDS, Report, Status, combine_status,
                      emit_report, exit_code)
from .slopes import distance, format_slope, int_limit_error, parse_slope


@functools.cache
def _lib(name: str):
    """Module dehncalc.<name>, imported on a verb's first use.  Handlers
    read functions off it at each call, so rebinding one on it works."""
    return importlib.import_module(f".{name}", __package__)


_RANGE = re.compile(r"(-?\d+)(?:\.\.(-?\d+))?")


class _UsageError(argparse.ArgumentTypeError):
    """Bad argv.  When an option's type function raises it, argparse
    prefixes the message with the option's name."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let negative slopes ("-1/2") and ranges ("-4..-2") through as
        # values; stock argparse only exempts plain negative numbers.
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+|\.\.-?\d+)?$")

    def error(self, message: str):
        raise _UsageError(message)


def _integer(text: str) -> int:
    """An integer option or range end, read by int()'s rules; one longer
    than the int-string limit is named by its digit count, as in
    expressions, and not echoed."""
    try:
        return int(text)
    except ValueError:
        raise _UsageError(int_limit_error(text.strip())
                          or f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """A non-negative integer option."""
    value = _integer(text)
    if value < 0:
        raise _UsageError(f"expected a count >= 0, got {text!r}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE.fullmatch(text)
    if not m:
        raise _UsageError(f"expected N or A..B, got {text!r}")
    lo = _integer(m.group(1))
    hi = lo if m.group(2) is None else _integer(m.group(2))
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


def _family_points(args) -> tuple:
    """The family named on argv, its claim at the slope argument (None
    for verbs without one) and its --p/--q ranges, which hold at least
    one in-domain point.

    Faults are reported in this order: the family, its parameter
    options, the slope, and last a grid with no in-domain point.
    """
    families = _lib("families")
    spec = families.get_family(args.family)
    ranges: dict[str, tuple[int, int]] = {}
    for name in ("p", "q"):
        value = getattr(args, name)
        if name in spec.param_names:
            if value is None:
                raise _UsageError(f"family {spec.name} needs --{name}")
            ranges[name] = _parse_range(value)
        elif value is not None:
            raise _UsageError(f"family {spec.name} takes no parameter {name}")
    claim = spec.claim_at(parse_slope(args.slope)) if "slope" in args else None
    if next(families.grid_points(spec, ranges), None) is None:
        raise _UsageError("no in-domain parameter points in the given ranges")
    return spec, claim, ranges


def _params_text(spec, params: dict) -> str:
    return ",".join([f"{n}={params[n]}" for n in spec.param_names])


# ---------------------------------------------------------------------------
# Verb handlers: each returns a Report


def _cmd_distance(args, command: str) -> Report:
    r1 = parse_slope(args.r1)
    r2 = parse_slope(args.r2)
    row = {"r1": format_slope(r1), "r2": format_slope(r2),
           "distance": distance(r1, r2)}
    return Report(command, Status.PASS, (row,))


def _cmd_classify(args, command: str) -> Report:
    manifolds = _lib("manifolds")
    m = _lib("parsing").parse_manifold_expr(args.manifold)
    ft = manifolds.classify_finite_type(m)
    hom = m.homology  # None when the description does not decide H1
    row = {"manifold": str(m), "finite_type": ft.value,
           "h1_order": None if hom is None else hom.order}
    unknown = ft is manifolds.FiniteType.UNKNOWN
    status = Status.INDETERMINATE if unknown else Status.PASS
    return Report(command, status, (row,))


def _cmd_cover(args, command: str) -> Report:
    link = _lib("parsing").parse_link_expr(args.link)
    m = _lib("cover").double_branched_cover(link)
    res = _lib("manifolds").h1(m)
    row = {"link": str(link), "manifold": str(m), "determinant": res.order or 0,
           "h1_order": res.order, "h1_free_rank": res.free_rank}
    return Report(command, Status.PASS, (row,))


def _cmd_cable(args, command: str) -> Report:
    cables = _lib("cables")
    space = _lib("manifolds").CableSpace(args.s, args.t)
    gamma = parse_slope(args.gamma)
    r = parse_slope(args.r)
    d = distance(r, gamma)
    # A distance of 2 or more is an extension beyond the claim tables.
    row = {"s": space.s, "t": space.t, "cabling_slope": format_slope(gamma),
           "r": format_slope(r), "distance_from_cabling": d,
           "pushforward_distance": cables.meridian_distance_cabled(space.t, d),
           "manifold": str(cables.cable_fill(space, gamma, r)),
           "extension": d >= 2}
    return Report(command, Status.PASS, (row,))


def _cmd_family_list(args, command: str) -> Report:
    rows = []
    for spec in _lib("families").family_catalog():
        rows.append({
            "name": spec.name,
            "params": ",".join(spec.param_names),
            "domain": spec.domain_doc,
            "claims": ", ".join(format_slope(c.slope) for c in spec.claims),
            "designated_pair": (
                "" if spec.designated_pair is None else
                ",".join(format_slope(r) for r in spec.designated_pair)),
            "edges": "; ".join(
                e.target if e.slope_text is None else f"{e.target}@{e.slope_text}"
                for e in spec.edges),
            "description": spec.description,
        })
    return Report(command, Status.PASS, tuple(rows))


def _cmd_family_fill(args, command: str) -> Report:
    spec, claim, ranges = _family_points(args)
    slope = format_slope(claim.slope)
    rows = tuple([{"family": spec.name, "params": _params_text(spec, params),
                   "slope": slope, "formula": claim.formula,
                   "manifold": str(claim.build(**params))}
                  for params in _lib("families").grid_points(spec, ranges)])
    return Report(command, Status.PASS, rows)


def _cmd_family_verify(args, command: str) -> Report:
    spec, _, ranges = _family_points(args)
    rows, statuses = [], []
    for rep in _lib("families").sweep_point_reports(spec.name, ranges):
        statuses.append(rep.status)
        params = _params_text(spec, rep.params)
        for check in rep.checks:
            rows.append({"family": spec.name, "params": params,
                         "check": check.kind, "detail": check.detail,
                         "status": STATUS_WORDS[check.status],
                         "observed": check.observed})
    return Report(command, combine_status(statuses), tuple(rows))


def _cmd_family_sweep(args, command: str) -> Report:
    spec, _, ranges = _family_points(args)
    rows, statuses = [], []
    for rep in _lib("families").sweep_point_reports(spec.name, ranges):
        statuses.append(rep.status)
        checks = [check.status for check in rep.checks]
        rows.append({"family": spec.name,
                     "params": _params_text(spec, rep.params),
                     "status": STATUS_WORDS[rep.status],
                     "passed": checks.count(Status.PASS),
                     "failed": checks.count(Status.FAIL),
                     "indeterminate": checks.count(Status.INDETERMINATE)})
    return Report(command, combine_status(statuses), tuple(rows))


def _cmd_oracle(args, command: str) -> Report:
    lines = []
    if args.batch is not None:
        # utf-8-sig drops a byte-order mark.
        with open(args.batch, encoding="utf-8-sig") as fh:
            lines = list(enumerate(fh, 1))
    parsing = _lib("parsing")
    links = [parsing.parse_link_expr(t) for t in args.links]
    for number, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # Whitespace is insignificant, so the line parses as written and
        # an error position counts in it.
        try:
            links.append(parsing.parse_link_expr(line.rstrip("\n")))
        except ValueError as exc:  # ParseError, IllFormedClaimError
            raise ValueError(f"{args.batch} line {number}: {exc}") from None
    diagrams = _lib("diagrams")
    if args.sample:
        import random
        rng = random.Random(args.seed)
        links.extend(diagrams.random_montesinos(rng)
                     for _ in range(args.sample))
    if not links:
        raise _UsageError("oracle needs link expressions, --batch, or --sample")
    rows = []
    any_mismatch = False
    for link in links:
        rep = diagrams.oracle_cross_check(link)
        any_mismatch = any_mismatch or not rep.match
        rows.append(rep.as_dict())
    status = Status.FAIL if any_mismatch else Status.PASS
    return Report(command, status, tuple(rows))


# ---------------------------------------------------------------------------
# Argument wiring


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and each call starts from a fresh namespace."""
    shared = _Parser(add_help=False)
    shared.add_argument("--format", choices=FORMATS, default="json",
                        help="output format (default: json)")

    parser = _Parser(prog="dehncalc",
                     description="Exact Dehn-filling arithmetic, claim-table "
                                 "verification, and a diagram-level oracle.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("distance", parents=[shared],
                       help="distance between two slopes")
    p.add_argument("r1")
    p.add_argument("r2")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("classify", parents=[shared],
                       help="finite-type classification of a manifold")
    p.add_argument("manifold")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("cover", parents=[shared],
                       help="double branched cover of a link expression")
    p.add_argument("link")
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("cable", parents=[shared],
                       help="fill the outer boundary of a cable space")
    p.add_argument("--s", type=_integer, required=True, help="cable parameter s")
    p.add_argument("--t", type=_integer, required=True, help="cable parameter t")
    p.add_argument("--gamma", required=True, help="cabling slope")
    p.add_argument("r", help="filling slope")
    p.set_defaults(handler=_cmd_cable)

    p = sub.add_parser("family-list", parents=[shared],
                       help="list the claim-table families")
    p.set_defaults(handler=_cmd_family_list)

    for verb, handler, needs_slope, summary in (
            ("family-fill", _cmd_family_fill, True,
             "closed-form fillings of a family at one slope"),
            ("family-verify", _cmd_family_verify, False,
             "every check of a family at each grid point"),
            ("family-sweep", _cmd_family_sweep, False,
             "check tallies of a family at each grid point")):
        p = sub.add_parser(verb, parents=[shared], help=summary)
        p.add_argument("family")
        if needs_slope:
            p.add_argument("slope")
        p.add_argument("--p", help="parameter p (N or A..B)")
        p.add_argument("--q", help="parameter q (N or A..B)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("oracle", parents=[shared],
                       help="cross-check link determinants two ways")
    p.add_argument("links", nargs="*", metavar="LINK")
    p.add_argument("--batch", help="file with one link expression per line")
    p.add_argument("--sample", type=_count, default=0,
                   help="number of random Montesinos links to add")
    p.add_argument("--seed", type=_integer, default=0, help="RNG seed for --sample")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        report = args.handler(args, " ".join(["dehncalc"] + argv))
        text = emit_report(report, args.format)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # ParseError, DomainError, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return exit_code(report.status)


if __name__ == "__main__":
    raise SystemExit(main())
