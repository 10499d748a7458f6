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
from itertools import chain, repeat
from operator import attrgetter

from .reports import FORMATS, STATUS_WORDS, RowWriter, Status, emit_report, exit_code
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
    """The family named on argv, the position of its claim at the slope
    argument (None for verbs without one) and its --p/--q ranges, which
    hold at least one in-domain point.

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
    slot = spec.slot(parse_slope(args.slope)) if "slope" in args else None
    if next(families.grid_points(spec, ranges), None) is None:
        raise _UsageError("no in-domain parameter points in the given ranges")
    return spec, slot, ranges


def _params_text(spec):
    """The function from a point to its "p=..,q=.." text: one format_map."""
    return ",".join([f"{n}={{{n}}}" for n in spec.param_names]).format_map


# ---------------------------------------------------------------------------
# Verb handlers: each returns its report, new_report(columns) with its rows


def _cmd_distance(args, new_report) -> RowWriter:
    r1, r2 = parse_slope(args.r1), parse_slope(args.r2)
    return new_report(("r1", "r2", "distance")).add(
        (format_slope(r1), format_slope(r2), distance(r1, r2)))


def _cmd_classify(args, new_report) -> RowWriter:
    manifolds = _lib("manifolds")
    m = _lib("parsing").parse_manifold_expr(args.manifold)
    ft = manifolds.classify_finite_type(m)
    hom = m.homology  # None when the description does not decide H1
    return new_report(("manifold", "finite_type", "h1_order")).add(
        (str(m), ft.value, None if hom is None else hom.order),
        Status.INDETERMINATE if ft is manifolds.FiniteType.UNKNOWN else Status.PASS)


def _cmd_cover(args, new_report) -> RowWriter:
    link = _lib("parsing").parse_link_expr(args.link)
    m = _lib("cover").double_branched_cover(link)
    res = _lib("manifolds").h1(m)
    return new_report(("link", "manifold", "determinant", "h1_order",
                       "h1_free_rank")).add(
        (str(link), str(m), res.order or 0, res.order, res.free_rank))


def _cmd_cable(args, new_report) -> RowWriter:
    cables = _lib("cables")
    space = _lib("manifolds").CableSpace(args.s, args.t)
    gamma, r = parse_slope(args.gamma), parse_slope(args.r)
    d = distance(r, gamma)
    # A distance of 2 or more is an extension beyond the claim tables.
    return new_report(("s", "t", "cabling_slope", "r", "distance_from_cabling",
                       "pushforward_distance", "manifold", "extension")).add(
        (space.s, space.t, format_slope(gamma), format_slope(r), d,
         cables.meridian_distance_cabled(space.t, d),
         str(cables.cable_fill(space, gamma, r)), d >= 2))


def _cmd_family_list(args, new_report) -> RowWriter:
    report = new_report(("name", "params", "domain", "claims",
                         "designated_pair", "edges", "description"))
    for spec in _lib("families").family_catalog():
        report.add((
            spec.name, ",".join(spec.param_names), spec.domain,
            ", ".join(format_slope(c.slope) for c in spec.claims),
            "" if spec.designated_pair is None else
            ",".join(format_slope(r) for r in spec.designated_pair),
            "; ".join(e.target if e.slope_text is None else
                      f"{e.target}@{e.slope_text}" for e in spec.edges),
            spec.description))
    return report


def _cmd_family_fill(args, new_report) -> RowWriter:
    spec, slot, ranges = _family_points(args)
    claim, build = spec.claims[slot], spec.builders[slot]
    slope, params_text = format_slope(claim.slope), _params_text(spec)
    report = new_report(("family", "params", "slope", "formula", "manifold"))
    for params in _lib("families").grid_points(spec, ranges):
        report.add((spec.name, params_text(params), slope, claim.formula,
                    str(build(**params))))
    return report


def _cmd_family_verify(args, new_report) -> RowWriter:
    spec, _, ranges = _family_points(args)
    report = new_report(("family", "params", "check", "detail", "status", "observed"))
    add, name, params_text = report.add, spec.name, _params_text(spec)
    for rep in _lib("families").sweep_point_reports(name, ranges):
        params = params_text(rep.params)
        for check in rep.checks:
            add((name, params, check.kind, check.detail,
                 STATUS_WORDS[check.status], check.observed), check.status)
    return report


def _cmd_family_sweep(args, new_report) -> RowWriter:
    spec, _, ranges = _family_points(args)
    report = new_report(("family", "params", "status", "passed", "failed",
                         "indeterminate"))
    add, name, params_text = report.add, spec.name, _params_text(spec)
    status_of, tallied = attrgetter("status"), tuple(Status)
    for rep in _lib("families").sweep_point_reports(name, ranges):
        add((name, params_text(rep.params), STATUS_WORDS[rep.status],
             *map(list(map(status_of, rep.checks)).count, tallied)), rep.status)
    return report


def _cmd_oracle(args, new_report) -> RowWriter:
    lines = []
    if args.batch is not None:
        with open(args.batch, "rb") as fh:
            lines = fh.read().splitlines()  # at \n, \r or \r\n, as text mode
    parsing = _lib("parsing")
    links = [parsing.parse_link_expr(t) for t in args.links]
    for number, line in enumerate(lines, 1):
        # Decoded alone, a bad byte's error names its line; whitespace is
        # insignificant, so an error position counts in the line as written.
        try:
            line = line.decode("utf-8-sig" if number == 1 else "utf-8")
            if line.strip()[:1] not in ("", "#"):  # not blank, not a comment
                links.append(parsing.parse_link_expr(line))
        except ValueError as exc:  # UnicodeDecodeError, ParseError, ...
            raise ValueError(f"{args.batch} line {number}: {exc}") from None
    if not links and not args.sample:
        raise _UsageError("oracle needs link expressions, --batch, or --sample")
    diagrams = _lib("diagrams")
    if args.sample:
        import random
        rng = random.Random(args.seed)
        links = chain(links, map(diagrams.random_montesinos,
                                 repeat(rng, args.sample)))
    report = new_report(diagrams.OracleReport._fields)
    for rep in map(diagrams.oracle_cross_check, links):
        report.add(tuple(vars(rep).values()), Status.PASS if rep.match else Status.FAIL)
    return report


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
        report = args.handler(args, functools.partial(
            RowWriter, " ".join(["dehncalc"] + argv), args.format))
        text, code = emit_report(report), exit_code(report.status)
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
    del report  # its rows take as much memory as the text
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
