import copy
import hashlib
import io
import pickle
import re
import tracemalloc
import weakref
from collections import Counter
from contextlib import redirect_stdout

import pytest

from dehncalc import families
from dehncalc.cli import main
from dehncalc.families import (FAMILIES, Check, CheckResult, Claim,
                               DomainError, FamilySpec, Status, SweepReport,
                               VerificationReport, evaluate_filling,
                               family_catalog, get_family, grid_points,
                               scan_icosahedral_pairs, sweep_point_reports,
                               sweep_verify, verify_family)
from dehncalc.manifolds import (BASE_D2, BASE_S2, CableSpace, Comparison,
                                FiniteType, IllFormedClaimError, Lens, OpaqueTag, S1xS2,
                                SolidTorus, TAG_TOROIDAL,
                                TAG_TOROIDAL_IRREDUCIBLE, ZxS1,
                                classify_finite_type, connected_sum,
                                is_reducible, lens_homeomorphic, lens_space,
                                manifold_compare, sfs_orders, torus_union)
from dehncalc.reports import combine_status
from dehncalc.parsing import parse_manifold_expr
from dehncalc.slopes import INFINITY, Slope, distance, format_slope


_EXPECTED_NAMES = ("cyclic", "ew_prior", "bz_w6", "dihedral",
                   "dihedral_aux_Np", "tetrahedral", "octahedral",
                   "octahedral_aux_Np", "icosahedral_lee",
                   "icosahedral_second")


def test_catalog_contents():
    catalog = family_catalog()
    assert tuple(spec.name for spec in catalog) == _EXPECTED_NAMES
    for spec in catalog:
        assert spec.claims, spec.name
        assert spec.checks, spec.name
        slopes = [c.slope for c in spec.claims]
        assert len(slopes) == len(set(slopes)), spec.name


def test_get_family_unknown():
    with pytest.raises(ValueError):
        get_family("nonesuch")


def test_domain_rejections():
    with pytest.raises(DomainError):
        verify_family("cyclic", {"p": 2, "q": 3})
    with pytest.raises(DomainError):
        verify_family("dihedral", {"p": 2, "q": 3})
    with pytest.raises(DomainError):
        verify_family("icosahedral_lee", {"p": 2, "q": 1})
    with pytest.raises(DomainError):
        verify_family("icosahedral_lee", {"p": -2, "q": -1})
    with pytest.raises(DomainError):
        verify_family("icosahedral_lee", {"p": 5, "q": 0})
    with pytest.raises(DomainError):
        verify_family("cyclic", {"p": 2})
    with pytest.raises(ValueError):
        evaluate_filling("cyclic", {"p": 2, "q": 4}, Slope(17))


def test_cyclic_spot_values():
    assert evaluate_filling("cyclic", {"p": 2, "q": 4}, Slope(0)) == \
        connected_sum(Lens(2, 1), Lens(2, 1))
    assert evaluate_filling("cyclic", {"p": 2, "q": 4}, INFINITY) == Lens(50, 19)
    assert evaluate_filling("cyclic", {"p": 2, "q": 4}, Slope(-1)) == \
        OpaqueTag(TAG_TOROIDAL_IRREDUCIBLE)
    assert evaluate_filling("cyclic", {"p": 3, "q": 5}, Slope(0)) == \
        connected_sum(Lens(3, 1), Lens(3, 1))


def test_ew_prior_and_bz_w6_spot_values():
    assert evaluate_filling("ew_prior", {"p": 2}, Slope(0)) == Lens(6, 1)
    assert evaluate_filling("ew_prior", {"p": 3}, Slope(0)) == Lens(13, 2)
    assert evaluate_filling("ew_prior", {"p": 2}, Slope(1, 3)) == \
        connected_sum(Lens(3, 1), Lens(2, 1))
    assert evaluate_filling("bz_w6", {}, INFINITY) == Lens(6, 1)
    assert evaluate_filling("bz_w6", {}, Slope(1)) == \
        connected_sum(Lens(3, 1), Lens(2, 1))


def test_prior_example_coincidence():
    ours = evaluate_filling("ew_prior", {"p": 2}, Slope(0))
    theirs = evaluate_filling("bz_w6", {}, INFINITY)
    assert lens_homeomorphic(ours, theirs)


def test_dihedral_spot_values():
    assert evaluate_filling("dihedral", {"p": 3, "q": 3}, Slope(0)) == \
        connected_sum(Lens(3, 1), Lens(7, 1))
    assert evaluate_filling("dihedral", {"p": 3, "q": 3}, INFINITY) == \
        sfs_orders(BASE_S2, (2, 2, 13))
    assert evaluate_filling("dihedral", {"p": 4, "q": 5}, INFINITY) == \
        sfs_orders(BASE_S2, (2, 2, 34))


def test_dihedral_aux_spot_values():
    assert evaluate_filling("dihedral_aux_Np", {"p": 3}, INFINITY) == \
        sfs_orders(BASE_D2, (2, 5))
    assert evaluate_filling("dihedral_aux_Np", {"p": 3}, Slope(0)) == \
        torus_union(CableSpace(1, 2), sfs_orders(BASE_D2, (2, 3)))
    assert evaluate_filling("dihedral_aux_Np", {"p": 3}, Slope(1)) == \
        SolidTorus()  # D2(2,1) is a fibered solid torus
    assert evaluate_filling("dihedral_aux_Np", {"p": 4}, Slope(1)) == \
        sfs_orders(BASE_D2, (2, 2))
    assert evaluate_filling("dihedral_aux_Np", {"p": 3}, Slope(2)) == ZxS1()


def test_tetrahedral_spot_values():
    assert evaluate_filling("tetrahedral", {}, Slope(0)) == \
        connected_sum(Lens(3, 1), Lens(3, 1))
    assert evaluate_filling("tetrahedral", {}, INFINITY) == \
        sfs_orders(BASE_S2, (2, 3, 3))
    assert evaluate_filling("tetrahedral", {}, Slope(1)) == \
        sfs_orders(BASE_S2, (2, 2, 7))


def test_octahedral_spot_values():
    assert evaluate_filling("octahedral", {"p": 3}, Slope(0)) == \
        connected_sum(lens_space(2, 1), sfs_orders(BASE_S2, (4, 3, 7)))
    assert evaluate_filling("octahedral", {"p": 3}, INFINITY) == \
        sfs_orders(BASE_S2, (2, 3, 4))
    assert evaluate_filling("octahedral_aux_Np", {"p": 3}, Slope(0)) == \
        connected_sum(lens_space(2, 1), sfs_orders(BASE_D2, (3, 7)))


def test_icosahedral_lee_spot_values():
    fill = lambda p, q, r: evaluate_filling("icosahedral_lee",
                                            {"p": p, "q": q}, r)
    assert fill(3, -1, Slope(-1, 2)) == S1xS2()
    assert fill(3, -1, Slope(0)) == sfs_orders(BASE_S2, (2, 3, 5))
    assert fill(-4, -1, Slope(0)) == sfs_orders(BASE_S2, (2, 3, 5))
    assert fill(-3, 1, Slope(-1)) == sfs_orders(BASE_S2, (2, 3, 5))
    assert fill(4, 1, Slope(-1)) == sfs_orders(BASE_S2, (2, 3, 5))
    assert fill(3, -1, INFINITY) == OpaqueTag(TAG_TOROIDAL)
    assert fill(5, 2, Slope(0)) == sfs_orders(BASE_S2, (4, 3, 11))


def test_icosahedral_second_spot_values():
    assert evaluate_filling("icosahedral_second", {}, Slope(0)) == \
        connected_sum(Lens(3, 1), Lens(4, 1))
    assert evaluate_filling("icosahedral_second", {}, INFINITY) == \
        sfs_orders(BASE_S2, (2, 3, 5))
    assert evaluate_filling("icosahedral_second", {}, Slope(1)) == \
        sfs_orders(BASE_S2, (2, 3, 7))


def test_designated_pairs_have_distance_one():
    for spec in family_catalog():
        if spec.designated_pair is None:
            continue
        reducible_slope, finite_slope = spec.designated_pair
        assert distance(reducible_slope, finite_slope) == 1, spec.name


def test_verify_family_all_pass():
    for name, params in (("cyclic", {"p": 2, "q": 4}),
                         ("ew_prior", {"p": 2}),
                         ("bz_w6", {}),
                         ("dihedral", {"p": 3, "q": 3}),
                         ("dihedral_aux_Np", {"p": 3}),
                         ("tetrahedral", {}),
                         ("octahedral", {"p": 3}),
                         ("octahedral_aux_Np", {"p": 3}),
                         ("icosahedral_lee", {"p": 3, "q": -1}),
                         ("icosahedral_second", {})):
        report = verify_family(name, params)
        assert report.status is Status.PASS, report


def test_verify_icosahedral_lee_conditional_checks():
    finite = verify_family("icosahedral_lee", {"p": 3, "q": -1})
    assert any(c.kind == "finite_type" for c in finite.checks)
    generic = verify_family("icosahedral_lee", {"p": 5, "q": 2})
    assert all(c.kind != "finite_type" for c in generic.checks)
    assert generic.status is Status.PASS


def test_sweep_cyclic_grid():
    report = sweep_verify("cyclic", {"p": (2, 30), "q": (4, 30)})
    assert report.points == 29 * 27 == 783
    assert report.failed == 0
    assert report.indeterminate == 0
    assert report.passed == 783
    assert report.failures == ()


def test_sweep_skips_out_of_domain_points():
    report = sweep_verify("cyclic", {"p": (2, 2), "q": (3, 4)})
    assert report.points == 1


def test_sweep_dihedral_all_dihedral():
    report = sweep_verify("dihedral", {"p": (3, 30), "q": (3, 30)})
    assert report.points == 28 * 28
    assert report.failed == 0 and report.indeterminate == 0
    spec = get_family("dihedral")
    for p, q in ((3, 3), (17, 29), (30, 30)):
        m = spec.claim_at(INFINITY).build(p=p, q=q)
        assert classify_finite_type(m) is FiniteType.DIHEDRAL


def test_sweep_octahedral_range():
    report = sweep_verify("octahedral", {"p": (3, 50)})
    assert report.points == 48
    assert report.failed == 0 and report.indeterminate == 0


def test_sweep_points_follow_grid_order():
    points = sweep_point_reports("cyclic", {"p": (2, 6), "q": (4, 8)})
    assert [r.params for r in points] == \
        [{"p": p, "q": q} for p in range(2, 7) for q in range(4, 9)]


def test_grid_names_are_checked_at_the_call():
    # Before any point is read, so a caller sees the fault where it asks.
    with pytest.raises(DomainError, match="takes parameters: p, q"):
        grid_points(get_family("cyclic"), {"p": (2, 3)})
    with pytest.raises(DomainError, match="takes parameters: p, q"):
        sweep_point_reports("cyclic", {"p": (2, 3), "r": (4, 5)})


def test_grid_holds_one_point_at_a_time():
    # cyclic needs p >= 2, so no point is in the domain and the search
    # walks the whole 10^5-long q axis without copying it.
    tracemalloc.start()
    try:
        first = next(grid_points(get_family("cyclic"),
                                 {"p": (0, 0), "q": (4, 100_003)}), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first is None
    assert peak < 1_000_000
    # A family without parameters has one point, one parameter a line.
    assert list(grid_points(get_family("bz_w6"), {})) == [{}]
    assert list(grid_points(get_family("ew_prior"), {"p": (1, 4)})) == \
        [{"p": 2}, {"p": 3}, {"p": 4}]


@pytest.mark.parametrize("sweep", [
    lambda: main(["family-sweep", "cyclic", "--p", "2..6", "--q", "4..8"]),
    lambda: main(["family-verify", "cyclic", "--p", "2..6", "--q", "4..8",
                  "--format", "tsv"]),
    lambda: sweep_verify("cyclic", {"p": (2, 6), "q": (4, 8)}),
], ids=["family-sweep", "family-verify", "sweep_verify"])
def test_sweeps_drop_each_report_once_read(monkeypatch, capsys, sweep):
    # When a point is verified, at most the report of the point before it
    # is still alive, so a sweep's memory does not grow with its reports.
    real, refs, alive = families.verify_family, [], []

    def spy(name, params):
        alive.append(sum(ref() is not None for ref in refs))
        report = real(name, params)
        refs.append(weakref.ref(report))
        return report

    monkeypatch.setattr(families, "verify_family", spy)
    sweep()
    capsys.readouterr()
    assert len(alive) == 25
    assert max(alive) <= 1


def _peak_bytes(argv: list[str]) -> int:
    """Peak traced allocation of one in-process CLI run, its output kept."""
    with redirect_stdout(io.StringIO()):
        main(argv[:2] + ["--p", "2", "--q", "4"])  # imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            main(argv)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("verb, fmt, bound", [
    ("family-verify", "tsv", 2000),
    ("family-sweep", "json", 700),
])
def test_family_verbs_keep_only_row_text(verb, fmt, bound):
    # Growing the cyclic grid from 1,000 to 4,000 points costs at most
    # ``bound`` bytes of peak per point: each row's encoded text. A dict
    # kept per row costs 2,864 and 1,306 bytes a point.
    small = _peak_bytes([verb, "cyclic", "--p", "2..41", "--q", "4..28",
                         "--format", fmt])
    large = _peak_bytes([verb, "cyclic", "--p", "2..81", "--q", "4..53",
                         "--format", fmt])
    assert (large - small) / 3000 <= bound


def test_sweep_verify_records_every_check_that_does_not_pass(monkeypatch):
    # p = 1 fails one check and leaves one undecided, p = 2 leaves one
    # undecided, p = 3 passes.
    planted = FamilySpec(
        name="planted", description="", param_names=("p",),
        domain_doc="", in_domain=lambda p: True,
        claims=(Claim(Slope(0), "L(5,1)", lambda p: lens_space(5, 1)),
                Claim(INFINITY, "tag(toroidal)",
                      lambda p: OpaqueTag(TAG_TOROIDAL))),
        checks=(Check("wellformed"),
                Check("reducible", (Slope(0),), when=lambda ps: ps["p"] == 1),
                Check("reducible", (INFINITY,), when=lambda ps: ps["p"] <= 2)))
    monkeypatch.setitem(FAMILIES, "planted", planted)
    report = sweep_verify("planted", {"p": (1, 3)})
    assert (report.points, report.passed, report.failed,
            report.indeterminate) == (3, 1, 1, 1)
    undecided = {"detail": "filling(inf) is reducible",
                 "status": "indeterminate", "observed": "tag(toroidal)"}
    assert report.failures == (
        {"params": {"p": 1}, "detail": "filling(0) is reducible",
         "status": "fail", "observed": "L(5,1)"},
        {"params": {"p": 1}, **undecided},
        {"params": {"p": 2}, **undecided})


def test_icosahedral_pair_scan_is_exact():
    hits = scan_icosahedral_pairs(10)
    assert hits == {"0": ((-4, -1), (3, -1)), "-1": ((-3, 1), (4, 1))}


def test_icosahedral_lee_checks_finite_type_at_the_scanned_pairs():
    # The when sets of the two finite_type checks are the pairs the scan
    # finds, so a changed pair there fails here.
    hits = scan_icosahedral_pairs()
    assert families._LEE_FINITE_AT_0 == frozenset(hits["0"])
    assert families._LEE_FINITE_AT_MINUS_1 == frozenset(hits["-1"])


def test_result_records_keep_their_fields_and_are_immutable():
    check = CheckResult("reducible", "filling(0) is reducible", Status.PASS,
                        "L(2,1) # L(3,1)")
    point = VerificationReport("cyclic", {"p": 2, "q": 4}, Status.PASS,
                               (check,))
    sweep = SweepReport("cyclic", {"p": (2, 2)}, 1, 1, 0, 0)
    for record, expected in (
        (check, {"kind": "reducible", "detail": "filling(0) is reducible",
                 "status": Status.PASS, "observed": "L(2,1) # L(3,1)"}),
        (point, {"family": "cyclic", "params": {"p": 2, "q": 4},
                 "status": Status.PASS, "checks": (check,)}),
        (sweep, {"family": "cyclic", "ranges": {"p": (2, 2)}, "points": 1,
                 "passed": 1, "failed": 0, "indeterminate": 0,
                 "failures": ()}),
    ):
        # Attribute names in positional order, with the values passed.
        assert list(vars(record).items()) == list(expected.items())
        assert weakref.ref(record)() is record
        for change in (lambda: setattr(record, "status", Status.FAIL),
                       lambda: setattr(record, "extra", 1),
                       lambda: delattr(record, "status")):
            with pytest.raises(AttributeError, match="is immutable"):
                change()
        assert vars(record) == expected
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert list(vars(twin)) == list(expected)


def test_run_check_reports_failures(monkeypatch):
    broken = FamilySpec(
        name="broken", description="", param_names=(),
        domain_doc="", in_domain=lambda: True,
        claims=(Claim(Slope(0), "L(4,2)", lambda: Lens(4, 2)),),
        checks=(Check("wellformed"),))
    monkeypatch.setitem(FAMILIES, "broken", broken)
    (result,) = verify_family("broken", {}).checks
    assert result.status is Status.FAIL
    assert "gcd" in result.observed


def test_run_check_indeterminate_finite_type(monkeypatch):
    shrug = FamilySpec(
        name="shrug", description="", param_names=(),
        domain_doc="", in_domain=lambda: True,
        claims=(Claim(Slope(0), "tag(lens-type)",
                      lambda: OpaqueTag("lens-type")),),
        checks=(Check("finite_type", (Slope(0),), FiniteType.CYCLIC),))
    monkeypatch.setitem(FAMILIES, "shrug", shrug)
    (result,) = verify_family("shrug", {}).checks
    assert result.status is Status.INDETERMINATE


def test_run_check_indeterminate_reducible(monkeypatch):
    # Neither description decides reducibility, so the check cannot fail.
    shrug = FamilySpec(
        name="shrug", description="", param_names=(),
        domain_doc="", in_domain=lambda: True,
        claims=(Claim(Slope(0), "tag(lens-type)",
                      lambda: OpaqueTag("lens-type")),
                Claim(INFINITY, "U[ST, ST]",
                      lambda: torus_union(SolidTorus(), SolidTorus()))),
        checks=(Check("reducible", (Slope(0),)),
                Check("reducible", (INFINITY,))))
    monkeypatch.setitem(FAMILIES, "shrug", shrug)
    report = verify_family("shrug", {})
    assert [c.status for c in report.checks] == [Status.INDETERMINATE] * 2
    assert report.status is Status.INDETERMINATE


def _spec_with(check: Check) -> FamilySpec:
    return FamilySpec(
        name="malformed", description="", param_names=(),
        domain_doc="", in_domain=lambda: True,
        claims=(Claim(Slope(0), "L(2,1)", lambda: lens_space(2, 1)),),
        checks=(Check("wellformed"), check))


def test_spec_rejects_unknown_check_kind():
    with pytest.raises(ValueError, match="unknown check kind 'reducable'"):
        _spec_with(Check("reducable", (Slope(0),)))


def test_spec_rejects_check_on_unclaimed_slope():
    with pytest.raises(ValueError, match="no claim at slope inf"):
        _spec_with(Check("finite_type", (INFINITY,), FiniteType.CYCLIC))
    with pytest.raises(ValueError, match="no claim at slope 3"):
        _spec_with(Check("distinct", (Slope(0), Slope(3))))
    # A distance check builds nothing, so it may name an unclaimed slope.
    assert _spec_with(Check("distance", (Slope(0), Slope(3)), 3)).checks


def test_verify_family_builds_each_claim_once(monkeypatch):
    built = []
    counted = FamilySpec(
        name="counted", description="", param_names=(),
        domain_doc="", in_domain=lambda: True,
        claims=(Claim(Slope(0), "L(2,1) # L(3,1)",
                      lambda: built.append("0") or connected_sum(
                          lens_space(2, 1), lens_space(3, 1))),
                Claim(INFINITY, "L(6,1)",
                      lambda: built.append("1/0") or lens_space(6, 1))),
        checks=(Check("wellformed"),
                Check("reducible", (Slope(0),)),
                Check("finite_type", (INFINITY,), FiniteType.CYCLIC),
                Check("distinct", (Slope(0), INFINITY))))
    monkeypatch.setitem(FAMILIES, "counted", counted)
    assert verify_family("counted", {}).status is Status.PASS
    assert sorted(built) == ["0", "1/0"]


def test_ill_formed_claim_raises_from_later_checks(monkeypatch):
    broken = FamilySpec(
        name="broken", description="", param_names=(),
        domain_doc="", in_domain=lambda: True,
        claims=(Claim(Slope(0), "L(4,2)", lambda: Lens(4, 2)),),
        checks=(Check("wellformed"), Check("reducible", (Slope(0),))))
    monkeypatch.setitem(FAMILIES, "broken", broken)
    with pytest.raises(IllFormedClaimError):
        verify_family("broken", {})


# Small windows of every family.  _PIN_SHA256 is the sha256 of the
# family verbs' stdout over them; Python 3.10 and 3.11 give the same bytes.
_PIN_WINDOWS = {
    "cyclic": ("--p", "2..6", "--q", "4..8"),
    "ew_prior": ("--p", "2..6"),
    "dihedral": ("--p", "2..6", "--q", "4..8"),
    "dihedral_aux_Np": ("--p", "2..6"),
    "octahedral": ("--p", "2..6"),
    "octahedral_aux_Np": ("--p", "2..6"),
    "icosahedral_lee": ("--p", "-3..3", "--q", "-3..3"),
}
_PIN_SHA256 = \
    "f21b9ca514279f927879fda5e8174366676934f4e62ef4f5139c3f231cfefba5"


def test_family_verbs_bytes_pinned(capsys):
    digest = hashlib.sha256()
    for spec in family_catalog():
        window = _PIN_WINDOWS.get(spec.name, ())
        argvs = [["family-verify", spec.name, *window, "--format", "tsv"],
                 ["family-sweep", spec.name, *window, "--format", "json"]]
        argvs += [["family-fill", spec.name, format_slope(c.slope), *window]
                  for c in spec.claims]
        for argv in argvs:
            assert main(argv) == 0, argv
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == _PIN_SHA256


def _pin_ranges(spec: FamilySpec) -> dict[str, tuple[int, int]]:
    window = iter(_PIN_WINDOWS.get(spec.name, ()))
    return {flag[2:]: tuple(map(int, text.split("..")))
            for flag, text in zip(window, window)}


_ANSWER = {True: Status.PASS, False: Status.FAIL, None: Status.INDETERMINATE}


def _check_from_scratch(spec: FamilySpec, check: Check, params: dict):
    """A check's (kind, detail, status, observed), restated from claims
    built afresh at the point, without the compiled plan."""
    fill = lambda r: spec.claim_at(r).build(**params)
    names = [format_slope(r) for r in check.slopes]
    if check.kind == "wellformed":
        try:
            for claim in spec.claims:
                claim.build(**params)
        except IllFormedClaimError as exc:
            return ("wellformed", "all claims build", Status.FAIL, str(exc))
        return ("wellformed", "all claims build", Status.PASS, "ok")
    if check.kind == "distance":
        d = distance(*check.slopes)
        return ("distance", f"distance({names[0]}, {names[1]}) = {check.expected}",
                _ANSWER[d == check.expected], str(d))
    if check.kind == "reducible":
        m = fill(check.slopes[0])
        return ("reducible", f"filling({names[0]}) is reducible",
                _ANSWER[m.reducible], str(m))
    if check.kind == "finite_type":
        m = fill(check.slopes[0])
        observed = classify_finite_type(m)
        answer = (None if observed is FiniteType.UNKNOWN
                  else observed is check.expected)
        return ("finite_type",
                f"classify(filling({names[0]})) = {check.expected.value}",
                _ANSWER[answer], f"{m} -> {observed.value}")
    assert check.kind == "distinct", check.kind
    m1, m2 = fill(check.slopes[0]), fill(check.slopes[1])
    outcome = manifold_compare(m1, m2)
    answer = {Comparison.DISTINCT: True, Comparison.EQUAL: False}.get(outcome)
    return ("distinct", f"filling({names[0]}) != filling({names[1]})",
            _ANSWER[answer], f"{m1} vs {m2}: {outcome.value}")


def test_settled_checks_equal_checks_made_at_each_point():
    # Claims and checks settled once per family must give at every point
    # what building the claims there gives.
    points = 0
    for spec in family_catalog():
        ranges = _pin_ranges(spec)
        assert ranges or not spec.param_names, spec.name
        for params in grid_points(spec, ranges):
            points += 1
            report = verify_family(spec.name, params)
            expected = [_check_from_scratch(spec, check, params)
                        for check in spec.checks
                        if check.when is None or check.when(params)]
            assert [(c.kind, c.detail, c.status, c.observed)
                    for c in report.checks] == expected, (spec.name, params)
            assert report.status is combine_status(e[2] for e in expected)
    assert points == 85


def test_parameter_free_claims_are_built_once_per_family(monkeypatch):
    calls = Counter()
    for name in ("lens_space", "sfs_orders", "connected_sum", "torus_union"):
        def counted(*args, _name=name, _build=getattr(families, name)):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(families, name, counted)
    # The 1/3-filling L(3,1) # L(2,1) is built with the table, not here.
    for params in grid_points(get_family("ew_prior"), {"p": (2, 101)}):
        verify_family("ew_prior", params)
    assert calls == {"lens_space": 100}
    calls.clear()
    for name in ("bz_w6", "tetrahedral", "icosahedral_second"):
        assert verify_family(name, {}).status is Status.PASS
    assert not calls
    built = {spec.name: [format_slope(c.slope)
                         for c, m in zip(spec.claims, spec.built) if m is not None]
             for spec in family_catalog() if spec.param_names}
    assert built == {"cyclic": ["-1"], "ew_prior": ["1/3"], "dihedral": [],
                     "dihedral_aux_Np": ["2"], "octahedral": ["inf"],
                     "octahedral_aux_Np": [], "icosahedral_lee": ["-1/2", "inf"]}


def _one_parameter_spec(*checks: Check) -> FamilySpec:
    return FamilySpec(
        name="broken", description="", param_names=("p",),
        domain_doc="p >= 2", in_domain=lambda p: p >= 2,
        claims=(Claim(Slope(0), "L(p,1)", lambda p: lens_space(p, 1)),
                Claim(INFINITY, "L(4,2)", lambda **_: Lens(4, 2))),
        checks=checks)


def test_ill_formed_parameter_free_claim_fails_at_every_point(monkeypatch):
    # A claim that raises when built is not settled: each point builds it.
    broken = _one_parameter_spec(Check("wellformed"),
                                 Check("reducible", (Slope(0),)))
    assert broken.built[1] is None
    monkeypatch.setitem(FAMILIES, "broken", broken)
    reports = list(sweep_point_reports("broken", {"p": (2, 6)}))
    assert len(reports) == 5
    for report in reports:
        wellformed, reducible = report.checks
        assert wellformed.status is Status.FAIL
        assert wellformed.observed == "L(4,2) needs gcd(p, q) = 1"
        assert reducible.status is Status.FAIL
    monkeypatch.setitem(FAMILIES, "broken", _one_parameter_spec(
        Check("wellformed"), Check("finite_type", (INFINITY,), FiniteType.CYCLIC)))
    for p in (2, 3):
        with pytest.raises(IllFormedClaimError, match="gcd"):
            verify_family("broken", {"p": p})


_FINITE_TYPES = frozenset({FiniteType.CYCLIC, FiniteType.DIHEDRAL,
                           FiniteType.TETRAHEDRAL, FiniteType.OCTAHEDRAL,
                           FiniteType.ICOSAHEDRAL})

# |p|, |q| <= 30 wherever the domain allows.
_LAW_WINDOWS = {
    "cyclic": {"p": (2, 30), "q": (4, 30)},
    "ew_prior": {"p": (2, 30)},
    "bz_w6": {},
    "dihedral": {"p": (3, 30), "q": (3, 30)},
    "tetrahedral": {},
    "octahedral": {"p": (3, 30)},
    "icosahedral_lee": {"p": (-30, 30), "q": (-30, 30)},
    "icosahedral_second": {},
}


def test_catalog_distance_laws():
    # Every family but the _aux tangle exteriors has a hyperbolic exterior,
    # where a reducible and a finite filling lie at distance 1
    # (Boyer-Gordon-Zhang) and two reducible fillings at distance at most 1
    # (Gordon-Luecke).  A violation is a bug in the catalog.
    assert sorted(_LAW_WINDOWS) == sorted(
        spec.name for spec in family_catalog() if "_aux" not in spec.name)
    points = 0
    for name, ranges in _LAW_WINDOWS.items():
        spec = get_family(name)
        for params in grid_points(spec, ranges):
            points += 1
            built = [(c.slope, c.build(**params)) for c in spec.claims]
            reducible = [r for r, m in built if is_reducible(m)]
            finite = [r for r, m in built
                      if classify_finite_type(m) in _FINITE_TYPES]
            for r in reducible:
                for s in finite:
                    assert distance(r, s) == 1, (name, params, r, s)
                for s in reducible:
                    assert distance(r, s) <= 1, (name, params, r, s)
    assert points == 5103


# ---------------------------------------------------------------------------
# Printed formulas


class _Arithmetic:
    """Reads the arithmetic of a claim formula from ``pos``: integers,
    p, q, + and -, juxtaposition as product ("3p", "2pq",
    "(3p+2)(-2q+1)") and absolute values "|...|"."""

    def __init__(self, text: str, params: dict, pos: int):
        self.text, self.params, self.pos = text, params, pos

    def _peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def _take(self, expected: str | None = None) -> str:
        ch = self._peek()
        assert ch and (expected is None or ch == expected), (self.text, self.pos)
        self.pos += 1
        return ch

    def expr(self) -> int:
        value = self._term()
        while self._peek() in ("+", "-"):
            sign = 1 if self._take() == "+" else -1
            value += sign * self._term()
        return value

    def _term(self) -> int:
        sign = 1
        if self._peek() == "-":
            self._take()
            sign = -1
        value = self._factor()
        while self._peek() and self._peek() in "pq(":
            value *= self._factor()
        return sign * value

    def _factor(self) -> int:
        ch = self._take()
        if ch.isdigit():
            digits = ch
            while self._peek().isdigit():
                digits += self._take()
            return int(digits)
        if ch in self.params:
            return self.params[ch]
        if ch == "(":
            value = self.expr()
            self._take(")")
            return value
        assert ch == "|", (self.text, self.pos - 1)
        value = abs(self.expr())
        self._take("|")
        return value


# An argument that starts with arithmetic, after "(" or ",".
_ARGUMENT = re.compile(r"(?<=[(,])\s*(?=[-\d(|pq])")


def _substitute(formula: str, params: dict) -> str:
    """The formula with each arithmetic argument replaced by its value."""
    out, pos = [], 0
    for m in _ARGUMENT.finditer(formula):
        if m.start() < pos:  # inside an argument already read
            continue
        reader = _Arithmetic(formula, params, m.end())
        value = reader.expr()
        assert formula[reader.pos] in ",)", (formula, reader.pos)
        out += [formula[pos:m.end()], str(value)]
        pos = reader.pos
    return "".join(out) + formula[pos:]


def test_substitute_reads_formula_arithmetic():
    params = {"p": 3, "q": -2}
    assert _substitute("L((3p+2)(-2q+1)+6, (3p+2)q-3)", params) == \
        "L(61, -25)"
    assert _substitute("S2(|p-1|, |2q-1|, |pq+q-1|)", params) == \
        "S2(2, 5, 9)"
    assert _substitute("U[C(1,2), D2(2,2pq-p-2)]", params) == \
        "U[C(1,2), D2(2,-17)]"
    assert _substitute("tag(toroidal) # S1xS2", params) == \
        "tag(toroidal) # S1xS2"


def test_printed_formulas_are_what_is_built():
    # The formula column of family-fill must name the manifold the claim
    # builds, at every in-domain point of the window.
    claims, evaluated = set(), 0
    for spec in family_catalog():
        window = {name: (-8, 11) for name in spec.param_names}
        for params in grid_points(spec, window):
            for claim, once in zip(spec.claims, spec.built):
                text = _substitute(claim.formula, params)
                if once is not None:  # a claim that reads no parameter
                    assert text == claim.formula, (spec.name, claim.formula)
                assert parse_manifold_expr(text) == claim.build(**params), \
                    (spec.name, params, claim.formula, text)
                claims.add((spec.name, claim.slope))
                evaluated += 1
    assert len(claims) == sum(len(s.claims) for s in family_catalog()) == 26
    assert evaluated == 1769
