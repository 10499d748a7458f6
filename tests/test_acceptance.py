"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s, and the per-test PASSED/FAILED lines of pytest -v mirror
them) and enforces the stated runtime budget where one exists.
"""

import random
import time
from contextlib import contextmanager
from math import gcd

from dehncalc.cables import meridian_distance_squared
from dehncalc.cover import double_branched_cover
from dehncalc.diagrams import (goeritz_determinant, random_montesinos,
                               two_bridge_diagram, montesinos_diagram)
from dehncalc.families import (evaluate_filling, family_catalog,
                               scan_icosahedral_pairs, sweep_verify)
from dehncalc.links import (link_connected_sum, link_determinant, montesinos,
                            two_bridge, unlink)
from dehncalc.manifolds import (BASE_S2, FiniteType, Lens,
                                SfsOrdersOnly, classify_finite_type,
                                connected_sum, h1, lens_homeomorphic,
                                lens_space, sfs_orders)
from dehncalc.slopes import (INFINITY, Slope, apply_unimodular,
                             continued_fraction, distance,
                             from_continued_fraction)


@contextmanager
def _criterion(number: int, description: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s")
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_family_table_spot_instances():
    with _criterion(1, "family-table spot instances, exact", budget=1.0):
        assert evaluate_filling("cyclic", {"p": 2, "q": 4}, Slope(0)) == \
            connected_sum(Lens(2, 1), Lens(2, 1))
        assert evaluate_filling("cyclic", {"p": 2, "q": 4}, INFINITY) == \
            Lens(50, 19)
        assert evaluate_filling("dihedral", {"p": 3, "q": 3}, Slope(0)) == \
            connected_sum(Lens(3, 1), Lens(7, 1))
        assert evaluate_filling("dihedral", {"p": 3, "q": 3}, INFINITY) == \
            SfsOrdersOnly(BASE_S2, (2, 2, 13))
        assert evaluate_filling("tetrahedral", {}, Slope(0)) == \
            connected_sum(Lens(3, 1), Lens(3, 1))
        assert evaluate_filling("tetrahedral", {}, INFINITY) == \
            SfsOrdersOnly(BASE_S2, (2, 3, 3))
        assert evaluate_filling("tetrahedral", {}, Slope(1)) == \
            SfsOrdersOnly(BASE_S2, (2, 2, 7))
        assert evaluate_filling("octahedral", {"p": 3}, Slope(0)) == \
            connected_sum(lens_space(2, 1), sfs_orders(BASE_S2, (4, 3, 7)))
        assert evaluate_filling("octahedral", {"p": 3}, INFINITY) == \
            SfsOrdersOnly(BASE_S2, (2, 3, 4))
        assert evaluate_filling("icosahedral_second", {}, Slope(0)) == \
            connected_sum(Lens(3, 1), Lens(4, 1))
        assert evaluate_filling("icosahedral_second", {}, INFINITY) == \
            SfsOrdersOnly(BASE_S2, (2, 3, 5))
        assert evaluate_filling("icosahedral_second", {}, Slope(1)) == \
            SfsOrdersOnly(BASE_S2, (2, 3, 7))


def test_criterion_2_icosahedral_parameter_pairs():
    with _criterion(2, "icosahedral parameter pairs are exactly four",
                    budget=1.0):
        hits = scan_icosahedral_pairs(10)
        assert hits == {"0": ((-4, -1), (3, -1)), "-1": ((-3, 1), (4, 1))}


def test_criterion_3_distance_suite():
    with _criterion(3, "distance suite: designated pairs, lee, squared push"):
        designated = 0
        for spec in family_catalog():
            if spec.designated_pair is None:
                continue
            designated += 1
            r1, r2 = spec.designated_pair
            assert distance(r1, r2) == 1, spec.name
        assert designated == 8
        assert distance(Slope(-1, 2), INFINITY) == 2
        assert distance(Slope(0), Slope(4)) == 4
        assert meridian_distance_squared(2, distance(Slope(0), Slope(4))) == 16


def test_criterion_4_cyclic_wellformedness_sweep():
    with _criterion(4, "cyclic sweep over 783 points, zero failures",
                    budget=5.0):
        report = sweep_verify("cyclic", {"p": (2, 30), "q": (4, 30)})
        assert report.points == 29 * 27 == 783
        assert report.passed == 783
        assert report.failed == 0
        assert report.indeterminate == 0
        assert report.failures == ()
        for p in range(2, 31):
            for q in range(4, 31):
                assert gcd((3 * p + 2) * (-2 * q + 1) + 6,
                           (3 * p + 2) * q - 3) == 1


def test_criterion_5_oracle_equivalence():
    with _criterion(5, "Goeritz oracle equals formulas on 3043 + 200 cases",
                    budget=30.0):
        cases = 0
        for p in range(2, 101):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                cases += 1
                assert goeritz_determinant(two_bridge_diagram(p, q)) == p
        assert cases == 3043
        rng = random.Random(20250823)
        for _ in range(200):
            link = random_montesinos(rng)
            got = goeritz_determinant(montesinos_diagram(link.e, link.branches))
            assert got == link_determinant(link)


def test_criterion_6_classifier_brute_force():
    with _criterion(6, "finite-type classifier matches 1/a+1/b+1/c > 1",
                    budget=1.0):
        special = {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
        for a in range(2, 101):
            for b in range(a, 101):
                for c in range(b, 101):
                    got = classify_finite_type(SfsOrdersOnly(BASE_S2, (a, b, c)))
                    finite = got is not FiniteType.NOT_FINITE
                    assert finite == (b * c + a * c + a * b > a * b * c)
                    assert finite == ((a, b) == (2, 2) or (a, b, c) in special)


def test_criterion_7_prior_example_coincidence():
    with _criterion(7, "ew_prior p=2 gives L(6,5) ~ bz_w6 L(6,1)"):
        ours = evaluate_filling("ew_prior", {"p": 2}, Slope(0))
        assert ours == Lens(6, 5)  # normalized form of L(6,5)
        theirs = evaluate_filling("bz_w6", {}, INFINITY)
        assert theirs == Lens(6, 1)
        assert lens_homeomorphic(ours, theirs)


def test_criterion_8_property_suites():
    with _criterion(8, "seeded property suites, all exact", budget=60.0):
        rng = random.Random(828282)

        # distance is unimodular invariant
        def random_slope():
            while True:
                p, q = rng.randint(-50, 50), rng.randint(0, 10)
                if p or q:
                    return Slope(p, q)

        gens = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)))
        for _ in range(300):
            m = ((1, 0), (0, 1))
            for _ in range(rng.randint(1, 6)):
                g = rng.choice(gens)
                m = ((m[0][0] * g[0][0] + m[0][1] * g[1][0],
                      m[0][0] * g[0][1] + m[0][1] * g[1][1]),
                     (m[1][0] * g[0][0] + m[1][1] * g[1][0],
                      m[1][0] * g[0][1] + m[1][1] * g[1][1]))
            r1, r2 = random_slope(), random_slope()
            assert distance(apply_unimodular(m, r1), apply_unimodular(m, r2)) \
                == distance(r1, r2)

        # continued fractions round trip
        for p in range(-40, 41):
            for q in range(0, 15):
                if p == 0 and q == 0:
                    continue
                r = Slope(p, q)
                assert from_continued_fraction(continued_fraction(r)) == r
        for _ in range(200):
            r = Slope(rng.randint(-10**7, 10**7), rng.randint(1, 10**6))
            assert from_continued_fraction(continued_fraction(r)) == r

        # lens normalization: idempotent and constant on homeo classes
        for p in range(2, 31):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                m = Lens(p, q)
                assert Lens(m.p, m.q) == m
                assert Lens(p, p - q) == m
                assert Lens(p, pow(q, -1, p)) == m
                assert lens_homeomorphic(Lens(p, q), Lens(p, pow(q, -1, p)))

        # H1 order is multiplicative under connected sum
        lens_pool = [Lens(p, q) for p in range(2, 14)
                     for q in range(1, p) if gcd(p, q) == 1]
        for _ in range(100):
            parts = rng.sample(lens_pool, rng.randint(2, 4))
            prod = 1
            for part in parts:
                prod *= h1(part).order
            assert h1(connected_sum(*parts)).order == prod

        # h1 of the double branched cover equals the determinant
        samples = [two_bridge(p, q) for p in range(2, 100)
                   for q in range(1, p) if gcd(p, q) == 1]
        samples += [unlink(2), unlink(3)]
        for _ in range(100):
            branches = []
            for _ in range(3):
                a = rng.randint(2, 9)
                b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
                branches.append(Slope(b, a))
            samples.append(montesinos(rng.randint(-3, 3), branches))
        for _ in range(50):
            samples.append(link_connected_sum(
                rng.choice(samples[:200]), rng.choice(samples[:200])))
        for link in samples:
            det = link_determinant(link)
            res = h1(double_branched_cover(link))
            if det == 0:
                assert not res.is_finite
            else:
                assert res.order == det
