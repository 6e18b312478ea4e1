"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact (integer counts and bit-identical forms).
"""

import time

from bhf.pairing import mor_d_d
from bhf.knots import alexander_polynomial, figure8_cfk, trefoil_cfk
from bhf import catalog, checks


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_torus_algebra():
    t0 = time.time()
    ok, detail = checks.check_torus_algebra()
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 0.1, f"{detail} ({elapsed:.3f}s < 0.1s)")


def test_criterion_02_strand_property_suite():
    ok1, d1 = checks.check_strand_properties(samples=10000, seed=2024)
    ok2, d2 = checks.check_closure(max_genus=2)
    _report(2, ok1 and ok2, f"{d1}; {d2}")


def test_criterion_03_surgery_triangle():
    ok, detail = checks.check_surgery_triangle()
    _report(3, ok, detail)


def test_criterion_04_pairing_rank_one():
    rank = mor_d_d(catalog.solid_torus("inf"), catalog.solid_torus("minus1")).homology_rank()
    _report(4, rank == 1, f"Mor(infinity-framed, minus-one-framed) homology rank {rank}")


def test_criterion_05_dd_identity():
    ok, detail = checks.check_dd_identity()
    _report(5, ok, detail)


def test_criterion_06_dehn_twists():
    ok, detail = checks.check_dehn_twists()
    _report(6, ok, detail)


def test_criterion_07_genus1_pipeline():
    ok, detail = checks.check_genus1_pipeline()
    _report(7, ok, detail)


def test_criterion_08_knot_invariants():
    ok, detail = checks.check_knot_invariants()
    poly_t = alexander_polynomial(trefoil_cfk())
    poly_8 = alexander_polynomial(figure8_cfk())
    sym = all(p.get(s) == p.get(-s) for p in (poly_t, poly_8) for s in p)
    at1 = sum(poly_t.values()) == 1 and sum(poly_8.values()) == 1
    _report(8, ok and sym and at1, f"{detail}; symmetric with value 1 at T=1")


def test_criterion_09_cfk_to_cfd():
    ok, detail = checks.check_cfk_to_cfd()
    _report(9, ok, detail)


def test_criterion_10_satellite_fixture():
    t0 = time.time()
    ok, detail = checks.check_satellite()
    elapsed = time.time() - t0
    _report(10, ok and elapsed < 1.0, f"{detail} ({elapsed:.3f}s < 1s)")


def test_criterion_11_underslides():
    ok, detail = checks.check_underslides(genus2=True)
    _report(11, ok, detail)


def test_criterion_12_snf_oracle():
    ok, detail = checks.check_snf_oracle(samples=1000, seed=7)
    _report(12, ok, detail)


def test_criterion_13_satellite_truncation():
    ok, detail = checks.check_satellite_truncation()
    _report(13, ok, detail)
