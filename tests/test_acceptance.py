"""Acceptance suite: one test per criterion, every check exact (zero
tolerance), with a pass/fail line printed per criterion.

Criteria 1-9 run the matching `orbitforge verify` suite through `run_verify`:
the suites in `orbitforge.cli` are the one implementation of each criterion.
Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the stated time budgets are generous compared to actual runtimes.
"""

import json
import time

from orbitforge.cli import VerifyConfig, run_verify


def run_suite(suite, budget, **config):
    """Run one verify suite; assert that it passed within budget seconds and
    return its number of cases."""
    t0 = time.time()
    result = run_verify(VerifyConfig(suites=(suite,), **config))
    assert result["passed"], result["suites"][suite]["failures"]
    assert time.time() - t0 < budget
    return result["suites"][suite]["cases"]


def report(number, text):
    print(f"criterion {number}: PASS  {text}")


def test_criterion_01_golden_fixtures():
    run_suite("golden", 1)
    report(1, "four golden pyramid fixtures and the reference (5,2,2,1) representative, exact")


def test_criterion_02_representative_sweep():
    count = run_suite("representatives", 300, max_n=12)
    report(2, f"{count} representatives, N <= 12, both families")


def test_criterion_03_zeta_suite():
    count = run_suite("zeta", 600)
    report(3, f"relations, bracket law, grading, span and count on {count} partitions, N <= 8")


def test_criterion_04_generation_almost_rigid():
    count = run_suite("generation", 600, max_n=12)
    report(4, f"degree-(0,1) generation + per-degree identity on {count} almost rigid cases, N <= 12")


def test_criterion_05_rigidity_concordance():
    count = run_suite("rigidity", 900)
    report(5, f"criterion == oracle on {count} cases; rigid cases: g^e and g^e(0) perfect over QQ and F_3,5,7")


def test_criterion_06_integral_saturation():
    count = run_suite("saturation", 600)
    report(6, f"2-power divisors, graded lattice equalities and the perp identity on {count} cases, N <= 8")


def test_criterion_07_w_algebra_suite():
    run_suite("walgebra", 1200)
    report(7, "thetas invariant and Z[1/2]-integral, commutator law, PBW counts to degree 4, "
              "augmentation character on sp_4 (2,1,1), sp_6 (2,1,1,1,1) and so_5 (2,2,1)")


def test_criterion_08_casimir():
    run_suite("casimir", 120)
    report(8, "centrality on all sp_4 and so_5 basis elements and the 2e + sum y_i z_i + C' shape")


def test_criterion_09_modular_suite():
    run_suite("modular", 2400, max_n=8, primes=(3, 5))
    report(9, "restrictedness, dimension stability (N <= 8), baby Verma p^4 and Siegel p^3 modules "
              "at p = 3, 5, closure probes at p = 3")


def test_criterion_10_determinism(tmp_path):
    config = VerifyConfig(max_n=5, primes=(3,), suites=("golden", "zeta", "saturation"))
    a = json.dumps(run_verify(config), indent=2, sort_keys=True)
    b = json.dumps(run_verify(config), indent=2, sort_keys=True)
    assert a == b
    report(10, "byte-identical verify reports for a fixed config")
