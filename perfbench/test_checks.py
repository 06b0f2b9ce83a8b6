"""The benchmark's output checks reject corrupted outputs.

    python3 -m pytest perfbench/test_checks.py -q

Each check is fed an output that is right by the reference computations and
must accept it, then the same output with one fault and must reject it.  A
small sweep also confirms that the references agree with orbitforge itself
(N <= 6), so a wrong formula in checks.py cannot pass unnoticed.
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import checks  # noqa: E402
import run  # noqa: E402


def problems(results):
    return [r for r in results if r[2] is not None]


# -- correct outputs, built from the references ----------------------------------


def detail(suite, key):
    if suite == "zeta":
        lam, eps = checks.parse_key(key)
        d = checks.centralizer_dim(lam, eps)
        return {"dim": d, "tuples": 0, "orbit_count": d, "killed_fixed_points": 0, "span_dim": d}
    if suite == "saturation":
        lam, eps = checks.parse_key(key)
        nonzero = checks.dim_g(sum(lam), eps) - checks.centralizer_dim(lam, eps)
        return {"divisors": [1] * (nonzero - 1) + [-2] * min(1, nonzero) + [0] * checks.centralizer_dim(lam, eps)}
    if suite == "walgebra":
        lam, eps = checks.parse_key(key)
        graded = checks.centralizer_graded_dims(lam, eps)
        return {"r": sum(graded.values()), "pbw_count": checks.pbw_count(graded, 4),
                "character": {"0": "0", "1": "-3/2"}}
    if suite == "modular" and key.endswith("p=3") and "sp4" in key:
        orbit = checks.SP4_BOREL_ORBIT if "verma" in key else checks.SP4_SIEGEL_ORBIT
        dim = checks.module_dim(3, orbit, -1)
        return {"dim": dim, "probe": {"seeds": 10, "full_closures": 10, "ranks": [dim] * 10}}
    return {}


def report(suite, primes=(3, 7)):
    outcomes = {k: {"status": "pass", "detail": detail(suite, k)} for k in checks.suite_keys(suite, primes)}
    return {"passed": True, "suites": {suite: {"cases": len(outcomes), "failed": 0,
                                                 "failures": {}, "outcomes": outcomes}}}


def first_key(rep, suite, prefix=""):
    return next(k for k in rep["suites"][suite]["outcomes"] if k.startswith(prefix))


def drop_case(rep, suite):
    outcomes = rep["suites"][suite]["outcomes"]
    del outcomes[next(iter(outcomes))]
    rep["suites"][suite]["cases"] -= 1


def extra_case(rep, suite):
    rep["suites"][suite]["outcomes"]["1,1,1,1,1,1,1,1,1,1,1,1|1"] = {"status": "pass", "detail": {}}
    rep["suites"][suite]["cases"] += 1


def set_detail(suite, field, value, prefix=""):
    def corrupt(rep, _suite):
        rep["suites"][suite]["outcomes"][first_key(rep, suite, prefix)]["detail"][field] = value
    return corrupt


def bump_detail(suite, field, prefix=""):
    def corrupt(rep, _suite):
        det = rep["suites"][suite]["outcomes"][first_key(rep, suite, prefix)]["detail"]
        det[field] += 1
    return corrupt


def passed_flag_false(rep, suite):
    rep["passed"] = False


def hidden_failure(rep, suite):
    rep["suites"][suite]["outcomes"][first_key(rep, suite)]["status"] = "fail"


REPORT_CORRUPTIONS = [
    ("golden", drop_case),
    ("representatives", drop_case),
    ("representatives", extra_case),
    ("generation", drop_case),
    ("rigidity", extra_case),
    ("zeta", bump_detail("zeta", "dim")),
    ("zeta", bump_detail("zeta", "orbit_count")),
    ("saturation", set_detail("saturation", "divisors", [1, 3, 0])),
    ("saturation", set_detail("saturation", "divisors", [1, 2, 0, 0])),
    ("walgebra", bump_detail("walgebra", "r")),
    ("walgebra", bump_detail("walgebra", "pbw_count")),
    ("walgebra", set_detail("walgebra", "character", {"0": "0", "5": "1/3"})),
    ("casimir", drop_case),
    ("modular", bump_detail("modular", "dim", "baby verma")),
    ("modular", set_detail("modular", "dim", 26, "siegel")),
    ("modular", set_detail("modular", "probe", {"seeds": 10, "full_closures": 9, "ranks": []}, "baby verma")),
    ("modular", drop_case),
    ("zeta", passed_flag_false),
    ("saturation", hidden_failure),
]


@pytest.mark.parametrize("suite", checks.LATTICE_SUITES + checks.W_SUITES + checks.MODULE_SUITES)
def test_reference_report_is_accepted(suite):
    assert problems(checks.check_report(report(suite), (suite,))) == []


@pytest.mark.parametrize("suite,corrupt", REPORT_CORRUPTIONS,
                         ids=[f"{s}-{getattr(c, '__name__', i)}" for i, (s, c) in enumerate(REPORT_CORRUPTIONS)])
def test_corrupted_report_is_rejected(suite, corrupt):
    rep = report(suite)
    corrupt(rep, suite)
    assert problems(checks.check_report(rep, (suite,)))


# -- library case outputs --------------------------------------------------------


def library_outputs():
    lam, eps = (3, 3, 2, 2, 1, 1), 1
    graded = checks.centralizer_graded_dims(lam, eps)
    w_lam, w_eps = (3, 2, 2, 1), 1
    w_graded = checks.centralizer_graded_dims(w_lam, w_eps)
    s_lam, s_eps = (2, 2, 1, 1), -1
    return [
        ("large_orbit", checks.key(lam, eps),
         {"dim": checks.centralizer_dim(lam, eps), "graded_dims": {str(k): v for k, v in graded.items()}}),
        ("rigid_w", checks.key(w_lam, w_eps),
         {"graded_dims": dict(w_graded), "pbw_count": checks.pbw_count(w_graded, 4),
          "character": {"0": "0", "11": "-1/4"}}),
        ("stability", f"stability {checks.key(s_lam, s_eps)} p=5",
         {"dim": checks.centralizer_dim(s_lam, s_eps), "ranks": checks.ad_e_graded_ranks(s_lam, s_eps)}),
        ("module", "siegel module sp4 (2,2) p=7", {"dim": 343, "p": 7, "orbit": [2, 2]}),
    ]


LIBRARY_CORRUPTIONS = {
    "large_orbit": [lambda o: o.update(dim=o["dim"] + 1),
                    lambda o: o["graded_dims"].update({"0": o["graded_dims"]["0"] + 1})],
    "rigid_w": [lambda o: o.update(pbw_count=o["pbw_count"] + 1),
                lambda o: o["character"].update({"3": "2/3"}),
                lambda o: o["graded_dims"].update({0: o["graded_dims"][0] - 1})],
    "stability": [lambda o: o.update(dim=o["dim"] - 1),
                  lambda o: o["ranks"].update({0: o["ranks"][0] + 1})],
    "module": [lambda o: o.update(dim=7 ** 4)],
}


@pytest.mark.parametrize("kind,key,out", library_outputs(), ids=lambda v: v if isinstance(v, str) else "")
def test_library_checks(kind, key, out):
    check = checks.LIBRARY_CHECKS[kind]
    assert problems(check(key, out)) == []
    for corrupt in LIBRARY_CORRUPTIONS[kind]:
        bad = copy.deepcopy(out)
        corrupt(bad)
        assert problems(check(key, bad)), (kind, bad)


# -- failure accounting ------------------------------------------------------------


def test_failures_are_counted_with_witnesses():
    rep = report("zeta")
    key = first_key(rep, "zeta")
    rep["suites"]["zeta"]["outcomes"][key] = {"status": "fail", "witness": "AssertionError: boom"}
    rep["passed"] = False
    rnd = {
        "verify": {"zeta": {"seconds": 1.0, "report": rep, "error": None}},
        "library": [{"key": "12|1", "kind": "large_orbit", "seconds": 1.0, "out": None,
                     "witness": "AssertionError: codim 1 != predicted 0"}],
    }
    failures, bad = [], []
    cases, failed, _ = run.tally("lattice", rnd, failures, bad)
    assert (cases, failed) == (len(rep["suites"]["zeta"]["outcomes"]) + 1, 2)
    assert (f"zeta {key}", "AssertionError: boom") in failures
    assert ("12|1", "AssertionError: codim 1 != predicted 0") in failures
    assert bad == []


# -- the references agree with orbitforge on small cases ----------------------------


def test_references_match_orbitforge_small():
    of = pytest.importorskip("orbitforge")
    from orbitforge.modular import graded_dims_mod_p

    for n in range(2, 7):
        for eps in (1, -1):
            want = [tuple(lam.parts) for lam in of.admissible_partitions(n, eps)]
            assert checks.admissible(n, eps) == want
            for lam in want:
                rep = of.build_nilpotent(of.Partition(lam), eps)
                cb = of.compute_centralizer(rep)
                assert cb.dim == checks.centralizer_dim(lam, eps)
                assert cb.graded_dims() == checks.centralizer_graded_dims(lam, eps)
                assert graded_dims_mod_p(rep, 3) == checks.ad_e_graded_ranks(lam, eps)
                assert checks.almost_rigid(lam) == of.is_almost_rigid(of.Partition(lam))


# -- the tracer puts every original back ------------------------------------------


def test_tracer_uninstall_restores_every_original():
    of = pytest.importorskip("orbitforge")
    import importlib

    import layertrace

    for layer in layertrace.LAYERS:   # install() imports them all
        importlib.import_module(f"orbitforge.{layer}")

    def bindings():
        spaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "orbitforge"]
        spaces += [c for m in spaces for c in vars(m).values() if isinstance(c, type)]
        return {(id(ns), attr): value for ns in spaces for attr, value in vars(ns).items()}

    before = bindings()
    tracer = layertrace.LayerTrace()
    for _ in range(2):   # calls add up over install/uninstall rounds
        tracer.install()
        assert of.linalg.solve is not before[(id(of.linalg), "solve")]
        of.compute_centralizer(of.build_nilpotent(of.Partition((2, 2)), -1))
        tracer.uninstall()
        assert bindings() == before
    calls = tracer.metrics()["centralizer.compute_centralizer.calls"]
    assert calls == 2
    tracer.calibrate()
    assert tracer.wrapper_seconds() > 0
