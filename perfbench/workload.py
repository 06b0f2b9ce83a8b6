"""The cases of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workload.py --workload lattice --seed 1 --passes 1
    python3 perfbench/workload.py --workload lattice --seed 1 --trace
    python3 perfbench/workload.py --workload lattice --setup-only

After set-up (import orbitforge, build every algebra the workload uses;
timed from before the import) the process runs all cases one after the
other (a closed loop with one client), `--passes` times over, and prints
one JSON line: the set-up times, per-case timings, statuses and the outputs
that `checks.py` compares with its references.  Between cases, every
SETUP_EVERY_S seconds and once at the end, it waits for a `--setup-only`
child, so the set-up is also timed at many points of the run.  `--trace` runs one
untraced and one traced pass instead, interleaved case by case, and adds
the layer metrics.  `--setup-only` prints the set-up time alone.

orbitforge must be importable (run.py puts the checkout's `src` on
PYTHONPATH).  Inputs come from the seed alone; the program only sees the
partitions, data and configurations made here.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from collections import Counter

import checks

WORKLOADS = ("lattice", "w-algebra-modules")
SUITES = {"lattice": checks.LATTICE_SUITES, "w-algebra-modules": checks.W_SUITES + checks.MODULE_SUITES}
# The modular suite runs at primes 3 and 7 through verify; p = 5 runs as
# library calls below, without the dim-625 baby Verma module (see README).
VERIFY_PRIMES = {"lattice": (3, 5, 7), "w-algebra-modules": (3, 7)}
LARGE_N = (12, 14, 16)
DRAW_POOL = 3
# sp_8 (2,2,2,1,1) would add about 10 s, a third, to a pass; left out to
# keep runs short (see README).
RIGID_W = (((2, 2, 1, 1, 1), 1), ((3, 2, 2, 1), 1))
# The Siegel module at p = 7 (dim 343) is left out: its dense products run
# out of cache, so its time follows the shared host's load (spread 0.37 over
# five seeds, against 0.09 for the rest of the pass; see README).
SIEGEL_PRIMES = (5,)
CALIBRATIONS = 6   # of the tracer's per-call cost, spread over a traced pass
# A shared machine's speed moves by up to 1.6x within seconds; set-ups
# taken seconds apart meet more of its phases than set-ups taken together.
SETUP_EVERY_S = 5


def algebras(workload: str) -> list:
    """(N, eps) of every algebra the workload builds."""
    if workload == "lattice":
        # 12, 14, 16: the draw; so_13, sp_12 and sp_14 also hold golden pyramids
        ns = list(range(2, checks.MAX_N + 1)) + [12, 13, 14, 16]
    else:
        ns = list(range(2, checks.SUITE_BOUND["modular"] + 1))
    return [(n, eps) for n in ns for eps in (1, -1) if eps == 1 or n % 2 == 0]


def draw_large_orbits(seed: int) -> list:
    """One almost-rigid partition per (N, eps), N in 12, 14, 16, drawn
    uniformly from the DRAW_POOL with the smallest centralisers (ties by
    partition order).  Larger centralisers cost up to 10x more per case, so
    drawing from them would make the time depend on the seed, not the code."""
    rng = random.Random(seed)
    out = []
    for n in LARGE_N:
        for eps in (1, -1):
            pool = sorted((lam for lam in checks.admissible(n, eps) if checks.almost_rigid(lam)),
                          key=lambda lam: (checks.centralizer_dim(lam, eps), lam))
            out.append((rng.choice(pool[:DRAW_POOL]), eps))
    return out


# -- library cases -------------------------------------------------------------


def large_orbit(of, lam, eps):
    from orbitforge import centralizer

    rep = of.build_nilpotent(of.Partition(lam), eps)
    cb = of.compute_centralizer(rep)
    of.complete_sl2(rep)
    ok, witness = of.check_generation(cb)
    if not ok:
        raise AssertionError(f"generation fails: {witness}")
    der = of.derived_subalgebra(cb)
    want = centralizer.predicted_complement_size(of.Partition(lam), eps)
    if der.codim != want:
        raise AssertionError(f"codim {der.codim} != predicted {want}")
    return {"dim": cb.dim, "graded_dims": cb.graded_dims()}


def rigid_w(of, lam, eps):
    from orbitforge import enveloping

    setup = of.WSetup(of.build_nilpotent(of.Partition(lam), eps))
    setup.build_all_thetas()
    for k, th in setup.thetas.items():
        if setup.ad_m_invariant(th.value) is not None:
            raise AssertionError(f"theta {k} is not ad-m-invariant")
        if not setup.is_r_integral(th.value):
            raise AssertionError(f"theta {k} leaves Z[1/2]")
    for i in range(setup.r):
        if setup.x_degrees[i] != 0:
            continue
        for j in range(setup.r):
            if setup.x_degrees[j] in (0, 1) and not enveloping.jems_commutator_check(
                    setup, setup.centralizer_matrix(i), setup.centralizer_matrix(j), setup.x_degrees[j]):
                raise AssertionError(f"commutator law fails at ({i},{j})")
    pb = of.pbw_basis_check(setup, 4)
    if not (pb["independent"] and pb["r_integral"]):
        raise AssertionError(str(pb))
    char = of.augmentation_character(setup)
    if any(v != 0 for k, v in char.items() if setup.x_degrees[k] <= 1):
        raise AssertionError("low-degree character value nonzero")
    if not enveloping.character_kills_commutators(setup, char):
        raise AssertionError("character does not kill commutators")
    cas = of.casimir(setup)
    if not cas.shape["shape_ok"]:
        raise AssertionError(f"Q-image shape violated: {cas.shape}")
    return {
        "graded_dims": dict(Counter(setup.x_degrees[:setup.r])),
        "pbw_count": pb["count"],
        "character": {str(k): of.format_rational(v) for k, v in sorted(char.items())},
    }


def restrictedness(of, p):
    of.reduce_mod_p(of.build_algebra(4, -1), p)
    of.reduce_mod_p(of.build_algebra(5, 1), p)
    return {}


def stability(of, lam, eps, p):
    from orbitforge import modular

    rep = of.build_nilpotent(of.Partition(lam), eps)
    return {"dim": modular.centralizer_dim_mod_p(rep, p), "ranks": modular.graded_dims_mod_p(rep, p)}


def siegel_module(of, p):
    datum = of.InductionDatum(4, -1, ((2, of.Partition((1, 1))),), of.Partition(()))
    module = of.build_induced_module(datum, p)
    book = of.kw_bookkeeping(of.Partition(checks.SP4_SIEGEL_ORBIT), -1, p, datum)
    if module.dim != book["small_dimension"] or not book["induction_identity"]:
        raise AssertionError(f"Kac-Weisfeiler bookkeeping fails: {book}")
    return {"dim": module.dim, "p": p, "orbit": list(checks.SP4_SIEGEL_ORBIT)}


def library_cases(workload: str, seed: int) -> list:
    """[(key, kind, fn, args)]; kind names the check in checks.LIBRARY_CHECKS."""
    if workload == "lattice":
        return [(checks.key(lam, eps), "large_orbit", large_orbit, (lam, eps))
                for lam, eps in draw_large_orbits(seed)]
    rng = random.Random(seed)
    w_cases = [(checks.key(lam, eps), "rigid_w", rigid_w, (lam, eps)) for lam, eps in RIGID_W]
    mod_p = [("restrictedness p=5", "restrictedness", restrictedness, (5,))]
    mod_p += [(f"stability {checks.key(lam, eps)} p=5", "stability", stability, (lam, eps, 5))
              for lam, eps in checks.sweep(checks.MAX_N, checks.SUITE_BOUND["modular"])]
    rng.shuffle(w_cases)
    rng.shuffle(mod_p)
    # The Siegel module comes last, so the seed does not move what the cases
    # before leave in memory when its matrices are allocated: with a larger
    # module shuffled in among them, peak memory read 54 MB or 68 MB by seed.
    return w_cases + mod_p + [(f"siegel module sp4 (2,2) p={p}", "module", siegel_module, (p,))
                              for p in SIEGEL_PRIMES]


# -- one process: set-up, then passes ------------------------------------------


def timed_setup(workload: str) -> float:
    """Seconds to import orbitforge (numpy with it) and build every algebra
    the workload uses, in an interpreter that has not imported it yet."""
    if "orbitforge" in sys.modules:
        raise RuntimeError("orbitforge is already imported; set-up would not be timed whole")
    t0 = time.perf_counter()
    setup_only(workload)
    return time.perf_counter() - t0


def setup_in_child(workload: str) -> float:
    """timed_setup() in a fresh interpreter, while this one waits."""
    proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--setup-only"],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def workload_cases(workload: str, seed: int) -> list:
    """One pass: (suite, VerifyConfig) per verify suite, then (None, case)
    per library case."""
    from orbitforge import cli

    verify = [(suite, cli.VerifyConfig(suites=(suite,), primes=VERIFY_PRIMES[workload], seed=seed))
              for suite in SUITES[workload]]
    return verify + [(None, case) for case in library_cases(workload, seed)]


def run_case(of, suite, case):
    """Run one case; (seconds, output, error).  Errors become witnesses."""
    from orbitforge import cli

    clock = time.perf_counter
    t0 = clock()
    try:
        out, error = (cli.run_verify(case) if suite else case[2](of, *case[3])), None
    except Exception as exc:  # noqa: BLE001 - reported as a failed case
        out, error = None, f"{type(exc).__name__}: {exc}"
    return clock() - t0, out, error


def new_pass() -> dict:
    return {"verify": {}, "library": []}


def record(rnd: dict, suite, case, seconds, out, error):
    if suite:
        rnd["verify"][suite] = {"seconds": seconds, "report": out, "error": error}
    else:
        rnd["library"].append({"key": case[0], "kind": case[1], "seconds": seconds,
                               "out": out, "witness": error})


def run_passes(workload: str, seed: int, passes: int) -> dict:
    """Time set-up, then run every case `passes` times in the same order,
    timing set-up again in a child every SETUP_EVERY_S seconds and at the
    end."""
    setups = [timed_setup(workload)]
    import orbitforge as of

    cases = workload_cases(workload, seed)
    results = []
    last = time.perf_counter()
    for _ in range(passes):
        rnd = new_pass()
        for suite, case in cases:
            if time.perf_counter() - last >= SETUP_EVERY_S:
                setups.append(setup_in_child(workload))
                last = time.perf_counter()
            record(rnd, suite, case, *run_case(of, suite, case))
        results.append(rnd)
    setups.append(setup_in_child(workload))
    return {"workload": workload, "seed": seed, "setup_s": setups, "passes": results,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_traced(workload: str, seed: int) -> dict:
    """One untraced and one traced pass, interleaved case by case.

    Each case runs once without and once with the layer tracer, back to
    back, so both see the same machine speed; the order flips from case to
    case, so that what a first run leaves warm favours neither side.  The
    set-up runs traced, so algebra construction shows in the spans.
    `coverage` is the share of traced time that the spans account for;
    `overhead_s` is the wrappers' own cost, calibrated between cases: on a
    shared machine the difference of the two passes is smaller than the
    run-to-run noise of single cases, so it cannot state the overhead."""
    import layertrace
    import orbitforge as of

    tracer = layertrace.LayerTrace()
    clock = time.perf_counter
    tracer.install()
    t0 = clock()
    setup_only(workload)
    traced_s = clock() - t0
    tracer.uninstall()
    untraced, traced = new_pass(), new_pass()
    cases = workload_cases(workload, seed)
    for i, (suite, case) in enumerate(cases):
        if i % max(1, len(cases) // CALIBRATIONS) == 0:
            tracer.calibrate()
        for side in ((False, True) if i % 2 == 0 else (True, False)):
            if side:
                tracer.install()
            seconds, out, error = run_case(of, suite, case)
            if side:
                tracer.uninstall()
                traced_s += seconds
            record(traced if side else untraced, suite, case, seconds, out, error)
    return {"workload": workload, "seed": seed, "passes": [untraced, traced],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": tracer.metrics(), "coverage": tracer.self_total() / traced_s,
            "overhead_s": tracer.wrapper_seconds()}


def setup_only(workload: str):
    import orbitforge as of

    for n, eps in algebras(workload):
        of.build_algebra(n, eps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args.workload)}))
    elif args.trace:
        print(json.dumps(run_traced(args.workload, args.seed), default=str))
    else:
        print(json.dumps(run_passes(args.workload, args.seed, args.passes), default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
