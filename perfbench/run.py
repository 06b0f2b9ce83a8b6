"""The orbitforge benchmark: run one workload for one seed.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; orbitforge is imported from `src/`.
The workload runs in a fresh interpreter (perfbench/workload.py) with
ORBITFORGE_THREADS cleared, so verify uses its default single worker:
set-up, then --seconds // PASS_S[workload] passes over the same cases (at
least one).  The pass count depends on --seconds only, so two commits
compared with the same --seconds do the same work.  Set-up (import
orbitforge, build the workload's algebras) is timed inside each fresh
interpreter; setup_s is the median over the passes process and the
set-up children it starts between cases.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1 one
interpreter runs every case once untraced and once traced, back to back,
and the result holds the per-layer metrics, the per-suite times of the
untraced runs and the tracing overhead (the wrappers' calibrated cost).

Outputs are checked against the references in checks.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it give the environment, each failure with its case key and
witness, and every metric by name and unit.  Exit status: 0 after a
complete run, 1 if the workload process crashed or overran, 2 if there is
no orbitforge source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workload import VERIFY_PRIMES, WORKLOADS  # noqa: E402

# Seconds per pass, to turn --seconds into a pass count: a pass's median
# length on the README's 2-core machine, set-up samples included;
# --seconds 45 gives one lattice pass and two w-algebra-modules passes.
PASS_S = {"lattice": 31, "w-algebra-modules": 20}
DEADLINE_S = 170          # every run ends well inside the 180 s limit
SUITE_METRICS = [s for s in checks.LATTICE_SUITES + checks.W_SUITES + checks.MODULE_SUITES
                 if s != "golden"]   # golden takes milliseconds


class RunError(Exception):
    pass


def load_declared():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ORBITFORGE_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(root: str, src: str, seed: int) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):   # a bare source checkout has no sha
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": seed}


def run_workload(workload: str, src: str, *extra) -> dict:
    """Run workload.py in a fresh interpreter; its last line of output."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload, *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{' '.join(cmd[1:])} overran the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def case_times(passes: list):
    """Mean time of each suite and of each library case over the passes.

    Every pass runs the same cases in the same order, so the times add up
    to the mean pass.  A shared machine's speed moves by up to 1.6x for
    seconds to minutes at a time; passes half a minute apart meet more of
    its phases: over ten seeds of two lattice passes their mean spread by
    0.10, the sum of each case's least time by 0.15."""
    suites = {s: statistics.fmean(p["verify"][s]["seconds"] for p in passes) for s in passes[0]["verify"]}
    library = [statistics.fmean(p["library"][i]["seconds"] for p in passes)
               for i in range(len(passes[0]["library"]))]
    return suites, library


def tally(workload: str, rnd: dict, failures: list, bad_checks: list):
    """Cases and checks of one pass: (cases, failed cases, checks)."""
    cases = failed = n_checks = 0
    primes = VERIFY_PRIMES[workload]
    for suite, res in rnd["verify"].items():
        if res["report"] is None:
            n = len(checks.suite_keys(suite, primes))
            cases += n
            failed += n
            failures.append((f"suite {suite}", res["error"]))
            continue
        report = res["report"]
        for key, outcome in report["suites"][suite]["outcomes"].items():
            cases += 1
            if outcome["status"] != "pass":
                failed += 1
                failures.append((f"{suite} {key}", outcome.get("witness")))
        for check in checks.check_report(report, (suite,), primes):
            n_checks += 1
            if check[2] is not None:
                bad_checks.append(check)
    for case in rnd["library"]:
        cases += 1
        if case["witness"] is not None:
            failed += 1
            failures.append((case["key"], case["witness"]))
            continue
        for check in checks.LIBRARY_CHECKS[case["kind"]](case["key"], case["out"]):
            n_checks += 1
            if check[2] is not None:
                bad_checks.append(check)
    return cases, failed, n_checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one orbitforge benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orbitforge", "__init__.py")):
        print(f"error: no orbitforge source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = load_declared()
    print("environment " + json.dumps(environment(root, src, args.seed), sort_keys=True))

    passes = max(1, int(args.seconds // PASS_S[args.workload]))
    extra = ["--trace"] if args.trace else ["--passes", str(passes)]
    try:
        run = run_workload(args.workload, src, "--seed", str(args.seed), *extra)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures, bad_checks = [], []
    cases = failed = n_checks = 0
    for rnd in run["passes"]:
        c, f, n = tally(args.workload, rnd, failures, bad_checks)
        cases, failed, n_checks = cases + c, failed + f, n_checks + n
    for key, witness in failures:
        print(f"FAIL {args.workload} {key}: {witness}")
    for name, key, problem in bad_checks:
        print(f"CHECK-FAIL {args.workload} {name} {key}: {problem}")

    if args.trace:
        (p_suites, p_library), (t_suites, t_library) = (case_times([rnd]) for rnd in run["passes"])
        values = {name: run["layers"].get(name, 0) for name in per_layer}
        for suite in SUITE_METRICS:
            values[f"suite.{suite}_s"] = p_suites.get(suite, 0.0)
        values["verify_s"] = sum(p_suites.values())
        values["library_s"] = sum(p_library)
        values["trace.wall_s"] = sum(t_suites.values()) + sum(t_library)
        values["trace.untraced_wall_s"] = values["verify_s"] + values["library_s"]
        values["trace.overhead_s"] = run["overhead_s"]
        values["trace.coverage"] = run["coverage"]
        units = per_layer
    else:
        suites, library = case_times(run["passes"])
        values = {
            "setup_s": statistics.median(run["setup_s"]),
            "wall_s": sum(suites.values()) + sum(library),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = end_to_end
        pass_s = [sum(r["seconds"] for r in rnd["verify"].values()) + sum(c["seconds"] for c in rnd["library"])
                  for rnd in run["passes"]]
        print(f"passes {len(run['passes'])}; pass_s {json.dumps(pass_s)}; setup_s samples {json.dumps(run['setup_s'])}; "
              f"suites_s {json.dumps(suites)}; verify_s {sum(suites.values())}; library_s {sum(library)}")
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(f"cases attempted {cases} failed {failed}; "
          f"checks attempted {n_checks} failed {len(bad_checks)}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not bad_checks, "attempted": cases, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
