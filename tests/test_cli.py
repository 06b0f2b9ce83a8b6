"""CLI surface: subcommands, exit codes, report determinism."""

import json
import subprocess
import sys

import pytest

from orbitforge.cli import main


def run_cli(*args):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_orbit_json():
    code, out, _ = run_cli("orbit", "2,1,1", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4 and data["d_chi"] == 2 and data["rigid"] is True


def test_algebra_json():
    code, out, _ = run_cli("algebra", "4", "-1")
    data = json.loads(out)
    assert code == 0 and data["dim"] == 10 and data["long_short_ratio"] == "2"


@pytest.mark.parametrize("eps, sha1", [
    ("1", "d22a6a900618dcc055ce55decfa00055b7ae6822"),
    ("-1", "8fdeaf2cf58f6a6f9b5e8daf6552b4ea6c9897bc"),
])
def test_algebra_at_the_cap_keeps_its_bytes(eps, sha1):
    # about 360 KB each, so pinned by digest rather than as a golden file
    import hashlib

    code, out, err = run_cli("algebra", "44", eps)
    assert code == 0 and err == ""
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_centralizer_json():
    code, out, _ = run_cli("centralizer", "2,1,1", "-1")
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 6 and data["derived_codim"] == 0 and data["generated_by_01"]


def test_slice_json():
    code, out, _ = run_cli("slice", "2,1,1", "-1")
    data = json.loads(out)
    assert code == 0 and data["s"] == 1 and data["m_dim"] == 2


def test_wgen_json():
    code, out, _ = run_cli("wgen", "2,1,1", "-1")
    data = json.loads(out)
    assert code == 0
    assert len(data["theta"]) == 6
    assert data["augmentation"]["5"] == "-1/2"
    assert data["casimir_shape"]["shape_ok"]


@pytest.mark.parametrize("bound", ["-1", "-7"])
def test_negative_degree_bound_exits_2(bound, monkeypatch):
    # a bound below 0 would skip every generator; refused before any work
    proc = subprocess.run([sys.executable, "-m", "orbitforge.cli", "wgen", "2,1,1", "-1", "--degree-bound", bound],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == f"error: --degree-bound must be at least 0, got {bound}\n"
    from orbitforge import cli

    def work(*args):
        raise AssertionError("work began on a negative degree bound")

    monkeypatch.setattr(cli, "WSetup", work)
    assert run_cli("wgen", "2,1,1", "-1", "--degree-bound", bound)[0] == 2


def test_degree_bound_zero_builds_the_degree_zero_generators():
    code, out, err = run_cli("wgen", "2,1,1", "-1", "--degree-bound", "0")
    data = json.loads(out)
    assert code == 0 and err == ""
    assert data["theta"] and {th["n_k"] for th in data["theta"]} == {0}
    assert "augmentation" not in data


def test_rigidity_json():
    code, out, _ = run_cli("rigidity", "2,2", "-1")
    data = json.loads(out)
    assert code == 0 and data["rigid_criterion"] is False and data["oracle_rigid"] is False


def test_induce():
    code, out, _ = run_cli("induce", "--n", "4", "--eps", "-1", "--levi", "2")
    data = json.loads(out)
    assert code == 0 and data["induced"] == "2,2"


def test_verma():
    code, out, _ = run_cli("verma", "2,2", "-1", "--levi", "2", "--prime", "3")
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 27 and data["small_dimension_match"] and data["induction_identity"]


def test_explain_text():
    code, out, _ = run_cli("explain", "2,1,1", "-1")
    assert code == 0
    assert "rigid: True" in out and "d(chi) = 2" in out


def test_usage_error_exit_2():
    code, _, err = run_cli("orbit", "2,1", "-1")  # not admissible for sp_4
    assert code == 2
    code, _, _ = run_cli("verma", "2,2", "-1", "--levi", "2", "--prime", "2")
    assert code == 2


def test_verify_even_prime_rejected():
    code, _, err = run_cli("verify", "--primes", "2,3")
    assert code == 2 and "odd" in err


@pytest.mark.parametrize("primes, bad", [("", "''"), ("3,,5", "''"), ("3,x", "'x'"), ("3,15", "'15'"),
                                         ("318665857834031151167463", "'318665857834031151167463'")])
def test_verify_names_the_bad_prime(primes, bad):
    # one odd-prime test for every entry; a modulus at or above the bound
    # of the exact prime test is refused
    code, out, err = run_cli("verify", "--primes", primes, "--suites", "golden")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: prime must be an odd prime below ") and err.rstrip().endswith(f"got {bad}")


def test_verify_at_a_large_prime_is_quick():
    # the modulus is tested by Miller-Rabin, not by trial division
    import time

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orbitforge.cli", "verify", "--primes", "1000000000000000003",
                           "--suites", "modular,rigidity"], capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 10.0
    assert proc.returncode == 0 and json.loads(proc.stdout)["passed"]


def test_verify_unknown_suite_exits_2():
    code, out, err = run_cli("verify", "--suites", "nope")
    assert code == 2 and out == ""
    assert err == ("error: unknown suite 'nope'; available: casimir, generation, golden, "
                   "modular, representatives, rigidity, saturation, walgebra, zeta\n")


def test_verify_config_rejects_unknown_suite_before_any_suite_runs(monkeypatch):
    from orbitforge import cli

    ran = []
    monkeypatch.setitem(cli.SUITES, "casimir", lambda config: ran.append("casimir") or [])
    with pytest.raises(ValueError, match="unknown suite 'nope'; available: "):
        cli.run_verify(cli.VerifyConfig(suites=("casimir", "nope")))
    assert ran == []


def test_verify_refuses_a_suite_with_no_case_before_any_suite_runs(monkeypatch):
    # rigidity skips the type-A-like so_2, so_3 and sp_2, so N <= 3 leaves it
    # no case; a report with "cases": 0 would pass without checking anything
    from orbitforge import cli

    ran = []
    monkeypatch.setitem(cli.SUITES, "golden", lambda config: [("probe", lambda: ran.append("golden"))])
    code, out, err = run_cli("verify", "--max-n", "3", "--suites", "golden,rigidity")
    assert code == 2 and out == "" and ran == []
    assert err == "error: suite rigidity has no case at N <= 3\n"
    assert run_cli("verify", "--max-n", "4", "--suites", "golden,rigidity")[0] == 0 and ran == ["golden"]


def test_verify_failing_case_exits_1_with_witness(monkeypatch):
    from orbitforge import cli

    is_rigid = cli.is_rigid
    monkeypatch.setattr(cli, "is_rigid", lambda lam, eps: not is_rigid(lam, eps))
    code, out, _ = run_cli("verify", "--max-n", "4", "--suites", "rigidity")
    assert code == 1 and '"passed": false' in out
    failures = json.loads(out)["suites"]["rigidity"]["failures"]
    assert failures["2,1,1|-1"]["witness"].startswith("AssertionError: criterion False != oracle True")


def test_verify_mini_run_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            "verify", "--max-n", "4", "--suites", "golden,zeta,saturation",
            "--output", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["passed"] and set(report["suites"]) == {"golden", "zeta", "saturation"}


@pytest.mark.parametrize("argv", [
    "verify --primes 9 --suites golden",
    "verify --primes 9 --suites modular",
    "verify --primes 3,3 --suites modular",
    "verify --suites golden,golden",
    "orbit a,b 1",
    "orbit 0 1",
    "algebra 0 1",
    "induce --n 4 --eps -1 --levi x",
    "induce --n 5 --eps 1 --levi 1 --residual 2,1",
    "verma 4 -1 --levi 1,1 --prime 9",
    "verma 4 -1 --levi 1,1 --prime 318665857834031151167463",
    "orbit 3,,1 1",
    "orbit 3,1, 1",
    "verma 4 -1 --levi 1,,1 --prime 3",
    "induce --n 4 --eps -1 --levi 1,",
])
def test_malformed_input_exits_2(argv):
    code, out, err = run_cli(*argv.split())
    assert code == 2 and out == "" and "error" in err and "Traceback" not in err


def test_verma_at_the_module_cap():
    import time
    from orbitforge import cli

    t0 = time.perf_counter()
    code, out, err = run_cli("verma", "4", "-1", "--levi", "1,1", "--prime", "7")
    assert time.perf_counter() - t0 < 10.0
    data = json.loads(out)
    assert code == 0 and err == ""
    assert data["dim"] == 2401 == cli.MAX_MODULE_DIM and data["small_dimension_match"]
    assert data["p_character_ok"] and data["bracket_ok"]


@pytest.mark.parametrize("prime, dim", [("11", 14641)])
def test_oversized_verma_exits_2(prime, dim, monkeypatch):
    import time
    from orbitforge import cli

    def build(*args, **kwargs):
        raise AssertionError("an oversized module was built")

    monkeypatch.setattr(cli, "build_induced_module", build)
    t0 = time.perf_counter()
    code, out, err = run_cli("verma", "4", "-1", "--levi", "1,1", "--prime", prime)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err
    assert str(dim) in err and str(cli.MAX_MODULE_DIM) in err


@pytest.mark.parametrize("argv", [
    "algebra 45 1",
    "algebra 80 1",
    "centralizer 100,100 1",
    "induce --n 60 --eps -1 --levi 1",
])
def test_oversized_n_exits_2(argv):
    import time
    from orbitforge import cli

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orbitforge.cli", *argv.split()],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 10.0
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and f"MAX_N = {cli.MAX_N}" in proc.stderr


def test_verify_output_into_a_missing_directory_exits_2_before_any_suite(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, "-m", "orbitforge.cli", "verify", "--primes", "3", "--suites", "golden",
                           "--output", str(target)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "suite golden:" not in proc.stderr
    assert not target.parent.exists()


@pytest.mark.parametrize("argv, message", [
    (["--suites", ""], "error: unknown suite ''; available: "),
    (["--suites", "golden", "--output", ""], "error: --output: empty path"),
    (["--suites", ","], "error: unknown suite ''; available: "),
])
def test_verify_empty_suites_or_output_exits_2_before_any_suite(argv, message, monkeypatch):
    # an empty value is given, not absent: it names no suite and no file
    from orbitforge import cli

    ran = []
    monkeypatch.setitem(cli.SUITES, "golden", lambda config: ran.append("golden") or [])
    code, out, err = run_cli("verify", *argv)
    assert code == 2 and out == "" and ran == []
    assert err.startswith(message) and "suite golden:" not in err


def test_verify_output_that_cannot_be_written_exits_2(tmp_path):
    # the directory itself as the report path: the suites run, the write fails
    code, out, err = run_cli("verify", "--primes", "3", "--suites", "golden", "--output", str(tmp_path))
    assert code == 2 and out == ""
    assert "suite golden:" in err and err.splitlines()[-1].startswith("error: --output:")


@pytest.mark.parametrize("argv", [
    "induce --n 2 --eps 1 --levi 1",
    "verma 1,1 1 --levi 1 --prime 3",
])
def test_zero_nilradical_is_a_usage_error(argv, monkeypatch):
    # so_2 is its own Levi: the parabolic is not proper; refused before any
    # induction or module work, with the Levi shape named
    proc = subprocess.run([sys.executable, "-m", "orbitforge.cli", *argv.split()],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == "error: Levi shape 1 has zero nilradical: not a proper parabolic\n"
    from orbitforge import cli

    def work(*args):
        raise AssertionError("work began on a zero nilradical")

    for name in ("induce_orbit", "build_induced_module", "InductionDatum"):
        monkeypatch.setattr(cli, name, work)
    assert run_cli(*argv.split())[0] == 2


@pytest.mark.parametrize("argv", [
    ["algebra", "1", "1"],
    ["orbit", "1", "1"],
    ["centralizer", "1", "1"],
    ["slice", "1", "1"],
    ["wgen", "1", "1"],
    ["rigidity", "1", "1"],
    ["explain", "1", "1"],
    ["verma", "1", "1", "--levi", "1", "--prime", "3"],
    ["orbit", "", "1"],
    ["rigidity", "", "1"],
])
def test_so1_and_the_empty_partition_are_usage_errors(argv):
    # N < 2 names no algebra
    proc = subprocess.run([sys.executable, "-m", "orbitforge.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("argv, builder", [
    ("algebra {n} -1", "build_algebra"),
    ("orbit {m},1 1", "build_nilpotent"),   # (N - 1, 1): admissible in so_N for even N
])
def test_n_at_the_cap_is_accepted(argv, builder, monkeypatch):
    from orbitforge import cli

    class Reached(Exception):
        pass

    def build(*args):
        raise Reached

    monkeypatch.setattr(cli, builder, build)
    with pytest.raises(Reached):
        main(argv.format(n=cli.MAX_N, m=cli.MAX_N - 1).split())


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orbitforge.cli", "orbit", "4", "-1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d_chi"] == 4


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitforge.cli", "algebra", "4", "-1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()   # the reader goes away before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


def test_runs_on_the_standard_library_alone():
    # no runtime dependency: with every import outside the standard library
    # refused, the package, the CLI and a module build (with its identity
    # checks and probe) still run
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "class StdlibOnly:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        top = name.partition('.')[0]\n"
        "        if top != 'orbitforge' and top not in sys.stdlib_module_names:\n"
        "            raise ImportError(f'{name} is not in the standard library')\n"
        "sys.meta_path.insert(0, StdlibOnly())\n"
        "import orbitforge\n"
        "from orbitforge.cli import main\n"
        "sys.exit(main(['verma', '2,2', '-1', '--levi', '2', '--prime', '3']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 27


@pytest.mark.parametrize("parts", [(3, 3, 2, 1, 1), (3, 3, 2, 1, 1, 1, 1)])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_perfectness_mod_p_beyond_the_default_sweep(parts, p):
    # sp_10 and sp_12: the QQ echelon basis of g^e has denominator 3, so
    # perfectness over F_p is checked on a basis of the lattice g^e ∩ g_Z
    from orbitforge.centralizer import compute_centralizer
    from orbitforge.cli import _perfect
    from orbitforge.orbits import build_nilpotent
    from orbitforge.partitions import Partition, is_rigid
    from orbitforge.rings import ZZ

    lam = Partition(parts)
    assert is_rigid(lam, -1)
    cb = compute_centralizer(build_nilpotent(lam, -1))
    assert any(x.denominator % 3 == 0 for v in cb.vectors for x in v.values())
    lattice = compute_centralizer(cb.rep, ZZ)
    assert lattice.degrees == cb.degrees and all(type(x) is int for v in lattice.vectors for x in v.values())
    _perfect(cb.rep, (p,))


@pytest.mark.parametrize("parts, message", [
    ((2, 2), "g^e(0) not perfect over QQ"),
    ((4,), "g^e not perfect over QQ"),
])
def test_perfectness_fails_over_qq_off_the_rigid_orbits(parts, message):
    # sp_4 (2,2) and (4) are Richardson: their centralisers are not perfect
    from orbitforge.cli import _perfect
    from orbitforge.orbits import build_nilpotent
    from orbitforge.partitions import Partition

    with pytest.raises(AssertionError) as exc:
        _perfect(build_nilpotent(Partition(parts), -1), (3,))
    assert str(exc.value) == message
