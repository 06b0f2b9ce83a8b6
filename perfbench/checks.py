"""Reference computations and output checks for the orbitforge benchmark.

Everything here is computed from partitions alone, with the standard library
and without importing orbitforge, so a wrong answer from the program cannot
also be the reference it is compared with.

* admissible partitions of N for so_N (eps = 1) and sp_N (eps = -1);
* dim g^e from the Collingwood-McGovern closed formula
  (1/2)(sum of squared conjugate parts -/+ number of odd parts);
* graded dims of g^e, and of g, from the Clebsch-Gordan decomposition of
  Lambda^2 V (so) or S^2 V (sp), with V = sum of V(lambda_i - 1) as an
  sl2-module: g^e(k) counts the irreducible summands of highest weight k;
* the PBW monomial count of U(g, e) up to a Kazhdan degree, generators of
  g^e(k) having Kazhdan degree k + 2;
* the induced module dimension p^{d_chi}, d_chi = (dim g - dim g^e) / 2.

Each ``check_*`` function takes one output and returns a list of
``(check, key, problem)`` triples, ``problem`` being None when it holds.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

LATTICE_SUITES = ("golden", "representatives", "zeta", "generation", "rigidity", "saturation")
W_SUITES = ("walgebra", "casimir")
MODULE_SUITES = ("modular",)

# Inputs of the verify suites as the default configuration defines them.
MAX_N = 10
SUITE_BOUND = {"representatives": 12, "zeta": 8, "generation": 12, "rigidity": 8, "saturation": 8, "modular": 8}
GOLDEN_KEYS = (
    "pyramid 5,5,4 eps=-1",
    "pyramid 4,3,3,2 eps=-1",
    "pyramid 4,4,3,1,1 eps=1",
    "pyramid 5,2,2,1 eps=1",
    "reference representative (5,2,2,1)",
)
W_SUITE_KEYS = ("2,1,1|-1", "2,1,1,1,1|-1", "2,2,1|1")
CASIMIR_KEYS = ("casimir sp4", "casimir so5")
TYPE_A_LIKE = {(2, 1), (3, 1), (4, 1), (6, 1), (2, -1)}
# (orbit induced from the sp_4 parabolic, partition of that orbit)
SP4_BOREL_ORBIT = (4,)
SP4_SIEGEL_ORBIT = (2, 2)


# -- partitions ----------------------------------------------------------------


def partitions_of(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples, largest-first lexicographic."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def admissible(n: int, eps: int) -> list:
    """P_eps(n): for so_n even parts, for sp_n odd parts, have even multiplicity."""
    if eps == -1 and n % 2:
        return []
    bad = 0 if eps == 1 else 1
    return [lam for lam in partitions_of(n)
            if all(lam.count(m) % 2 == 0 for m in set(lam) if m % 2 == bad)]


def almost_rigid(lam) -> bool:
    ext = list(lam) + [0]
    return all(ext[i] - ext[i + 1] <= 1 for i in range(len(ext) - 1))


def conjugate(lam) -> tuple:
    return tuple(sum(1 for x in lam if x > i) for i in range(lam[0] if lam else 0))


def key(lam, eps) -> str:
    return f"{','.join(map(str, lam))}|{eps}"


def parse_key(k: str):
    parts, eps = k.rsplit("|", 1)
    return tuple(int(x) for x in parts.split(",")), int(eps)


def sweep(max_n: int, bound: int):
    """(lam, eps) pairs of the verify sweeps, in the order they enumerate them."""
    for n in range(2, min(max_n, bound) + 1):
        for eps in (1, -1):
            for lam in admissible(n, eps):
                yield lam, eps


# -- dimensions ----------------------------------------------------------------


def dim_g(n: int, eps: int) -> int:
    return n * (n - 1) // 2 if eps == 1 else n * (n + 1) // 2


def centralizer_dim(lam, eps) -> int:
    """Collingwood-McGovern: (1/2)(sum of squared conjugate parts -/+ #odd parts)."""
    odd = sum(1 for x in lam if x % 2)
    total = sum(c * c for c in conjugate(lam)) + (odd if eps == -1 else -odd)
    return total // 2


def g_character(lam, eps) -> Counter:
    """h-weight multiplicities of g = Lambda^2 V (so) or S^2 V (sp)."""
    weights = [d - 2 * j for part in lam for d in [part - 1] for j in range(part)]
    char = Counter()
    for a in range(len(weights)):
        for b in range(a if eps == -1 else a + 1, len(weights)):
            char[weights[a] + weights[b]] += 1
    return char


def centralizer_graded_dims(lam, eps) -> dict:
    """dim g^e(k) = multiplicity of the highest weight k in g."""
    char = g_character(lam, eps)
    out = {k: char[k] - char[k + 2] for k in sorted(char) if k >= 0}
    return {k: v for k, v in out.items() if v}


def ad_e_graded_ranks(lam, eps) -> dict:
    """Rank of ad e on each nonzero g(d): dim g(d) minus its kernel g^e(d)."""
    char = g_character(lam, eps)
    ge = centralizer_graded_dims(lam, eps)
    return {d: char[d] - ge.get(d, 0) for d in sorted(char) if char[d]}


def pbw_count(graded: dict, bound: int) -> int:
    """Monomials (empty one included) in generators of Kazhdan degree k + 2,
    dim g^e(k) of each, with total Kazhdan degree <= bound."""
    series = [1] + [0] * bound
    for k, mult in graded.items():
        for _ in range(mult):
            w = k + 2
            for t in range(w, bound + 1):
                series[t] += series[t - w]
    return sum(series)


def module_dim(p: int, orbit, eps: int) -> int:
    n = sum(orbit)
    return p ** ((dim_g(n, eps) - centralizer_dim(orbit, eps)) // 2)


# -- number properties ---------------------------------------------------------


def signed_two_power(x: int) -> bool:
    x = abs(int(x))
    return x > 0 and x & (x - 1) == 0


def in_z_half(text: str) -> bool:
    den = Fraction(text).denominator
    return den & (den - 1) == 0


# -- expected case keys --------------------------------------------------------


def suite_keys(suite: str, primes=(3, 7)) -> list:
    """Case keys the default verify configuration must run in `suite`."""
    if suite == "golden":
        return list(GOLDEN_KEYS)
    if suite == "walgebra":
        return list(W_SUITE_KEYS)
    if suite == "casimir":
        return list(CASIMIR_KEYS)
    pairs = list(sweep(MAX_N, SUITE_BOUND[suite]))
    if suite in ("representatives", "zeta", "saturation"):
        return [key(lam, eps) for lam, eps in pairs]
    if suite == "generation":
        return [key(lam, eps) for lam, eps in pairs if almost_rigid(lam)]
    if suite == "rigidity":
        return [key(lam, eps) for lam, eps in pairs if (sum(lam), eps) not in TYPE_A_LIKE]
    if suite == "modular":
        keys = [f"restrictedness p={p}" for p in sorted(set(primes))]
        keys += [f"stability {key(lam, eps)}" for lam, eps in pairs]
        for p in (q for q in primes if q in (3, 5)):
            keys += [f"baby verma sp4 (4) p={p}", f"siegel module sp4 (2,2) p={p}"]
        return keys
    raise ValueError(f"no reference case list for suite {suite!r}")


# -- checks on verify reports --------------------------------------------------


def check_report(report: dict, suites, primes=(3, 7)) -> list:
    """`passed` agrees with the outcomes, every suite ran exactly the
    expected cases, and each suite's details match the references."""
    out = []
    all_pass = all(o["status"] == "pass"
                   for s in report["suites"].values() for o in s["outcomes"].values())
    out.append(("report.passed", "report",
                None if report["passed"] == all_pass else
                f"passed={report['passed']} but every outcome passing is {all_pass}"))
    for suite in suites:
        got = report["suites"].get(suite)
        if got is None:
            out.append(("report.suite", suite, "suite missing from the report"))
            continue
        want = suite_keys(suite, primes)
        problem = None
        if sorted(got["outcomes"]) != sorted(want) or got["cases"] != len(want):
            missing = sorted(set(want) - set(got["outcomes"]))[:3]
            extra = sorted(set(got["outcomes"]) - set(want))[:3]
            problem = f"cases={got['cases']} want {len(want)}; missing {missing}, extra {extra}"
        out.append(("report.cases", suite, problem))
        for k, o in got["outcomes"].items():
            if o["status"] == "pass":
                out.extend(DETAIL_CHECKS.get(suite, _no_detail)(k, o["detail"]))
    return out


def _no_detail(k, detail):
    return []


def check_zeta_detail(k, detail):
    lam, eps = parse_key(k)
    want = centralizer_dim(lam, eps)
    return [("zeta.dim", k, None if detail["dim"] == want and detail["orbit_count"] == want
             else f"dim {detail['dim']}, orbit_count {detail['orbit_count']}, formula {want}")]


def check_saturation_detail(k, detail):
    lam, eps = parse_key(k)
    divs = detail["divisors"]
    bad = [d for d in divs if d != 0 and not signed_two_power(d)]
    zeros = divs.count(0)
    want = centralizer_dim(lam, eps)
    return [
        ("saturation.two_power", k, f"divisors {bad} are not +-2^k" if bad else None),
        ("saturation.kernel", k, None if zeros == want else f"{zeros} zero divisors, dim g^e = {want}"),
    ]


def check_walgebra_detail(k, detail):
    lam, eps = parse_key(k)
    graded = centralizer_graded_dims(lam, eps)
    return [
        ("walgebra.r", k, None if detail["r"] == sum(graded.values())
         else f"r = {detail['r']}, formula {sum(graded.values())}"),
        ("walgebra.pbw_count", k, None if detail["pbw_count"] == pbw_count(graded, 4)
         else f"pbw_count {detail['pbw_count']}, reference {pbw_count(graded, 4)}"),
        _character_check(k, detail["character"]),
    ]


def _character_check(k, character: dict):
    bad = {i: v for i, v in character.items() if not in_z_half(v)}
    return ("character.z_half", k, f"values outside Z[1/2]: {bad}" if bad else None)


def check_modular_detail(k, detail):
    out = []
    for prefix, orbit in (("baby verma sp4 (4) p=", SP4_BOREL_ORBIT),
                          ("siegel module sp4 (2,2) p=", SP4_SIEGEL_ORBIT)):
        if k.startswith(prefix):
            p = int(k[len(prefix):])
            want = module_dim(p, orbit, -1)
            out.append(("module.dim", k, None if detail["dim"] == want else f"dim {detail['dim']} != {want}"))
            if p == 3:
                probe = detail.get("probe", {})
                out.append(("module.probe", k, None if probe and probe["full_closures"] == probe["seeds"]
                            else f"probe did not close on every seed: {probe}"))
    return out


DETAIL_CHECKS = {
    "zeta": check_zeta_detail,
    "saturation": check_saturation_detail,
    "walgebra": check_walgebra_detail,
    "modular": check_modular_detail,
}


# -- checks on library cases ---------------------------------------------------


def _graded_problem(got: dict, want: dict):
    got = {int(d): v for d, v in got.items()}
    return None if got == want else f"{got} != reference {want}"


def check_large_orbit(k, out):
    """A drawn N = 12..16 case: dim g^e and its grading against the formulas."""
    lam, eps = parse_key(k)
    return [
        ("centralizer.dim", k, None if out["dim"] == centralizer_dim(lam, eps)
         else f"dim g^e {out['dim']} != formula {centralizer_dim(lam, eps)}"),
        ("centralizer.graded", k, _graded_problem(out["graded_dims"], centralizer_graded_dims(lam, eps))),
    ]


def check_rigid_w(k, out):
    lam, eps = parse_key(k)
    graded = centralizer_graded_dims(lam, eps)
    return [
        ("centralizer.graded", k, _graded_problem(out["graded_dims"], graded)),
        ("walgebra.pbw_count", k, None if out["pbw_count"] == pbw_count(graded, 4)
         else f"pbw_count {out['pbw_count']}, reference {pbw_count(graded, 4)}"),
        _character_check(k, out["character"]),
    ]


def check_stability(k, out):
    """`stability <lam>|<eps> p=<p>`: dim g^e and graded ad-e ranks mod p."""
    lam, eps = parse_key(k.split()[1])
    return [
        ("stability.dim", k, None if out["dim"] == centralizer_dim(lam, eps)
         else f"dim g^e mod p {out['dim']} != formula {centralizer_dim(lam, eps)}"),
        ("stability.ranks", k, _graded_problem(out["ranks"], ad_e_graded_ranks(lam, eps))),
    ]


def check_module(k, out):
    orbit = tuple(out["orbit"])
    want = module_dim(out["p"], orbit, -1)
    return [("module.dim", k, None if out["dim"] == want else f"dim {out['dim']} != p^d_chi = {want}")]


LIBRARY_CHECKS = {
    "large_orbit": check_large_orbit,
    "rigid_w": check_rigid_w,
    "stability": check_stability,
    "module": check_module,
    "restrictedness": _no_detail,
}
