"""Command-line surface and the verify orchestrator.

Subcommands: algebra, orbit, centralizer, slice, wgen, verma, induce,
rigidity, verify, explain.  All reports are JSON with rationals rendered as
strings; reports are byte-identical across runs for a fixed config (timing
goes to stderr only).  Exit codes: 0 pass, 1 verification failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

from . import __version__
from .rings import GF, PRIME_BOUND, QQ, ZZ, format_rational, is_odd_prime
from .linalg import VectorSpan
from .partitions import (
    Partition,
    admissible_partitions,
    build_pyramid,
    is_almost_rigid,
    is_rigid,
    is_very_even,
    validate_partition,
)
from .algebra import build_algebra
from .orbits import (
    ORACLE_MAX_N,
    InductionDatum,
    build_nilpotent,
    complete_sl2,
    dynkin_grading,
    find_induction_witness,
    graded_dims,
    induce_orbit,
    nilradical_basis,
    orbit_dim_formula,
    orbit_dimension,
    rigidity_oracle,
)
from .centralizer import (
    build_zeta_system,
    check_generation,
    compute_centralizer,
    derived_subalgebra,
    predicted_complement_size,
    verify_zeta_system,
)
from .slices import split_lagrangian, build_m, slice_complement, integral_saturation
from .enveloping import (
    WSetup,
    augmentation_character,
    casimir,
    character_kills_commutators,
    jems_commutator_check,
    pbw_basis_check,
)
from .modular import (
    build_induced_module,
    centralizer_dim_mod_p,
    graded_dims_mod_p,
    kw_bookkeeping,
    reduce_mod_p,
    submodule_probe,
)
from .runner import run_cases

SCHEMA_VERSION = 1
# Largest induced module `verma` builds: dim p^{dim n}.  2401 is the sp_4
# Borel module at p = 7: it holds 45,122 nonzero action entries, and the
# whole `verma 4 -1 --levi 1,1 --prime 7` command takes 1.1 s (median of 5
# runs on a 2-core machine).
MAX_MODULE_DIM = 2401
# Largest N a command accepts, for g = so_N or sp_N.  44 was the largest N at
# which `algebra N ±1` finished within 10 s; it now takes 0.14-0.22 s for
# N = 40, 42 and 44 (median of 3 runs of the whole command on a 2-core
# machine), and the cap stays until each command has an admission bound.
MAX_N = 44


def _parse_eps(text: str) -> int:
    if text in ("1", "+1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError("epsilon must be 1 or -1")


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed partition {text!r}: {exc}") from None


def _parse_levi(text: str) -> tuple:
    sizes = text.replace(" ", "").split(",")
    if not all(t.isdigit() and int(t) > 0 for t in sizes):
        raise argparse.ArgumentTypeError(f"malformed Levi shape {text!r}: want positive block sizes like 1,1")
    return tuple(map(int, sizes))


def _parse_prime(text: str) -> int:
    if not (text.isdigit() and is_odd_prime(int(text))):
        raise argparse.ArgumentTypeError(f"prime must be an odd prime below {PRIME_BOUND}, got {text!r}")
    return int(text)


class UsageError(Exception):
    """A command line that names no valid task: main prints it after
    "error: " and exits 2."""


def _require_size(n: int):
    """Refuses n above MAX_N, before any work is done."""
    if n > MAX_N:
        raise UsageError(f"N = {n} is above the cap of MAX_N = {MAX_N}")


def _require_algebra(n: int, eps: int):
    """so_n or sp_n; refuses (n, eps) that names no algebra or n > MAX_N."""
    _require_size(n)
    try:
        return build_algebra(n, eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _print(text: str) -> None:
    """Print text to stdout.  A reader that closes the pipe early (`| head`)
    is not an error: stdout is pointed at the null device so that the flush
    at interpreter exit does not raise again, and the command keeps its code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(payload: dict, path: str | None = None) -> None:
    """The JSON report, stamped with the schema version: to the file at path
    if given, else to stdout."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        _print(text)


# -- plain subcommands ------------------------------------------------------


def cmd_algebra(args) -> int:
    g = _require_algebra(args.n, args.eps)
    rd = g.root_data()
    kf = g.killing_form()
    _emit({
        "n": g.N,
        "eps": g.eps,
        "dim": g.dim,
        "rank": g.h,
        "type_a_like": g.type_a_like,
        "roots": [list(w) for w in rd["roots"]],
        "simple_roots": [list(w) for w in rd["simple_roots"]],
        "positive_roots": [list(w) for w in rd["positive_roots"]],
        "long_short_ratio": format_rational(rd["d"]),
        "cartan_matrix": rd["cartan_matrix"],
        "kappa_trace_constant": format_rational(kf["trace_constant"]),
        "kappa_gram": kf["gram"].to_json(),
    })
    return 0


def _require_levi(alg, sizes):
    """The nilradical dimension of the parabolic of alg with gl blocks of
    sizes; refuses, before any work, unless the blocks fit and the
    parabolic is proper."""
    if 2 * sum(sizes) > alg.N:
        raise UsageError("Levi shape does not fit")
    if not (dim_n := len(nilradical_basis(alg, sizes))):
        raise UsageError(f"Levi shape {','.join(map(str, sizes))} has zero nilradical: not a proper parabolic")
    return dim_n


def _require_admissible(args):
    """The partition argument; refused when it is not admissible for eps or
    its size names no algebra (N < 2 or N > MAX_N)."""
    lam = args.partition
    _require_size(lam.size)
    if not validate_partition(lam, args.eps):
        raise UsageError(f"{lam} is not admissible for eps={args.eps}")
    _require_algebra(lam.size, args.eps)
    return lam


def cmd_orbit(args) -> int:
    lam = _require_admissible(args)
    rep = build_nilpotent(lam, args.eps)
    gr = dynkin_grading(rep)
    dim_orbit, d_chi = orbit_dimension(rep)
    _emit({
        "partition": str(lam),
        "eps": args.eps,
        "dim": dim_orbit,
        "d_chi": d_chi,
        "rigid": is_rigid(lam, args.eps),
        "almost_rigid": is_almost_rigid(lam),
        "very_even": rep.very_even,
        "grading_dims": {str(d): n for d, n in graded_dims(gr).items()},
        "pyramid": rep.pyramid.to_json(),
        "e_coordinates": [int(rep.e_coords.get(k, 0)) for k in range(rep.algebra.dim)],
    })
    return 0


# the centralizer command checks the zeta bracket law, every ordered pair of
# zetas, for N <= this; verify's zeta suite checks it at every N it sweeps
ZETA_BRACKET_MAX_N = 8


def cmd_centralizer(args) -> int:
    lam = _require_admissible(args)
    rep = build_nilpotent(lam, args.eps)
    cb = compute_centralizer(rep)
    der = derived_subalgebra(cb)
    gen01, witness = check_generation(cb)
    zs = build_zeta_system(lam, args.eps)
    bracket_law = lam.size <= ZETA_BRACKET_MAX_N
    summary = verify_zeta_system(zs, bracket_law=bracket_law)
    _emit({
        "partition": str(lam),
        "eps": args.eps,
        "dim": cb.dim,
        "graded_dims": {str(d): n for d, n in cb.graded_dims().items()},
        "derived_codim": der.codim,
        "complement_degrees": der.complement_degrees,
        "generated_by_01": gen01,
        "generation_witness": {str(d): list(v) for d, v in witness.items()},
        "zeta": {**summary, "bracket_law": bracket_law},
    })
    return 0


def cmd_slice(args) -> int:
    lam = _require_admissible(args)
    rep = build_nilpotent(lam, args.eps)
    msub = build_m(rep)
    pair = msub.pair
    sl = slice_complement(rep)
    sat = integral_saturation(rep)
    _emit({
        "partition": str(lam),
        "eps": args.eps,
        "s": len(pair.z_minus),
        "gram": pair.psi.gram.to_json(),
        "m_dim": msub.dim,
        "v_degrees": sl.degrees,
        "contracting_weights": sl.contracting_weights,
        "snf_divisors": sat["divisors"],
        "saturated": sat["saturated"],
        "graded_onto": sat["graded_onto"],
        "perp_identity": sat["perp_identity"],
    })
    return 0


def cmd_wgen(args) -> int:
    if args.degree_bound < 0:
        raise UsageError(f"--degree-bound must be at least 0, got {args.degree_bound}")
    lam = _require_admissible(args)
    rep = build_nilpotent(lam, args.eps)
    setup = WSetup(rep)
    bound = args.degree_bound
    thetas = []
    built_all = True
    for k in range(setup.r):
        if setup.x_degrees[k] > bound:
            built_all = False
            continue
        try:
            th = setup.build_theta(k)
        except ValueError as exc:
            # degree >= 2 generators need a commutator presentation, which
            # exists for almost rigid / rigid cases only
            thetas.append({"k": k, "n_k": setup.x_degrees[k], "unliftable": str(exc)})
            built_all = False
            continue
        thetas.append({
            "k": k,
            "n_k": th.degree,
            "kazhdan_degree": setup.kazhdan_degree(th.value),
            "coefficients": {
                ",".join(map(str, w)): format_rational(c) for w, c in sorted(th.value.items())
            },
        })
    out = {
        "partition": str(lam),
        "eps": args.eps,
        "r": setup.r,
        "s": setup.s,
        "theta": thetas,
    }
    if built_all:
        cb = compute_centralizer(rep)
        if derived_subalgebra(cb).codim == 0:
            char = augmentation_character(setup)
            out["augmentation"] = {str(k): format_rational(v) for k, v in sorted(char.items())}
    cas = casimir(setup)
    out["casimir_shape"] = cas.shape
    _emit(out)
    return 0


def cmd_verma(args) -> int:
    lam = _require_admissible(args)
    sizes = args.levi
    dim_n = _require_levi(build_algebra(lam.size, args.eps), sizes)
    if args.prime ** dim_n > MAX_MODULE_DIM:
        raise UsageError(f"the induced module would have dimension {args.prime}^{dim_n} = "
                         f"{args.prime ** dim_n}, above the cap of {MAX_MODULE_DIM}")
    datum = InductionDatum.zero_orbit(lam.size, args.eps, sizes)
    induced = induce_orbit(datum)
    if induced != lam:
        raise UsageError(f"datum induces {induced}, not {lam}")
    module = build_induced_module(datum, args.prime)
    probe = submodule_probe(module) if args.prime == 3 else None
    book = kw_bookkeeping(lam, args.eps, args.prime, datum)
    _emit({
        "partition": str(lam),
        "eps": args.eps,
        "prime": args.prime,
        "levi": list(sizes),
        "dim": module.dim,
        "d_chi": book["d_chi"],
        "small_dimension_match": module.dim == book["small_dimension"],
        "p_character_ok": True,   # verified during construction
        "bracket_ok": True,       # verified during construction
        "induction_identity": book["induction_identity"],
        "probe": probe,
    })
    return 0


def cmd_induce(args) -> int:
    sizes = args.levi
    _require_levi(_require_algebra(args.n, args.eps), sizes)
    zero = InductionDatum.zero_orbit(args.n, args.eps, sizes)
    gl_orbits = [mu for _, mu in zero.gl_blocks]
    if args.orbits:
        gl_orbits = args.orbits
        if len(gl_orbits) != len(sizes) or any(mu.size != a for mu, a in zip(gl_orbits, sizes)):
            raise UsageError("orbit list does not match the Levi shape")
    residual = args.residual or zero.residual
    if residual.size != zero.residual.size:
        raise UsageError("residual orbit does not match the Levi shape")
    if not validate_partition(residual, args.eps):
        raise UsageError(f"{residual} is not admissible for eps={args.eps}")
    datum = InductionDatum(args.n, args.eps, tuple(zip(sizes, gl_orbits)), residual)
    result = induce_orbit(datum)
    _emit({
        "datum": str(datum),
        "induced": str(result),
        "dim": orbit_dim_formula(result, args.eps),
    })
    return 0


def cmd_rigidity(args) -> int:
    lam = _require_admissible(args)
    criterion = is_rigid(lam, args.eps)
    witness = find_induction_witness(lam, args.eps) if lam.size <= ORACLE_MAX_N else None
    out = {
        "partition": str(lam),
        "eps": args.eps,
        "rigid_criterion": criterion,
        "almost_rigid": is_almost_rigid(lam),
    }
    if lam.size <= ORACLE_MAX_N:
        out["oracle_rigid"] = witness is None
        out["witness"] = str(witness) if witness else None
    _emit(out)
    return 0


def cmd_explain(args) -> int:
    lam = _require_admissible(args)
    rep = build_nilpotent(lam, args.eps)
    dim_orbit, d_chi = orbit_dimension(rep)
    cb = compute_centralizer(rep)
    der = derived_subalgebra(cb)
    gen01, _ = check_generation(cb)
    pair = split_lagrangian(rep)
    rigid = is_rigid(lam, args.eps)
    name = "so" if args.eps == 1 else "sp"
    lines = [
        f"orbit {lam} in {name}_{lam.size}:",
        f"  dim O = {dim_orbit}, d(chi) = {d_chi}",
        f"  rigid: {rigid}" + ("" if rigid or lam.size > ORACLE_MAX_N else _richardson_note(lam, args.eps)),
        f"  almost rigid: {is_almost_rigid(lam)}",
        f"  very even: {is_very_even(lam, args.eps)}",
        f"  centraliser: dim {cb.dim}, graded {cb.graded_dims()}",
        f"  derived subalgebra codimension: {der.codim}",
        f"  generated by degrees 0 and 1: {gen01}",
        f"  Lagrangian half-rank s = {len(pair.z_minus)}",
        f"  small-module dimension at p: p^{d_chi}",
    ]
    _print("\n".join(lines))
    return 0


def _richardson_note(lam, eps) -> str:
    witness = find_induction_witness(lam, eps)
    return f" (induced from {witness})" if witness else ""


# -- verify orchestrator ------------------------------------------------------
#
# Each suite is a list of (key, case) pairs; a case raises AssertionError with
# a witness when its check fails.  tests/test_acceptance.py runs these suites
# through run_verify: they are the one implementation of criteria 1-9.
# runner.run_cases runs each suite's cases on every CPU.


class VerifyConfig:
    __slots__ = ("max_n", "primes", "seed", "suites")

    def __init__(self, max_n: int = 10, primes: tuple = (3, 5, 7), seed: int = 13, suites: tuple = ()):
        if max_n < 2:
            raise ValueError("max_n must be at least 2")
        if not primes:
            raise ValueError("primes must name at least one odd prime")
        if not all(map(is_odd_prime, primes)):
            raise ValueError(f"primes must be odd primes below {PRIME_BOUND}, got {list(primes)}")
        # names before repeats, so that "--suites ," reports the unknown suite ''
        for name in suites:
            if name not in SUITES:
                raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
        for name, values in (("prime", primes), ("suite", suites)):
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {name} in {list(values)}")
        self.max_n = max_n
        self.primes = primes
        self.seed = seed
        self.suites = suites


def _sweep_cases(config: VerifyConfig, bound: int, check, keep=None, prefix: str = ""):
    """One case per admissible (lam, eps) with N <= min(max_n, bound) that
    keep admits, keyed "{prefix}{lam}|{eps}"; the case runs check(lam, eps, config)."""
    cases = []
    for n in range(2, min(config.max_n, bound) + 1):
        for eps in (1, -1):
            for lam in admissible_partitions(n, eps):
                if keep is None or keep(lam, eps):
                    cases.append((f"{prefix}{lam}|{eps}", partial(check, lam, eps, config)))
    return cases


GOLDEN_PYRAMIDS = {
    ((5, 5, 4), -1): {1: (1, -4), 2: (1, -2), 3: (1, 0), 4: (1, 2), 5: (1, 4), 6: (3, 1), 7: (3, 3)},
    ((4, 3, 3, 2), -1): {1: (0, 1), 2: (0, 3), 3: (2, -2), 4: (2, 0), 5: (2, 2), 6: (4, 1)},
    ((4, 4, 3, 1, 1), 1): {0: (0, 0), 1: (0, 2), 2: (2, -3), 3: (2, -1), 4: (2, 1), 5: (2, 3), 6: (4, 0)},
    ((5, 2, 2, 1), 1): {1: (1, 0), 2: (1, 2), 3: (1, 4), 4: (3, -1), 5: (3, 1)},
}


def _golden_pyramid(parts, eps, want):
    pyr = build_pyramid(Partition(parts), eps)
    for idx, (row, col) in want.items():
        if pyr.row[idx] != row or pyr.col[idx] != col:
            raise AssertionError(f"box {idx}: got ({pyr.row[idx]},{pyr.col[idx]}), want ({row},{col})")


def _reference_rep():
    rep = build_nilpotent(Partition((5, 2, 2, 1)), 1)
    alg = rep.algebra
    expect = (alg.unit(5, 4) - alg.unit(-4, -5) + alg.unit(3, 2) - alg.unit(-2, -3)
              + alg.unit(2, 1) - alg.unit(-1, -2) + alg.unit(1, -2) - alg.unit(2, -1))
    if rep.e != expect:
        raise AssertionError("reference representative mismatch for (5,2,2,1)")


def golden_cases(config: VerifyConfig):
    cases = [(f"pyramid {','.join(map(str, parts))} eps={eps}", partial(_golden_pyramid, parts, eps, want))
             for (parts, eps), want in GOLDEN_PYRAMIDS.items()]
    cases.append(("reference representative (5,2,2,1)", _reference_rep))
    return cases


def _representative(lam, eps, config):
    rep = build_nilpotent(lam, eps)       # checks Jordan type and membership
    compute_centralizer(rep)              # checks goodness and the dimension formula
    complete_sl2(rep)                     # sl2 relations and [e, g(0)] = g(2)


def _zeta(lam, eps, config):
    # raises unless the relation count, dim g^e and the span dimension agree
    return verify_zeta_system(build_zeta_system(lam, eps))


def _generation(lam, eps, config):
    cb = compute_centralizer(build_nilpotent(lam, eps))
    # generated is False unless the per-degree witness has got == want throughout
    ok, witness = check_generation(cb)
    if not ok:
        raise AssertionError(f"generation fails: {witness}")
    der = derived_subalgebra(cb)
    want = predicted_complement_size(lam, eps)
    if der.codim != want:
        raise AssertionError(f"codim {der.codim} != predicted {want}")
    if der.codim and any(d != 0 for d in der.complement_degrees):
        raise AssertionError("complement not in degree zero")


def _rigidity(lam, eps, config):
    crit = is_rigid(lam, eps)
    oracle = rigidity_oracle(lam, eps)
    if crit != oracle:
        raise AssertionError(f"criterion {crit} != oracle {oracle}")
    if crit and not is_almost_rigid(lam):
        raise AssertionError("rigid but not almost rigid")
    if crit:
        _perfect(build_nilpotent(lam, eps), config.primes)


def _perfect(rep, primes):
    """g^e and g^e(0) are perfect over QQ and over F_p for each p in primes,
    on one basis of the lattice g^e ∩ g_Z (a QQ echelon basis of g^e may have
    denominator p); one pass over the brackets of basis pairs fills both
    spans of every ring.  The basis is integral, so each pair is bracketed
    once and its integer coordinates go to every span as they are; a GF(p)
    span takes them mod p."""
    alg = rep.algebra
    basis = compute_centralizer(rep, ZZ)
    in_zero = [d == 0 for d in basis.degrees]
    vecs = basis.vectors
    spans = [(ring, VectorSpan(ring), VectorSpan(ring)) for ring in [QQ] + [GF(p) for p in primes]]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            br = alg.sparse_bracket(vecs[i], vecs[j])
            for _, span, span_zero in spans:
                span.add(br)
                if in_zero[i] and in_zero[j]:
                    span_zero.add(br)
    for ring, span, span_zero in spans:
        if span_zero.rank != sum(in_zero):
            raise AssertionError(f"g^e(0) not perfect over {ring}")
        if span.rank != basis.dim:
            raise AssertionError(f"g^e not perfect over {ring}")


def _saturation(lam, eps, config):
    sat = integral_saturation(build_nilpotent(lam, eps))
    if not (sat["saturated"] and sat["graded_onto"] and sat["perp_identity"]):
        raise AssertionError(str(sat))
    return {"divisors": sat["divisors"]}


W_SUITE_CASES = (((2, 1, 1), -1), ((2, 1, 1, 1, 1), -1), ((2, 2, 1), 1))


def _walgebra(parts, eps):
    setup = WSetup(build_nilpotent(Partition(parts), eps))
    setup.build_all_thetas()   # each theta is certified ad-m-invariant as it is built
    for th in setup.thetas.values():
        if not setup.is_r_integral(th.value):
            raise AssertionError("theta coefficients leave Z[1/2]")
    for i in range(setup.r):
        if setup.x_degrees[i] != 0:
            continue
        for j in range(setup.r):
            if setup.x_degrees[j] in (0, 1):
                if not jems_commutator_check(
                    setup,
                    setup.centralizer_matrix(i),
                    setup.centralizer_matrix(j),
                    setup.x_degrees[j],
                ):
                    raise AssertionError(f"commutator law fails at ({i},{j})")
    pb = pbw_basis_check(setup, 4)
    if not (pb["independent"] and pb["r_integral"]):
        raise AssertionError(str(pb))
    char = augmentation_character(setup)
    for k, v in char.items():
        if setup.x_degrees[k] <= 1 and v != 0:
            raise AssertionError("low-degree character value nonzero")
    if not character_kills_commutators(setup, char):
        raise AssertionError("character does not kill commutators")
    # consistency across presentations
    for k in range(setup.r):
        if setup.x_degrees[k] < 2:
            continue
        try:
            value, _ = setup.lift(k, perturb=1)
        except ValueError:
            continue
        if value != setup.thetas[k].value:
            raise AssertionError("theta depends on the presentation")
    return {
        "r": setup.r,
        "pbw_count": pb["count"],
        "character": {str(k): format_rational(v) for k, v in sorted(char.items())},
    }


def walgebra_cases(config: VerifyConfig):
    return [(f"{','.join(map(str, parts))}|{eps}", partial(_walgebra, parts, eps))
            for parts, eps in W_SUITE_CASES]


def _casimir(parts, eps):
    cas = casimir(WSetup(build_nilpotent(Partition(parts), eps)))  # centrality is checked inside
    if not cas.shape["shape_ok"]:
        raise AssertionError(f"Q-image shape violated: {cas.shape}")
    return cas.shape


def casimir_cases(config: VerifyConfig):
    return [(f"casimir {'sp4' if eps == -1 else 'so5'}", partial(_casimir, parts, eps))
            for parts, eps in (((2, 1, 1), -1), ((2, 2, 1), 1))]


def _restrictedness(p):
    reduce_mod_p(build_algebra(4, -1), p)
    reduce_mod_p(build_algebra(5, 1), p)


def _stability(lam, eps, config):
    rep = build_nilpotent(lam, eps)
    cb = compute_centralizer(rep)
    # over QQ, the rank of ad e on g(d) is dim g(d) - dim g^e(d)
    want = {d: len(idxs) - cb.graded_dims().get(d, 0)
            for d, idxs in sorted(dynkin_grading(rep).layers.items())}
    for p in config.primes:
        if centralizer_dim_mod_p(rep, p) != cb.dim:
            raise AssertionError(f"centraliser dimension jumps mod {p}")
        if graded_dims_mod_p(rep, p) != want:
            raise AssertionError(f"graded ad-e ranks jump mod {p}")


# (key, induction datum, induced orbit, dim n) of the sp_4 modules built at p = 3, 5
SP4_MODULES = (
    ("baby verma sp4 (4)", InductionDatum.zero_orbit(4, -1, (1, 1)), Partition((4,)), 4),
    ("siegel module sp4 (2,2)", InductionDatum.zero_orbit(4, -1, (2,)), Partition((2, 2)), 3),
)


def _sp4_module(name, datum, lam, dim_n, p):
    module = build_induced_module(datum, p)
    book = kw_bookkeeping(lam, -1, p, datum)
    if module.dim != p ** dim_n or module.dim != book["small_dimension"]:
        raise AssertionError(f"{name} dimension mismatch")
    if not book["induction_identity"]:
        raise AssertionError("induction identity fails")
    out = {"dim": module.dim}
    if p == 3:
        # dim p^{d(chi)}: simple by Kac-Weisfeiler, so every seed must close
        probe = submodule_probe(module)
        if probe["full_closures"] != probe["seeds"]:
            raise AssertionError(f"a probe seed spans a proper submodule: ranks {probe['ranks']}")
        out["probe"] = probe
    return out


def modular_cases(config: VerifyConfig):
    cases = [(f"restrictedness p={p}", partial(_restrictedness, p)) for p in sorted(config.primes)]
    cases += _sweep_cases(config, 8, _stability, prefix="stability ")
    for p in config.primes:
        if p in (3, 5):
            cases += [(f"{name} p={p}", partial(_sp4_module, name, datum, lam, dim_n, p))
                      for name, datum, lam, dim_n in SP4_MODULES]
    return cases


SUITES = {
    "golden": golden_cases,
    "representatives": partial(_sweep_cases, bound=12, check=_representative),
    "zeta": partial(_sweep_cases, bound=8, check=_zeta),
    "generation": partial(_sweep_cases, bound=12, check=_generation, keep=lambda lam, eps: is_almost_rigid(lam)),
    "rigidity": partial(_sweep_cases, bound=ORACLE_MAX_N, check=_rigidity,
                        keep=lambda lam, eps: not build_algebra(lam.size, eps).type_a_like),
    "saturation": partial(_sweep_cases, bound=8, check=_saturation),
    "walgebra": walgebra_cases,
    "casimir": casimir_cases,
    "modular": modular_cases,
}


def run_verify(config: VerifyConfig) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": {
            "max_n": config.max_n,
            "eps_set": [1, -1],
            "primes": list(config.primes),
            "seed": config.seed,
            "suites": list(config.suites) if config.suites else sorted(SUITES),
        },
        "suites": {},
        "passed": True,
    }
    selected = config.suites if config.suites else tuple(sorted(SUITES))
    suites = {name: SUITES[name](config) for name in selected}
    for name, cases in suites.items():
        if not cases:
            raise UsageError(f"suite {name} has no case at N <= {config.max_n}")
    for name, cases in suites.items():
        t0 = time.perf_counter()
        outcomes = run_cases(cases)
        print(f"suite {name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
        failures = {k: v for k, v in outcomes.items() if v["status"] != "pass"}
        report["suites"][name] = {
            "cases": len(outcomes),
            "failed": len(failures),
            "failures": failures,
            "outcomes": outcomes,
        }
        if failures:
            report["passed"] = False
    return report


def cmd_verify(args) -> int:
    try:
        config = VerifyConfig(
            max_n=args.max_n,
            primes=tuple(map(_parse_prime, args.primes.split(","))),
            seed=args.seed,
            suites=tuple(args.suites.split(",")) if args.suites is not None else (),
        )
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(str(exc)) from None
    if args.output == "":
        raise UsageError("--output: empty path")
    if args.output is not None and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        raise UsageError(f"--output {args.output}: no such directory")
    report = run_verify(config)
    try:
        _emit(report, args.output)
    except OSError as exc:
        raise UsageError(f"--output: {exc}") from None
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="orbitforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="classical algebra data")
    p.add_argument("n", type=int)
    p.add_argument("eps", type=_parse_eps)
    p.set_defaults(fn=cmd_algebra)

    for name, fn in [
        ("orbit", cmd_orbit), ("centralizer", cmd_centralizer), ("slice", cmd_slice),
        ("rigidity", cmd_rigidity), ("explain", cmd_explain),
    ]:
        p = sub.add_parser(name)
        p.add_argument("partition", type=_parse_partition)
        p.add_argument("eps", type=_parse_eps)
        p.set_defaults(fn=fn)

    p = sub.add_parser("wgen", help="W-algebra generators")
    p.add_argument("partition", type=_parse_partition)
    p.add_argument("eps", type=_parse_eps)
    p.add_argument("--degree-bound", type=int, default=64)
    p.set_defaults(fn=cmd_wgen)

    p = sub.add_parser("verma", help="parabolically induced module over F_p")
    p.add_argument("partition", type=_parse_partition)
    p.add_argument("eps", type=_parse_eps)
    p.add_argument("--levi", type=_parse_levi, required=True, help="gl block sizes, e.g. 1,1")
    p.add_argument("--prime", "-p", type=_parse_prime, required=True)
    p.set_defaults(fn=cmd_verma)

    p = sub.add_parser("induce", help="Lusztig-Spaltenstein induction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--levi", type=_parse_levi, required=True)
    p.add_argument("--orbits", type=lambda t: [_parse_partition(s) for s in t.split(";")],
                   help="gl orbits, ';'-separated partitions")
    p.add_argument("--residual", type=_parse_partition, help="residual orbit partition")
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("verify", help="run the invariant suites")
    default = VerifyConfig()
    p.add_argument("--max-n", type=int, default=default.max_n)
    p.add_argument("--primes", default=",".join(map(str, default.primes)))
    p.add_argument("--seed", type=int, default=default.seed)
    p.add_argument("--suites", help="comma-separated subset of suites")
    p.add_argument("--output", help="write the JSON report to this path")
    p.set_defaults(fn=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
