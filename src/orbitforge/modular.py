"""Reduction of the integral structures modulo odd good primes: restricted
structure via matrix p-th powers, p-characters, parabolically induced
modules over F_p as explicit action matrices, and Kac-Weisfeiler dimension
bookkeeping.

An induced module U_chi(g) (x)_{U_chi(p)} k_0 takes its action on PBW
monomials of U(n_-) from the restricted enveloping.UAlgebra, the kernel of
the W-algebra's Q, read pairwise from the flat (word, coefficient, ...)
tuples its act returns, as sparse matrices over GF(p).  The bracket law is
checked by linalg.bracket_residues, one residue mod p per pair, and the
p-character identity by one residue mod p per basis element, subtracted from
the entries of its matrix p-th power.
"""

from __future__ import annotations

from itertools import combinations, product

from .rings import GF
from .linalg import SparseMatrix, bracket_residues, closure_ranks, row_span
from .partitions import Partition
from .orbits import (
    NilpotentRep,
    InductionDatum,
    dynkin_grading,
    embed_datum,
    datum_levi_orbit_dim,
    generic_datum_sample,
    nilradical_basis,
    orbit_dim_formula,
    ad_e_block,
    parabolic,
)
from .algebra import ClassicalAlgebra, build_algebra
from .enveloping import UAlgebra


class ModularAlgebra:
    __slots__ = ("alg", "p", "p_power")

    def __init__(self, alg: ClassicalAlgebra, p: int, p_power: list):
        self.alg = alg
        self.p = p
        self.p_power = p_power    # {index: residue}, the Chevalley coordinates of x^{[p]}, per basis element


def _power(m: SparseMatrix, k: int) -> SparseMatrix:
    """m^k for k >= 1 by repeated squaring: at most 2 log2(k) products."""
    out = None
    while True:
        if k & 1:
            out = m if out is None else out @ m
        k >>= 1
        if not k:
            return out
        m = m @ m


def reduce_mod_p(alg: ClassicalAlgebra, p: int) -> ModularAlgebra:
    if p == 2:
        raise ValueError("p = 2 is a bad prime for these types")
    ring = GF(p)
    p_power = []
    for b in alg.basis:
        p_power.append(alg.coordinates(_power(b.change_ring(ring), p)))
    mod = ModularAlgebra(alg, p, p_power)
    verify_restrictedness(mod)
    return mod


def verify_restrictedness(mod: ModularAlgebra):
    """ad(x^{[p]}) = (ad x)^p as matrices over F_p, for every basis x."""
    ring = GF(mod.p)
    for k in range(mod.alg.dim):
        if _power(mod.alg.ad({k: 1}, ring), mod.p) != mod.alg.ad(mod.p_power[k], ring):
            raise AssertionError(f"restrictedness fails for basis element {k}")


def centralizer_dim_mod_p(rep: NilpotentRep, p: int) -> int:
    """dim g^e over F_p: dim g minus the ranks of the blocks of ad e."""
    return rep.algebra.dim - sum(graded_dims_mod_p(rep, p).values())


def graded_dims_mod_p(rep: NilpotentRep, p: int) -> dict:
    """Graded dimensions are field independent (lattice bases); rank of
    ad e on each graded piece over F_p, for the stability check.  Taken once
    per (rep, p); the dict is shared and no caller mutates it."""
    if p not in rep._ranks_mod_p:
        rep._ranks_mod_p[p] = {d: row_span(ad_e_block(rep, d, GF(p))).rank
                               for d in sorted(dynkin_grading(rep).layers)}
    return rep._ranks_mod_p[p]


# -- induced modules -----------------------------------------------------------


class InducedModule:
    __slots__ = ("p", "dim", "action", "chi")

    def __init__(self, p: int, dim: int, action: list, chi: tuple):
        self.p = p
        self.dim = dim
        self.action = action    # SparseMatrix over GF(p) per algebra basis element
        self.chi = chi          # p-character values on the basis


def build_induced_module(datum: InductionDatum, p: int) -> InducedModule:
    """U_chi(g) tensor_{U_chi(p)} k_0 with the zero orbit in the Levi; chi =
    kappa(e, -) for the certified generic nilradical sample e, zero on p."""
    for _, mu in datum.gl_blocks:
        if any(x != 1 for x in mu.parts):
            raise ValueError("induced-module base case needs the zero Levi orbit")
    if datum.residual.parts and any(x != 1 for x in datum.residual.parts):
        raise ValueError("induced-module base case needs the zero residual orbit")
    alg, x_levi, _ = embed_datum(datum)
    if not x_levi.is_zero():
        raise AssertionError("zero orbit embedded to a nonzero element")
    mod = reduce_mod_p(alg, p)
    # the inducing element: certified generic sample inside n
    e, _ = generic_datum_sample(datum)
    e_coords = alg.coordinates(e)

    ring = GF(p)
    kappa_e = alg.kappa_row(e_coords)
    chi = tuple(ring.coerce(kappa_e.get(k, 0)) for k in range(alg.dim))
    f_idx, levi_idx, n_plus = parabolic(alg, datum.gl_sizes)
    if len(f_idx) != len(n_plus):
        raise AssertionError("opposite nilradical has the wrong dimension")
    # chi vanishes on the parabolic p = levi + n_+
    for k in levi_idx + n_plus:
        if chi[k] != 0:
            raise AssertionError("chi does not vanish on the parabolic")

    # letters n_-, then l, then n_+: a sorted word over n_- is a PBW monomial,
    # and the letters of p act on k_0 by chi = 0; the structure constants are
    # reduced mod p as they are read, and an entry that vanishes is dropped
    order = f_idx + levi_idx + n_plus
    pos = {k: i for i, k in enumerate(order)}
    bracket = {(pos[a], pos[b]): entry for a, row in enumerate(alg.structure) for b, terms in row.items()
               if pos[a] > pos[b] and (entry := {pos[c]: v % p for c, v in terms if v % p})}
    p_power = [{pos[c]: v for c, v in mod.p_power[k].items()} for k in order]
    U = UAlgebra(alg.dim, bracket, len(f_idx), [chi[k] for k in order], restricted=(p, p_power))
    # the monomials in exponent-vector order, each as its sorted word
    words = [tuple(i for i, n in enumerate(expo) for _ in range(n)) for expo in product(range(p), repeat=len(f_idx))]
    row = {w: col for col, w in enumerate(words)}
    dim = len(words)
    # U.act gives a flat tuple (word, coefficient, word, coefficient, ...)
    action = [SparseMatrix(dim, dim, ring, {(row[s], col): c for col, w in enumerate(words)
                                            for t in (U.act(pos[k], w),) for s, c in zip(t[::2], t[1::2])})
              for k in range(alg.dim)]
    module = InducedModule(p, dim, action, chi)
    verify_induced_module(module, mod)
    return module


def verify_induced_module(module: InducedModule, mod: ModularAlgebra):
    """Bracket compatibility [x_a, x_b] = sum_c c_ab^c x_c on every pair a < b,
    as one residue per pair mod p, and the exact p-character identity
    x_k^p - x_k^[p] = chi(x_k)^p on every basis element, as one residue mod p
    subtracted from the entries of the matrix power x_k^p."""
    p = module.p
    act = module.action
    dim_g = mod.alg.dim
    mats = {k: m.entries for k, m in enumerate(act)}
    pairs = combinations(range(dim_g), 2)
    for a, b, _ in bracket_residues(mats, pairs, lambda a, b: mod.alg.structure[a].get(b, ()), p):
        raise AssertionError(f"bracket compatibility fails at pair ({a}, {b})")
    for k in range(dim_g):
        # x_k^p - sum of v x_c - chi(x_k)^p 1 as one entry dict, checked mod p
        residue = dict(_power(act[k], p).entries)
        for c, v in mod.p_power[k].items():
            for rc, x in mats[c].items():
                residue[rc] = residue.get(rc, 0) - v * x
        chi_p = pow(module.chi[k], p, p)
        for i in range(module.dim):
            residue[(i, i)] = residue.get((i, i), 0) - chi_p
        if any(x % p for x in residue.values()):
            raise AssertionError(f"p-character identity fails at basis {k}")


PROBE_SEEDS = 10


def _probe_seed(s: int, dim: int, p: int) -> dict:
    """The s-th seed vector of submodule_probe in F_p^dim, as the
    {index: residue} map of its nonzero entries."""
    return {i: x for i in range(dim) if (x := (1 + ((s + 1) * 48271 * (i + 1)) % 7) % p)}


def submodule_probe(module: InducedModule) -> dict:
    """Closure of seeded vectors under the action matrices; reports whether
    each seed generates the whole module (suggesting simplicity per the
    Kac-Weisfeiler bound; reported, never assumed).  The closure runs on
    packed rows, so module.p is at most 13 (both callers probe at p = 3);
    a larger prime raises ValueError."""
    seeds = [_probe_seed(s, module.dim, module.p) for s in range(PROBE_SEEDS)]
    results = closure_ranks(GF(module.p), seeds, module.action)
    return {
        "seeds": PROBE_SEEDS,
        "full_closures": sum(1 for r in results if r == module.dim),
        "ranks": results,
    }


def kw_bookkeeping(lam: Partition, eps: int, p: int, datum: InductionDatum) -> dict:
    """d(chi), the small dimension p^{d(chi)}, and the induction identity
    dim n + d(chi-bar) = d(chi) for the datum that induces lam."""
    dim_orbit = orbit_dim_formula(lam, eps)
    d_chi = dim_orbit // 2
    dim_n = len(nilradical_basis(build_algebra(datum.N, datum.eps), datum.gl_sizes))
    d_bar = datum_levi_orbit_dim(datum) // 2
    return {
        "partition": str(lam),
        "eps": eps,
        "p": p,
        "dim_orbit": dim_orbit,
        "d_chi": d_chi,
        "small_dimension": p ** d_chi,
        "dim_n": dim_n,
        "d_chi_bar": d_bar,
        "induction_identity": dim_n + d_bar == d_chi,
    }
