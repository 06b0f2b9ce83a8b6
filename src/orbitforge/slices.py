"""The skew form on g(-1), Lagrangian splitting normalised over Z[1/2], the
subalgebra m with its character values, the good transverse slice with its
contracting weights, and the integral saturation checks for ad e on the
Chevalley lattice.

The weight split uses the diagonal toral subalgebra t_e of g^e spanned by
one generator per hyperbolically paired pyramid row pair; its positive and
negative weight spaces provide the triangular decomposition n_- + l + n_+
with e distinguished in l (asserted: l has no odd Dynkin degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rings import QQ, ZZ, is_two_power_denominator
from .linalg import (
    SparseMatrix,
    inverse_rows,
    rank_kernel,
    smith_normal_form,
    sparse_vector,
    VectorSpan,
)
from .orbits import NilpotentRep, ad_e_block, ad_e_matrix, centralizer_dim_formula, dynkin_grading
from .centralizer import compute_centralizer


# -- torus and triangular decomposition ---------------------------------------


def toral_generators(rep: NilpotentRep):
    """Chevalley coordinates of one diagonal generator per paired pyramid
    row pair: +1 on the upper row's boxes, -1 on the mirror row."""
    pyr, alg = rep.pyramid, rep.algebra
    rows = {}
    for b in pyr.boxes():
        rows.setdefault(pyr.row[b], []).append(b)
    crossed_rows = {r for r, _ in pyr.crossed}
    e = sparse_vector(rep.e_coords, QQ)
    gens = []
    for r in sorted(rows, reverse=True):
        if r <= 0 or r in crossed_rows:
            continue  # skew rows belong to self-paired parts
        ent = {}
        for b in rows[r]:
            ent[(alg.pos[b], alg.pos[b])] = 1
            ent[(alg.pos[-b], alg.pos[-b])] = -1
        t = SparseMatrix(alg.N, alg.N, QQ, ent)
        if not alg.in_algebra(t):
            raise AssertionError("toral generator not in the algebra")
        t = alg.coordinates(t)
        if alg.sparse_bracket(sparse_vector(t, QQ), e):
            raise AssertionError("toral generator does not centralise e")
        gens.append(t)
    return gens


@dataclass
class WeightData:
    rep: NilpotentRep
    torus: list                # toral generators, Chevalley coordinates
    weights: list              # basis index -> weight tuple under the torus
    n_plus: list               # basis indices with lexicographically positive weight
    n_minus: list
    levi: list                 # weight-zero basis indices

    def side(self, k: int) -> int:
        w = self.weights[k]
        for x in w:
            if x != 0:
                return 1 if x > 0 else -1
        return 0


def weight_data(rep: NilpotentRep) -> WeightData:
    alg = rep.algebra
    gr = dynkin_grading(rep)
    torus = toral_generators(rep)
    # the basis consists of torus weight vectors: each ad t is diagonal
    ads = [alg.ad(t) for t in torus]
    for ad_t in ads:
        for (r, c), v in ad_t.entries.items():
            if r != c:
                raise AssertionError("basis element is not a torus weight vector")
            if v.denominator != 1:
                raise AssertionError("non-integral torus weight")
    weights = [tuple(int(ad_t[(k, k)]) for ad_t in ads) for k in range(alg.dim)]
    wd = WeightData(rep, torus, weights, [], [], [])
    for k in range(alg.dim):
        s = wd.side(k)
        (wd.n_plus if s > 0 else wd.n_minus if s < 0 else wd.levi).append(k)
    # e is distinguished in the Levi: no odd Dynkin degrees there
    for k in wd.levi:
        if gr.degree[k] % 2 != 0:
            raise AssertionError(
                "weight-zero part of g has odd Dynkin degrees; the Lagrangian "
                "split rule would be ambiguous for this representative"
            )
    for k, c in enumerate(rep.e_coords):
        if c != 0 and wd.side(k) != 0:
            raise AssertionError("e does not lie in the Levi of the weight split")
    return wd


def chi_of(chi, xs: dict):
    """chi(x) for x given as {index: scalar} and chi as its vector of values
    on the Chevalley basis."""
    return sum((chi[k] * c for k, c in xs.items()), Fraction(0))


# -- skew form and Lagrangian pair ---------------------------------------------


@dataclass
class SkewForm:
    rep: NilpotentRep
    wd: WeightData
    chi: tuple           # chi = kappa(e, -) on the Chevalley basis
    minus_idx: list      # Chevalley indices spanning n_-(-1)
    plus_idx: list       # Chevalley indices spanning n_+(-1)
    gram: SparseMatrix   # full Gram on the ordered basis minus + plus
    m_block: SparseMatrix  # the block M with Psi(z'_i, z_j) = M_{ij}


def build_psi(rep: NilpotentRep, wd: WeightData | None = None) -> SkewForm:
    alg = rep.algebra
    if wd is None:
        wd = weight_data(rep)
    gr = dynkin_grading(rep)
    minus_idx = [k for k in gr.layer(-1) if k in set(wd.n_minus)]
    plus_idx = [k for k in gr.layer(-1) if k in set(wd.n_plus)]
    if len(minus_idx) + len(plus_idx) != len(gr.layer(-1)):
        raise AssertionError("g(-1) has torus-weight-zero vectors")
    order = minus_idx + plus_idx
    s = len(minus_idx)
    chi = alg.kappa_row(rep.e_coords)
    ent = {}
    for a, ka in enumerate(order):
        for b, kb in enumerate(order):
            v = chi_of(chi, alg.sparse_bracket({ka: 1}, {kb: 1}))
            if v != 0:
                ent[(a, b)] = v
    gram = SparseMatrix(len(order), len(order), QQ, ent)
    if gram.transpose() != -gram:
        raise AssertionError("Psi is not skew-symmetric")
    for a in range(s):
        for b in range(s):
            if gram[(a, b)] != 0 or gram[(a + s, b + s)] != 0:
                raise AssertionError("n_{+-}(-1) are not totally isotropic")
    rank, _ = rank_kernel(gram)
    if rank != len(order):
        raise AssertionError("Psi is degenerate over QQ (falsifies goodness)")
    m_block = SparseMatrix(s, s, QQ, {(a, b): gram[(a, b + s)] for a in range(s) for b in range(s) if gram[(a, b + s)] != 0})
    return SkewForm(rep, wd, chi, minus_idx, plus_idx, gram, m_block)


def is_signed_two_power(x) -> bool:
    x = Fraction(abs(Fraction(x)))
    if x == 0:
        return False
    num, den = x.numerator, x.denominator
    return (num & (num - 1)) == 0 and (den & (den - 1)) == 0


@dataclass
class LagrangianPair:
    rep: NilpotentRep
    psi: SkewForm
    z_minus: list   # coordinate vectors of z'_1..z'_s (after normalisation)
    z_plus: list    # coordinate vectors of z_1..z_s (Chevalley vectors)


def split_lagrangian(rep: NilpotentRep, psi: SkewForm | None = None) -> LagrangianPair:
    alg = rep.algebra
    if psi is None:
        psi = build_psi(rep)
    s = len(psi.minus_idx)
    z_plus = []
    for k in psi.plus_idx:
        vec = [Fraction(0)] * alg.dim
        vec[k] = Fraction(1)
        z_plus.append(tuple(vec))
    if s == 0:
        return LagrangianPair(rep, psi, [], [])
    # M lies in GL_s(Z[1/2]): it is invertible, and M and M^{-1} both have
    # 2-power denominators, so the normalisation reduces mod every odd p
    m_rows = psi.m_block.to_dense()
    minv = inverse_rows(m_rows)
    if minv is None or not all(is_two_power_denominator(c) for row in m_rows + minv for c in row):
        raise AssertionError("M is not invertible over Z[1/2]")
    z_minus = []
    for i in range(s):
        vec = [Fraction(0)] * alg.dim
        for j in range(s):
            vec[psi.minus_idx[j]] += minv[i][j]
        z_minus.append(tuple(vec))
    pair = LagrangianPair(rep, psi, z_minus, z_plus)
    verify_duality(pair)
    return pair


def verify_duality(pair: LagrangianPair):
    alg, chi = pair.rep.algebra, pair.psi.chi
    minus = [sparse_vector(v, QQ) for v in pair.z_minus]
    plus = [sparse_vector(v, QQ) for v in pair.z_plus]
    for i, xm in enumerate(minus):
        for j, xp in enumerate(plus):
            val = chi_of(chi, alg.sparse_bracket(xm, xp))
            if val != (1 if i == j else 0):
                raise AssertionError(f"Psi(z'_{i}, z_{j}) = {val} != delta")
    for xa in minus:
        for xb in minus:
            if chi_of(chi, alg.sparse_bracket(xa, xb)) != 0:
                raise AssertionError("B_- is not isotropic after normalisation")


# -- the subalgebra m ------------------------------------------------------------


@dataclass
class MSubalgebra:
    rep: NilpotentRep
    basis: list        # coordinate vectors
    chi: list          # chi value per basis vector
    degrees: list

    @property
    def dim(self):
        return len(self.basis)


def build_m(rep: NilpotentRep, pair: LagrangianPair) -> MSubalgebra:
    alg = rep.algebra
    gr = dynkin_grading(rep)
    basis = list(pair.z_minus)
    degrees = [-1] * len(basis)
    for d in sorted(gr.layers):
        if d <= -2:
            for k in gr.layers[d]:
                vec = [Fraction(0)] * alg.dim
                vec[k] = Fraction(1)
                basis.append(tuple(vec))
                degrees.append(d)
    sparse = [sparse_vector(v, QQ) for v in basis]
    chi = []
    for v, d in zip(sparse, degrees):
        val = chi_of(pair.psi.chi, v)
        if d != -2 and val != 0:
            raise AssertionError("chi is supported outside degree -2")
        chi.append(val)
    # subalgebra and [m, m] <= ker chi
    span = VectorSpan(QQ, alg.dim)
    for v in sparse:
        span.add(v)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            br = alg.sparse_bracket(sparse[a], sparse[b])
            if not span.contains(br):
                raise AssertionError("m is not closed under the bracket")
            if chi_of(pair.psi.chi, br) != 0:
                raise AssertionError("chi does not vanish on [m, m]")
    msub = MSubalgebra(rep, basis, chi, degrees)
    d_chi = (alg.dim - centralizer_dim_formula(rep.lam, rep.eps)) // 2
    if msub.dim != d_chi:
        raise AssertionError(f"dim m = {msub.dim} != d(chi) = {d_chi}")
    return msub


# -- good transverse slice ---------------------------------------------------------


@dataclass
class SliceData:
    rep: NilpotentRep
    complement: list       # coordinate vectors of v
    degrees: list          # Dynkin degree of each complement vector
    contracting_weights: list  # 2 - degree per vector


def slice_complement(rep: NilpotentRep) -> SliceData:
    """Graded complement v to [g, e], greedily preferring Chevalley basis
    vectors, contained in the nonpositive degrees."""
    alg = rep.algebra
    gr = dynkin_grading(rep)
    comp = []
    degs = []
    for d in sorted(gr.layers):
        # [e, g(d-2)] in the coordinates of g(d), one row per [e, B_k]
        image = VectorSpan(QQ, len(gr.layers[d]))
        for row in ad_e_block(rep, d - 2).transpose().to_dense():
            image.add(row)
        added = 0
        for i, k in enumerate(gr.layers[d]):
            if image.add({i: QQ.one()}):
                vec = [Fraction(0)] * alg.dim
                vec[k] = Fraction(1)
                comp.append(tuple(vec))
                degs.append(d)
                added += 1
        if d > 0 and added:
            # ad e is onto in positive degrees; nothing may be added there
            raise AssertionError("[g, e] misses vectors in positive degree")
    if len(comp) != centralizer_dim_formula(rep.lam, rep.eps):
        raise AssertionError("dim v != dim g^e")
    if any(d > 0 for d in degs):
        raise AssertionError("complement is not contained in nonpositive degrees")
    weights = [2 - d for d in degs]
    if any(w <= 0 for w in weights):
        raise AssertionError("contracting action has a non-positive weight")
    return SliceData(rep, comp, degs, weights)


# -- integral saturation -----------------------------------------------------------


def integral_saturation(rep: NilpotentRep) -> dict:
    """SNF-based saturation report for ad e on the Chevalley lattice."""
    alg = rep.algebra
    gr = dynkin_grading(rep)
    snf = smith_normal_form(ad_e_matrix(rep, ZZ))
    divisors = [d for d in snf.divisors if d != 0]
    saturated = all(is_signed_two_power(d) for d in divisors)

    graded_ok = True
    for d in sorted(gr.layers):
        if d < 0:
            continue
        sub = smith_normal_form(ad_e_block(rep, d, ZZ))
        nz = [x for x in sub.divisors if x != 0]
        ok = len(nz) == len(gr.layer(d + 2)) and all(is_signed_two_power(x) for x in nz)
        graded_ok = graded_ok and ok

    # [e, g_R] = (g_R^e)^perp: containment, kappa([e, B_j], z) = 0 for all j,
    # is (ad e)^T G z = 0 with G the Killing Gram; and rank equality
    cb = compute_centralizer(rep)
    ad_e_t = ad_e_matrix(rep).transpose()
    perp_ok = snf.rank + cb.dim == alg.dim and not any(
        any(ad_e_t.apply(alg.kappa_row(z))) for z in cb.vectors)
    return {
        "divisors": snf.divisors,
        "saturated": saturated,
        "graded_onto": graded_ok,
        "perp_identity": perp_ok,
    }
