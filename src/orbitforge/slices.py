"""The skew form on g(-1), Lagrangian splitting normalised over Z[1/2], the
subalgebra m with its character values, the good transverse slice with its
contracting weights, and the integral saturation checks for ad e on the
Chevalley lattice.

The weight split uses the diagonal toral subalgebra t_e of g^e spanned by
one generator per hyperbolically paired pyramid row pair, whose weights on
the Chevalley basis orbits.basis_degrees reads off the pyramid rows; no
element of t_e is built as a matrix.  Its positive and negative weight
spaces provide the triangular decomposition n_- + l + n_+ with e
distinguished in l (asserted: l has no odd Dynkin degrees).
"""

from __future__ import annotations

from .rings import QQ, ZZ, canonical, is_two_power_denominator
from .linalg import SparseMatrix, VectorSpan, divisor_chain, inverse_rows, row_span, smith_normal_form
from .orbits import NilpotentRep, ad_e_block, ad_e_matrix, basis_degrees, centralizer_dim_formula, dynkin_grading
from .centralizer import compute_centralizer


# -- torus and triangular decomposition ---------------------------------------


class WeightData:
    __slots__ = ("weights", "n_plus", "n_minus", "levi")

    def __init__(self, weights: list, n_plus: list, n_minus: list, levi: list):
        self.weights = weights    # basis index -> weight tuple under the torus
        self.n_plus = n_plus      # basis indices with lexicographically positive weight
        self.n_minus = n_minus
        self.levi = levi          # weight-zero basis indices

    def side(self, k: int) -> int:
        w = self.weights[k]
        for x in w:
            if x != 0:
                return 1 if x > 0 else -1
        return 0


def weight_data(rep: NilpotentRep) -> WeightData:
    """Weights of the Chevalley basis under the diagonal torus of g^e: one
    generator per paired pyramid row r > 0, +1 on row r and -1 on row -r,
    whose weights basis_degrees reads (and raises unless each basis element
    is a weight vector).  build_pyramid makes row(-b) = -row(b), so each
    generator lies in g; it centralises e because e lies in the Levi."""
    alg, pyr = rep.algebra, rep.pyramid
    gr = dynkin_grading(rep)
    crossed_rows = {r for r, _ in pyr.crossed}  # skew rows belong to self-paired parts
    rows = sorted({r for r in pyr.row.values() if r > 0 and r not in crossed_rows}, reverse=True)
    per_row = [basis_degrees(alg, {b: (pyr.row[b] == r) - (pyr.row[b] == -r) for b in pyr.boxes()})
               for r in rows]
    weights = [tuple(degs[k] for degs in per_row) for k in range(alg.dim)]
    wd = WeightData(weights, [], [], [])
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
    # weight zero on e's support is [t, e] = 0 for every torus generator t
    for k in rep.e_coords:
        if wd.side(k) != 0:
            raise AssertionError("e does not lie in the Levi of the weight split")
    return wd


def chi_of(chi: dict, xs: dict):
    """chi(x) for x and chi given as {index: scalar} maps, chi by its values
    on the Chevalley basis."""
    return canonical(sum(chi.get(k, 0) * c for k, c in xs.items()))


# -- skew form and Lagrangian pair ---------------------------------------------


class SkewForm:
    __slots__ = ("wd", "chi", "minus_idx", "plus_idx", "gram", "m_block")

    def __init__(self, wd: WeightData, chi: dict, minus_idx: list, plus_idx: list,
                 gram: SparseMatrix, m_block: SparseMatrix):
        self.wd = wd
        self.chi = chi                # chi = kappa(e, -) on the Chevalley basis, as a map
        self.minus_idx = minus_idx    # Chevalley indices spanning n_-(-1)
        self.plus_idx = plus_idx      # Chevalley indices spanning n_+(-1)
        self.gram = gram              # full Gram on the ordered basis minus + plus
        self.m_block = m_block        # the block M with Psi(z'_i, z_j) = M_{ij}


def build_psi(rep: NilpotentRep) -> SkewForm:
    alg = rep.algebra
    wd = weight_data(rep)
    gr = dynkin_grading(rep)
    n_minus, n_plus = set(wd.n_minus), set(wd.n_plus)
    minus_idx = [k for k in gr.layer(-1) if k in n_minus]
    plus_idx = [k for k in gr.layer(-1) if k in n_plus]
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
    if row_span(gram).rank != len(order):
        raise AssertionError("Psi is degenerate over QQ (falsifies goodness)")
    m_block = SparseMatrix(s, s, QQ, {(a, b): gram[(a, b + s)] for a in range(s) for b in range(s) if gram[(a, b + s)] != 0})
    return SkewForm(wd, chi, minus_idx, plus_idx, gram, m_block)


def is_signed_two_power(x) -> bool:
    x = abs(x)
    if x == 0:
        return False
    num, den = x.numerator, x.denominator
    return (num & (num - 1)) == 0 and (den & (den - 1)) == 0


class LagrangianPair:
    __slots__ = ("rep", "psi", "z_minus", "z_plus")

    def __init__(self, rep: NilpotentRep, psi: SkewForm, z_minus: list, z_plus: list):
        self.rep = rep
        self.psi = psi
        self.z_minus = z_minus    # {index: scalar} maps of z'_1..z'_s (after normalisation)
        self.z_plus = z_plus      # {index: scalar} maps of z_1..z_s (Chevalley vectors)


def split_lagrangian(rep: NilpotentRep) -> LagrangianPair:
    psi = build_psi(rep)
    s = len(psi.minus_idx)
    z_plus = [{k: 1} for k in psi.plus_idx]
    if s == 0:
        return LagrangianPair(rep, psi, [], [])
    # M lies in GL_s(Z[1/2]): it is invertible, and M and M^{-1} both have
    # 2-power denominators, so the normalisation reduces mod every odd p
    m_rows = psi.m_block.rows()
    minv = inverse_rows(m_rows)
    if minv is None or not all(is_two_power_denominator(c) for row in m_rows + minv for c in row.values()):
        raise AssertionError("M is not invertible over Z[1/2]")
    z_minus = [{psi.minus_idx[j]: c for j, c in row.items()} for row in minv]
    pair = LagrangianPair(rep, psi, z_minus, z_plus)
    verify_duality(pair)
    return pair


def verify_duality(pair: LagrangianPair):
    alg, chi, minus = pair.rep.algebra, pair.psi.chi, pair.z_minus
    for i, xm in enumerate(minus):
        for j, xp in enumerate(pair.z_plus):
            val = chi_of(chi, alg.sparse_bracket(xm, xp))
            if val != (1 if i == j else 0):
                raise AssertionError(f"Psi(z'_{i}, z_{j}) = {val} != delta")
    for xa in minus:
        for xb in minus:
            if chi_of(chi, alg.sparse_bracket(xa, xb)) != 0:
                raise AssertionError("B_- is not isotropic after normalisation")


# -- the subalgebra m ------------------------------------------------------------


class MSubalgebra:
    __slots__ = ("pair", "basis")

    def __init__(self, pair: LagrangianPair, basis: list):
        self.pair = pair        # the Lagrangian pair m was built from
        self.basis = basis      # {index: scalar} maps of the basis vectors

    @property
    def dim(self):
        return len(self.basis)


def build_m(rep: NilpotentRep) -> MSubalgebra:
    alg = rep.algebra
    pair = split_lagrangian(rep)
    gr = dynkin_grading(rep)
    basis = list(pair.z_minus)
    degrees = [-1] * len(basis)
    for d in sorted(gr.layers):
        if d <= -2:
            for k in gr.layers[d]:
                basis.append({k: 1})
                degrees.append(d)
    for v, d in zip(basis, degrees):
        if d != -2 and chi_of(pair.psi.chi, v) != 0:
            raise AssertionError("chi is supported outside degree -2")
    # subalgebra and [m, m] <= ker chi
    span = VectorSpan(QQ)
    for v in basis:
        span.add(v)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            br = alg.sparse_bracket(basis[a], basis[b])
            if not span.contains(br):
                raise AssertionError("m is not closed under the bracket")
            if chi_of(pair.psi.chi, br) != 0:
                raise AssertionError("chi does not vanish on [m, m]")
    msub = MSubalgebra(pair, basis)
    d_chi = (alg.dim - centralizer_dim_formula(rep.lam, rep.eps)) // 2
    if msub.dim != d_chi:
        raise AssertionError(f"dim m = {msub.dim} != d(chi) = {d_chi}")
    return msub


# -- good transverse slice ---------------------------------------------------------


class SliceData:
    __slots__ = ("degrees", "contracting_weights")

    def __init__(self, degrees: list, contracting_weights: list):
        self.degrees = degrees                             # Dynkin degree of each vector of v
        self.contracting_weights = contracting_weights     # 2 - degree per vector


def slice_complement(rep: NilpotentRep) -> SliceData:
    """The degrees and weights of a graded complement v to [g, e] of
    Chevalley basis vectors, taken greedily, contained in the nonpositive
    degrees."""
    gr = dynkin_grading(rep)
    degs = []
    for d in sorted(gr.layers):
        # [e, g(d-2)] in the coordinates of g(d), one row per [e, B_k]
        image = row_span(ad_e_block(rep, d - 2).transpose())
        added = 0
        for i in range(len(gr.layers[d])):
            if image.add({i: 1}):
                degs.append(d)
                added += 1
        if d > 0 and added:
            # ad e is onto in positive degrees; nothing may be added there
            raise AssertionError("[g, e] misses vectors in positive degree")
    if len(degs) != centralizer_dim_formula(rep.lam, rep.eps):
        raise AssertionError("dim v != dim g^e")
    if any(d > 0 for d in degs):
        raise AssertionError("complement is not contained in nonpositive degrees")
    weights = [2 - d for d in degs]
    if any(w <= 0 for w in weights):
        raise AssertionError("contracting action has a non-positive weight")
    return SliceData(degs, weights)


# -- integral saturation -----------------------------------------------------------


def integral_saturation(rep: NilpotentRep) -> dict:
    """SNF-based saturation report for ad e on the Chevalley lattice, from one
    certified SNF per block g(d) -> g(d+2) with a nonzero target: ad e is a
    permuted direct sum of its blocks, so its divisors are theirs in one chain."""
    alg, gr = rep.algebra, dynkin_grading(rep)
    snfs = {d: smith_normal_form(ad_e_block(rep, d, ZZ)) for d in sorted(gr.layers) if gr.layer(d + 2)}
    nonzero = [x for snf in snfs.values() for x in snf.divisors if x != 0]
    divisors = divisor_chain(nonzero) + [0] * (alg.dim - len(nonzero))
    saturated = all(is_signed_two_power(x) for x in nonzero)
    # ad e is onto g(d+2) from each g(d) with d >= 0, with unit divisors over Z[1/2]
    graded_ok = all(snf.rank == len(gr.layer(d + 2)) and all(is_signed_two_power(x) for x in snf.divisors if x)
                    for d, snf in snfs.items() if d >= 0)

    # [e, g_R] = (g_R^e)^perp: containment, kappa([e, B_j], z) = 0 for all j,
    # is (ad e)^T G z = 0 with G the Killing Gram; and rank equality
    cb = compute_centralizer(rep)
    ad_e_t = ad_e_matrix(rep).change_ring(QQ).transpose()
    perp_ok = len(nonzero) + cb.dim == alg.dim and not any(
        ad_e_t.apply(alg.kappa_row(z)) for z in cb.vectors)
    return {
        "divisors": divisors,
        "saturated": saturated,
        "graded_onto": graded_ok,
        "perp_identity": perp_ok,
    }
