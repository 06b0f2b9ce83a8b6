"""Nilpotent representatives from pyramids, Dynkin gradings, sl2-completion,
Jordan types, orbit dimensions and the Lusztig-Spaltenstein induction oracle.

Gradings of g come from integer weights on the signed indices of k^N:
`basis_degrees` is the one place that reads the degree of a Chevalley basis
element off its matrix.  The Dynkin grading, `parabolic` (the split
n_- + l + n_+ of g for a Levi of given gl block sizes) and the torus
weights of slices.weight_data all use it.  Linear combinations of basis
elements are built by ClassicalAlgebra.from_coordinates, one matrix each.

A representative builds its Dynkin grading once and ad e once per ring;
`ad_e_block` cuts ad e : g(d) -> g(d+2) out of that matrix and is the one
place that checks that ad e raises the degree by two.  Every SNF, rank and
solve of ad e runs on these blocks, except WSetup's kernels on the (degree,
weight) pieces of g: they keep whole columns, since SNF pivots depend on the
row positions and cut rows would change the W bases.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import QQ, Frozen
from .linalg import SparseMatrix, commutator, row_span, solve
from .partitions import (
    Partition,
    DynkinPyramid,
    validate_partition,
    is_very_even,
    build_pyramid,
    admissible_partitions,
)
from .algebra import ClassicalAlgebra, build_algebra


class NilpotentRep:
    __slots__ = ("lam", "eps", "algebra", "pyramid", "e", "e_coords", "very_even",
                 "_grading", "_ad_e", "_ranks_mod_p")

    def __init__(self, lam: Partition, eps: int, algebra: ClassicalAlgebra, pyramid: DynkinPyramid,
                 e: SparseMatrix, e_coords: dict, very_even: bool):
        self.lam = lam
        self.eps = eps
        self.algebra = algebra
        self.pyramid = pyramid
        self.e = e                  # over QQ
        self.e_coords = e_coords    # {index: integer}, the nonzero Chevalley coordinates of e
        self.very_even = very_even
        # built on first use by dynkin_grading, ad_e_matrix (one per ring) and
        # modular.graded_dims_mod_p (one per prime)
        self._grading = None
        self._ad_e = {}
        self._ranks_mod_p = {}


def nilpotent_positions(pyr: DynkinPyramid, eps: int):
    """Index pairs (i, j) entering e = sum sigma_{i,j} e_{i,j}."""
    boxes = pyr.boxes()
    pairs = set()
    for i in boxes:
        for j in boxes:
            if pyr.row[i] == pyr.row[j] and pyr.col[i] == pyr.col[j] + 2:
                pairs.add((i, j))
    cross = {(1, -1)} if eps == -1 else {(2, 0), (0, -2)}
    for i in boxes:
        if pyr.row[i] <= 0 or pyr.row[i] not in pyr.skew_rows:
            continue
        for j in boxes:
            if pyr.row[j] != -pyr.row[i]:
                continue
            if (pyr.col[i], pyr.col[j]) in cross:
                pairs.add((i, j))
    return sorted(pairs)


def build_nilpotent(lam: Partition, eps: int) -> NilpotentRep:
    """The pyramid representative e = sum sigma_{i,j} e_{i,j}: sigma_{i,j} is
    the entry at (i, j) of the root vector the algebra holds there."""
    if not validate_partition(lam, eps):
        raise ValueError(f"{lam} is not admissible for eps={eps}")
    alg = build_algebra(lam.size, eps)
    pyr = build_pyramid(lam, eps)
    ent = {}
    for i, j in nilpotent_positions(pyr, eps):
        rc = (alg.pos[i], alg.pos[j])
        ent[rc] = alg.basis[alg._root_at[rc]].entries[rc]
    e = SparseMatrix(lam.size, lam.size, QQ, ent)
    # coordinates raises for a matrix outside the algebra
    coords = alg.coordinates(e)
    if any(c.denominator != 1 for c in coords.values()):
        raise AssertionError("nilpotent representative not in the Chevalley lattice")
    rep = NilpotentRep(lam, eps, alg, pyr, e, coords, is_very_even(lam, eps))
    jt = jordan_type(e)
    if jt != lam:
        raise AssertionError(f"representative for {lam} has Jordan type {jt}")
    return rep


def jordan_type(x: SparseMatrix) -> Partition:
    """Jordan type of a nilpotent matrix from the rank sequence of its
    powers, each rank read off one echelon span of the rows."""
    n = x.nrows
    ranks = [n]
    x = x.change_ring(QQ)
    cur = SparseMatrix.identity(n, QQ)
    while ranks[-1] > 0:
        cur = cur @ x
        r = row_span(cur).rank
        if r >= ranks[-1]:
            raise ValueError("matrix is not nilpotent")
        ranks.append(r)
    lam_conj = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return Partition(tuple(lam_conj)).conjugate()


# -- Dynkin grading -----------------------------------------------------------


class DynkinGrading:
    __slots__ = ("weight", "degree", "layers")

    def __init__(self, weight: dict, degree: tuple, layers: dict):
        self.weight = weight    # signed basis-vector index -> cocharacter weight col
        self.degree = degree    # Dynkin degree of each Chevalley basis element
        self.layers = layers    # degree -> tuple of basis indices

    def layer(self, d) -> tuple:
        return self.layers.get(d, ())


def basis_degrees(alg: ClassicalAlgebra, weight: dict) -> tuple:
    """Degree of each Chevalley basis element when v_a has degree weight[a]
    (0 for a signed index a not in weight); raises unless every basis
    element is homogeneous."""
    degs = []
    for m in alg.basis:
        dset = {weight.get(alg.indices[r], 0) - weight.get(alg.indices[c], 0) for (r, c), _ in m.items()}
        if len(dset) != 1:
            raise AssertionError("basis element not homogeneous for the grading")
        degs.append(dset.pop())
    return tuple(degs)


def dynkin_grading(rep: NilpotentRep) -> DynkinGrading:
    """The grading of g by the pyramid's column cocharacter, built once per
    representative."""
    if rep._grading is None:
        pyr = rep.pyramid
        weight = {a: pyr.col[a] for a in pyr.boxes()}
        degs = basis_degrees(rep.algebra, weight)
        layers = {d: tuple(k for k, dk in enumerate(degs) if dk == d) for d in sorted(set(degs))}
        for d in layers:
            if len(layers[d]) != len(layers.get(-d, ())):
                raise AssertionError("graded dimensions are not symmetric")
        for k in rep.e_coords:
            if degs[k] != 2:
                raise AssertionError("e is not homogeneous of degree 2")
        rep._grading = DynkinGrading(weight, degs, layers)
    return rep._grading


def graded_dims(gr: DynkinGrading) -> dict:
    return {d: len(ix) for d, ix in sorted(gr.layers.items())}


def ad_e_matrix(rep: NilpotentRep, ring=QQ) -> SparseMatrix:
    """ad e on the Chevalley basis over ring, built once per ring."""
    if ring not in rep._ad_e:
        rep._ad_e[ring] = rep.algebra.ad(rep.e_coords, ring)
    return rep._ad_e[ring]


def ad_e_block(rep: NilpotentRep, d: int, ring=QQ) -> SparseMatrix:
    """ad e : g(d) -> g(d+2) over ring, rows and columns in layer order;
    raises unless ad e maps g(d) into g(d+2).  The reductions of ad e
    (saturation SNFs, the sl2 solve, ranks over QQ and mod p) take these."""
    gr = dynkin_grading(rep)
    at = {k: i for i, k in enumerate(gr.layer(d + 2))}
    cols = ad_e_matrix(rep, ring).columns(gr.layer(d))
    if any(r not in at for r, _ in cols.entries):
        raise AssertionError(f"ad e maps g({d}) outside g({d + 2})")
    return SparseMatrix(len(at), cols.ncols, ring, {(at[r], c): v for (r, c), v in cols.entries.items()})


def orbit_dimension(rep: NilpotentRep):
    """(dim of the orbit, d_chi): the orbit dimension is the rank of ad e,
    summed over the graded blocks."""
    dim_orbit = sum(row_span(ad_e_block(rep, d)).rank for d in dynkin_grading(rep).layers)
    if dim_orbit % 2 != 0:
        raise AssertionError("orbit dimension must be even")
    return dim_orbit, dim_orbit // 2


def centralizer_dim_formula(lam: Partition, eps: int) -> int:
    """Closed form (1/2)(sum of conjugate-part squares +/- #odd parts);
    + for sp, - for so.  Used as a cross-check only."""
    conj = lam.conjugate().parts
    odd = sum(1 for p in lam.parts if p % 2 == 1)
    tot = sum(c * c for c in conj) + (odd if eps == -1 else -odd)
    if tot % 2 != 0:
        raise AssertionError("parity failure in the centraliser dimension formula")
    return tot // 2


def orbit_dim_formula(lam: Partition, eps: int) -> int:
    n = lam.size
    dim_g = n * (n - 1) // 2 if eps == 1 else n * (n + 1) // 2
    return dim_g - centralizer_dim_formula(lam, eps)


def complete_sl2(rep: NilpotentRep) -> tuple:
    """(h, f): completes (e, h = cocharacter differential) to an sl2-triple
    (e, h, f) in g and certifies [e, g(0)] = g(2)."""
    alg = rep.algebra
    gr = dynkin_grading(rep)
    ent = {}
    for a in rep.pyramid.boxes():
        if gr.weight[a] != 0:
            ent[(alg.pos[a], alg.pos[a])] = gr.weight[a]
    h = SparseMatrix(alg.N, alg.N, QQ, ent)
    if commutator(h, rep.e) != rep.e.scale(2):
        raise AssertionError("[h, e] != 2e")
    # h is diagonal, so its coordinates lie in g(0); [e, f] = h below catches any other h
    at = {k: i for i, k in enumerate(gr.layer(0))}
    sol = solve(ad_e_block(rep, -2), {at[k]: x for k, x in alg.coordinates(h).items() if k in at})
    if sol is None:
        raise AssertionError("no f in g(-2) with [e, f] = h (falsifies the sl2-completion)")
    neg2 = gr.layer(-2)
    f = alg.from_coordinates({neg2[i]: x for i, x in sol.items()})
    if commutator(h, f) != f.scale(-2) or commutator(rep.e, f) != h:
        raise AssertionError("sl2 relations fail")
    # density evidence: [e, g(0)] = g(2)
    if row_span(ad_e_block(rep, 0)).rank != len(gr.layer(2)):
        raise AssertionError("[e, g(0)] != g(2)")
    return h, f


# -- Lusztig-Spaltenstein induction -------------------------------------------


class InductionDatum(Frozen):
    """Levi of shape gl_{a_1} x ... x gl_{a_k} x g_m inside g_N, carrying a
    gl-orbit on each block and a nilpotent orbit of the residual algebra."""

    __slots__ = ("N", "eps", "gl_blocks", "residual")

    def __init__(self, N: int, eps: int, gl_blocks: tuple, residual: Partition):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "gl_blocks", gl_blocks)    # tuple of (a_t, Partition mu_t)
        object.__setattr__(self, "residual", residual)      # partition of m = N - 2*sum(a_t); may be empty

    @classmethod
    def zero_orbit(cls, N: int, eps: int, gl_sizes) -> "InductionDatum":
        """The datum with the zero orbit on every gl block and on the residual."""
        return cls(N, eps, tuple((a, Partition((1,) * a)) for a in gl_sizes),
                   Partition((1,) * (N - 2 * sum(gl_sizes))))

    @property
    def gl_sizes(self) -> tuple:
        return tuple(a for a, _ in self.gl_blocks)

    def __str__(self):
        gls = " x ".join(f"gl_{a}[{mu}]" for a, mu in self.gl_blocks)
        res = f" x g_{self.residual.size}[{self.residual}]" if self.residual.parts else ""
        return f"{gls}{res}" if gls else f"g[{self.residual}]"


def _block_indices(N: int, gl_sizes):
    """Outermost signed indices for the gl blocks; the residual keeps the
    inner indices and the central one."""
    blocks = []
    nxt = N // 2
    for a in gl_sizes:
        blocks.append(tuple(range(nxt, nxt - a, -1)))
        nxt -= a
    return blocks


@lru_cache(maxsize=None)
def parabolic(alg: ClassicalAlgebra, gl_sizes: tuple):
    """(n_minus, levi, n_plus): the Chevalley basis indices of negative, zero
    and positive degree when block t of the k gl blocks has degree k - t, its
    dual -(k - t), and the residual 0."""
    k = len(gl_sizes)
    weight = {}
    for t, blk in enumerate(_block_indices(alg.N, gl_sizes)):
        for b in blk:
            weight[b], weight[-b] = k - t, t - k
    degs = basis_degrees(alg, weight)
    return (tuple(i for i, d in enumerate(degs) if d < 0),
            tuple(i for i, d in enumerate(degs) if d == 0),
            tuple(i for i, d in enumerate(degs) if d > 0))


def nilradical_basis(alg: ClassicalAlgebra, gl_sizes):
    """Indices of Chevalley basis elements of positive Levi weight."""
    return parabolic(alg, tuple(gl_sizes))[2]


def _embed_gl_jordan(alg: ClassicalAlgebra, block, mu: Partition) -> dict:
    """Entries of the Jordan matrix of type mu on a gl block, embedded in g:
    for each consecutive pair (a, b) of a Jordan block, the entries of the
    algebra's root vector at (a, b), e_{a,b} - e_{-b,-a}."""
    ent = {}
    pos = 0
    for part in mu.parts:
        for s in range(part - 1):
            a, b = block[pos + s], block[pos + s + 1]
            ent.update(alg.basis[alg._root_at[(alg.pos[a], alg.pos[b])]].entries)
        pos += part
    return ent


def embed_datum(datum: InductionDatum):
    """The Levi representative (as a matrix) and the nilradical basis."""
    alg = build_algebra(datum.N, datum.eps)
    # the gl blocks and the residual sit on disjoint matrix positions
    ent = {}
    for (a, mu), blk in zip(datum.gl_blocks, _block_indices(datum.N, datum.gl_sizes)):
        ent.update(_embed_gl_jordan(alg, blk, mu))
    if datum.residual.parts and datum.residual.size >= 2:
        sub = build_nilpotent(datum.residual, datum.eps)
        for (r, c), v in sub.e.items():
            ent[(alg.pos[sub.algebra.indices[r]], alg.pos[sub.algebra.indices[c]])] = v
    return alg, SparseMatrix(alg.N, alg.N, QQ, ent), nilradical_basis(alg, datum.gl_sizes)


def datum_levi_orbit_dim(datum: InductionDatum) -> int:
    total = 0
    for a, mu in datum.gl_blocks:
        total += a * a - sum(c * c for c in mu.conjugate().parts)
    if datum.residual.parts and datum.residual.size >= 2:
        total += orbit_dim_formula(datum.residual, datum.eps)
    return total


# Seed-indexed samples drawn per induction datum.
DATUM_SAMPLES = 5


def generic_datum_sample(datum: InductionDatum):
    """Deterministically sampled element of (Levi orbit) + nilradical whose
    orbit dimension certifies genericity; returns (matrix, certified type).

    Sampling uses seed-indexed small integer coefficients; the certificate is
    the dimension identity dim Ind = dim O_levi + 2 dim n, which pins the
    dense orbit because every non-generic sample lies in its boundary.
    """
    alg, x_levi, n_idx = embed_datum(datum)
    dim_n = len(n_idx)
    if dim_n == 0:
        raise ValueError("datum has zero nilradical: not a proper parabolic")
    expected_dim = datum_levi_orbit_dim(datum) + 2 * dim_n
    seed = (datum.N * 1009 + (1 if datum.eps == 1 else 2)) & 0x7FFFFFFF
    for a, mu in datum.gl_blocks:
        seed = (seed * 31 + a * 7 + sum(mu.parts)) & 0x7FFFFFFF
    levi_coords = alg.coordinates(x_levi)
    best = None
    types = []
    for s in range(DATUM_SAMPLES):
        state = (seed + 9176 * s + 13) & 0x7FFFFFFF
        coords = dict(levi_coords)
        for k in n_idx:
            state = (state * 48271) % 2147483647
            coords[k] = coords.get(k, 0) + 1 + state % 7
        x = alg.from_coordinates(coords)
        jt = jordan_type(x)
        types.append(jt)
        if best is None and orbit_dim_formula(jt, datum.eps) == expected_dim:
            best = (x, jt)
    if best is None:
        raise AssertionError(
            f"no sample of {datum} reached the certified dimension {expected_dim}; "
            f"types seen: {[str(t) for t in types]}"
        )
    for jt in types:
        if orbit_dim_formula(jt, datum.eps) > expected_dim:
            raise AssertionError("sample exceeds the Lusztig-Spaltenstein dimension bound")
    return best


def induce_orbit(datum: InductionDatum):
    """Jordan type of the dense orbit in (Levi orbit) + nilradical."""
    return generic_datum_sample(datum)[1]


# Largest N the rigidity oracle sweeps: the rigidity suite, `rigidity` and
# `explain` search for a witness only up to it.
ORACLE_MAX_N = 8


def rigidity_oracle(lam: Partition, eps: int):
    """True iff no proper Levi datum induces to lam."""
    if lam.size > ORACLE_MAX_N:
        raise ValueError(f"rigidity oracle guarded at N <= {ORACLE_MAX_N}")
    witness = find_induction_witness(lam, eps)
    return witness is None


def find_induction_witness(lam: Partition, eps: int):
    """The first datum gl_q[1^q] x g_{N-2q}[nu] with a nonzero nilradical
    that induces to lam, by increasing q and then in the order of
    admissible_partitions(N - 2q); None if there is none, and then lam is
    rigid.

    These maximal data suffice, by two theorems: induction is transitive
    (Lusztig-Spaltenstein, Induced unipotent classes, 1979), and every gl_a
    orbit O_mu is Richardson, induced from the zero orbit of gl_{mu^T_1} x
    gl_{mu^T_2} x ...  So a datum of total gl size t whose first block
    carries O_mu induces, in stages through gl_q x g_{N-2q} with q the first
    part of mu^T, what gl_q[1^q] x g_{N-2q}[nu'] induces, nu' being the orbit
    the rest of the datum induces in g_{N-2q}; and q < t unless the datum is
    gl_t[1^t] x g_{N-2t}[nu] itself.  Hence a search of every datum, by
    increasing t, meets this witness first.
    """
    if not validate_partition(lam, eps):
        raise ValueError(f"{lam} is not admissible for eps={eps}")
    N = lam.size
    target_dim = orbit_dim_formula(lam, eps)
    alg = build_algebra(N, eps)
    for q in range(1, N // 2 + 1):
        dim_n = len(nilradical_basis(alg, (q,)))
        if not dim_n:
            continue  # so_2: gl_1 is all of it
        zero_gl = ((q, Partition((1,) * q)),)
        for nu in admissible_partitions(N - 2 * q, eps):
            datum = InductionDatum(N, eps, zero_gl, nu)
            # only data of the target dimension are embedded
            if datum_levi_orbit_dim(datum) + 2 * dim_n == target_dim and induce_orbit(datum) == lam:
                return datum
    return None
