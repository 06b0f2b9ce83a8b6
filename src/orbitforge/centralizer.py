"""Centralisers of nilpotent elements: the graded basis of g^e, the
zeta-system spanning set with its sign table and bracket law, derived
subalgebras and the degree-(0,1) generation property.

The zeta system is realised on the Springer-Steinberg model: e in Jordan
normal form and the bilinear form prescribed block-anti-diagonally with unit
corners, which is where the relation table is integral.  Its dimensions are
cross-checked against the pyramid realisation.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .rings import QQ, ZZ
from .linalg import SparseMatrix, VectorSpan, bracket_residues, integer_kernel_basis, rank_kernel
from .partitions import Partition, pairing_involution, check_involution
from .orbits import NilpotentRep, ad_e_block, dynkin_grading, centralizer_dim_formula, jordan_type


# -- the centraliser in the pyramid realisation -------------------------------


class CentralizerBasis:
    __slots__ = ("rep", "vectors", "degrees")

    def __init__(self, rep: NilpotentRep, vectors: list, degrees: list):
        self.rep = rep
        self.vectors = vectors    # {index: scalar} maps of the nonzero Chevalley coordinates
        self.degrees = degrees    # Dynkin degree of each vector

    @property
    def dim(self):
        return len(self.vectors)

    def graded_dims(self) -> dict:
        out = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def layer(self, d):
        return [v for v, dd in zip(self.vectors, self.degrees) if dd == d]


def compute_centralizer(rep: NilpotentRep, ring=QQ) -> CentralizerBasis:
    """A graded basis of g^e; over ZZ, a basis of the lattice g^e ∩ g_Z, the
    saturated kernel of ad e on the Chevalley lattice."""
    gr = dynkin_grading(rep)
    vectors = []
    degrees = []
    # kernel degree by degree keeps the basis graded
    for d in sorted(gr.layers):
        idxs = gr.layers[d]
        block = ad_e_block(rep, d, ring)
        ker = integer_kernel_basis(block) if ring.kind == "ZZ" else rank_kernel(block)[1]
        for kv in ker:
            vectors.append({idxs[i]: x for i, x in kv.items()})
            degrees.append(d)
    cb = CentralizerBasis(rep, vectors, degrees)
    if cb.dim != centralizer_dim_formula(rep.lam, rep.eps):
        raise AssertionError(
            f"centraliser dimension {cb.dim} disagrees with the closed formula "
            f"{centralizer_dim_formula(rep.lam, rep.eps)} for {rep.lam}"
        )
    if any(d < 0 for d in cb.degrees):
        raise AssertionError("grading is not good: g^e has negative degrees")
    return cb


# -- the zeta system on the Springer-Steinberg model ---------------------------


def _pi(i, j):
    return 1 if i <= j else -1


class ZetaSystem:
    __slots__ = ("lam", "eps", "inv", "starts", "e", "form", "weight", "zetas", "sign")

    def __init__(self, lam: Partition, eps: int, inv: tuple, starts: tuple,
                 e: SparseMatrix, form: SparseMatrix, weight: tuple):
        self.lam = lam
        self.eps = eps
        self.inv = inv            # involution, 0-indexed
        self.starts = starts      # block offsets in k^N
        self.e = e                # Jordan normal form, over ZZ
        self.form = form          # block anti-diagonal Gram, over ZZ
        self.weight = weight      # cocharacter weight of each coordinate
        self.zetas = {}           # (i, j, s) -> SparseMatrix
        self.sign = {}            # (i, j, s) -> epsilon_{i,j,s}

    def tuples(self):
        return sorted(self.zetas)

    def degree(self, key) -> int:
        i, j, s = key
        return self.lam.parts[i] + self.lam.parts[j] - 2 * s - 2


def _xi_matrix(lam: Partition, starts, a: int, b: int, t: int) -> SparseMatrix:
    """xi_a^{b,t}: e^k w_a -> e^{k+t} w_b (zero when the target exceeds the
    block); zero matrix for t outside [0, lam_b)."""
    N = lam.size
    ent = {}
    if 0 <= t < lam.parts[b]:
        for k in range(lam.parts[a]):
            if k + t < lam.parts[b]:
                ent[(starts[b] + k + t, starts[a] + k)] = 1
    return SparseMatrix(N, N, ZZ, ent)


def build_zeta_system(lam: Partition, eps: int) -> ZetaSystem:
    inv = pairing_involution(lam, eps)
    check_involution(lam, eps, inv)
    n = lam.n
    starts = []
    acc = 0
    for p in lam.parts:
        starts.append(acc)
        acc += p
    starts = tuple(starts)
    N = lam.size

    ent = {}
    for i in range(n):
        for k in range(lam.parts[i] - 1):
            ent[(starts[i] + k + 1, starts[i] + k)] = 1
    e = SparseMatrix(N, N, ZZ, ent)

    gram = {}
    for i in range(n):
        ip = inv[i]
        for k in range(lam.parts[i]):
            gram[(starts[i] + k, starts[ip] + lam.parts[i] - 1 - k)] = (-1) ** k * _pi(i, ip)
    form = SparseMatrix(N, N, ZZ, gram)

    weight = [0] * N
    for i in range(n):
        for k in range(lam.parts[i]):
            weight[starts[i] + k] = 2 * k + 1 - lam.parts[i]

    zs = ZetaSystem(lam, eps, inv, starts, e, form, tuple(weight))

    for i in range(n):
        for j in range(n):
            for s in range(min(lam.parts[i], lam.parts[j])):
                sgn = _pi(i, inv[i]) * _pi(j, inv[j]) * (-1) ** (lam.parts[j] - s)
                xi1 = _xi_matrix(lam, starts, i, j, lam.parts[j] - 1 - s)
                xi2 = _xi_matrix(lam, starts, inv[j], inv[i], lam.parts[i] - 1 - s)
                zs.zetas[(i, j, s)] = xi1 + xi2.scale(sgn)
                zs.sign[(i, j, s)] = sgn
    return zs


def ss_sigma(zs: ZetaSystem, x: SparseMatrix) -> SparseMatrix:
    """sigma(x) = -J^{-1} x^T J for the Springer-Steinberg Gram J, over x's
    ring, with no product.  J is a signed permutation, J[r, pi(r)] = s_r, so
    J^{-1} = J^T and entry (r, c) of x moves to (pi(c), pi(r)) with sign
    -s_r s_c; raises ValueError unless J has one +-1 in each row and column."""
    ents, n = zs.form.entries, zs.form.nrows
    pi = {r: c for r, c in ents}
    if not (len(ents) == len(pi) == len(set(pi.values())) == n and all(v in (1, -1) for v in ents.values())):
        raise ValueError("Springer-Steinberg Gram is not a signed permutation: it is singular, or its inverse "
                         "is not an integer signed permutation")
    sign = {r: ents[(r, c)] for r, c in pi.items()}
    return SparseMatrix(x.nrows, x.ncols, x.ring,
                        {(pi[c], pi[r]): -sign[r] * sign[c] * v for (r, c), v in x.entries.items()})


def _bracket_rhs(zs: ZetaSystem, a, b) -> list:
    """[(key, coeff), ...]: the zetas, with their coefficients, whose sum the
    bracket law (ii) gives for [zeta_a, zeta_b]; terms with a negative s are
    zero and left out."""
    parts, inv = zs.lam.parts, zs.inv
    i, j, s = a
    k, l, r = b
    si = r + s - (parts[i] - 1)   # the s of a term through block i, and of one through block j
    sj = r + s - (parts[j] - 1)
    terms = []
    if i == l and si >= 0:
        terms.append(((k, j, si), 1))
    if j == k and sj >= 0:
        terms.append(((i, l, sj), -1))
    if k == inv[i] and si >= 0:
        terms.append(((inv[l], j, si), zs.sign[b]))
    if j == inv[l] and sj >= 0:
        terms.append(((i, inv[k], sj), -zs.sign[b]))
    return terms


def verify_zeta_system(zs: ZetaSystem, bracket_law: bool = True) -> dict:
    """Exact verification of the Jordan type of e, the relation table, the
    sigma images, the bracket law over every ordered pair of zetas (unless
    the caller passes bracket_law=False), the grading and the span; returns
    a dict."""
    lam, inv = zs.lam, zs.inv
    parts = lam.parts
    n = lam.n

    jt = jordan_type(zs.e)
    if jt != lam:
        raise AssertionError(f"e has Jordan type {jt}, not {lam}")
    # symmetry of the prescribed form
    if zs.form.transpose() != zs.form.scale(zs.eps):
        raise AssertionError("form symmetry violated")
    # e is skew self-adjoint for the form: (e u, v) + (u, e v) = 0
    if ss_sigma(zs, zs.e) != zs.e:
        raise AssertionError("e is not skew self-adjoint")

    # sigma image of each xi is the predicted signed xi
    for i in range(n):
        for j in range(n):
            for s in range(min(parts[i], parts[j])):
                sgn = zs.sign[(i, j, s)]
                xi1 = _xi_matrix(lam, zs.starts, i, j, parts[j] - 1 - s)
                xi2 = _xi_matrix(lam, zs.starts, inv[j], inv[i], parts[i] - 1 - s)
                if ss_sigma(zs, xi1) != xi2.scale(sgn):
                    raise AssertionError(f"sigma image of xi({i},{j},{s}) has the wrong sign")

    keys = zs.tuples()
    mats = {key: z.entries for key, z in zs.zetas.items()} | {"e": zs.e.entries}
    # [e, zeta] for every zeta, one residue per pair
    moving = {b for _, b, _ in bracket_residues(mats, (("e", key) for key in keys))}
    killed = 0
    for (i, j, s), z in zs.zetas.items():
        # relation table (i)
        other = zs.zetas[(inv[j], inv[i], s)]
        if z != other.scale(zs.sign[(i, j, s)]):
            raise AssertionError(f"relation (i) fails at {(i, j, s)}")
        if z.is_zero():
            killed += 1
        # membership and grading (iii)
        if ss_sigma(zs, z) != z:
            raise AssertionError(f"zeta{(i, j, s)} is not sigma-fixed")
        if (i, j, s) in moving:
            raise AssertionError(f"zeta{(i, j, s)} does not centralise e")
        want = zs.degree((i, j, s))
        for (r, c), _ in z.items():
            if zs.weight[r] - zs.weight[c] != want:
                raise AssertionError(f"zeta{(i, j, s)} is not homogeneous of degree {want}")

    if bracket_law:
        # [zeta_a, zeta_b] minus the table's right-hand side, every ordered pair
        for a, b, _ in bracket_residues(mats, product(keys, repeat=2), partial(_bracket_rhs, zs)):
            raise AssertionError(f"bracket law (ii) fails at {a}, {b}")

    # span: the zetas span exactly the fixed-space centraliser
    span = VectorSpan(QQ)
    for key in keys:
        span.add({r * lam.size + c: QQ.coerce(v) for (r, c), v in zs.zetas[key].entries.items()})
    span_dim = span.rank
    expected = centralizer_dim_formula(lam, zs.eps)
    if span_dim != expected:
        raise AssertionError(f"zeta span has dimension {span_dim}, expected {expected}")

    # count identity: orbits of (i,j,s) -> (j',i',s) minus killed fixed points
    seen = set()
    orbits = 0
    dead = 0
    for key in keys:
        if key in seen:
            continue
        i, j, s = key
        mate = (inv[j], inv[i], s)
        seen.add(key)
        seen.add(mate)
        if mate == key and zs.sign[key] == -1:
            dead += 1
        else:
            orbits += 1
    if orbits != expected:
        raise AssertionError(f"relation count {orbits} != dim g^e = {expected}")
    return {
        "dim": expected,
        "tuples": len(zs.zetas),
        "orbit_count": orbits,
        "killed_fixed_points": dead,
        "span_dim": span_dim,
    }


# -- derived subalgebra and generation ------------------------------------------


class GradedSubspace:
    __slots__ = ("codim", "complement_degrees")

    def __init__(self, codim: int, complement_degrees: list):
        self.codim = codim
        self.complement_degrees = complement_degrees


def derived_subalgebra(cb: CentralizerBasis) -> GradedSubspace:
    """Span of all brackets of centraliser basis pairs, with its codimension
    and a graded complement description; certifies [g^e, g^e] <= g^e."""
    alg, vecs = cb.rep.algebra, cb.vectors
    span = VectorSpan(QQ)
    grew = []   # (bracket, degree) for each bracket that enlarged the span
    for a in range(cb.dim):
        for b in range(a + 1, cb.dim):
            v = alg.sparse_bracket(vecs[a], vecs[b])
            if span.add(v):
                grew.append((v, cb.degrees[a] + cb.degrees[b]))
    codim = cb.dim - span.rank
    # the span grows on to [g^e, g^e] + g^e; the g^e vectors that enlarge it
    # give the graded complement
    comp_degrees = []
    for v, d in zip(vecs, cb.degrees):
        if span.add(v):
            comp_degrees.append(d)
    # span([g^e, g^e]) + g^e has dimension dim g^e exactly when the brackets lie in g^e
    if span.rank != cb.dim:
        own = VectorSpan(QQ)
        for v in vecs:
            own.add(v)
        outside = [d for v, d in grew if not own.contains(v)]
        raise AssertionError(
            f"[g^e, g^e] is not in g^e for {cb.rep.lam} (eps = {cb.rep.eps}): "
            + (f"a bracket of degree {outside[0]} lies outside the span of the basis" if outside
               else "the basis vectors are linearly dependent"))
    return GradedSubspace(codim, sorted(comp_degrees))


def predicted_complement_size(lam: Partition, eps: int) -> int:
    """Size of the displayed complement set {zeta_i^{i+1, lam_{i+1}-1}} with
    i, i+1 both self-paired and isolated multiplicities."""
    inv = pairing_involution(lam, eps)
    parts = lam.parts
    n = lam.n
    count = 0
    for i in range(n - 1):
        if inv[i] != i or inv[i + 1] != i + 1:
            continue
        prev = parts[i - 1] if i > 0 else None
        nxt = parts[i + 2] if i + 2 < n else None
        if prev != parts[i] and parts[i] >= parts[i + 1] and parts[i + 1] != nxt:
            count += 1
    return count


def check_generation(cb: CentralizerBasis):
    """Tests [g^e(1), g^e(r-1)] = g^e(r) for all r > 1 and whether g^e(0),
    g^e(1) generate; returns (generated, per-degree witness dict)."""
    alg = cb.rep.algebra
    degrees = sorted(set(cb.degrees))
    layer = {d: cb.layer(d) for d in degrees}
    witness = {}
    generated = True
    for r in degrees:
        if r <= 1:
            continue
        span = VectorSpan(QQ)
        for x in layer.get(1, []):
            for y in layer.get(r - 1, []):
                span.add(alg.sparse_bracket(x, y))
        witness[r] = (span.rank, len(layer.get(r, [])))
        if span.rank != len(layer.get(r, [])):
            generated = False
    return generated, witness
