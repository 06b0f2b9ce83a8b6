"""PBW arithmetic in U(g), the Gelfand-Graev quotient Q with its x^i z^j
normal form and Kazhdan filtration, the W-algebra generators at degrees 0
and 1, the lifting loop for higher degrees, the augmentation character of
rigid cases, and the Casimir element.

A generator theta_k of degree >= 2 is lifted once, by WSetup.lift: a sum of
commutators of lower generators presenting x_k, cleared of every pure
centraliser monomial but x_k.  The generator keeps what the clearing took
off, its expansion, checked to add back up to the commutator sum, and the
augmentation character reads c_k from it.

The global PBW order is: x-part (a saturated lattice basis of the
nonnegative degrees, centraliser vectors first), then the z-part (root
vectors spanning n_+(-1)), then the m-part (normalised duals z' followed by
the degrees <= -2).  With the m-part rightmost, the class in Q of a normal
form word substitutes chi for its m-suffix; it is taken by the Q action on 1.

Every product is computed by one kernel, the left action of U(g) on Q
normal form words (UAlgebra.q_mul, q_comm), with Q = U(g) (x)_{U(m)} k_chi:
an m-letter that reaches the right end of a word becomes chi of it, and
nothing is straightened in U(g) first.  The right factor is mapped to Q
once, and each left word acts on the whole sum.  With no m-letters Q is
U(g) itself and the action is left multiplication in the PBW basis; the
Casimir element and its centrality take their products from such an
instance.  Products of generators, theta_a . (theta^t . 1), come from one
table per WSetup (_theta_product), read by theta monomials, lift's
commutators and both products of each pair of character_kills_commutators.
Both certificate loops, the commutator pairs of
character_kills_commutators and the Casimir's centrality on each basis
element, run through runner.run_cases on every CPU their size pays for and
are read back in order.  The same action, restricted mod p, gives the induced modules
U_chi(g) (x)_{U_chi(s)} k_chi of modular.build_induced_module.  The action
of one letter on one word (UAlgebra.act) is memoised compactly, since its
memo sets the W layer's peak memory: one dict per letter, each value a
flat tuple of words and int coefficients, and each word one interned
tuple.

Scalars are QQ values in the canonical form of rings.  An element of g,
a PBW basis vector among them, is the {index: scalar} map of its nonzero
Chevalley coordinates, keys ascending, as the slices and centralizer
modules hand them over.  Each value is computed once: theta_zero and
theta_one are memoised per map, on its sorted items, generators are kept
in WSetup.thetas and theta monomials in a cache.  These dicts are shared
by every caller, and no caller mutates them.
"""

from __future__ import annotations

from functools import partial, wraps
from math import gcd, lcm

from .rings import QQ, ZZ, canonical, integer_maps, is_two_power_denominator
from .linalg import (
    SparseMatrix,
    VectorSpan,
    integer_kernel_basis,
    complete_saturated_basis,
    inverse_rows,
    rank_kernel,
    solve,
)
from .orbits import NilpotentRep, ad_e_matrix, dynkin_grading
from .slices import build_m, chi_of


_ONE = {(): 1}   # 1 in Q, as an int-valued sum; never mutated
# Theta monomials WSetup._clear may subtract before it gives up.
CLEAR_MAX_ITER = 20000


def _scaled(x: dict):
    """(den, pairs (key, n)) with x[key] = n / den: integer_maps of x alone."""
    den, (ints,) = integer_maps([x])
    return den, ints.items()


def _longest(x: dict) -> int:
    return max(map(len, x), default=0)


def _difference(p: dict, q: dict) -> dict:
    """p - q over the nonzero terms of each, p's keys first."""
    out = {t: n for t, n in p.items() if n != 0}
    for t, n in q.items():
        if n != 0:
            out[t] = out.get(t, 0) - n
    return out


class UAlgebra:
    """PBW arithmetic with a fixed basis order: the left action of U(g) on
    Q = U(g) (x)_{U(m)} k_chi, over QQ, or of U_chi(g) on
    U_chi(g) (x)_{U_chi(m)} k_chi over GF(p).

    The letters from m_start on span m, and chi[k] is chi on letter k; a Q
    normal form word is a sorted word over the letters below m_start (the
    x- and z-letters, the free letters).  act(a, w) is the action of one
    letter on such a word: a is prepended if a <= w[0], and otherwise
    a.b.w' = b.(a.w') + [a, b].w'.  A letter that reaches the right end
    stays if it is a free letter; an m-letter y becomes chi(y), since
    u.y = chi(y) u in Q for u in U(g), and a letter with chi = 0 kills its
    branch there.  For a word w, w.1 is the letters of w acting on 1 from
    the right.  q_mul(x, y) is x acting on y.1 and q_comm(x, y) is
    x.(y.1) - y.(x.1): the class in Q of a product or commutator of two
    elements of U(g), without straightening in U(g).  Each factor is
    mapped to Q once, and each left word acts on the whole sum, one letter
    at a time (_act_on, _act_letter).  With m_start = dim, the default,
    there are no m-letters: Q is U(g), and q_mul and q_comm are the product
    and the commutator in U(g).

    Arithmetic runs on Python ints.  With D the lcm of the denominators of
    the bracket table and of chi on m, the table is held as the integers
    D*c and chi as D*chi.  word.1 holds D^(len(word) - len(t)) times the
    coefficient of each term t, and act(a, w) holds D^(1 + len(w) - len(t))
    times it: each bracket and each chi substitution takes one letter off
    and one factor D on, so these are integers.  The products accumulate
    over one common denominator and divide once per output term, by QQ.div
    into canonical form, in the key order of taking (wa + wb).1 for each
    pair of words in turn.

    act returns a flat tuple (t1, c1, t2, c2, ...) of its terms and their
    nonzero int coefficients, read pairwise, and is memoised in one dict
    per letter keyed by the word (_act_memo[a][w]).  Every word act makes
    is taken from a per-instance intern table (_words), so a word held by
    many memo values, and by the sums built from them, is one tuple.  The
    memo's values and the tables hold no reference to the instance.

    restricted = (p, p_power), with p_power[a] = {c: coeff} the p-th power
    a^[p] of each free letter, makes act the action of U_chi(g) on words
    with at most p - 1 copies of a letter: prepending a free letter a to
    a word that starts with p - 1 copies of a gives a^[p].rest +
    chi(a)^p rest, for rest the word after them.  Memoised values are
    reduced mod p, so a table with D != 1 raises ValueError; chi on m is
    used as given.
    """

    def __init__(self, dim: int, bracket, m_start: int | None = None, chi=(), restricted=None):
        # bracket[(a, b)] = {c: coeff} for a > b (the out-of-order bracket)
        self.dim = dim
        self.bracket = bracket
        self.m_start = dim if m_start is None else m_start
        chi_m = {k: QQ.coerce(chi[k]) for k in range(self.m_start, dim)}
        D, (*ibracket, self._ichi) = integer_maps([*bracket.values(), chi_m])
        self.denominator = D
        self._ibracket = dict(zip(bracket, ibracket))
        self.p = None
        if restricted is not None:
            if D != 1:
                raise ValueError(f"a restricted action needs an integral table and chi, not D = {D}")
            self.p, self._p_power = restricted
            self._chi_p = [pow(chi[a], self.p, self.p) for a in range(self.m_start)]
        # one memo per letter, keyed by the word; the intern table maps each
        # word act has made to itself, so that equal words are one tuple (the
        # empty word is the one empty tuple)
        self._act_memo = [{} for _ in range(dim)]
        self._words = {(): ()}
        self._unit = [(self._word((a,)), 1) for a in range(self.m_start)]

    def _word(self, w: tuple) -> tuple:
        """The intern table's tuple equal to w."""
        return self._words.setdefault(w, w)

    def act(self, a: int, w: tuple) -> tuple:
        """a.w in Q for a letter a and a Q normal form word w, as a flat
        tuple (t1, c1, t2, c2, ...): c_i = D^(1 + len(w) - len(t_i)) times
        the coefficient of term t_i, or that mod p.  Every word in it is the
        intern table's own tuple."""
        p = self.p
        if not w:
            if a < self.m_start:
                return self._unit[a]
            c = self._ichi[a]
            return ((), c) if c else ()
        if a <= w[0] and (p is None or w[p - 2:p - 1] != (a,)):
            word = (a,) + w
            return (self._words.setdefault(word, word), 1)
        memo = self._act_memo[a]
        out = memo.get(w)
        if out is not None:
            return out
        acc = {}
        if a <= w[0]:
            # a^p = a^[p] + chi(a)^p in U_chi(g), after the p - 1 a's that lead w
            rest, terms = self._word(w[p - 1:]), self._p_power[a]
            acc[rest] = self._chi_p[a]
        else:
            b, rest = w[0], w[1:]
            terms = self._ibracket.get((a, b), {})
            it = iter(self.act(a, rest))
            for t, c in zip(it, it):
                jt = iter(self.act(b, t))
                for s, d in zip(jt, jt):
                    acc[s] = acc.get(s, 0) + c * d
        for k, c in terms.items():
            it = iter(self.act(k, rest))
            for s, d in zip(it, it):
                acc[s] = acc.get(s, 0) + c * d
        flat = []
        for s, c in acc.items():
            if p is not None:
                c %= p
            if c:
                flat += s, c
        out = memo[self._word(w)] = tuple(flat)
        return out

    def _act_letter(self, a: int, v: dict) -> dict:
        """a.v for an int-valued sum v of Q normal form words, as the terms
        of v act one by one; a term whose sum cancels stays, at 0."""
        act, out = self.act, {}
        for t, c in v.items():
            it = iter(act(a, t))
            for s, d in zip(it, it):
                out[s] = out.get(s, 0) + c * d
        return out

    def _act_on(self, xs, v: dict, top: int) -> dict:
        """sum of n * D^(top - len(w)) * w.v over the scaled terms (w, n) of
        xs, the letters of each word w acting on the whole sum v from the
        right.  Terms that cancel stay in every intermediate sum, so the
        result has the key order of taking the words of xs in turn and the
        terms of v one by one.  On v = 1 a nonempty word in Q normal form is
        its own image, kept as the word's own tuple: results share their
        keys with the factors, and peak memory stays lower than with a copy
        of each key."""
        D, m = self.denominator, self.m_start
        out = {}
        for w, n in xs:
            if v is _ONE and w and w[-1] < m and list(w) == sorted(w):
                val = {w: 1}
            else:
                val = v
                for a in reversed(w):
                    val = self._act_letter(a, val)
            scale = n * D ** (top - len(w))
            for s, c in val.items():
                out[s] = out.get(s, 0) + scale * c
        return out

    def _quotients(self, acc: dict, den: int, top: int) -> dict:
        D = self.denominator
        return {t: QQ.div(n, den * D ** (top - len(t))) for t, n in acc.items() if n != 0}

    def q_mul(self, x: dict, y: dict) -> dict:
        """The class of x y in Q: x acting on y.1."""
        dx, xs = _scaled(x)
        dy, ys = _scaled(y)
        lx, ly = _longest(x), _longest(y)
        acc = self._act_on(xs, self._act_on(ys, _ONE, ly), lx)
        return self._quotients(acc, dx * dy, lx + ly)

    def _act_on_image(self, xs, v: dict, top: int, x1: dict) -> dict:
        """_act_on(xs, v, top), given x1 = _act_on(xs, _ONE, top): when v is
        a constant c, as the commutator of an m-letter with anything gives,
        it is c * x1 by linearity (nothing when v is empty), with no letter
        acting.  Its nonzero terms are _act_on's, in the same key order."""
        if v.keys() <= {()}:
            c = v.get((), 0)
            return {s: c * n for s, n in x1.items()} if c else {}
        return self._act_on(xs, v, top)

    def q_comm(self, x: dict, y: dict) -> dict:
        """The class of [x, y] in Q: x acting on y.1 minus y acting on x.1."""
        dx, xs = _scaled(x)
        dy, ys = _scaled(y)
        lx, ly = _longest(x), _longest(y)
        x1, y1 = self._act_on(xs, _ONE, lx), self._act_on(ys, _ONE, ly)
        acc = _difference(self._act_on_image(xs, y1, lx, x1), self._act_on_image(ys, x1, ly, y1))
        return self._quotients(acc, dx * dy, lx + ly)


def elem_add(x: dict, y: dict, scale=1) -> dict:
    out = dict(x)
    for t, c in y.items():
        out[t] = out.get(t, 0) + scale * c
    return {t: canonical(c) for t, c in out.items() if c != 0}


class ThetaGenerator:
    __slots__ = ("index", "degree", "value", "expansion")

    def __init__(self, index: int, degree: int, value: dict, expansion: dict):
        self.index = index            # position in the x-basis (< r)
        self.degree = degree          # n_k
        self.value = value            # Q normal form: word -> coefficient
        self.expansion = expansion    # what WSetup.lift cleared off; {} at degrees 0 and 1

    @property
    def kazhdan_degree(self) -> int:
        return self.degree + 2


def _per_vector(method):
    """Memoise a WSetup method of an element of g, given as its {index:
    scalar} map xs, on the sorted items of xs: maps with the same items in
    any key order share one entry, whether an integral value comes as an
    int or as a Fraction.
    Every caller gets the stored dict itself and must not mutate it."""
    @wraps(method)
    def memoised(self, xs):
        memo = self._vector_memo.setdefault(method.__name__, {})
        key = tuple(sorted(xs.items()))
        out = memo.get(key)
        if out is None:
            out = memo[key] = method(self, xs)
        return out
    return memoised


class WSetup:
    """All data needed to compute in Q and U(g, e) for one representative.

    theta_zero and theta_one are memoised per {index: scalar} map, and
    build_theta keeps each generator in thetas: these dicts are shared by
    every caller, and no caller mutates them."""

    def __init__(self, rep: NilpotentRep):
        self.rep = rep
        alg = rep.algebra
        self.alg = alg
        self.msub = build_m(rep)
        self.pair = self.msub.pair
        self.psi = self.pair.psi
        self.wd = self.psi.wd
        self._build_basis()
        self._build_structure()
        self.thetas: dict[int, ThetaGenerator] = {}
        self._mono_cache = {}
        self._vector_memo = {}
        # the theta product table (_theta_product), per target word t
        # (den, top, {suffix: suffix . (theta^t . 1)}), with the count of the
        # generators' words each suffix ends and each generator's plan: plain
        # dicts, filled by loops, so the setup is freed without the collector
        self._targets = {}
        self._suffix_count = {}
        self._plans = {}

    # -- ordered basis -----------------------------------------------------

    def _build_basis(self):
        alg, gr, wd = self.alg, dynkin_grading(self.rep), self.wd
        x_part, comp_part = [], []   # (vector, degree)
        blocks = {}
        for k in range(alg.dim):
            d = gr.degree[k]
            if d >= 0:
                blocks.setdefault((d, wd.weights[k]), []).append(k)
        ad_e = ad_e_matrix(self.rep, ZZ)
        # blocks in (degree, weight) order, so x_degrees[:r] is non-decreasing
        for key in sorted(blocks):
            idxs = blocks[key]
            kern = integer_kernel_basis(ad_e.columns(idxs))
            for part, vecs in ((x_part, kern), (comp_part, complete_saturated_basis(kern, len(idxs)))):
                part.extend(({idxs[i]: x for i, x in v.items()}, key[0]) for v in vecs)
        self.r = len(x_part)
        self.x_vectors = [v for v, _ in x_part + comp_part]
        self.x_degrees = [d for _, d in x_part + comp_part]
        self.m_count = len(self.x_vectors)

        self.z_vectors = list(self.pair.z_plus)
        self.s = len(self.z_vectors)
        self.m_vectors = list(self.msub.basis)

        self.basis_vectors = self.x_vectors + self.z_vectors + self.m_vectors
        self.dim = len(self.basis_vectors)
        if self.dim != self.alg.dim:
            raise AssertionError("PBW basis does not have the right size")
        self.z_start = self.m_count
        self.m_start = self.m_count + self.s
        self.kaz = [d + 2 for d in self.x_degrees] + [1] * self.s + [0] * len(self.m_vectors)
        self.chi = [chi_of(self.psi.chi, v) for v in self.basis_vectors]

    def _build_structure(self):
        alg = self.alg
        # transition T: columns are the new basis in Chevalley coordinates;
        # the rows of the inverse of T^t, whose rows they are, are the
        # columns of T^{-1}
        vecs = self.basis_vectors
        tinv_cols = inverse_rows(vecs)
        if tinv_cols is None:
            raise AssertionError("basis transition is singular")
        self._tinv_den, self._tinv_cols = integer_maps(tinv_cols)
        bracket = {}
        for a in range(self.dim):
            for b in range(a):
                entry = self._w_coords(alg.sparse_bracket(vecs[a], vecs[b]))
                if entry:
                    bracket[(a, b)] = entry
        self.U = UAlgebra(self.dim, bracket, self.m_start, self.chi)

    def _w_coords(self, xs: dict) -> dict:
        """{i: c}, the nonzero coordinates on the PBW letters of the element
        of g with Chevalley coordinates {index: scalar} xs, keys ascending."""
        den, terms = _scaled(xs)
        acc = {}
        for j, n in terms:
            for i, t in self._tinv_cols[j].items():
                acc[i] = acc.get(i, 0) + t * n
        den *= self._tinv_den
        return {i: QQ.div(acc[i], den) for i in sorted(acc) if acc[i]}

    # -- elements -----------------------------------------------------------

    def gen(self, k: int) -> dict:
        return {(k,): 1}

    def embed(self, xs: dict) -> dict:
        """The element of g with Chevalley coordinates {index: scalar} xs, in U(g)."""
        return {(k,): c for k, c in self._w_coords(xs).items()}

    def kazhdan_degree(self, qnf: dict) -> int:
        if not qnf:
            return 0
        return max(sum(self.kaz[k] for k in word) for word in qnf)

    def is_r_integral(self, qnf: dict) -> bool:
        return all(is_two_power_denominator(c) for c in qnf.values())

    # -- theta generators ------------------------------------------------------

    def _head(self, xs: dict, scale):
        """(x + scale sum_i [x, z'_i] z_i in Q, the brackets [x, z'_i]),
        for x given by its Chevalley coordinates {index: scalar} xs."""
        brs = [self.alg.sparse_bracket(xs, zp) for zp in self.pair.z_minus]
        t = self.U.q_mul(self.embed(xs), _ONE)
        for i, br in enumerate(brs):
            if br:
                t = elem_add(t, self.U.q_mul(self.embed(br), self.gen(self.z_start + i)), scale)
        return t, brs

    @_per_vector
    def theta_zero(self, xs: dict) -> dict:
        """Degree-0 generator x + (1/2) sum_i [x, z'_i] z_i, for x given by
        its Chevalley coordinates {index: scalar} xs.

        The closed formula circulates in both duality orientations
        (Psi(z, z') = delta versus our Psi(z', z) = delta) and with the
        z-letter on either side; the sign is forced by ad-m-invariance and
        the letter placement by the commutator law on degree zero, both of
        which are verified downstream."""
        return self._head(xs, QQ.div(1, 2))[0]

    @_per_vector
    def theta_one(self, xs: dict) -> dict:
        """Degree-1 generator, for x given by its Chevalley coordinates
        {index: scalar} xs: the cubic part plus the unique linear-in-z tail
        making it ad-m-invariant.

        The commutator ad z'_l adds exactly the constant Psi(z'_l, z_i) per
        tail term c_i z_i, so cancelling the constant defects of the cubic
        part determines the tail; the quoted closed expression for the tail
        is inconsistent across ranks (the reference-tail test in
        tests/test_enveloping.py records the mismatch) and the invariance
        requirement arbitrates.  Above the tail it is
        x + sum [x, z'_i] z_i + (1/3) sum [[x, z'_i], z'_j] z_j z_i."""
        t, brs = self._head(xs, 1)
        for i, bri in enumerate(brs):
            if not bri:
                continue
            for j, zp in enumerate(self.pair.z_minus):
                brij = self.alg.sparse_bracket(bri, zp)
                if brij:
                    zz = self.U.q_mul(self.gen(self.z_start + j), self.gen(self.z_start + i))
                    t = elem_add(t, self.U.q_mul(self.embed(brij), zz), QQ.div(1, 3))
        for l in range(self.s):
            defect = self.U.q_comm(self.gen(self.m_start + l), t)
            if not defect:
                continue
            if set(defect) != {()}:
                raise AssertionError(
                    f"cubic part defect against z'_{l} is not a constant: {defect}"
                )
            t = elem_add(t, self.gen(self.z_start + l), -defect[()])
        return t

    def ad_m_invariant(self, qnf: dict):
        """None if invariant; otherwise (m-index, residual) witness."""
        for a in range(self.m_start, self.dim):
            delta = self.U.q_comm(self.gen(a), qnf)
            if delta:
                return (a, delta)
        return None

    # -- canonical generators ----------------------------------------------------

    def centralizer_matrix(self, k: int) -> SparseMatrix:
        """The matrix of basis vector k of the x-part."""
        return self.alg.from_coordinates(self.basis_vectors[k])

    def build_theta(self, k: int) -> ThetaGenerator:
        if k in self.thetas:
            return self.thetas[k]
        if k >= self.r:
            raise ValueError("theta generators exist only for centraliser basis vectors")
        n = self.x_degrees[k]
        expansion = {}
        if n == 0:
            val = self.theta_zero(self.basis_vectors[k])
        elif n == 1:
            val = self.theta_one(self.basis_vectors[k])
        else:
            val, expansion = self.lift(k)
            lead = val.get((k,), 0)
            if lead != 1:
                raise AssertionError(f"lifted theta(x_{k}) has leading coefficient {lead}")
        th = ThetaGenerator(k, n, val, expansion)
        wit = self.ad_m_invariant(val)
        if wit is not None:
            raise AssertionError(
                f"theta(x_{k}) is not ad-m-invariant; witness at m-index {wit[0]}: {wit[1]}"
            )
        self._check_shape(th)
        self.thetas[k] = th
        count = self._suffix_count
        for word in val:
            for i in range(len(word)):
                count[word[i:]] = count.get(word[i:], 0) + 1
        self._plans.clear()
        return th

    def build_all_thetas(self):
        for k in range(self.r):
            self.build_theta(k)
        return self.thetas

    def commutator_presentation(self, k: int, perturb: int = 0):
        """x_k = sum c_t [u_t, v_t] with u, v centraliser vectors of positive
        degrees summing to n_k; perturb > 0 picks a different representative
        modulo the kernel of the bracket map."""
        n = self.x_degrees[k]
        pairs = []
        for a in range(1, n):
            b = n - a
            if a > b:
                break
            for p in range(self.r):
                if self.x_degrees[p] != a:
                    continue
                for q in range(self.r):
                    if self.x_degrees[q] != b or (a == b and q <= p):
                        continue
                    pairs.append((p, q))
        if not pairs:
            raise ValueError(f"no candidate commutator pairs for degree {n}")
        cols = {}
        for jj, (p, q) in enumerate(pairs):
            # p < q, as the x-part is sorted by degree: [x_p, x_q] = -[x_q, x_p]
            for i, v in self.U.bracket.get((q, p), {}).items():
                cols[(i, jj)] = -v
        msolve = SparseMatrix(self.dim, len(pairs), QQ, cols)
        sol = solve(msolve, {k: 1})
        if sol is None:
            raise ValueError(
                f"x_{k} is not a sum of commutators of lower-degree centraliser vectors"
            )
        if perturb:
            _, ker = rank_kernel(msolve)
            if not ker:
                raise ValueError("no alternative presentation exists (bracket map injective)")
            kv = ker[(perturb - 1) % len(ker)]
            sol = {j: canonical(sol.get(j, 0) + kv.get(j, 0)) for j in sorted(sol.keys() | kv.keys())}
        return [(pairs[j], c) for j, c in sol.items() if c != 0]

    # -- the theta product table ---------------------------------------------------

    def _plan(self, a: int):
        """(den, top, [(w, n, first, keys)]) for the scaled words (w, n) of
        theta_a, as q_mul scales a left factor: keys are the suffixes
        w[first:], w[first + 1:], ..., () of w, where w[first:] is the
        longest suffix that ends at least two of the generators' words."""
        plan = self._plans.get(a)
        if plan is None:
            value, D, count = self.build_theta(a).value, self.U.denominator, self._suffix_count
            den, xs = _scaled(value)
            top = _longest(value)
            words = []
            for w, n in xs:
                i = 0
                while i < len(w) and count[w[i:]] < 2:
                    i += 1
                words.append((w, n * D ** (top - len(w)), i, [w[j:] for j in range(i, len(w) + 1)]))
            plan = self._plans[a] = (den, top, words)
        return plan

    def _theta_product(self, a: int, t: tuple):
        """(acc, den, top) for theta_a . (theta^t . 1), t a word of generator
        indices: the coefficient of term s is acc[s] / (den * D^(top -
        len(s))), with the values and key order of q_mul(theta_a,
        theta^t . 1) and its terms that cancel kept at 0.

        Each word w of theta_a acts on the target theta^t . 1 letter by
        letter from the right, from the longest suffix of w whose image is
        already in the target's table.  A suffix that ends two or more of
        the generators' words keeps its image there, so it acts on the
        target once, whichever caller asks; one that ends a single word is
        not kept, which bounds the table's memory."""
        U = self.U
        den, top, words = self._plan(a)
        entry = self._targets.get(t)
        if entry is None:
            y = self._theta_monomial(t)
            dy, ys = _scaled(y)
            ly = _longest(y)
            entry = self._targets[t] = (dy, ly, {(): U._act_on(ys, _ONE, ly)})
        dy, ly, images = entry
        out = {}
        for w, n, first, keys in words:
            j = 0
            while keys[j] not in images:
                j += 1
            val = images[keys[j]]
            for i in range(first + j - 1, -1, -1):
                val = U._act_letter(w[i], val)
                if i >= first:
                    images[keys[i - first]] = val
            for s, c in val.items():
                out[s] = out.get(s, 0) + n * c
        return out, den * dy, top + ly

    def _theta_commutator(self, p: int, q: int):
        """(acc, den, top) for [theta_p, theta_q] . 1, as q_comm(theta_p,
        theta_q) takes it, from the two products of the table."""
        xy, den, top = self._theta_product(p, (q,))
        return _difference(xy, self._theta_product(q, (p,))[0]), den, top

    def _theta_monomial(self, word: tuple) -> dict:
        """theta^word . 1 in Q, as theta_word[0] . (theta^word[1:] . 1)."""
        cache = self._mono_cache
        if word in cache:
            return cache[word]
        if not word:
            return {(): 1}
        out = self.U._quotients(*self._theta_product(word[0], word[1:]))
        cache[word] = out
        return out

    def _clear(self, h: dict, k: int | None, den: int):
        """Subtract theta monomials until no pure centraliser-supported
        monomial other than (k,) remains; returns (result, expansion).
        h is an int sum whose coefficient at t is h[t] / den; it is left
        as it is.

        The monomial taken next is the pure word of h least in the order
        (highest Kazhdan degree, shortest, then lexicographic).  h is held
        as ints over one denominator W, on a copy that holds no zero term,
        and each step subtracts in place; W is scaled up only when the
        denominator of the monomial does not divide the step's
        coefficient."""
        exclude = (k,) if k is not None else None
        r, kaz = self.r, self.kaz
        expansion = {}
        W = den
        h = {w: n for w, n in h.items() if n != 0}
        for _ in range(CLEAR_MAX_ITER):
            pure = [w for w in h if w != exclude and (not w or max(w) < r)]
            if not pure:
                return {w: QQ.div(n, W) for w, n in h.items()}, expansion
            word = min(pure, key=lambda w: (-sum(kaz[i] for i in w), len(w), w))
            n = h[word]
            if k is not None and len(word) == 1 and self.x_degrees[word[0]] >= self.x_degrees[k]:
                raise AssertionError(
                    f"clearing loop for x_{k} met a same-degree generator x_{word[0]}; "
                    "this falsifies the uniqueness of the leading term"
                )
            expansion[word] = canonical(expansion.get(word, 0) + QQ.div(n, W))
            mono = self._theta_monomial(word)
            scale = lcm(*(c.denominator for c in mono.values()))
            scale //= gcd(scale, n)
            if scale != 1:
                W, n = W * scale, n * scale
                for w in h:
                    h[w] *= scale
            for t, c in mono.items():
                v = h.get(t, 0) - (n * c if type(c) is int else n * c.numerator // c.denominator)
                if v:
                    h[t] = v
                else:
                    h.pop(t, None)
        raise AssertionError("clearing loop failed to terminate")

    def lift(self, k: int, perturb: int = 0):
        """(value, expansion) for the generator of x_k, of degree >= 2: the
        sum h = sum c [theta_p, theta_q] over commutator_presentation(k,
        perturb), cleared by _clear to value; raises unless
        value + sum expansion[w] theta^w = h."""
        h: dict = {}
        for (p, q), c in self.commutator_presentation(k, perturb):
            h = elem_add(h, self.U._quotients(*self._theta_commutator(p, q)), c)
        den, terms = _scaled(h)
        value, expansion = self._clear(dict(terms), k, den)
        back = dict(value)
        for word, coeff in expansion.items():
            for t, c in self._theta_monomial(word).items():
                back[t] = back.get(t, 0) + coeff * c
        if {t: c for t, c in back.items() if c} != h:
            raise AssertionError(f"the expansion of x_{k} does not add back up to its commutator sum")
        return value, expansion

    def _check_shape(self, th: ThetaGenerator):
        top = th.kazhdan_degree
        for word, c in th.value.items():
            if word == (th.index,):
                if c != 1:
                    raise AssertionError("leading coefficient is not 1")
                continue
            kdeg = sum(self.kaz[i] for i in word)
            if kdeg > top:
                raise AssertionError("theta exceeds its Kazhdan degree bound")
            if th.degree >= 2 and all(i < self.r for i in word):
                raise AssertionError("canonical theta retains a pure centraliser monomial")
            if kdeg == top and len(word) < 2 and th.degree >= 2:
                raise AssertionError("top Kazhdan layer contains a short monomial")

    def expand_in_theta(self, qnf: dict, den: int) -> dict:
        """Coefficients of qnf / den, qnf an int sum as for _clear, in the
        theta PBW basis; requires it to lie in the span (the remainder must
        vanish)."""
        rem, expansion = self._clear(qnf, None, den)
        if rem:
            raise ValueError(f"element is not a theta polynomial; remainder {rem}")
        return expansion


# -- derived quantities -------------------------------------------------------------


def jems_commutator_check(setup: WSetup, u_mat, v_mat, v_degree: int) -> bool:
    """[Theta(u), Theta(v)] = Theta([u, v]) for u in g^e(0), v in g^e(0) or (1),
    given as matrices, each read once into its Chevalley coordinate map."""
    u, v = (setup.alg.coordinates(m) for m in (u_mat, v_mat))
    tu = setup.theta_zero(u)
    tv = setup.theta_zero(v) if v_degree == 0 else setup.theta_one(v)
    lhs = setup.U.q_comm(tu, tv)
    br = setup.alg.sparse_bracket(u, v)
    rhs = setup.theta_zero(br) if v_degree == 0 else setup.theta_one(br)
    return lhs == rhs


def pbw_basis_check(setup: WSetup, bound: int) -> dict:
    """Ordered theta monomials of Kazhdan degree <= bound: linear
    independence in Q, count, and R-integrality of the expansions."""
    setup.build_all_thetas()
    weights = [setup.x_degrees[k] + 2 for k in range(setup.r)]
    # the sorted words of weight <= bound by a loop: a self-calling closure
    # would keep the setup alive until the cycle collector runs
    monos, grow = [()], [((), 0)]
    while grow:
        grow = [(w + (k,), n + weights[k]) for w, n in grow for k in range(w[-1] if w else 0, setup.r)
                if n + weights[k] <= bound]
        monos += (w for w, _ in grow)
    monos.sort()
    # each word of Q is a column, numbered in order of first appearance
    column = {}
    span = VectorSpan(QQ)
    integral = True
    for mono in monos:
        q = setup._theta_monomial(mono)
        integral = integral and setup.is_r_integral(q)
        span.add({column.setdefault(w, len(column)): c for w, c in q.items()})
    rank = span.rank
    return {
        "bound": bound,
        "count": len(monos),
        "rank": rank,
        "independent": rank == len(monos),
        "r_integral": integral,
    }


def _character_value(c: dict, expansion: dict):
    """phi(sum expansion[w] theta^w) = sum expansion[w] prod_{i in w} c_i."""
    val = 0
    for word, coeff in expansion.items():
        prod = coeff
        for i in word:
            if i not in c:
                raise AssertionError("character recursion out of order")
            prod *= c[i]
        val += prod
    return canonical(val)


def augmentation_character(setup: WSetup) -> dict:
    """The one-dimensional character theta(x_k) -> c_k of U(g, e) for rigid
    classical e (perfect centraliser).  The character kills the commutator
    sum theta_k + sum expansion[w] theta^w that lifted theta_k, so c_k is
    minus the character of the expansion, read in index order, which is
    degree order."""
    setup.build_all_thetas()
    c = {}
    for k in range(setup.r):
        c[k] = -_character_value(c, setup.thetas[k].expansion)
        if not is_two_power_denominator(c[k]):
            raise AssertionError(f"character value c_{k} = {c[k]} is not in Z[1/2]")
    return c


# The two certificate loops fork one worker per this many products of a term
# by a term, a size each loop knows before it runs.  On a shared 2-core x86
# host, with the worker on the CPU the runner places it on, the character
# check of so_8 (3,2,2,1) (12,068 products) took a median 70-110 ms serial
# and 61-66 ms wall with one worker (104-149 ms with the worker left on the
# parent's CPU).  One worker lost on so_7 (2,2,1,1,1), 776 products (9 ms
# against 7 ms serial), and won on so_8 (2,2,1,1,1,1), 1,470 products (15 ms
# against 18 ms), so a worker's share of 4,000 products is some 3-5 times
# the size below which a fork, the memos it does not share and its pickled
# report cost more than they save.  Each worker also holds its own act
# memo, its own product table and its copies of the pages it touches (12-14
# MB each for wgen N = 24), so the cap bounds a call's memory by the size of
# its work, not by the CPU count.
TERM_PRODUCTS_PER_WORKER = 4_000


def _pair_value(setup: WSetup, c: dict, i: int, j: int):
    """phi([theta_i, theta_j]), the commutator expanded in the generators;
    both of its products come from the setup's product table, and the
    clearing loop takes it as ints over one denominator, no term divided."""
    acc, den, top = setup._theta_commutator(i, j)
    D = setup.U.denominator
    br = {t: n * D ** len(t) for t, n in acc.items() if n != 0}
    return _character_value(c, setup.expand_in_theta(br, den * D ** top))


def character_kills_commutators(setup: WSetup, c: dict) -> bool:
    """phi(theta^a) = prod c^a extends to an algebra map killing every
    commutator of generators.  The pairs i < j run through run_cases, the
    costliest (by |theta_i| |theta_j| terms) first, with one worker per
    TERM_PRODUCTS_PER_WORKER of those products, and their values are read
    back in (i, j) order: False at the first nonzero value, and a pair that
    raised or was lost raises, naming the pair and its witness."""
    # imported on first use, like casimir's: compiling the runner and loading
    # pickle and signal would add about 6 % to `import orbitforge`
    from .runner import run_cases

    terms = [len(setup.thetas[k].value) for k in range(setup.r)]
    pairs = sorted(((i, j) for i in range(setup.r) for j in range(i + 1, setup.r)),
                   key=lambda ij: terms[ij[0]] * terms[ij[1]])
    work = sum(terms[i] * terms[j] for i, j in pairs)
    outcomes = run_cases([(ij, partial(_pair_value, setup, c, *ij)) for ij in pairs],
                         most=work // TERM_PRODUCTS_PER_WORKER)
    for ij in sorted(outcomes):
        out = outcomes[ij]
        if out["status"] != "pass":
            raise RuntimeError(f"commutator pair {ij} gave no value: {out['witness']}")
        if out["detail"] != 0:
            return False
    return True


# -- Casimir -----------------------------------------------------------------------


class CasimirElement:
    """What casimir reads off the Casimir element: the shape of its image in
    Q (casimir_element gives the element itself)."""

    __slots__ = ("shape",)

    def __init__(self, shape: dict):
        self.shape = shape    # decomposition report


def _commutes(U: UAlgebra, x: dict, y: dict) -> bool:
    return not U.q_comm(x, y)


def casimir_element(setup: WSetup) -> dict:
    """The Casimir element C = sum_{i,j} (G^-1)_{ij} B_i B_j of U(g), with G
    the certified Gram of the Killing form on the Chevalley basis B,
    certified central."""
    # row i of G^-1 is the kappa-dual B^i of B_i, so C = sum_i B_i B^i
    dual = inverse_rows(setup.alg.killing_form()["gram"].rows())
    if dual is None:
        raise AssertionError("the Killing form is degenerate")
    if not all(is_two_power_denominator(x) for row in dual for x in row.values()):
        raise AssertionError("the kappa-dual basis leaves Z[1/2]")
    # with no m-letters the Q action is left multiplication in U(g)
    U = UAlgebra(setup.dim, setup.U.bracket)
    C: dict = {}
    for i, row in enumerate(dual):
        C = elem_add(C, U.q_mul(setup.embed({i: 1}), setup.embed(row)))

    # centrality in U(g), one run_cases case per basis element, read in
    # order, with one worker per TERM_PRODUCTS_PER_WORKER products of a term
    # of C by a generator
    from .runner import run_cases

    outcomes = run_cases([(b, partial(_commutes, U, C, setup.gen(b))) for b in range(setup.dim)],
                         most=setup.dim * len(C) // TERM_PRODUCTS_PER_WORKER)
    for b, out in outcomes.items():
        if out["status"] != "pass":
            raise RuntimeError(f"Casimir centrality at basis element {b} gave no verdict: {out['witness']}")
        if not out["detail"]:
            raise AssertionError(f"Casimir fails to commute with basis element {b}")
    return C


def casimir(setup: WSetup) -> CasimirElement:
    """The shape of the Q-image of casimir_element."""
    q_image = setup.U.q_mul(casimir_element(setup), _ONE)
    # shape: 2 e + sum y_i z_i + C' with C' in U(g(0)) and y_i in g(1)
    rest = elem_add(q_image, setup.embed(setup.rep.e_coords), -2)
    mixed = []
    zero_part = []
    ok = True
    for word, c in rest.items():
        degs = [setup.x_degrees[k] if k < setup.m_count else None for k in word]
        if all(k < setup.m_count and d == 0 for k, d in zip(word, degs)):
            zero_part.append((word, c))
        elif (
            len(word) == 2
            and word[0] < setup.m_count
            and setup.x_degrees[word[0]] == 1
            and word[1] >= setup.z_start
            and word[1] < setup.m_start
        ):
            mixed.append((word, c))
        else:
            ok = False
    return CasimirElement({
        "two_e_plus_rest": True,
        "mixed_terms": len(mixed),
        "zero_part_terms": len(zero_part),
        "shape_ok": ok,
    })
