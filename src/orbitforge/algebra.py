"""Matrix realizations of so_N and sp_N.

The underlying space k^N has basis {v_i, v_{-i} | 1 <= i <= N//2} plus v_0
for N odd, carrying the bilinear form with (v_i, v_{-j}) = delta_{ij},
(v_0, v_0) = 2 and (u, v) = eps (v, u).  The Chevalley basis spans the
fixed space of sigma(X) = -J^{-1} X^T J for the Gram J of that form; the
form and sigma are not built here, and the tests check the basis against
them.  Basis matrices are indexed by the signed index set; positions map to
matrix coordinates through ``pos``, and ``_root_at`` names the root vector
at each matrix position.  One reader, _read_coords, takes Chevalley
coordinates off the identifying positions and the Cartan diagonal over any
ring; coordinates certifies them by reconstruction, and the structure table
certifies each bracket it stores.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .rings import Ring, ZZ, QQ, canonical, integer_maps
from .linalg import SparseMatrix, bracket_residues, commutator, inverse_rows


def _trace_of_product(x: dict, y: dict):
    """tr(xy) = sum of x[r, c] y[c, r], for matrices given by their entries."""
    return sum(v * y.get((c, r), 0) for (r, c), v in x.items())


class ClassicalAlgebra:
    def __init__(self, N: int, eps: int):
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        if N < 2 or (eps == -1 and N % 2 != 0):
            raise ValueError(f"invalid (N, eps) = ({N}, {eps})")
        self.N = N
        self.eps = eps
        self.h = N // 2
        # matrix coordinate layout: v_h, ..., v_1, (v_0,) v_{-1}, ..., v_{-h}
        idxs = list(range(self.h, 0, -1))
        if N % 2 == 1:
            idxs.append(0)
        idxs += list(range(-1, -self.h - 1, -1))
        self.indices = idxs
        self.pos = {a: i for i, a in enumerate(idxs)}
        self._build_basis()
        self._root_data = None
        self._killing = None
        self._structure = None

    def unit(self, a: int, b: int) -> SparseMatrix:
        """The elementary matrix e_{a,b} over QQ in signed-index labels."""
        return SparseMatrix(self.N, self.N, QQ, {(self.pos[a], self.pos[b]): 1})

    # -- Chevalley basis ------------------------------------------------------

    def _build_basis(self):
        h, eps = self.h, self.eps
        root_vectors = []  # (root weight tuple, [(a, b, coeff), ...])

        def rv(weight, terms):
            root_vectors.append((weight, terms))

        def wt(*pairs):
            w = [0] * h
            for i, c in pairs:
                w[i - 1] += c
            return tuple(w)

        for i in range(1, h + 1):
            for j in range(1, h + 1):
                if i != j:
                    rv(wt((i, 1), (j, -1)), [(i, j, 1), (-j, -i, -1)])
        for i in range(1, h + 1):
            for j in range(i + 1, h + 1):
                if eps == 1:
                    rv(wt((i, 1), (j, 1)), [(i, -j, 1), (j, -i, -1)])
                    rv(wt((i, -1), (j, -1)), [(-j, i, 1), (-i, j, -1)])
                else:
                    rv(wt((i, 1), (j, 1)), [(i, -j, 1), (j, -i, 1)])
                    rv(wt((i, -1), (j, -1)), [(-i, j, 1), (-j, i, 1)])
        if eps == 1 and self.N % 2 == 1:
            for k in range(1, h + 1):
                rv(wt((k, 1)), [(k, 0, 2), (0, -k, -1)])
                rv(wt((k, -1)), [(0, k, 1), (-k, 0, -2)])
        if eps == -1:
            for k in range(1, h + 1):
                rv(wt((k, 2)), [(k, -k, 1)])
                rv(wt((k, -2)), [(-k, k, 1)])

        self.simple_roots = self._simple_roots()
        pos_roots = [w for w, _ in root_vectors if self._is_positive(w)]
        heights = self._heights(pos_roots)

        def pos_key(w):
            return (heights[w], w)

        ordered = []
        labels = []
        # Cartan: simple coroots h_alpha = [e_alpha, e_{-alpha}]
        by_weight = {w: terms for w, terms in root_vectors}
        self._rv_terms = by_weight
        cartan = []
        for a in self.simple_roots:
            ea = self._terms_to_matrix(by_weight[a])
            ena = self._terms_to_matrix(by_weight[self._neg(a)])
            cartan.append(commutator(ea, ena))
        if len(cartan) < h:  # so_2: toral, no roots
            for i in range(len(cartan) + 1, h + 1):
                cartan.append(self.unit(i, i) - self.unit(-i, -i))
        for k, m in enumerate(cartan):
            ordered.append(m)
            labels.append(("h", k))
        for w in sorted(pos_roots, key=pos_key):
            ordered.append(self._terms_to_matrix(by_weight[w]))
            labels.append(("e", w))
        for w in sorted(pos_roots, key=pos_key):
            nw = self._neg(w)
            ordered.append(self._terms_to_matrix(by_weight[nw]))
            labels.append(("e", nw))

        self.basis = ordered
        self.labels = labels
        self.dim = len(ordered)
        expected = self.N * (self.N - 1) // 2 if eps == 1 else self.N * (self.N + 1) // 2
        if self.dim != expected:
            raise AssertionError(f"dim {self.dim} != {expected} for (N,eps)=({self.N},{eps})")
        self.positive_roots = sorted(pos_roots, key=pos_key)
        self._build_coordinate_map()

    def _terms_to_matrix(self, terms) -> SparseMatrix:
        ent = {}
        for a, b, c in terms:
            ent[(self.pos[a], self.pos[b])] = c
        return SparseMatrix(self.N, self.N, QQ, ent)

    def _neg(self, w):
        return tuple(-x for x in w)

    def _is_positive(self, w) -> bool:
        for x in w:
            if x != 0:
                return x > 0
        return False

    def _simple_roots(self):
        h, eps = self.h, self.eps
        simples = []
        for i in range(1, h):
            simples.append(tuple(1 if k == i - 1 else (-1 if k == i else 0) for k in range(h)))
        if eps == -1:
            simples.append(tuple(2 if k == h - 1 else 0 for k in range(h)))
        elif self.N % 2 == 1:
            simples.append(tuple(1 if k == h - 1 else 0 for k in range(h)))
        elif h >= 2:
            simples.append(tuple(1 if k >= h - 2 else 0 for k in range(h)))
        # so_2: no roots at all
        return simples

    def _heights(self, roots) -> dict:
        """{w: height of w}, the sum of w's coefficients on the simple roots,
        each read off one inverse of the simple-root matrix; raises unless
        every coefficient is an integer."""
        if not roots:
            return {}
        inverse = inverse_rows([{j: s[i] for j, s in enumerate(self.simple_roots) if s[i]} for i in range(self.h)])
        if inverse is None:
            raise AssertionError("simple roots are not a basis")
        den, rows = integer_maps(inverse)
        heights = {}
        for w in roots:
            coeffs = [sum(n * w[i] for i, n in row.items()) for row in rows]
            if any(c % den for c in coeffs):
                raise AssertionError(f"root {w} is not an integral combination of simple roots")
            heights[w] = sum(coeffs) // den
        return heights

    # -- coordinates -----------------------------------------------------------

    def _build_coordinate_map(self):
        """_root_at: matrix position -> index of the one root vector with an
        entry there, keyed by the basis entries' own position tuples; raises
        if two root vectors share a position.  Cartan comes off the diagonal."""
        self._root_at = {}
        self._lead = {}  # identifying position -> (root vector index, its entry there)
        for k, m in enumerate(self.basis):
            if self.labels[k][0] != "e":
                continue
            for rc in m.entries:
                if rc in self._root_at:
                    raise AssertionError(f"two root vectors share the matrix position {rc}")
                self._root_at[rc] = k
            rc, v = next(iter(m.entries.items()))
            self._lead[rc] = (k, int(v))
        # Cartan: express diag coefficients (on h_i = e_ii - e_{-i,-i}) in the
        # chosen Cartan basis
        hs = [m for m, lab in zip(self.basis, self.labels) if lab[0] == "h"]
        cells = [(self.pos[i], self.pos[i]) for i in range(1, self.h + 1)]
        inverse = inverse_rows([{k: m.entries[rc] for k, m in enumerate(hs) if rc in m.entries} for rc in cells])
        if inverse is None:
            raise AssertionError("Cartan diagonal system is singular")
        # the inverse as integer rows over one common denominator, 1 or 2
        self._cartan_den, self._cartan_rows = integer_maps(inverse)

    def _cartan_coords(self, diag) -> list:
        """_cartan_den times the Cartan coordinates, from the diagonal
        entries on v_1..v_h."""
        return [sum(n * diag[i] for i, n in row.items()) for row in self._cartan_rows]

    def _read_coords(self, entries: dict, ring: Ring) -> dict:
        """{k: c}, the Chevalley coordinates of the matrix {(row, col): scalar}
        over ring, by ring.div (exact or raising over ZZ); unchecked."""
        coords = {}
        on_diagonal = False
        for rc, val in entries.items():
            hit = self._lead.get(rc)
            if hit is not None:
                coords[hit[0]] = ring.div(val, hit[1])
            elif rc[0] == rc[1]:
                on_diagonal = True
        if not on_diagonal:  # no Cartan part: root vectors have no diagonal entry
            return coords
        diag = [entries.get((self.pos[i], self.pos[i]), 0) for i in range(1, self.h + 1)]
        if any(diag):
            coords.update((j, ring.div(c, self._cartan_den)) for j, c in enumerate(self._cartan_coords(diag)))
        return coords

    def coordinates(self, x: SparseMatrix) -> dict:
        """{k: c}, the exact nonzero Chevalley coordinates of x over x's ring,
        keys ascending; raises if x is not in the algebra."""
        read = self._read_coords(x.entries, x.ring)
        coords = {k: read[k] for k in sorted(read) if read[k] != 0}
        if self.from_coordinates(coords, x.ring) != x:
            raise ValueError("matrix is not in the algebra")
        return coords

    def from_coordinates(self, coords: dict, ring: Ring = QQ) -> SparseMatrix:
        """sum_k c_k B_k over ring for coords = {k: c_k}, summed as one entry
        dict; each c_k is coerced into ring first, so a scalar the ring
        cannot hold raises."""
        ent = {}
        for k, c in coords.items():
            if c != 0:
                c = ring.coerce(c)
                for rc, v in self.basis[k].entries.items():
                    ent[rc] = ent.get(rc, 0) + c * v
        return SparseMatrix(self.N, self.N, ring, ent)

    # -- structure constants ---------------------------------------------------

    @property
    def structure(self) -> list:
        """The integer structure constants of the Chevalley basis: entry i
        maps each j with [B_i, B_j] != 0 to ((k, c_ij^k), ...), the nonzero
        constants with k increasing.  Both orders are held, c_ji^k = -c_ij^k.
        Built on first use and certified once per unordered pair:
        sum_k c_ij^k B_k reconstructs [B_i, B_j] exactly.  Equal term tuples
        are one object, in both orders, so the table holds each distinct
        expansion once; readers never mutate them."""
        if self._structure is None:
            self._structure = self._build_structure()
        return self._structure

    def _build_structure(self) -> list:
        ents = [b.change_ring(ZZ).entries for b in self.basis]
        # one tuple per distinct (k, c), and one per distinct term tuple,
        # which the pool maps to (itself, its negation)
        shared = {}
        pool = {}
        table = [{} for _ in range(self.dim)]
        for i, j, br in bracket_residues(dict(enumerate(ents)), combinations(range(self.dim), 2)):
            coords = self._read_coords(br, ZZ)
            terms = tuple(shared.setdefault((k, c), (k, c)) for k, c in sorted(coords.items()) if c)
            recon = {}
            for k, c in terms:
                for rc, v in ents[k].items():
                    recon[rc] = recon.get(rc, 0) + c * v
            if {rc: v for rc, v in recon.items() if v != 0} != br:
                raise AssertionError(f"structure constants of [B_{i}, B_{j}] fail to reconstruct it")
            pair = pool.get(terms)
            if pair is None:
                neg = tuple(shared.setdefault((k, -c), (k, -c)) for k, c in terms)
                pair = pool[terms] = (terms, neg)
                pool[neg] = (neg, terms)
            table[i][j], table[j][i] = pair
        return table

    def _bracket_terms(self, xs: dict, ys: dict) -> dict:
        table = self.structure
        acc = {}
        for i, a in xs.items():
            row = table[i]
            for j, b in ys.items():
                terms = row.get(j)
                if terms:
                    ab = a * b
                    for k, c in terms:
                        acc[k] = acc.get(k, 0) + c * ab
        return acc

    def sparse_bracket(self, xs: dict, ys: dict, ring: Ring = QQ) -> dict:
        """{k: c}, the nonzero Chevalley coordinates of [x, y] over ring, for
        x and y given as {index: scalar} maps of their nonzero coordinates,
        keys ascending and the scalars already in ring."""
        out = {}
        for k, v in self._bracket_terms(xs, ys).items():
            v = ring.coerce(v)
            if v != 0:
                out[k] = v
        return out

    def ad(self, x: dict, ring: Ring = QQ) -> SparseMatrix:
        """Matrix of ad(x) on the Chevalley basis over ring, for x given as
        the {index: scalar} map of its Chevalley coordinates: column j holds
        [x, B_j] = sum_i x_i (row i of the structure table).  An int
        coordinate is used as it is, any other is coerced into ring first
        (so one the ring cannot hold raises); the entries are coerced once,
        as the matrix is built."""
        table = self.structure
        acc = {}
        for i, a in x.items():
            if type(a) is not int:
                a = ring.coerce(a)
            if a:
                for j, terms in table[i].items():
                    for k, c in terms:
                        acc[(k, j)] = acc.get((k, j), 0) + c * a
        return SparseMatrix(self.dim, self.dim, ring, acc)

    @property
    def type_a_like(self) -> bool:
        """Degenerate or type-A-coincident cases excluded from the rigid
        orbit theory: so_2, so_3, so_4, so_6 and sp_2."""
        return (self.eps == 1 and self.N in (2, 3, 4, 6)) or (self.eps == -1 and self.N == 2)

    # -- root data and Killing form --------------------------------------------

    def root_data(self):
        if self._root_data is not None:
            return self._root_data
        roots = [w for w in self._rv_terms]
        norms = {w: sum(x * x for x in w) for w in roots}
        if roots:
            scale = QQ.div(2, min(norms.values()))
            norms = {w: canonical(scale * n) for w, n in norms.items()}
            d = QQ.div(max(norms.values()), min(norms.values()))
        else:
            d = 1
        cartan_matrix = []
        for a in self.simple_roots:
            row = []
            for b in self.simple_roots:
                # <a, b^vee> = 2(a|b)/(b|b), with the unscaled product
                ab = sum(x * y for x, y in zip(a, b))
                bb = sum(x * x for x in b)
                val = QQ.div(2 * ab, bb)
                if type(val) is not int:
                    raise AssertionError("non-integral Cartan entry")
                row.append(val)
            cartan_matrix.append(row)
        self._root_data = {
            "roots": sorted(roots),
            "simple_roots": self.simple_roots,
            "positive_roots": self.positive_roots,
            "norms": norms,
            "d": d,
            "cartan_matrix": cartan_matrix,
        }
        return self._root_data

    def killing_form(self):
        """Gram matrix of the normalised Killing form on the Chevalley basis,
        with the proportionality constant to the trace form; each trace
        tr(xy) is summed off the entries of x and y, forming no product."""
        if self._killing is not None:
            return self._killing
        rd = self.root_data()
        norms, d = rd["norms"], rd["d"]
        gram = {}
        ents = [b.entries for b in self.basis]
        if rd["roots"]:
            # kappa is proportional to the trace form; fix the constant on a
            # root-vector pair from the normalised value 2d/(alpha|alpha)
            w0 = rd["positive_roots"][0]
            plus, minus = self.labels.index(("e", w0)), self.labels.index(("e", self._neg(w0)))
            target = QQ.div(2 * d, norms[w0])
            const = QQ.div(target, _trace_of_product(ents[plus], ents[minus]))
        else:
            const = QQ.div(1, 2)  # orthogonal family value
        for i in range(self.dim):
            for j in range(i, self.dim):
                val = canonical(const * _trace_of_product(ents[i], ents[j]))
                if val != 0:
                    gram[(i, j)] = val
                    if i != j:
                        gram[(j, i)] = val
        gmat = SparseMatrix(self.dim, self.dim, QQ, gram)
        # cross-check the closed-form values on all root-vector pairs
        for k, lab in enumerate(self.labels):
            if lab[0] != "e":
                continue
            w = lab[1]
            for l, lab2 in enumerate(self.labels):
                if lab2[0] != "e":
                    continue
                expect = QQ.div(2 * d, norms[w]) if lab2[1] == self._neg(w) else 0
                if gmat[(k, l)] != expect:
                    raise AssertionError("Killing values disagree with the root formula")
        # and on the simple-coroot pairs: kappa(h_a, h_b) = 4d(a|b)/((a|a)(b|b))
        if rd["roots"]:
            scale = QQ.div(norms[rd["positive_roots"][0]], sum(x * x for x in rd["positive_roots"][0]))
            for i, a in enumerate(self.simple_roots):
                for j, b in enumerate(self.simple_roots):
                    ab = scale * sum(x * y for x, y in zip(a, b))
                    aa, bb = norms[tuple(a)], norms[tuple(b)]
                    if gmat[(i, j)] != QQ.div(4 * d * ab, aa * bb):
                        raise AssertionError("Cartan Killing values disagree with the root formula")
        self._killing = {"gram": gmat, "trace_constant": const}
        return self._killing

    def kappa_row(self, coords: dict) -> dict:
        """(kappa(x, B_k))_k = G x, the Killing functional of x on every
        Chevalley basis element, as an {index: scalar} map, for x given as
        the map of its Chevalley coordinates and G the certified Gram of
        killing_form()."""
        return self.killing_form()["gram"].apply(coords)


@lru_cache(maxsize=None)
def build_algebra(N: int, eps: int) -> ClassicalAlgebra:
    return ClassicalAlgebra(N, eps)
