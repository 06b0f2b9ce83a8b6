"""Centraliser bases, the zeta spanning system and generation."""

import copy
import json
from collections import Counter
from functools import partial

import pytest

from orbitforge import centralizer, cli, runner
from orbitforge.linalg import SparseMatrix, commutator, inverse_rows
from orbitforge.rings import QQ, ZZ
from orbitforge.partitions import Partition, admissible_partitions, check_involution, is_almost_rigid
from orbitforge.orbits import build_nilpotent, centralizer_dim_formula, jordan_type
from orbitforge.centralizer import (
    ZetaSystem,
    CentralizerBasis,
    compute_centralizer,
    build_zeta_system,
    verify_zeta_system,
    derived_subalgebra,
    predicted_complement_size,
    check_generation,
)

from test_cli import run_cli


def test_dimensions():
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    assert compute_centralizer(rep).dim == 6
    rep8 = build_nilpotent(Partition((3, 3, 1, 1)), 1)
    assert compute_centralizer(rep8).dim == 10
    zero = build_nilpotent(Partition((1, 1, 1, 1)), -1)
    assert compute_centralizer(zero).dim == 10


def test_good_grading_from_kernel():
    for parts, eps in [((2, 1, 1), -1), ((5, 2, 2, 1), 1), ((4,), -1)]:
        cb = compute_centralizer(build_nilpotent(Partition(parts), eps))
        assert all(d >= 0 for d in cb.degrees)


def test_zeta_grade_and_sign_examples():
    lam = Partition((2, 1, 1))
    zs = build_zeta_system(lam, -1)
    # grade of zeta_1^{1, lam_1 - 1} is zero (1-based naming; tuples 0-based)
    assert zs.degree((0, 0, lam.parts[0] - 1)) == 0
    # epsilon_{1,1,1} = (-1)^{lambda_1 - 1} = -1
    assert zs.sign[(0, 0, 1)] == -1


def test_zeta_full_verification_small():
    for parts, eps in [((2, 1, 1), -1), ((3, 1), 1), ((2, 2), -1), ((5, 5, 4), -1)]:
        lam = Partition(parts)
        summary = verify_zeta_system(build_zeta_system(lam, eps))
        assert summary["span_dim"] == centralizer_dim_formula(lam, eps)


def test_zeta_bracket_instance_2_1_1():
    # one bracket checked term by term: [zeta_1^{2,0}, zeta_2^{1,0}] for
    # lambda = (2,1,1).  In 0-based indices i=0, j=1, s=0 against k=1, l=0,
    # r=0: the delta_{il} term is zeta_1^{1,-1} = 0, the delta_{jk} term is
    # -zeta_0^{0,0}, and both epsilon terms vanish since inv[0] = 0 != 1.
    zs = build_zeta_system(Partition((2, 1, 1)), -1)
    lhs = commutator(zs.zetas[(0, 1, 0)], zs.zetas[(1, 0, 0)])
    assert zs.inv[0] == 0
    assert lhs == -zs.zetas[(0, 0, 0)]


def test_zeta_count_identity_n_le_10():
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                zs = build_zeta_system(lam, eps)
                summary = verify_zeta_system(zs, bracket_law=False)   # the bracket law is tested apart
                assert summary["orbit_count"] == summary["dim"], lam


def test_zeta_rejects_bad_involution():
    # build_zeta_system passes its computed involution through this check
    with pytest.raises(AssertionError):
        check_involution(Partition((2, 1, 1)), -1, (0, 1, 2))  # 1s must pair for sp


def test_derived_subalgebra_examples():
    cb = compute_centralizer(build_nilpotent(Partition((2, 1, 1)), -1))
    assert derived_subalgebra(cb).codim == 0

    # (2,2) is not almost rigid: the displayed complement-set formula does
    # not apply; the honest codimension is 2 with degrees {0, 2}
    cb22 = compute_centralizer(build_nilpotent(Partition((2, 2)), -1))
    der = derived_subalgebra(cb22)
    assert der.codim == 2
    assert der.complement_degrees == [0, 2]
    assert predicted_complement_size(Partition((2, 2)), -1) == 1  # formula, AR-only


def test_derived_subalgebra_rejects_brackets_outside_the_span():
    # e_alpha and e_{-alpha} of sp_4 span no subalgebra: their bracket is the
    # coroot h_alpha, which a codimension count alone would not notice
    rep = build_nilpotent(Partition((2, 1, 1)), -1)
    alg = rep.algebra
    unit = [{k: 1} for k in range(alg.dim)]
    pos, neg = alg.labels.index(("e", (0, 2))), alg.labels.index(("e", (0, -2)))
    assert alg.sparse_bracket(unit[pos], unit[neg])
    with pytest.raises(AssertionError, match=r"2,1,1.*eps = -1.*degree 1"):
        derived_subalgebra(CentralizerBasis(rep, [unit[pos], unit[neg]], [0, 1]))
    # a closed pair passes: [e_alpha, h] is a multiple of e_alpha
    h = alg.labels.index(("h", 0))
    assert derived_subalgebra(CentralizerBasis(rep, [unit[h], unit[pos]], [0, 0])).codim >= 0


def test_predicted_complement_matches_almost_rigid():
    for n in range(2, 11):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                if not is_almost_rigid(lam):
                    continue
                cb = compute_centralizer(build_nilpotent(lam, eps))
                der = derived_subalgebra(cb)
                assert der.codim == predicted_complement_size(lam, eps), lam
                assert all(d == 0 for d in der.complement_degrees), lam


def test_generation_examples():
    gen, witness = check_generation(compute_centralizer(build_nilpotent(Partition((2, 1, 1)), -1)))
    assert gen
    gen4, w4 = check_generation(compute_centralizer(build_nilpotent(Partition((4,)), -1)))
    assert not gen4  # g^e(0) = g^e(1) = 0 while g^e != 0
    zero = compute_centralizer(build_nilpotent(Partition((1, 1, 1, 1)), -1))
    genz, wz = check_generation(zero)
    assert genz and wz == {}  # everything in degree 0


# -- the bracket law (ii) on integer row maps against matrix commutators -----------


def _reference_bracket_law(zs):
    """The bracket law (ii) as matrix commutators over every ordered pair;
    raises at the first pair that fails."""
    lam, inv = zs.lam, zs.inv
    parts = lam.parts
    keys = zs.tuples()
    for a in keys:
        i, j, s = a
        for b in keys:
            k, l, r = b
            lhs = commutator(zs.zetas[a], zs.zetas[b])
            rhs = SparseMatrix(lam.size, lam.size, ZZ)

            def term(ii, jj, ss, coeff):
                nonlocal rhs
                if ss >= 0 and coeff != 0:
                    rhs = rhs + zs.zetas[(ii, jj, ss)].scale(coeff)

            if i == l:
                term(k, j, r + s - (parts[i] - 1), 1)
            if j == k:
                term(i, l, r + s - (parts[j] - 1), -1)
            ekl = zs.sign[(k, l, r)]
            if k == inv[i]:
                term(inv[l], j, r + s - (parts[i] - 1), ekl)
            if j == inv[l]:
                term(i, inv[k], r + s - (parts[j] - 1), -ekl)
            if lhs != rhs:
                raise AssertionError(f"bracket law (ii) fails at {a}, {b}")


def _scale_orbit(zs, key, c):
    """A copy of zs with zeta_key and its mate zeta_{(j', i', s)} scaled by c."""
    i, j, s = key
    mate = (zs.inv[j], zs.inv[i], s)
    zetas = dict(zs.zetas)
    for k in {key, mate}:
        zetas[k] = zetas[k].scale(c)
    out = copy.copy(zs)   # zetas is filled by the builder, not passed to the constructor
    out.zetas = zetas
    return out


def _outcome(check, zs):
    try:
        check(zs)
    except AssertionError as exc:
        return str(exc)
    return None


def test_scaling_one_zeta_orbit_breaks_only_the_bracket_law():
    zs = build_zeta_system(Partition((3, 2, 2, 1)), 1)
    bad = _scale_orbit(zs, (0, 1, 0), 2)
    assert bad.zetas[(0, 1, 0)] != zs.zetas[(0, 1, 0)]
    # relation (i), sigma-fixedness, centralising, grading and span all hold
    assert verify_zeta_system(bad, bracket_law=False) == verify_zeta_system(zs, bracket_law=False)
    with pytest.raises(AssertionError, match=r"bracket law \(ii\)"):
        verify_zeta_system(bad)


def test_bracket_law_agrees_with_the_commutator_reference_for_n_le_6():
    # the true system, and every system with one nonzero zeta orbit doubled;
    # both loops visit the pairs in the same order, so they fail alike
    broken = 0
    for n in range(2, 7):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                zs = build_zeta_system(lam, eps)
                systems = [zs] + [_scale_orbit(zs, key, 2) for key in zs.tuples() if not zs.zetas[key].is_zero()]
                for system in systems:
                    want = _outcome(_reference_bracket_law, system)
                    assert _outcome(verify_zeta_system, system) == want, (lam, eps)
                    broken += want is not None
                assert _outcome(_reference_bracket_law, zs) is None
    assert broken > 100


def test_bracket_law_visits_every_ordered_pair(monkeypatch):
    visited = []
    rhs = centralizer._bracket_rhs

    def counting(zs, a, b):
        visited.append((a, b))
        return rhs(zs, a, b)

    monkeypatch.setattr(centralizer, "_bracket_rhs", counting)
    for parts, eps in [((2, 1, 1), -1), ((3, 2, 2, 1), 1), ((5, 5, 4), -1)]:
        zs = build_zeta_system(Partition(parts), eps)
        visited.clear()
        verify_zeta_system(zs)
        keys = zs.tuples()
        assert len(visited) == len(keys) ** 2
        assert visited == [(a, b) for a in keys for b in keys]


def _count_law_pairs(monkeypatch) -> Counter:
    """A Counter of the bracket law's (lam, eps) -> ordered pairs visited."""
    visited = Counter()
    rhs = centralizer._bracket_rhs

    def counting(zs, a, b):
        visited[(zs.lam, zs.eps)] += 1
        return rhs(zs, a, b)

    monkeypatch.setattr(centralizer, "_bracket_rhs", counting)
    return visited


def test_a_raised_zeta_sweep_checks_the_bracket_law_at_every_n(monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 0)   # every case runs, and counts, in this process
    monkeypatch.setitem(cli.SUITES, "zeta", partial(cli._sweep_cases, bound=9, check=cli._zeta))
    visited = _count_law_pairs(monkeypatch)
    report = cli.run_verify(cli.VerifyConfig(max_n=9, suites=("zeta",)))
    assert report["passed"]
    swept = [(lam, eps) for n in range(2, 10) for eps in (1, -1) for lam in admissible_partitions(n, eps)]
    assert report["suites"]["zeta"]["cases"] == len(swept)
    above = [(lam, eps) for lam, eps in swept if lam.size == 9]
    assert len(above) > 10
    want = {(lam, eps): len(build_zeta_system(lam, eps).tuples()) ** 2 for lam, eps in swept}
    assert dict(visited) == want


def test_the_centralizer_command_checks_the_bracket_law_up_to_n_8(monkeypatch):
    visited = _count_law_pairs(monkeypatch)
    for parts, eps, law in (((3, 3, 1, 1), 1, True), ((3, 3, 1, 1, 1), 1, False)):
        visited.clear()
        assert cli.main(["centralizer", ",".join(map(str, parts)), str(eps)]) == 0
        assert bool(visited) is law and cli.ZETA_BRACKET_MAX_N == 8


@pytest.mark.parametrize("parts, law", [("3,2,2,1", True), ("3,3,1,1,1", False)])
def test_the_centralizer_command_says_whether_it_checked_the_bracket_law(parts, law, monkeypatch):
    visited = _count_law_pairs(monkeypatch)
    code, out, _ = run_cli("centralizer", parts, "1")
    assert code == 0 and json.loads(out)["zeta"]["bracket_law"] is law and bool(visited) is law
    # the key is the command's alone: verify's zeta summary stays as it was
    assert "bracket_law" not in verify_zeta_system(build_zeta_system(Partition.parse(parts), 1), bracket_law=law)


def _with_form(zs, form):
    """A new zeta system with zs's data but the Gram form; no zetas yet."""
    return ZetaSystem(zs.lam, zs.eps, zs.inv, zs.starts, zs.e, form, zs.weight)


def test_ss_sigma_requires_an_integral_inverse_form():
    zs = build_zeta_system(Partition((2, 1, 1)), -1)
    assert centralizer.ss_sigma(zs, zs.zetas[(0, 0, 0)]) == zs.zetas[(0, 0, 0)]
    doubled = _with_form(zs, zs.form.scale(2))
    with pytest.raises(ValueError, match="not an integer"):
        centralizer.ss_sigma(doubled, zs.zetas[(0, 0, 0)])


def _count_products(monkeypatch) -> list:
    """A list that grows by one for each SparseMatrix product."""
    made = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda a, b: made.append(1) or matmul(a, b))
    return made


def _sigma_reference(zs, x):
    """The product reference -J^{-1} x^T J over QQ."""
    form = zs.form.change_ring(QQ)
    inverse = SparseMatrix(form.nrows, form.ncols, QQ,
                           {(r, c): v for r, row in enumerate(inverse_rows(form.rows())) for c, v in row.items()})
    return -(inverse @ x.change_ring(QQ).transpose() @ form)


def test_ss_sigma_is_the_product_reference_with_no_product(monkeypatch):
    cases = []
    for n in range(2, 9):
        for eps in (1, -1):
            if eps == -1 and n % 2:
                continue
            for lam in admissible_partitions(n, eps):
                zs = build_zeta_system(lam, eps)
                parts = lam.parts
                xis = [centralizer._xi_matrix(lam, zs.starts, a, b, t)
                       for a in range(lam.n) for b in range(lam.n) for t in range(parts[b])]
                cases += [(zs, x) for x in [zs.e, *zs.zetas.values(), *xis]]
    products = _count_products(monkeypatch)
    images = [centralizer.ss_sigma(zs, x) for zs, x in cases]
    assert products == []
    monkeypatch.undo()
    assert len(cases) > 1000
    for (zs, x), image in zip(cases, images):
        assert image.ring == ZZ and image.change_ring(QQ) == _sigma_reference(zs, x)


def _zero_row(ents):
    return {(r, c): v for (r, c), v in ents.items() if r != 0}


def _repeated_column(ents):
    # row 0 moves onto the column of row 1: two entries there, none in its own
    (c0,), (c1,) = ([c for r, c in ents if r == k] for k in (0, 1))
    out = dict(ents)
    out[(0, c1)] = out.pop((0, c0))
    return out


def _entry_two(ents):
    out = dict(ents)
    key = min(out)
    out[key] *= 2
    return out


@pytest.mark.parametrize("corrupt", [_zero_row, _repeated_column, _entry_two])
def test_ss_sigma_refuses_a_gram_that_is_not_a_signed_permutation(corrupt):
    zs = build_zeta_system(Partition((3, 2, 2, 1)), 1)
    n = zs.lam.size
    bad = _with_form(zs, SparseMatrix(n, n, ZZ, corrupt(zs.form.entries)))
    with pytest.raises(ValueError, match="not an integer"):
        centralizer.ss_sigma(bad, zs.e)


def test_verify_zeta_system_makes_only_the_jordan_type_products(monkeypatch):
    # [e, zeta] is read by bracket_residues, with no product matrix
    zs = build_zeta_system(Partition((3, 2, 2, 1)), 1)
    products = _count_products(monkeypatch)
    jordan_type(zs.e)
    jordan_products = len(products)
    products.clear()
    verify_zeta_system(zs)
    assert jordan_products == 3
    assert len(products) == jordan_products


def test_verify_zeta_system_finds_a_zeta_that_does_not_centralise_e():
    # add to one zeta (and, by relation (i), to its mate) a sigma-fixed
    # y = x + sigma(x) with [e, y] != 0: only the centraliser check can tell
    zs = build_zeta_system(Partition((3, 2, 2, 1)), 1)
    n = zs.lam.size
    ys = (x + centralizer.ss_sigma(zs, x) for x in (SparseMatrix(n, n, ZZ, {(r, c): 1})
                                                    for r in range(n) for c in range(n)))
    y = next(y for y in ys if not commutator(zs.e, y).is_zero())
    key = next(k for k in zs.tuples() if (zs.inv[k[1]], zs.inv[k[0]], k[2]) != k)
    mate = (zs.inv[key[1]], zs.inv[key[0]], key[2])
    planted = copy.copy(zs)
    planted.zetas = dict(zs.zetas)
    planted.zetas[key] = zs.zetas[key] + y
    planted.zetas[mate] = planted.zetas[key].scale(zs.sign[mate])
    with pytest.raises(AssertionError, match="does not centralise e"):
        verify_zeta_system(planted)


def test_verify_zeta_system_checks_the_jordan_type_of_e():
    # with e = 0 every zeta centralises e, so only the Jordan type tells
    zs = build_zeta_system(Partition((3, 2, 2, 1)), 1)
    verify_zeta_system(zs)
    planted = copy.copy(zs)
    planted.e = SparseMatrix(8, 8, ZZ)
    with pytest.raises(AssertionError, match="e has Jordan type"):
        verify_zeta_system(planted)
