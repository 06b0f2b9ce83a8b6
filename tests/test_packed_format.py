"""The byte-packed GF(p) row format stays inside linalg: no other module of
orbitforge packs or unpacks an int (to_bytes, from_bytes) or renormalises
bytes (translate), and modular holds no elimination or closure loop of its
own, since submodule_probe closes its seeds with linalg.closure_ranks."""

import ast
from pathlib import Path

import pytest

from test_one_bracket import _names

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
PACKED_NAMES = {"to_bytes", "from_bytes", "translate"}
# names only a span or a closure of its own would use
SPAN_NAMES = {"VectorSpan", "frontier", "_closure_rank", "_axpy", "_sift", "_insert"}


def _elimination_loops(tree) -> list:
    """The line of each loop that inserts into a span (.add, .contains,
    ._insert) or takes a pivot inverse pow(x, -1, p)."""
    out = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            span_call = isinstance(func, ast.Attribute) and func.attr in ("add", "contains", "_insert")
            inverse = (isinstance(func, ast.Name) and func.id == "pow" and len(node.args) == 3
                       and isinstance(node.args[1], ast.UnaryOp) and isinstance(node.args[1].op, ast.USub))
            if span_call or inverse:
                out.append(loop.lineno)
                break
    return out


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "linalg.py"))
def test_no_module_but_linalg_touches_the_packed_format(path):
    assert not _names(ast.parse((SRC / path).read_text())) & PACKED_NAMES


def test_modular_has_no_elimination_or_closure_loop():
    tree = ast.parse((SRC / "modular.py").read_text())
    assert not _names(tree) & SPAN_NAMES
    assert not _elimination_loops(tree)
    assert "closure_ranks" in _names(tree)


OLD_CLOSURE = '''
def _closure_rank(vec, columns, p, dim):
    basis = VectorSpan(GF(p))
    basis.add(vec)
    frontier = [vec]
    while frontier:
        nxt = []
        for v in frontier:
            for cols in columns:
                w = {r: y for r, y in apply(cols, v).items() if y}
                if basis.add(w):
                    nxt.append(w)
        frontier = nxt
    return basis.rank
'''


def test_the_guards_see_a_planted_use():
    assert _names(ast.parse("u = int.from_bytes(data, 'little')")) & PACKED_NAMES
    assert _names(ast.parse("data = u.to_bytes(n, 'little').translate(table)")) & PACKED_NAMES
    assert not _names(ast.parse('"""bytes renormalised by translate"""\nx = 1')) & PACKED_NAMES
    tree = ast.parse(OLD_CLOSURE)
    assert _names(tree) & SPAN_NAMES and _elimination_loops(tree)
    # a dict elimination loop with another name: its pivot inverse gives it away
    assert _elimination_loops(ast.parse("for c in sorted(v):\n    f = pow(v[c], -1, p)\n"))
    # a loop without either, as in modular._power, is not one
    assert not _elimination_loops(ast.parse("while True:\n    k >>= 1\n    m = m @ m\n"))
