"""One map from Chevalley coordinates to the PBW letters of WSetup:
WSetup._w_coords, sparse from the accumulation on.  It alone reads the
inverse transition columns, and WSetup.embed and the bracket table take
their coordinates from it.  The W layer brackets on {index: scalar} maps:
the dense ClassicalAlgebra.bracket has one caller in src,
jems_commutator_check, whose matrix signature is kept for its callers."""

import ast
from pathlib import Path

from orbitforge.enveloping import WSetup
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition
from orbitforge.rings import Ring

from test_one_lift import _callers

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"


def _readers(source: str, attr: str) -> list:
    """The dotted scope (class and function names) of every read of x.attr;
    "<module>" for a read outside any definition.  A store is not a read."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr and isinstance(child.ctx, ast.Load):
                out.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_one_map_to_the_pbw_letters_and_one_dense_bracket_caller():
    reads = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in _readers(path.read_text(), "_tinv_cols")]
    assert reads and set(reads) == {("enveloping.py", "WSetup._w_coords")}
    calls = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in _callers(path.read_text(), "bracket")]
    assert calls == [("enveloping.py", "jems_commutator_check")]


def test_the_guards_see_a_second_map_and_a_dense_bracket():
    src = '''
class WSetup:
    def _build_structure(self):
        self._set_transition(tinv)
        for a in range(self.dim):
            for b in range(a):
                coords = self.to_w_coords(alg.bracket(self.basis_vectors[a], self.basis_vectors[b]))

    def _set_transition(self, tinv):
        self._tinv_cols = [[(0, 1)]]

    def to_w_coords(self, chev_coords):
        return self._w_coords({j: c for j, c in enumerate(chev_coords) if c != 0})

    def _w_coords(self, xs):
        acc = [0] * len(self._tinv_cols)
        return tuple(acc)


def dense_rows(setup):
    return [col for col in setup._tinv_cols]


def jems_commutator_check(setup, u, v):
    return setup.alg.bracket(u, v)
'''
    assert _readers(src, "_tinv_cols") == ["WSetup._w_coords", "dense_rows"]
    assert _callers(src, "bracket") == ["WSetup._build_structure", "jems_commutator_check"]
    # the word in prose or a longer name is not a use
    assert _readers('"""reads _tinv_cols"""\nx = self._tinv_cols_count', "_tinv_cols") == []
    assert _callers("alg.sparse_bracket(x, y)\nU.bracket", "bracket") == []


def test_the_w_setup_divides_about_once_per_table_entry(monkeypatch):
    # so_8, (3, 2, 2, 1): U.bracket holds 327 nonzero entries.  Counted in
    # one process, QQ.div runs 10,617-10,678 times while the setup is built
    # when every bracket is mapped through a dense tuple of divisions, and
    # 360-421 times with the sparse map, depending on what is cached.
    rep = build_nilpotent(Partition((3, 2, 2, 1)), 1)
    calls = [0]
    div = Ring.div

    def counting(self, a, b):
        calls[0] += self.kind == "QQ"
        return div(self, a, b)

    monkeypatch.setattr(Ring, "div", counting)
    setup = WSetup(rep)
    monkeypatch.undo()
    assert sum(map(len, setup.U.bracket.values())) == 327
    assert 0 < calls[0] <= 1000
