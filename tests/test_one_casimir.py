"""The Casimir element has one source: the certified Gram of the Killing
form.  casimir_element sums (G^-1)_{ij} B_i B_j over the Chevalley basis, so
enveloping reads no root data: no root_data(), no Cartan matrix, no
positive roots and no root norms, under any spelling that names them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"

ROOT_DATA = ("root_data", "cartan_matrix", "positive_roots", "norms")


def _root_data_reads(source: str) -> list:
    """(line, name) of every attribute, variable, imported name or string
    key in source that names root data; prose that mentions one is not a
    read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in ROOT_DATA:
            out.append((node.lineno, name))
    return sorted(out)


def test_enveloping_reads_no_root_data():
    assert _root_data_reads((SRC / "enveloping.py").read_text()) == []


def test_the_guard_sees_a_planted_read():
    src = '''
"""The Casimir element, built without norms or a cartan_matrix."""
from .algebra import positive_roots


def casimir_element(setup):
    rd = setup.alg.root_data()
    # rd["norms"] in a comment is no read
    scale = rd["norms"]
    return [w for w in positive_roots(rd) if rd.get("cartan_matrix")]
'''
    assert _root_data_reads(src) == [(3, "positive_roots"), (7, "root_data"), (9, "norms"),
                                     (10, "cartan_matrix"), (10, "positive_roots")]
