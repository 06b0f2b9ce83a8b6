"""No true division in src/orbitforge: a / b of two ints is a float, and no
float may enter the exact rings.  Exact quotients are written QQ.div(a, b),
which gives QQ's canonical form (only rings.py names Fraction), and integer
quotients a // b."""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _true_divisions(pkg: Path) -> list:
    """module:line of each a / b and a /= b under pkg."""
    out = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_src_has_no_true_division():
    assert _true_divisions(ROOT / "src" / "orbitforge") == []


def test_the_guard_sees_a_planted_division(tmp_path):
    pkg = tmp_path / "orbitforge"
    shutil.copytree(ROOT / "src" / "orbitforge", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    assert _true_divisions(pkg) == []
    source = (pkg / "rings.py").read_text()
    lines = source.count("\n")
    (pkg / "rings.py").write_text(source + "\n\ndef planted(a, b):\n    a /= b\n    return a / b\n")
    assert _true_divisions(pkg) == [f"rings:{lines + 4}", f"rings:{lines + 5}"]
