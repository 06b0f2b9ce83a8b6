"""Each W-algebra generator of degree >= 2 is lifted in one place: only
WSetup.lift presents x_k as a sum of commutators.  The lift keeps its own
expansion, so the augmentation character and the presentation-independence
check in verify read or repeat the lift instead of deriving it again."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"


def _last_name(node):
    """The name of a Name node or the attribute of an Attribute node."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _callers(source: str, name: str, receiver: str | None = None) -> list:
    """The dotted scope (class and function names) of every call of `name`,
    as f(...) or x.f(...); "<module>" for a call outside any definition.
    With a receiver, only the calls receiver.f(...) and x.receiver.f(...)
    count."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if _last_name(f) == name and (receiver is None or _last_name(getattr(f, "value", None)) == receiver):
                    out.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_only_the_lift_calls_commutator_presentation():
    calls = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in _callers(path.read_text(), "commutator_presentation")]
    assert calls == [("enveloping.py", "WSetup.lift")]


def test_the_guard_sees_a_presentation_outside_the_lift():
    src = '''
class WSetup:
    def commutator_presentation(self, k, perturb=0):
        """not a call: commutator_presentation(k)"""

    def lift(self, k, perturb=0):
        return self.commutator_presentation(k, perturb)


def augmentation_character(setup):
    def inner(k):
        return setup.commutator_presentation(k)
    return commutator_presentation(0)


pres = commutator_presentation(1)
'''
    assert _callers(src, "commutator_presentation") == [
        "WSetup.lift", "augmentation_character.inner", "augmentation_character", "<module>"]
