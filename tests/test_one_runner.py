"""One place forks: runner.run_cases is the only runner of cases in worker
processes.  os.fork, os.pipe and os.sched_setaffinity appear in
src/orbitforge/runner.py and in no other module of src/orbitforge, so
verify's suites and the W layer's loops share one queue, one lost-worker
witness, one nesting rule and one placement of workers on CPUs."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
PROCESS_CALLS = {"fork", "pipe", "sched_setaffinity"}


def _process_calls(tree) -> set:
    """The names in PROCESS_CALLS read as os.<name> or imported from os."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out |= {a.name for a in node.names} & PROCESS_CALLS
    return out


def test_the_runner_forks_and_pipes():
    assert _process_calls(ast.parse((SRC / "runner.py").read_text())) == PROCESS_CALLS


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py") if path.stem != "runner"))
def test_no_other_module_forks_or_pipes(module):
    assert _process_calls(ast.parse((SRC / f"{module}.py").read_text())) == set()


def test_the_guard_sees_a_fork_and_a_pipe():
    assert _process_calls(ast.parse("pid = os.fork()\nr, w = os.pipe()\nos.sched_setaffinity(0, {1})")) == PROCESS_CALLS
    assert _process_calls(ast.parse("from os import fork, getpid")) == {"fork"}
    assert _process_calls(ast.parse("from os import sched_getaffinity, sched_setaffinity")) == {"sched_setaffinity"}
    # the word in prose or on another object is not a use
    assert _process_calls(ast.parse('"""os.fork a worker"""\nself.fork()\nshlex.pipe')) == set()
