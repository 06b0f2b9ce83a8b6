"""The CLI half of "same behaviour": the stdout and exit code of fifteen
commands are compared byte for byte.  Eleven were recorded before the
elements of g moved onto {index: scalar} maps; the next two (p-th powers
and a 2,401-dim module check at p = 7, and the 300-entry e_coordinates of
an sp_24 orbit) before Chevalley coordinates left the dense format; the
last two (a W basis read off the SNF's V on N = 24 blocks, and the SNF
divisors of an N = 44 slice) before the Smith normal form's working
matrices became maps.  Each command runs in process through cli.main;
tests/golden/cli/cases.json lists the arguments, the exit code and the file
holding the expected stdout."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from orbitforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue()


def test_the_gate_covers_fifteen_commands():
    assert len(CASES) == 15 and len({case["stdout"] for case in CASES}) == 15


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["args"]))
def test_cli_output_is_byte_identical_to_the_recorded_one(case):
    code, out = _run(case["args"])
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / case["stdout"]).read_bytes()
