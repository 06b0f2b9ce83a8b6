"""The records of orbitforge are plain slotted classes with a written-out
__init__, and no module imports dataclasses.

* Importing orbitforge and orbitforge.cli loads neither dataclasses nor
  inspect, which it would pull in (with ast, dis and tokenize).
* Ring, Partition and InductionDatum keep the value semantics of a frozen
  dataclass: equality and hashing by field, fields that cannot be assigned,
  the same str and repr, and constructors that check their input.
* The positional and keyword constructors that perfbench and the scripts
  call still build the same records.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from orbitforge.cli import VerifyConfig
from orbitforge.orbits import InductionDatum
from orbitforge.partitions import Partition
from orbitforge.rings import GF, QQ, ZZ, Ring

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported_modules(code: str) -> list:
    """The modules a fresh interpreter imports to run code, read off the
    -X importtime lines on its standard error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2]


def test_importing_orbitforge_loads_neither_dataclasses_nor_inspect():
    modules = _imported_modules("import orbitforge, orbitforge.cli")
    assert "orbitforge.cli" in modules and "orbitforge.rings" in modules
    assert "dataclasses" not in modules and "inspect" not in modules


def test_the_import_guard_sees_dataclasses():
    assert {"dataclasses", "inspect"} <= set(_imported_modules("import orbitforge, dataclasses"))


def test_no_module_of_src_imports_dataclasses():
    for path in sorted((SRC / "orbitforge").glob("*.py")):
        assert "dataclasses" not in path.read_text(), path.name


# -- value semantics -----------------------------------------------------------


def _datum(N=8, eps=-1):
    return InductionDatum(N, eps, ((2, Partition((1, 1))),), Partition((1, 1, 1, 1)))


@pytest.mark.parametrize("make, other", [
    (lambda: Ring("GF", 7), lambda: Ring("GF", 5)),
    (lambda: Ring("QQ"), lambda: Ring("ZZ")),
    (lambda: Partition((3, 2, 2)), lambda: Partition((3, 2, 1))),
    (_datum, lambda: _datum(eps=1)),
], ids=["GF", "QQ", "Partition", "InductionDatum"])
def test_equal_fields_make_equal_records_with_one_hash(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other() and len({a, b, other()}) == 2
    # a frozen dataclass hashed the tuple of its fields
    assert hash(a) == hash(tuple(getattr(a, name) for name in type(a).__slots__))
    # a record never equals the plain tuple of its fields
    assert a != tuple(getattr(a, name) for name in type(a).__slots__)


@pytest.mark.parametrize("record, field", [
    (Ring("GF", 7), "p"), (Ring("GF", 7), "kind"), (Partition((2, 1)), "parts"),
    (_datum(), "residual"), (_datum(), "N"),
])
def test_a_field_of_an_immutable_record_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


def test_str_and_repr_are_those_of_the_dataclass():
    assert repr(Ring("GF", 7)) == "Ring(kind='GF', p=7)" and str(Ring("GF", 7)) == "GF(7)"
    assert repr(QQ) == "Ring(kind='QQ', p=0)" and str(QQ) == "QQ"
    assert repr(Partition((3, 1))) == "Partition(parts=(3, 1))" and str(Partition((3, 1))) == "3,1"
    assert repr(_datum()) == ("InductionDatum(N=8, eps=-1, gl_blocks=((2, Partition(parts=(1, 1))),), "
                              "residual=Partition(parts=(1, 1, 1, 1)))")
    assert str(_datum()) == "gl_2[1,1] x g_4[1,1,1,1]"


@pytest.mark.parametrize("record", [ZZ, GF(11), Partition((4, 2, 2)), _datum()], ids=repr)
def test_an_immutable_record_pickles_to_an_equal_one(record):
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("make, message", [
    (lambda: Partition((2, 0)), "positive"),
    (lambda: Partition((-1,)), "positive"),
    (lambda: Partition((1, 2)), "weakly decreasing"),
    (lambda: Ring("RR"), "unknown ring kind 'RR'"),
    (lambda: Ring("GF", 9), "odd prime"),
    (lambda: Ring("GF", 2), "odd prime"),
    (lambda: Ring("GF"), "odd prime"),
    (lambda: VerifyConfig(max_n=1), "at least 2"),
    (lambda: VerifyConfig(primes=(3, 9)), "odd primes"),
    (lambda: VerifyConfig(suites=("nope",)), "unknown suite 'nope'"),
    (lambda: VerifyConfig(primes=(3, 3)), "repeated prime"),
    # with no prime the stability and modular cases would pass on QQ alone
    (lambda: VerifyConfig(primes=()), "at least one odd prime"),
], ids=["zero-part", "negative-part", "increasing", "kind", "composite", "two", "no-modulus",
        "max-n", "prime", "suite", "repeat", "no-prime"])
def test_the_constructors_check_their_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_the_constructors_take_positions_and_keywords():
    assert Ring("GF", 7) == Ring(kind="GF", p=7) == GF(7) and Ring("QQ") == Ring(kind="QQ") == QQ
    assert Partition((2, 1)) == Partition(parts=(2, 1)) == Partition.parse("2,1")
    gl_blocks, residual = ((1, Partition((1,))),), Partition((2, 1))
    # perfbench builds its data positionally, the way InductionDatum.zero_orbit does
    datum = InductionDatum(5, 1, gl_blocks, residual)
    assert datum == InductionDatum(N=5, eps=1, gl_blocks=gl_blocks, residual=residual)
    assert (datum.N, datum.eps, datum.gl_blocks, datum.residual) == (5, 1, gl_blocks, residual)
    assert InductionDatum.zero_orbit(8, -1, (2,)) == _datum()
    config = VerifyConfig(suites=("zeta",), primes=(5, 7), seed=3)
    assert (config.max_n, config.primes, config.seed, config.suites) == (10, (5, 7), 3, ("zeta",))
    default = VerifyConfig()
    assert (default.max_n, default.primes, default.seed, default.suites) == (10, (3, 5, 7), 13, ())
