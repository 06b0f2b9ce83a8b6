"""The default verify report is a superset of a pinned baseline.

tests/golden/verify_default.json is the default `verify --output` report.
The gate asks the report of today's code for four things: every (suite,
key) of the baseline is present, each of those outcomes equals the
baseline's, the report passed, and its config is the baseline's.  Cases
the baseline lacks may be added.  A change that alters a baseline outcome
on purpose replaces the baseline file."""

import copy
import json
from pathlib import Path

import pytest

from test_cli import run_cli

BASELINE = Path(__file__).parent / "golden" / "verify_default.json"


def gate_failures(baseline: dict, report: dict) -> list:
    """Why report fails the superset gate against baseline; [] if it holds."""
    out = []
    if report["config"] != baseline["config"]:
        out.append("config differs")
    if report["passed"] is not True:
        out.append("report did not pass")
    for suite, body in baseline["suites"].items():
        got = report["suites"].get(suite, {}).get("outcomes", {})
        for key, outcome in body["outcomes"].items():
            if key not in got:
                out.append(f"{suite} {key}: missing")
            elif got[key] != outcome:
                out.append(f"{suite} {key}: changed")
    return out


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("gate") / "verify.json"
    code, _, _ = run_cli("verify", "--output", str(path))
    assert code == 0
    return json.loads(path.read_text())


def test_default_report_is_a_superset_of_the_baseline(baseline, report):
    assert gate_failures(baseline, report) == []


def _change_a_value(report):
    outcome = report["suites"]["zeta"]["outcomes"]["3,1|1"]
    outcome["detail"]["dim"] += 1


def _drop_a_case(report):
    del report["suites"]["modular"]["outcomes"]["baby verma sp4 (4) p=3"]


def _fail(report):
    report["passed"] = False


def _change_the_config(report):
    report["config"]["seed"] += 1


@pytest.mark.parametrize("plant, reason", [
    (_change_a_value, "zeta 3,1|1: changed"),
    (_drop_a_case, "modular baby verma sp4 (4) p=3: missing"),
    (_fail, "report did not pass"),
    (_change_the_config, "config differs"),
])
def test_the_gate_sees_a_planted_fault(baseline, report, plant, reason):
    planted = copy.deepcopy(report)
    plant(planted)
    assert gate_failures(baseline, planted) == [reason]


def test_an_added_case_passes_the_gate(baseline, report):
    grown = copy.deepcopy(report)
    grown["suites"]["zeta"]["outcomes"]["new case"] = {"detail": {}, "status": "pass"}
    grown["suites"]["new suite"] = {"outcomes": {"one": {"detail": {}, "status": "pass"}}}
    assert gate_failures(baseline, grown) == []
