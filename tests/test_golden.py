"""Golden outputs: the reported numbers of fixed runs must not move.

The files under ``tests/golden/`` come from ``tests/golden/regenerate.py``.
Strings, ints and booleans must match exactly.  Floats must agree to a
relative 1e-12 where they are analytic (read off the Gaussian channel) and
to 1e-9 where they are measured off a synthesised spectrum, whose sums may
be reordered by a change that keeps the physics.  A ``verify`` detail must
match as text with its numbers masked; a number of magnitude 1e-6 or more
must match to 1e-9, and a smaller one, a rounding-level deviation, must stay
below 1e-6.
"""

import csv
import importlib.util
import io
import json
import math
import os
import re

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_spec = importlib.util.spec_from_file_location("regenerate", os.path.join(GOLDEN_DIR, "regenerate.py"))
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

ANALYTIC_REL = 1e-12
SPECTRAL_REL = 1e-9
# Keys of the simulate report whose values are analytic, not measured.
ANALYTIC_KEYS = {"dark_fringe", "analytic_variance_snu", "resolved_config"}
DETAIL_REL = 1e-9
ROUNDING_LEVEL = 1e-6
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return regenerate.outputs()
    finally:
        os.chdir(cwd)


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as handle:
        return handle.read()


def assert_matches(actual, expected, rel: float, path: str = "") -> None:
    """``actual`` equals ``expected``, floats to ``rel`` and all else exactly."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0), f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), f"{path}: keys differ"
        for key, value in expected.items():
            sub_rel = ANALYTIC_REL if key in ANALYTIC_KEYS else rel
            assert_matches(actual[key], value, sub_rel, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), f"{path}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, rel, f"{path}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("preset", regenerate.SNR_PRESETS)
def test_snr_report(outputs, preset):
    name = f"snr_{preset}.json"
    assert_matches(json.loads(outputs[name]), json.loads(_golden(name)), ANALYTIC_REL)


def test_sweep_csv(outputs):
    for name in regenerate.SWEEPS.values():
        actual, expected = (list(csv.reader(io.StringIO(text))) for text in (outputs[name], _golden(name)))
        assert actual[0] == expected[0], name
        rows = [[float(v) for v in row] for row in actual[1:]]
        assert_matches(rows, [[float(v) for v in row] for row in expected[1:]], ANALYTIC_REL, name)


def test_simulate_report(outputs):
    for preset in regenerate.SIMULATE_PRESETS:
        name = f"simulate_{preset}.json"
        assert_matches(json.loads(outputs[name]), json.loads(_golden(name)), SPECTRAL_REL, name)


def test_verify_details(verify_results):
    actual = json.loads(regenerate.verify_details(verify_results))
    expected = json.loads(_golden(regenerate.VERIFY_DETAILS))
    assert list(actual) == list(expected)
    for check_id, detail in expected.items():
        assert NUMBER.sub("#", actual[check_id]) == NUMBER.sub("#", detail), check_id
        for a, e in zip(NUMBER.findall(actual[check_id]), NUMBER.findall(detail)):
            a, e = float(a), float(e)
            if abs(e) >= ROUNDING_LEVEL:
                assert math.isclose(a, e, rel_tol=DETAIL_REL, abs_tol=0.0), f"{check_id}: {a!r} != {e!r}"
            else:
                assert abs(a) < ROUNDING_LEVEL, f"{check_id}: {a!r} is not at rounding level"
