"""Acceptance gate: every registered invariant and acceptance check must pass.

The checks live in :mod:`suisim.verify` (shared with ``suisim verify``);
this module asserts each result of the one shared run, printing one PASS/FAIL
line per criterion.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines inline.
"""

import collections

import numpy as np
import pytest

from suisim import gaussian, verify


@pytest.fixture(scope="module")
def results(verify_results):
    return {r.check_id: r for r in verify_results}


@pytest.mark.parametrize("check_id", verify.check_ids())
def test_criterion(results, check_id):
    result = results[check_id]
    print(f"{'PASS' if result.passed else 'FAIL'}  {check_id}  {result.detail}")
    assert result.passed, f"{check_id}: {result.detail}"


def test_verify_detects_injected_squeezer_fault(monkeypatch):
    """A deliberate sign error in the squeezer matrix must trip the
    symplectic-preservation check."""
    healthy = gaussian.two_mode_squeezer_matrix

    def broken(gain, pump_phase=0.0):
        s = healthy(gain, pump_phase).copy()
        s[1, 3] = -s[1, 3] if s[1, 3] != 0.0 else gain - 1.0
        s[3, 1] = s[1, 3]
        return s

    monkeypatch.setattr(gaussian, "two_mode_squeezer_matrix", broken)
    result = verify.run_check("invariant-symplectic-transforms")
    assert not result.passed


def test_check_registry_is_complete():
    ids = verify.check_ids()
    assert len(ids) == len(set(ids))
    for n in range(1, 11):
        assert any(f"acceptance-{n:02d}" in check_id for check_id in ids), n


def test_random_pipeline_is_reproducible():
    a = verify.random_pipeline(np.random.default_rng(5))
    b = verify.random_pipeline(np.random.default_rng(5))
    assert a == b


READERS = ("homodyne_stats", "oracle_homodyne_variance", "oracle_homodyne_mean")


@pytest.mark.parametrize(
    "check_id, reads",
    [
        # One array read of every mode at all 8 angles per random pipeline.
        ("acceptance-08-oracle-equivalence", dict.fromkeys(READERS, 1000)),
        # One read of all 32 LO angles per locked scheme.
        ("acceptance-04-dark-fringe", {"homodyne_stats": 2}),
    ],
)
def test_checks_read_all_angles_in_one_call(monkeypatch, check_id, reads):
    calls = collections.Counter()
    for name in READERS:

        def counted(*args, _name=name, _reader=getattr(verify, name)):
            calls[_name] += 1
            return _reader(*args)

        monkeypatch.setattr(verify, name, counted)
    result = verify.run_check(check_id)
    assert result.passed, result.detail
    assert calls == reads
