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
from suisim.schemes import Displace, Loss, PhaseShift, Splitter, TwoModeSqueeze


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


@pytest.mark.parametrize(
    "flags",
    [
        dict(with_loss=True, max_squeezers=2, max_gain=3.0),
        dict(with_loss=False, max_squeezers=2, max_gain=3.0),
        dict(max_squeezers=2, max_gain=2.5),
        dict(with_displacement=True),
        dict(with_loss=False, with_displacement=True),
    ],
    ids=["lossy", "lossless", "low-gain", "displaced", "displaced-lossless"],
)
def test_random_pipeline_is_the_rng_choice_draw(flags):
    """The element kind is drawn by indexing with ``rng.integers(4)``; it must
    give the pipelines, and leave the generator in the state, that the
    ``rng.choice`` draw of the kind (and of up to six modes) gave."""

    def choice_draw(rng, max_modes=6, with_loss=True, with_displacement=False, max_squeezers=3, max_gain=5.0):
        n_modes = int(rng.integers(2, max_modes + 1))
        elements = []
        if with_displacement:
            for mode in range(n_modes):
                if rng.random() < 0.5:
                    elements.append(Displace(mode, float(rng.normal(0, 5)), float(rng.normal(0, 5))))
        n_squeezers = 0
        for _ in range(int(rng.integers(3, 9))):
            kind = rng.choice(["squeeze", "split", "phase", "loss" if with_loss else "phase"])
            if kind == "squeeze" and n_squeezers < max_squeezers:
                a, b = rng.choice(n_modes, size=2, replace=False)
                elements.append(
                    TwoModeSqueeze(int(a), int(b), float(rng.uniform(1.0, max_gain)), float(rng.uniform(0, 2 * np.pi)))
                )
                n_squeezers += 1
            elif kind == "split":
                a, b = rng.choice(n_modes, size=2, replace=False)
                elements.append(Splitter(int(a), int(b), float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi))))
            elif kind == "loss":
                elements.append(Loss(int(rng.integers(n_modes)), float(rng.uniform(0.2, 1.0))))
            else:
                elements.append(PhaseShift(int(rng.integers(n_modes)), float(rng.uniform(0, 2 * np.pi))))
        return n_modes, elements

    for seed in range(1000):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert verify.random_pipeline(rng, **flags) == choice_draw(reference_rng, **flags), seed
        assert rng.bit_generator.state == reference_rng.bit_generator.state, seed


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
