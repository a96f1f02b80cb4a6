"""Hypothesis property tests for the covariance engine invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suisim.gaussian import (
    OpaParams,
    apply_beam_splitter,
    apply_loss,
    apply_phase_shift,
    apply_two_mode_squeezer,
    beam_splitter_matrix,
    displace,
    homodyne_stats,
    mean_photon_number,
    omega,
    phase_shift_matrix,
    symplectic_eigenvalues,
    two_mode_squeezer_matrix,
    vacuum_state,
)

angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)
gains = st.floats(1.0, 3.0, allow_nan=False)
transmissions = st.floats(0.0, 1.0, allow_nan=False)
etas = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def op_sequences(draw, n_modes=3, allow_loss=True):
    """A short random sequence of (op, args) tuples on ``n_modes`` modes."""
    kinds = ["squeeze", "split", "phase", "displace"] + (["loss"] if allow_loss else [])
    ops = []
    n_squeezers = 0
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "squeeze":
            if n_squeezers >= 2:
                continue
            n_squeezers += 1
            a = draw(st.integers(0, n_modes - 1))
            b = draw(st.integers(0, n_modes - 2))
            b = b if b < a else b + 1
            ops.append(("squeeze", (a, b, draw(gains), draw(angles))))
        elif kind == "split":
            a = draw(st.integers(0, n_modes - 1))
            b = draw(st.integers(0, n_modes - 2))
            b = b if b < a else b + 1
            ops.append(("split", (a, b, draw(transmissions), draw(angles))))
        elif kind == "phase":
            ops.append(("phase", (draw(st.integers(0, n_modes - 1)), draw(angles))))
        elif kind == "displace":
            mode = draw(st.integers(0, n_modes - 1))
            dx = draw(st.floats(-10, 10, allow_nan=False))
            dy = draw(st.floats(-10, 10, allow_nan=False))
            ops.append(("displace", (mode, dx, dy)))
        else:
            ops.append(("loss", (draw(st.integers(0, n_modes - 1)), draw(etas))))
    return ops


def run_ops(ops, n_modes=3):
    state = vacuum_state(n_modes)
    for kind, args in ops:
        if kind == "squeeze":
            a, b, gain, phase = args
            state = apply_two_mode_squeezer(state, a, b, OpaParams(gain, phase))
        elif kind == "split":
            state = apply_beam_splitter(state, *args)
        elif kind == "phase":
            state = apply_phase_shift(state, *args)
        elif kind == "displace":
            state = displace(state, *args)
        else:
            state = apply_loss(state, *args)
    return state


@given(gain=st.floats(1.0, 10.0), phase=angles)
def test_squeezer_matrix_preserves_symplectic_form(gain, phase):
    s = two_mode_squeezer_matrix(gain, phase)
    assert np.max(np.abs(s @ omega(2) @ s.T - omega(2))) < 1e-12


@given(transmissivity=transmissions, phase=angles)
def test_beam_splitter_matrix_preserves_symplectic_form(transmissivity, phase):
    s = beam_splitter_matrix(transmissivity, phase)
    assert np.max(np.abs(s @ omega(2) @ s.T - omega(2))) < 1e-12


@given(theta=angles)
def test_phase_shift_matrix_preserves_symplectic_form(theta):
    s = phase_shift_matrix(theta)
    assert np.max(np.abs(s @ omega(1) @ s.T - omega(1))) < 1e-12


@settings(deadline=None)
@given(ops=op_sequences())
def test_uncertainty_holds_after_any_op_sequence(ops):
    state = run_ops(ops)
    assert symplectic_eigenvalues(state).min() >= 1.0 - 1e-9


@settings(deadline=None)
@given(ops=op_sequences(allow_loss=False))
def test_lossless_sequences_stay_pure(ops):
    state = run_ops(ops)
    assert float(np.prod(symplectic_eigenvalues(state))) == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None)
@given(ops=op_sequences(), eta1=st.floats(0.05, 1.0), eta2=st.floats(0.05, 1.0), mode=st.integers(0, 2))
def test_loss_composes_multiplicatively(ops, eta1, eta2, mode):
    state = run_ops(ops)
    chained = apply_loss(apply_loss(state, mode, eta1), mode, eta2)
    merged = apply_loss(state, mode, eta1 * eta2)
    assert np.max(np.abs(chained.mean - merged.mean)) < 1e-12
    assert np.max(np.abs(chained.cov - merged.cov)) < 1e-12


@settings(deadline=None)
@given(ops=op_sequences(), theta=angles, mode=st.integers(0, 2))
def test_homodyne_rotation_identity(ops, theta, mode):
    state = run_ops(ops)
    direct = homodyne_stats(state, mode, theta)
    rotated = homodyne_stats(apply_phase_shift(state, mode, -theta), mode, 0.0)
    assert direct[0] == pytest.approx(rotated[0], abs=1e-12)
    assert direct[1] == pytest.approx(rotated[1], abs=1e-12)


@settings(deadline=None)
@given(
    ops=op_sequences(allow_loss=False),
    transmissivity=transmissions,
    phase=angles,
)
def test_beam_splitter_conserves_photons(ops, transmissivity, phase):
    state = run_ops(ops)
    before = mean_photon_number(state, 0) + mean_photon_number(state, 1)
    mixed = apply_beam_splitter(state, 0, 1, transmissivity, phase)
    after = mean_photon_number(mixed, 0) + mean_photon_number(mixed, 1)
    assert after == pytest.approx(before, abs=1e-12 * max(1.0, before))
