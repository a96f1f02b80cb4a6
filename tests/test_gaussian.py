import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from suisim.gaussian import (
    GaussianState,
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

# Bogoliubov propagation of a' = 2 a + sqrt(3) b* gives
# Var(X_a) = G^2 + g^2 = 7 and Var(X_a - X_b) = 2 (G - g)^2.
G2_VARIANCE = 7.0
G2_DIFFERENCE_VARIANCE = 2.0 * (2.0 - math.sqrt(3.0)) ** 2


def tmsv(gain=2.0, pump_phase=0.0):
    return apply_two_mode_squeezer(vacuum_state(2), 0, 1, OpaParams(gain, pump_phase))


class TestVacuum:
    def test_single_mode(self):
        state = vacuum_state(1)
        assert_allclose(state.mean, np.zeros(2))
        assert_allclose(state.cov, np.eye(2))

    def test_three_modes(self):
        state = vacuum_state(3)
        assert_allclose(state.mean, np.zeros(6))
        assert_allclose(state.cov, np.eye(6))

    def test_homodyne_variance_is_one_at_any_phase(self):
        state = vacuum_state(1)
        for theta in np.linspace(0, 2 * math.pi, 7):
            mean, var = homodyne_stats(state, 0, theta)
            assert mean == 0.0
            assert var == pytest.approx(1.0, abs=1e-14)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            vacuum_state(0)
        with pytest.raises(ValueError, match="at least one mode"):
            GaussianState(0, np.zeros(0), np.zeros((0, 0)))


class TestDisplace:
    def test_coherent_state(self):
        state = displace(vacuum_state(1), 0, 6.0, 0.0)
        assert_allclose(state.mean, [6.0, 0.0])
        assert_allclose(state.cov, np.eye(2))
        assert mean_photon_number(state, 0) == pytest.approx(9.0)

    def test_zero_displacement_is_identity(self):
        state = tmsv()
        same = displace(state, 0, 0.0, 0.0)
        assert_allclose(same.mean, state.mean)
        assert_allclose(same.cov, state.cov)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            displace(vacuum_state(1), 1, 1.0, 0.0)


class TestTwoModeSqueezer:
    def test_unit_gain_is_identity(self):
        state = displace(vacuum_state(2), 0, 3.0, -1.0)
        out = apply_two_mode_squeezer(state, 0, 1, OpaParams(1.0, 0.4))
        assert_allclose(out.mean, state.mean, atol=1e-14)
        assert_allclose(out.cov, state.cov, atol=1e-14)

    def test_vacuum_variances_at_gain_two(self):
        state = tmsv()
        assert state.cov[0, 0] == pytest.approx(G2_VARIANCE, rel=1e-12)
        assert state.cov[1, 1] == pytest.approx(G2_VARIANCE, rel=1e-12)
        diff_var = state.cov[0, 0] + state.cov[2, 2] - 2 * state.cov[0, 2]
        assert diff_var == pytest.approx(G2_DIFFERENCE_VARIANCE, rel=1e-12)

    def test_amplifies_coherent_mean_by_gain(self):
        i_ps = 250.0
        state = displace(vacuum_state(2), 0, 2 * math.sqrt(i_ps), 0.0)
        out = apply_two_mode_squeezer(state, 0, 1, OpaParams(2.0))
        assert out.mean[0] == pytest.approx(2.0 * 2 * math.sqrt(i_ps), rel=1e-12)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            apply_two_mode_squeezer(vacuum_state(2), 0, 0, OpaParams(2.0))

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            OpaParams(0.5)

    def test_conjugate_gain_derived(self):
        assert OpaParams(2.0).conjugate_gain == pytest.approx(math.sqrt(3.0))

    def test_matrix_is_symplectic(self):
        s = two_mode_squeezer_matrix(3.7, 1.2)
        assert np.max(np.abs(s @ omega(2) @ s.T - omega(2))) < 1e-12


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        state = tmsv()
        out = apply_beam_splitter(state, 0, 1, 1.0)
        assert_allclose(out.mean, state.mean, atol=1e-14)
        assert_allclose(out.cov, state.cov, atol=1e-14)

    def test_balanced_split_of_coherent_state(self):
        state = displace(vacuum_state(2), 0, 4.0, 2.0)
        out = apply_beam_splitter(state, 0, 1, 0.5)
        assert_allclose(np.abs(out.mean), np.array([4.0, 2.0, 4.0, 2.0]) / math.sqrt(2), atol=1e-12)
        assert_allclose(out.cov, np.eye(4), atol=1e-12)

    def test_balanced_split_of_noisy_mode(self):
        # (7 + 1)/2 on each output when a Var-7 mode meets vacuum.
        state = apply_two_mode_squeezer(vacuum_state(3), 0, 1, OpaParams(2.0))
        out = apply_beam_splitter(state, 0, 2, 0.5)
        assert out.cov[0, 0] == pytest.approx(4.0, rel=1e-12)
        assert out.cov[4, 4] == pytest.approx(4.0, rel=1e-12)

    def test_transmissivity_range(self):
        with pytest.raises(ValueError, match="transmissivity"):
            apply_beam_splitter(vacuum_state(2), 0, 1, 1.2)

    def test_matrix_is_symplectic(self):
        s = beam_splitter_matrix(0.3, 2.2)
        assert np.max(np.abs(s @ omega(2) @ s.T - omega(2))) < 1e-12


class TestPhaseShift:
    def test_zero_is_identity(self):
        state = tmsv()
        out = apply_phase_shift(state, 0, 0.0)
        assert_allclose(out.cov, state.cov, atol=1e-14)

    def test_quarter_turn_moves_x_to_y(self):
        state = displace(vacuum_state(1), 0, 5.0, 0.0)
        out = apply_phase_shift(state, 0, math.pi / 2)
        assert_allclose(out.mean, [0.0, 5.0], atol=1e-12)

    def test_full_turn_is_identity(self):
        state = displace(tmsv(), 0, 1.0, 2.0)
        out = apply_phase_shift(state, 0, 2 * math.pi)
        assert_allclose(out.mean, state.mean, atol=1e-12)
        assert_allclose(out.cov, state.cov, atol=1e-12)


class TestLoss:
    def test_unit_transmission_is_identity(self):
        state = tmsv()
        out = apply_loss(state, 0, 1.0)
        assert_allclose(out.cov, state.cov, atol=1e-14)

    def test_zero_transmission_gives_vacuum(self):
        state = displace(tmsv(), 0, 3.0, 1.0)
        out = apply_loss(state, 0, 0.0)
        assert_allclose(out.mean[:2], [0.0, 0.0], atol=1e-14)
        assert_allclose(out.cov[:2, :2], np.eye(2), atol=1e-14)
        assert_allclose(out.cov[:2, 2:], 0.0, atol=1e-14)

    def test_partial_loss_value(self):
        out = apply_loss(tmsv(), 0, 0.72)
        assert out.cov[0, 0] == pytest.approx(0.72 * 7 + 0.28, rel=1e-12)

    def test_eta_range(self):
        with pytest.raises(ValueError, match="eta"):
            apply_loss(vacuum_state(1), 0, -0.1)


class TestHomodyne:
    def test_coherent_state_readout(self):
        state = displace(vacuum_state(1), 0, 6.0, 0.0)
        assert homodyne_stats(state, 0, 0.0) == pytest.approx((6.0, 1.0))
        mean, var = homodyne_stats(state, 0, math.pi / 2)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0)

    def test_squeezed_arm_is_phase_insensitive(self):
        state = tmsv()
        for theta in np.linspace(0, 2 * math.pi, 9):
            mean, var = homodyne_stats(state, 0, theta)
            assert mean == 0.0
            assert var == pytest.approx(7.0, rel=1e-12)


class TestSymplecticSpectrum:
    def test_vacuum_is_all_ones(self):
        assert_allclose(symplectic_eigenvalues(vacuum_state(4)), np.ones(4), atol=1e-12)

    def test_two_mode_squeezed_vacuum_is_pure(self):
        assert_allclose(symplectic_eigenvalues(tmsv()), [1.0, 1.0], atol=1e-10)

    def test_lossy_arm_reduction_matches_closed_form(self):
        lossy = apply_loss(tmsv(), 0, 0.72)
        reduced = GaussianState(1, lossy.mean[:2], lossy.cov[:2, :2])
        nu = symplectic_eigenvalues(reduced)[0]
        expected = math.sqrt(reduced.cov[0, 0] * reduced.cov[1, 1])
        assert nu == pytest.approx(expected, rel=1e-12)
        assert nu == pytest.approx(5.32, rel=1e-12)

    def test_high_gain_squeezed_vacuum_accepted(self):
        # G = 1e4: cov entries near 2e8 and a smallest eigenvalue near 1e-8,
        # below what a Cholesky factorisation resolves at that scale.
        state = tmsv(gain=1e4)
        assert state.cov[0, 0] == pytest.approx(2e8 - 1, rel=1e-12)
        assert state.cov[0, 2] == pytest.approx(2e4 * math.sqrt(1e8 - 1), rel=1e-12)

    def test_high_gain_squeezed_vacuum_is_pure(self):
        # The absolute error is about eps * max|cov|^2, near 1e-3 at G = 1e3.
        nus = symplectic_eigenvalues(tmsv(gain=1e3, pump_phase=0.3))
        assert_allclose(nus, [1.0, 1.0], atol=5e-4)

    def test_positive_but_unphysical_covariance_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(1, np.zeros(2), 0.5 * np.eye(2))

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianState(1, np.zeros(2), -np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(1, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestMeanPhotonNumber:
    def test_vacuum(self):
        assert mean_photon_number(vacuum_state(2), 1) == 0.0

    def test_coherent(self):
        state = displace(vacuum_state(1), 0, 6.0, 0.0)
        assert mean_photon_number(state, 0) == pytest.approx(9.0)

    def test_squeezed_arm_thermal_photons(self):
        # (7 + 7 - 2)/4 = g^2 pair-produced photons per arm.
        assert mean_photon_number(tmsv(), 0) == pytest.approx(3.0, rel=1e-12)


def test_phase_shift_matrix_rotation():
    assert_allclose(phase_shift_matrix(0.0), np.eye(2), atol=1e-15)
    s = phase_shift_matrix(math.pi / 2)
    assert_allclose(s @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-12)
