import decimal
import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from suisim.bogoliubov import (
    build_transfer,
    build_transfer_from_elements,
    closed_form_snr,
    exact_axis_snr,
    exact_port_variances,
    identity_transfer,
    oracle_homodyne_mean,
    oracle_homodyne_variance,
)
from suisim.gaussian import homodyne_stats, vacuum_state
from suisim.schemes import (
    Loss,
    ModulationTone,
    ParameterError,
    TwoModeSqueeze,
    LossBudget,
    build_scheme,
    compile_pipeline,
    measurement_model,
    output_state,
    port_snr,
    vacuum_output,
)
from suisim.verify import random_pipeline

SQRT3 = math.sqrt(3.0)


def commutator_defect(tm):
    """|sum |u|^2 - sum |v|^2 - 1| per output mode; zero when physical."""
    norm = np.sum(np.abs(tm.u) ** 2, axis=1) - np.sum(np.abs(tm.v) ** 2, axis=1)
    return np.abs(norm - 1.0)


def test_identity_transfer_coefficients():
    tm = identity_transfer(3)
    assert_allclose(tm.u, np.eye(3))
    assert_allclose(tm.v, 0.0)
    for theta in (0.0, 0.7, math.pi / 2):
        assert oracle_homodyne_variance(tm, 1, theta) == pytest.approx(1.0)


def test_identity_transfer_rejects_zero_modes():
    with pytest.raises(ValueError, match="positive integer"):
        identity_transfer(0)


def test_single_opa_gives_bogoliubov_relation():
    # a_s' = 2 a_s + sqrt(3) a_i*
    tm = build_transfer_from_elements(2, [TwoModeSqueeze(0, 1, 2.0, 0.0)])
    assert tm.u[0, 0] == pytest.approx(2.0)
    assert tm.v[0, 1] == pytest.approx(SQRT3)
    assert tm.u[0, 1] == 0.0
    assert tm.v[0, 0] == 0.0
    assert commutator_defect(tm).max() < 1e-10


def test_loss_appends_vacuum_column():
    tm = build_transfer_from_elements(2, [Loss(0, 0.64)])
    assert tm.u[0, 0] == pytest.approx(0.8)
    assert tm.u[0, 2] == pytest.approx(0.6)
    assert commutator_defect(tm).max() < 1e-10


def test_squeezed_arm_variance_is_seven_for_all_angles():
    tm = build_transfer_from_elements(2, [TwoModeSqueeze(0, 1, 2.0, 0.0)])
    for theta in np.linspace(0, 2 * math.pi, 9):
        assert oracle_homodyne_variance(tm, 0, theta) == pytest.approx(7.0, rel=1e-12)


def test_unsupported_element_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        build_transfer_from_elements(2, ["not-an-element"])


def test_oracle_matches_engine_on_random_pipelines():
    rng = np.random.default_rng(7)
    angles = [k * math.pi / 4 for k in range(8)]
    for _ in range(200):
        n_modes, elements = random_pipeline(rng, with_displacement=True)
        state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
        tm = build_transfer_from_elements(n_modes, elements)
        assert commutator_defect(tm).max() < 1e-10
        for mode in range(n_modes):
            for theta in angles:
                mean_e, var_e = homodyne_stats(state, mode, theta)
                assert var_e == pytest.approx(
                    oracle_homodyne_variance(tm, mode, theta), abs=1e-9
                )
                assert mean_e == pytest.approx(oracle_homodyne_mean(tm, mode, theta), abs=1e-9)


def test_balanced_interferometer_cancels_noise():
    # Equal gains and a pi relative phase return the vacuum: the oracle and
    # the engine must both see unit variance at every angle.
    scheme = build_scheme(
        "sui",
        probe_photon_number=100.0,
        tones=(ModulationTone(1e6, 0.01, 0.0),),
        gain_g1=2.0,
        gain_g2=2.0,
        interferometer_phase=math.pi,
    )
    tm = build_transfer(scheme)
    state, modes = output_state(scheme)
    for mode in modes.values():
        for theta in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            var_o = oracle_homodyne_variance(tm, mode, theta)
            _, var_e = homodyne_stats(state, mode, theta)
            assert var_o == pytest.approx(1.0, abs=1e-10)
            assert var_e == pytest.approx(var_o, abs=1e-10)


def test_detector_efficiency_folds_like_loss():
    tm = build_transfer_from_elements(2, [TwoModeSqueeze(0, 1, 2.0, 0.0)])
    assert oracle_homodyne_variance(tm, 0, 0.0, efficiency=0.72) == pytest.approx(5.32)


def two_tone_scheme(kind, **gains):
    tones = (ModulationTone(0.8e6, 0.01, 0.0), ModulationTone(1.2e6, 0.01, math.pi / 2))
    return build_scheme(kind, probe_photon_number=1e4, tones=tones, **gains)


class TestClosedForms:
    def test_beam_splitter_values(self):
        out = closed_form_snr(two_tone_scheme("bs"))
        assert out.snr_x == pytest.approx(2.0)
        assert out.snr_y == pytest.approx(2.0)
        assert not out.asymptotic

    def test_sui_value_is_asymptotic(self):
        out = closed_form_snr(two_tone_scheme("sui", gain_g1=2.0, gain_g2=9.0))
        assert out.snr_x == pytest.approx(2.0 * (2.0 + SQRT3) ** 2, rel=1e-12)
        assert out.snr_y == out.snr_x
        assert out.asymptotic

    def test_amp_values(self):
        out = closed_form_snr(two_tone_scheme("amp", gain_g2=9.0))
        assert out.snr_x == pytest.approx(324.0 / 161.0, rel=1e-12)
        assert out.snr_y == pytest.approx(320.0 / 161.0, rel=1e-12)

    def test_amp_approaches_bs_at_large_gain(self):
        amp = closed_form_snr(two_tone_scheme("amp", gain_g2=10.0))
        bs = closed_form_snr(two_tone_scheme("bs"))
        assert amp.snr_x == pytest.approx(bs.snr_x, rel=0.01)
        assert amp.snr_y == pytest.approx(bs.snr_y, rel=0.01)

    def test_validation(self):
        # A closed form reads a scheme, so the scheme's own rules guard it.
        with pytest.raises(ParameterError, match="unknown scheme kind"):
            build_scheme("bogus", probe_photon_number=1.0)
        with pytest.raises(ParameterError, match="nonnegative") as info:
            build_scheme("bs", probe_photon_number=-1.0)
        assert info.value.name == "scheme.probe_photon_number"
        for gain in (0.5, math.nan):
            with pytest.raises(ParameterError, match=">= 1") as info:
                build_scheme("amp", probe_photon_number=1.0, gain_g2=gain)
            assert info.value.name == "scheme.gain_g2"

    def test_missing_quadrature_reads_zero(self):
        out = closed_form_snr(
            build_scheme("bs", probe_photon_number=1e4, tones=(ModulationTone(1e6, 0.01, math.pi / 2),))
        )
        assert out.snr_x == 0.0
        assert out.snr_y == pytest.approx(2.0)


# Probe photon numbers, depths, tone-angle sets and amplifier gains on which
# the bs and amp closed forms are read against the exact axis SNRs.
CLOSED_FORM_PROBES = (0.0, 1.0, 1e4, 3.7e9)
CLOSED_FORM_DEPTHS = (1e-4, 0.01, 0.05)
CLOSED_FORM_ANGLES = ((0.0, math.pi / 2), (0.0,), (math.pi / 2,), (math.pi / 4, -math.pi / 2), (0.3, 2.0 * math.pi))
CLOSED_FORM_GAINS = (1.0, 1.0 + 1e-9, 1.5, 9.0, 123.4, 1e3)


@pytest.mark.parametrize("angles", CLOSED_FORM_ANGLES)
def test_bs_and_amp_closed_forms_are_the_exact_axis_snrs(angles):
    for i_ps, depth in itertools.product(CLOSED_FORM_PROBES, CLOSED_FORM_DEPTHS):
        tones = tuple(ModulationTone(1e6 * (k + 1), depth, angle) for k, angle in enumerate(angles))
        # A tone counts at angle 0 or pi/2 modulo 2 pi; any other angle reads 0.
        on_axis = [
            any(math.isclose(math.remainder(a - target, 2.0 * math.pi), 0.0, abs_tol=1e-12) for a in angles)
            for target in (0.0, math.pi / 2)
        ]
        eps, delta = (depth if hit else 0.0 for hit in on_axis)
        bs = closed_form_snr(build_scheme("bs", probe_photon_number=i_ps, tones=tones))
        assert (bs.snr_x, bs.snr_y) == (2.0 * i_ps * eps**2, 2.0 * i_ps * delta**2)
        assert (bs.snr_x, bs.snr_y) == exact_axis_snr("bs", i_ps, eps, delta)
        assert not bs.asymptotic
        for gain in CLOSED_FORM_GAINS:
            amp = closed_form_snr(build_scheme("amp", probe_photon_number=i_ps, tones=tones, gain_g2=gain))
            exact = exact_axis_snr("amp", i_ps, eps, delta, gain_g2=gain)
            assert (amp.snr_x, amp.snr_y) == pytest.approx(exact, rel=1e-14, abs=0.0)
            # The same numbers as 4 G^2 I eps^2 / (2 G^2 - 1) and 4 (G^2 - 1) I delta^2 / (2 G^2 - 1).
            total = 2.0 * gain**2 - 1.0
            expected = (4.0 * gain**2 * i_ps * eps**2 / total, 4.0 * (gain**2 - 1.0) * i_ps * delta**2 / total)
            assert (amp.snr_x, amp.snr_y) == pytest.approx(expected, rel=1e-14, abs=0.0)
            assert not amp.asymptotic


def test_engine_snr_approaches_sui_closed_form():
    tones = (ModulationTone(0.8e6, 0.01, 0.0), ModulationTone(1.2e6, 0.01, math.pi / 2))
    sui = build_scheme(
        "sui",
        probe_photon_number=1e4,
        tones=tones,
        gain_g1=2.0,
        gain_g2=50.0,
        interferometer_phase=math.pi,
    )
    reference = closed_form_snr(sui)
    assert port_snr(sui, "signal", 0.8e6) / reference.snr_x == pytest.approx(1.0, abs=0.01)
    assert port_snr(sui, "idler", 1.2e6) / reference.snr_y == pytest.approx(1.0, abs=0.01)


# The exact no-tap forms against the engine: gains inside the range where the
# engine is accurate to 1e-9 at the dark fringe, internal transmissions from
# lossless to heavy loss, and detector efficiencies for each port.
EXACT_G1 = (1.1, 2.0, 5.0)
EXACT_G2 = (1.5, 9.0, 50.0, 300.0)
EXACT_ETA = (1.0, 1.0 - 1e-9, 0.41, 0.05)
EXACT_DETECTORS = tuple(itertools.product((1.0, 0.72, 0.3), repeat=2))


def exact_and_engine(kind, **gains_and_losses):
    """(exact, engine) values of (V_s, V_i, snr_x, snr_y) for one no-tap scheme of ``kind``."""
    eta_internal = gains_and_losses.pop("eta_internal", 1.0)
    e_s, e_i = gains_and_losses.pop("detectors")
    losses = LossBudget(eta_internal, eta_signal_det=e_s, eta_idler_det=e_i)
    model = measurement_model(two_tone_scheme(kind, losses=losses, **gains_and_losses))
    args = (gains_and_losses.get("gain_g1"), gains_and_losses.get("gain_g2"), eta_internal, e_s, e_i)
    exact = exact_port_variances(kind, *args) + exact_axis_snr(kind, 1e4, 0.01, 0.01, *args)
    engine = (
        model.variance("signal"),
        model.variance("idler"),
        model.snr("signal", 0.8e6),
        model.snr("idler", 1.2e6),
    )
    return np.array(exact), np.array(engine)


def test_engine_is_the_exact_sui_form_at_the_dark_fringe():
    worst = 0.0
    for g1, g2, eta, detectors in itertools.product(EXACT_G1, EXACT_G2, EXACT_ETA, EXACT_DETECTORS):
        exact, engine = exact_and_engine("sui", gain_g1=g1, gain_g2=g2, eta_internal=eta, detectors=detectors)
        worst = max(worst, float(np.max(np.abs(engine / exact - 1.0))))
    assert worst <= 1e-9


def test_engine_is_the_exact_amp_and_bs_forms():
    for detectors in EXACT_DETECTORS:
        for g2 in EXACT_G2:
            exact, engine = exact_and_engine("amp", gain_g2=g2, detectors=detectors)
            assert_allclose(engine, exact, rtol=1e-9, atol=0)
        exact, engine = exact_and_engine("bs", detectors=detectors)
        assert_allclose(engine, exact, rtol=1e-9, atol=0)


def marino_variances(g1, g2, eta, e_s, e_i):
    """The cancelling form of Marino, Corzo Trejo and Lett, in 80-digit decimals of the float inputs."""
    with decimal.localcontext(decimal.Context(prec=80)):
        big_g1, big_g2, eta, e_s, e_i = map(decimal.Decimal, (g1, g2, eta, e_s, e_i))
        small_g1, small_g2 = ((x * x - 1).sqrt() for x in (big_g1, big_g2))
        a1 = big_g1**2 + small_g1**2
        cross = 4 * big_g2 * small_g2 * eta.sqrt() * big_g1 * small_g1
        bare_s = big_g2**2 * (eta * a1 + 1 - eta) + small_g2**2 * a1 - cross
        bare_i = big_g2**2 * a1 + small_g2**2 * (eta * a1 + 1 - eta) - cross
        return float(e_s * bare_s + 1 - e_s), float(e_i * bare_i + 1 - e_i)


def test_exact_sui_form_is_the_marino_form_to_the_last_digits():
    rng = np.random.default_rng(86)
    n = 300
    g1, g2 = 10.0 ** rng.uniform(0.0, 5.0, n), 10.0 ** rng.uniform(0.0, 8.0, n)
    eta = rng.choice(np.array([1.0, 1.0 - 1e-9, 1.0 - 1e-4, -1.0]), n)
    eta = np.where(eta < 0.0, rng.uniform(0.05, 1.0, n), eta)
    e_s, e_i = rng.uniform(0.05, 1.0, (2, n))
    exact = np.array(exact_port_variances("sui", g1, g2, eta, e_s, e_i))
    reference = np.array([marino_variances(*point) for point in zip(g1, g2, eta, e_s, e_i)]).T
    assert_allclose(exact, reference, rtol=1e-13, atol=0)


def test_exact_forms_broadcast_and_read_scalars_as_scalars():
    eta = np.linspace(0.1, 1.0, 4)
    v_s, v_i = exact_port_variances("sui", 2.0, 9.0, eta, 0.72, 0.62)
    assert v_s.shape == v_i.shape == (4,)
    for k, value in enumerate(eta):
        assert exact_port_variances("sui", 2.0, 9.0, float(value), 0.72, 0.62) == (v_s[k], v_i[k])
    for kind in ("bs", "amp", "sui"):
        for value in exact_axis_snr(kind, 1e4, 0.01, 0.01, 2.0, 9.0, 0.5, 0.72, 0.62):
            assert np.ndim(value) == 0


def test_oracle_grid_is_the_scalar_read_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n_modes, elements = random_pipeline(rng, with_displacement=True)
        tm = build_transfer_from_elements(n_modes, elements)
        angles = np.concatenate([np.arange(8) * math.pi / 4, rng.uniform(-10.0, 10.0, 8)])
        efficiency = float(rng.uniform(0.3, 1.0))
        modes = np.arange(n_modes)[:, None]
        variances = oracle_homodyne_variance(tm, modes, angles, efficiency)
        means = oracle_homodyne_mean(tm, modes, angles, efficiency)
        assert variances.shape == means.shape == (n_modes, angles.size)
        for mode in range(n_modes):
            for j, theta in enumerate(angles.tolist()):
                assert variances[mode, j] == oracle_homodyne_variance(tm, mode, theta, efficiency)
                assert means[mode, j] == oracle_homodyne_mean(tm, mode, theta, efficiency)


# Each reader on three modes, returning a tuple of its results.
READERS = {
    "homodyne_stats": lambda mode, theta: homodyne_stats(vacuum_state(3), mode, theta),
    "oracle_homodyne_variance": lambda port, theta: (
        oracle_homodyne_variance(build_transfer_from_elements(3, [TwoModeSqueeze(0, 2, 2.0, 0.3)]), port, theta),
    ),
    "oracle_homodyne_mean": lambda port, theta: (
        oracle_homodyne_mean(identity_transfer(3), port, theta, efficiency=0.5),
    ),
}


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("modes", [3, -1, [0, 1, 3], [[2], [-1]], [[0, 4], [1, 2]]])
def test_out_of_range_mode_anywhere_raises(name, modes):
    with pytest.raises(ValueError, match="out of range"):
        READERS[name](modes, np.linspace(0.0, 1.0, 2))


@pytest.mark.parametrize("name", READERS)
def test_scalar_read_gives_plain_floats(name):
    for value in READERS[name](1, 0.3):
        assert isinstance(value, float) and np.ndim(value) == 0
        assert f"{value:.3e}" == f"{float(value):.3e}"
        assert json.loads(json.dumps(value)) == value
