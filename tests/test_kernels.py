"""The small-matrix kernels against the plain numpy constructions they replace.

Each reference below builds its matrix the straightforward way (``np.block``,
``np.ix_``, ``np.column_stack``); the kernels must reproduce it bit for bit,
not merely to rounding, so that no SNR, spectrum or verify figure moves.
"""

import math

import numpy as np
import pytest

from suisim.conventions import i_omega, omega, rotation_block, xy_indices
from suisim.gaussian import (
    GaussianState,
    OpaParams,
    _embed,
    beam_splitter_matrix,
    displacement,
    homodyne_stats,
    loss_channel,
    phase_shift_matrix,
    two_mode_squeezer_matrix,
    vacuum_state,
)
from suisim.schemes import (
    Displace,
    Loss,
    PhaseShift,
    Splitter,
    TwoModeSqueeze,
    _element_channel,
    apply_pipeline,
    compile_pipeline,
)
from suisim.verify import random_pipeline


def reference_two_mode_squeezer(gain, pump_phase):
    g = math.sqrt(gain**2 - 1.0)
    c, s = math.cos(pump_phase), math.sin(pump_phase)
    a = gain * np.eye(2)
    b = g * np.array([[c, s], [s, -c]])
    return np.block([[a, b], [b, a]])


def reference_beam_splitter(transmissivity, phase):
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    eye = np.eye(2)
    return np.block(
        [
            [t * eye, r * rotation_block(phase)],
            [-r * rotation_block(-phase), t * eye],
        ]
    )


def reference_embed(block, n_modes, *modes):
    full = np.eye(2 * n_modes)
    idx = [i for mode in modes for i in xy_indices(mode)]
    full[np.ix_(idx, idx)] = block
    return full


def reference_loss_channel(n_modes, mode, eta):
    transfer = reference_embed(math.sqrt(eta) * np.eye(2), n_modes, mode)
    on_mode = np.eye(2 * n_modes) - reference_embed(np.zeros((2, 2)), n_modes, mode)
    return transfer, (1.0 - eta) * on_mode


def reference_compile(n_modes, elements):
    dim = 2 * n_modes
    transfer, noise, shifts = np.eye(dim), np.zeros((dim, dim)), np.zeros((dim, 0))
    for element in elements:
        if isinstance(element, Displace):
            shift = displacement(n_modes, element.mode, element.dx, element.dy)
            shifts = np.column_stack([shifts, shift])
            continue
        added = 0.0
        if isinstance(element, TwoModeSqueeze):
            s4 = reference_two_mode_squeezer(element.gain, element.pump_phase)
            m = reference_embed(s4, n_modes, element.mode_a, element.mode_b)
        elif isinstance(element, Splitter):
            s4 = reference_beam_splitter(element.transmissivity, element.phase)
            m = reference_embed(s4, n_modes, element.mode_a, element.mode_b)
        elif isinstance(element, PhaseShift):
            m = reference_embed(rotation_block(element.theta), n_modes, element.mode)
        else:
            m, added = reference_loss_channel(n_modes, element.mode, element.eta)
        transfer, noise, shifts = m @ transfer, m @ noise @ m.T + added, m @ shifts
    return transfer, noise, shifts


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    # array_equal treats 0.0 and -0.0 as equal; the bits must agree as well.
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


class TestBuilders:
    def test_two_mode_squeezer(self):
        rng = np.random.default_rng(11)
        gains = np.concatenate([[1.0, 2, 9.0], rng.uniform(1.0, 50.0, 300)])
        phases = np.concatenate([[0.0, math.pi, -math.pi / 2], rng.uniform(-7.0, 7.0, 300)])
        for gain, phase in zip(gains, phases):
            assert_bitwise_equal(
                two_mode_squeezer_matrix(gain, phase), reference_two_mode_squeezer(gain, phase)
            )

    def test_beam_splitter(self):
        rng = np.random.default_rng(12)
        ts = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 300)])
        phases = np.concatenate([[0.0, math.pi, -math.pi / 2], rng.uniform(-7.0, 7.0, 300)])
        for transmissivity, phase in zip(ts, phases):
            assert_bitwise_equal(
                beam_splitter_matrix(transmissivity, phase),
                reference_beam_splitter(transmissivity, phase),
            )

    @pytest.mark.parametrize("n_modes", range(2, 7))
    def test_embed_every_pair_in_both_orders(self, n_modes):
        rng = np.random.default_rng(n_modes)
        for a in range(n_modes):
            for b in range(n_modes):
                if a == b:
                    continue
                block = rng.normal(size=(4, 4))
                assert_bitwise_equal(_embed(block, n_modes, a, b), reference_embed(block, n_modes, a, b))
            block = phase_shift_matrix(rng.uniform(0, 2 * math.pi))
            assert_bitwise_equal(_embed(block, n_modes, a), reference_embed(block, n_modes, a))

    @pytest.mark.parametrize("n_modes", range(1, 7))
    def test_loss_channel(self, n_modes):
        rng = np.random.default_rng(20 + n_modes)
        for mode in range(n_modes):
            for eta in (0.0, 1.0, *rng.uniform(0.0, 1.0, 20)):
                transfer, noise = loss_channel(n_modes, mode, eta)
                ref_transfer, ref_noise = reference_loss_channel(n_modes, mode, eta)
                assert_bitwise_equal(transfer, ref_transfer)
                assert_bitwise_equal(noise, ref_noise)

    @pytest.mark.parametrize(
        "gain, message",
        [(0.5, "must be >= 1"), (math.nan, "must be >= 1"), (1e155, "square overflows")],
    )
    def test_squeezer_checks_its_gain_as_opa_params_does(self, gain, message):
        # 1e155**2 would raise OverflowError, not ValueError, were it squared unchecked.
        with pytest.raises(ValueError, match=message) as from_matrix:
            two_mode_squeezer_matrix(gain)
        with pytest.raises(ValueError) as from_params:
            OpaParams(gain)
        assert str(from_matrix.value) == str(from_params.value)

    def test_embed_of_every_mode_in_order_is_the_block_itself(self):
        block = two_mode_squeezer_matrix(2.0, 0.3)
        assert _embed(block, 2, 0, 1) is block
        assert _embed(block, 2, 1, 0) is not block
        assert _embed(block, 3, 0, 1) is not block

    def test_embed_and_loss_still_check_their_modes(self):
        with pytest.raises(ValueError, match="out of range"):
            _embed(np.eye(4), 2, 0, 2)
        with pytest.raises(ValueError, match="distinct"):
            _embed(np.eye(4), 3, 1, 1)
        with pytest.raises(ValueError, match="out of range"):
            loss_channel(2, 2, 0.5)


class TestCompiledPipeline:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pipelines(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n_modes, elements = random_pipeline(rng, with_displacement=bool(rng.integers(2)))
            # Displacements between the other elements, not only at the start.
            for _ in range(int(rng.integers(0, 3))):
                at = int(rng.integers(len(elements) + 1))
                mode = int(rng.integers(n_modes))
                elements.insert(at, Displace(mode, float(rng.normal(0, 5)), float(rng.normal(0, 5))))
            for actual, expected in zip(compile_pipeline(n_modes, elements), reference_compile(n_modes, elements)):
                assert_bitwise_equal(actual, expected)

    def test_homodyne_variance_reads_the_same_block(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_modes, elements = random_pipeline(rng, with_displacement=True)
            state = apply_pipeline(vacuum_state(n_modes), elements)
            for mode in range(n_modes):
                theta = float(rng.uniform(0, 2 * math.pi))
                cs = np.array([math.cos(theta), math.sin(theta)])
                idx = list(xy_indices(mode))
                expected = float(cs @ state.cov[np.ix_(idx, idx)] @ cs)
                assert homodyne_stats(state, mode, theta)[1] == expected

    def test_pipeline_without_displacement_has_no_shift_columns(self):
        _, _, shifts = compile_pipeline(2, [Loss(0, 0.5), TwoModeSqueeze(0, 1, 2.0, 0.0)])
        assert shifts.shape == (4, 0)


class TestElementCache:
    ELEMENTS = [
        TwoModeSqueeze(0, 1, 2.0, 0.4),
        Splitter(0, 2, 0.5, math.pi),
        PhaseShift(1, 0.7),
        Loss(0, 0.6),
    ]

    @pytest.mark.parametrize("element", ELEMENTS, ids=lambda e: type(e).__name__)
    def test_arrays_are_read_only(self, element):
        for part in _element_channel(3, element):
            if isinstance(part, np.ndarray):
                assert not part.flags.writeable
                with pytest.raises(ValueError):
                    part[0, 0] = 1.0

    @pytest.mark.parametrize(
        "n_modes, element",
        [(3, element) for element in ELEMENTS] + [(2, TwoModeSqueeze(0, 1, 2.0, 0.4))],
        ids=[f"3-{type(e).__name__}" for e in ELEMENTS] + ["2-TwoModeSqueeze"],
    )
    def test_cached_channel_is_the_uncached_one(self, n_modes, element):
        expected = _element_channel.__wrapped__(n_modes, element)
        for _ in range(2):  # the second call is a cache hit
            for actual, part in zip(_element_channel(n_modes, element), expected):
                if isinstance(part, np.ndarray):
                    assert_bitwise_equal(actual, part)
                else:
                    assert actual == part

    def test_cache_is_bounded(self):
        maxsize = _element_channel.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 256

    def test_signed_zero_pump_phases_give_equal_channels(self):
        # 0.0 == -0.0 and both hash alike, so they share one cache entry.
        _element_channel.cache_clear()
        negative, _ = _element_channel(2, TwoModeSqueeze(0, 1, 3.0, -0.0))
        positive, _ = _element_channel(2, TwoModeSqueeze(0, 1, 3.0, 0.0))
        assert np.array_equal(negative, positive)
        assert np.array_equal(positive, two_mode_squeezer_matrix(3.0, 0.0))
        assert np.array_equal(negative, two_mode_squeezer_matrix(3.0, -0.0))


class TestSymplecticForm:
    @pytest.mark.parametrize("n_modes", range(1, 7))
    def test_cached_and_read_only(self, n_modes):
        form = omega(n_modes)
        assert form is omega(n_modes)
        assert not form.flags.writeable
        assert not i_omega(n_modes).flags.writeable
        with pytest.raises(ValueError):
            form[0, 1] = 2.0
        assert_bitwise_equal(i_omega(n_modes), 1j * form)

    def test_block_diagonal_layout(self):
        expected = np.zeros((6, 6))
        for m in range(3):
            expected[2 * m, 2 * m + 1], expected[2 * m + 1, 2 * m] = 1.0, -1.0
        assert_bitwise_equal(omega(3), expected)


class TestStateValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["mean", "cov-diagonal", "cov-off-diagonal"])
    def test_non_finite_moments_rejected(self, bad, where):
        mean, cov = np.zeros(4), np.eye(4)
        if where == "mean":
            mean[2] = bad
        elif where == "cov-diagonal":
            cov[1, 1] = bad
        else:
            cov[0, 3] = cov[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianState(2, mean, cov)

    def test_non_finite_entry_among_huge_finite_ones_rejected(self):
        mean = np.full(4, 1.5e308)
        mean[3] = math.nan
        with pytest.raises(ValueError, match="finite"):
            GaussianState(2, mean, np.eye(4))

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        # Each entry is finite; a finiteness test through a sum would see inf.
        mean = np.array([1.5e308, 1.5e308, -1.5e308, 1.5e308, 1.5e308, 0.0])
        cov = 5e307 * np.eye(6)
        state = GaussianState(3, mean, cov)
        assert np.array_equal(state.mean, mean)
        assert np.array_equal(state.cov, cov)

    def test_covariance_that_overflows_when_symmetrised_rejected(self):
        # 0.5 * (cov + cov.T) is inf here; such a state once stored that inf.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            GaussianState(1, np.zeros(2), np.diag([1e308, 1e308]))

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(4)
        cov[0, 2], cov[2, 0] = 0.3, 0.3 + 1e-9
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(2, np.zeros(4), cov)

    def test_rounding_level_asymmetry_is_symmetrised(self):
        cov = np.eye(4) * 3.0
        cov[0, 2], cov[2, 0] = 0.5, 0.5 + 1e-15
        state = GaussianState(2, np.zeros(4), cov)
        assert np.array_equal(state.cov, state.cov.T)
        assert state.cov[0, 2] == 0.5 * (0.5 + (0.5 + 1e-15))

    @pytest.mark.parametrize(
        "cov",
        [
            np.diag([0.5, 0.5]),  # positive definite, below the vacuum
            np.diag([4.0, 0.2]),  # squeezed past the uncertainty bound
            np.array([[1.0, 0.5], [0.5, 1.0]]),
        ],
        ids=["sub-vacuum", "over-squeezed", "correlated-sub-vacuum"],
    )
    def test_unphysical_covariance_rejected(self, cov):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(1, np.zeros(2), cov)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="mean must have shape"):
            GaussianState(2, np.zeros(3), np.eye(4))
        with pytest.raises(ValueError, match="cov must have shape"):
            GaussianState(2, np.zeros(4), np.eye(3))

    def test_stored_moments_are_c_ordered_copies(self):
        mean, cov = np.zeros(4), np.asfortranarray(2.0 * np.eye(4))
        state = GaussianState(2, mean, cov)
        mean[0], cov[0, 0] = 7.0, 7.0
        assert state.mean[0] == 0.0 and state.cov[0, 0] == 2.0
        assert state.cov.flags.c_contiguous
