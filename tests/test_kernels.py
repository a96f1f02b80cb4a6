"""The small-matrix kernels against the plain numpy constructions they replace.

Each reference below builds its matrix the straightforward way (``np.block``,
``np.ix_``, ``np.column_stack``); the kernels must reproduce it bit for bit,
not merely to rounding, so that no SNR, spectrum or verify figure moves.
"""

import math
import sys
import threading

import numpy as np
import pytest

from suisim.gaussian import (
    GaussianState,
    OpaParams,
    _embed,
    beam_splitter_matrix,
    homodyne_stats,
    i_omega,
    loss_channel,
    omega,
    phase_shift_matrix,
    two_mode_squeezer_matrix,
    xy_indices,
)
from suisim import schemes
from suisim.schemes import (
    Displace,
    Loss,
    PhaseShift,
    Splitter,
    TwoModeSqueeze,
    compile_pipeline,
    vacuum_output,
)
from suisim.verify import random_pipeline


def reference_two_mode_squeezer(gain, pump_phase):
    g = math.sqrt(gain**2 - 1.0)
    c, s = math.cos(pump_phase), math.sin(pump_phase)
    a = gain * np.eye(2)
    b = g * np.array([[c, s], [s, -c]])
    return np.block([[a, b], [b, a]])


def reference_rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def reference_beam_splitter(transmissivity, phase):
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    eye = np.eye(2)
    return np.block(
        [
            [t * eye, r * reference_rotation(phase)],
            [-r * reference_rotation(-phase), t * eye],
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
            shift = np.zeros(dim)
            shift[2 * element.mode], shift[2 * element.mode + 1] = element.dx, element.dy
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
            m = reference_embed(reference_rotation(element.theta), n_modes, element.mode)
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

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_empty_and_displacement_only_pipelines(self, n_modes):
        # random_pipeline always has other elements; these fold nothing onto the identity channel.
        dim = 2 * n_modes
        rng = np.random.default_rng(n_modes)
        for count in range(5):
            modes = rng.integers(n_modes, size=count).tolist()
            # Signed zeros alternate in dy: each must reach its column as given.
            elements = [Displace(mode, float(rng.normal(0, 5)), -0.0 if k % 2 else 0.0) for k, mode in enumerate(modes)]
            channel = compile_pipeline(n_modes, elements)
            for actual, expected in zip(channel, reference_compile(n_modes, elements)):
                assert_bitwise_equal(actual, expected)
            # Column k is the k-th displacement on its mode, zero elsewhere.
            columns = np.zeros((dim, count))
            for k, element in enumerate(elements):
                columns[xy_indices(element.mode), k] = element.dx, element.dy
            for actual, expected in zip(channel, (np.eye(dim), np.zeros((dim, dim)), columns)):
                assert_bitwise_equal(actual, expected)

    def test_homodyne_variance_reads_the_same_block(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_modes, elements = random_pipeline(rng, with_displacement=True)
            state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
            for mode in range(n_modes):
                theta = float(rng.uniform(0, 2 * math.pi))
                cs = np.array([math.cos(theta), math.sin(theta)])
                idx = list(xy_indices(mode))
                expected = float(cs @ state.cov[np.ix_(idx, idx)] @ cs)
                assert homodyne_stats(state, mode, theta)[1] == expected

    def test_homodyne_grid_is_the_scalar_read_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n_modes, elements = random_pipeline(rng, with_displacement=True)
            state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
            angles = np.concatenate([np.arange(8) * math.pi / 4, rng.uniform(-10.0, 10.0, 8)])
            means, variances = homodyne_stats(state, np.arange(n_modes)[:, None], angles)
            assert means.shape == variances.shape == (n_modes, angles.size)
            for mode in range(n_modes):
                for j, theta in enumerate(angles.tolist()):
                    expected = np.array(homodyne_stats(state, mode, theta))
                    assert_bitwise_equal(np.array([means[mode, j], variances[mode, j]]), expected)
                    ix, iy = xy_indices(mode)
                    assert expected[0] == math.cos(theta) * state.mean[ix] + math.sin(theta) * state.mean[iy]
            # Paired arrays of one shape read pair by pair, modes in any order.
            modes = rng.integers(n_modes, size=5)
            paired = np.array(homodyne_stats(state, modes, angles[:5]))
            assert paired.shape == (2, 5)
            for j, (mode, theta) in enumerate(zip(modes.tolist(), angles[:5].tolist())):
                assert_bitwise_equal(paired[:, j], np.array(homodyne_stats(state, mode, theta)))

    def test_calls_sharing_a_prefix_are_independent(self):
        # compile_pipeline keeps nothing between calls; a memo put back in
        # front of the fold must pass this sequence of shared prefixes.
        rng = np.random.default_rng(11)
        first = [
            Displace(0, 1.5, -0.5),
            TwoModeSqueeze(0, 1, 2.0, 0.3),
            Loss(0, 0.7),
            Displace(1, 0.25, 2.0),
            TwoModeSqueeze(0, 1, 3.0, 1.1),
            Splitter(0, 2, 0.5, math.pi),
        ]
        changed = first[:2] + [Loss(0, 0.6)] + first[3:]
        # Pipelines that share a prefix with the one before, then random ones
        # and random cuts and edits of them.
        sequence = [
            (3, first),
            (3, changed),
            (3, changed[:4]),
            (3, changed[:4] + [PhaseShift(1, 0.9), Displace(2, -1.0, 0.5)]),
            (4, changed),
            (3, first),
            (2, [TwoModeSqueeze(0, 1, 3.0, 0.0)]),
            (2, [TwoModeSqueeze(0, 1, 3.0, -0.0)]),
        ]
        for _ in range(40):
            n_modes, elements = random_pipeline(rng, with_displacement=bool(rng.integers(2)))
            sequence.append((n_modes, elements))
            cut = int(rng.integers(len(elements) + 1))
            sequence.append((n_modes, elements[:cut] + [PhaseShift(int(rng.integers(n_modes)), 0.4)] + elements[cut:]))
            sequence.append((n_modes, elements[:cut]))
        results = [compile_pipeline(n_modes, elements) for n_modes, elements in sequence]
        # Checked after the whole sequence: no call changed what an earlier one returned.
        for (n_modes, elements), channel in zip(sequence, results):
            for actual, expected in zip(channel, reference_compile(n_modes, elements)):
                assert_bitwise_equal(actual, expected)

    def test_threads_compiling_shared_prefixes_get_their_own_channels(self):
        base = [
            Displace(0, 1.0, 0.5),
            TwoModeSqueeze(0, 1, 2.5, 0.2),
            Loss(0, 0.8),
            TwoModeSqueeze(0, 1, 4.0, 0.0),
            Splitter(0, 2, 0.5, math.pi),
        ]
        pipelines = [(3, base[:3] + [TwoModeSqueeze(0, 1, 4.0, 0.1 * k)] + base[4:]) for k in range(8)]
        pipelines += [(3, base[:k]) for k in range(1, 5)] + [(2, base[:4])]
        expected = [reference_compile(n_modes, elements) for n_modes, elements in pipelines]
        failures = []

        def work(offset):
            try:
                for i in range(200):
                    j = (i * (offset + 1)) % len(pipelines)
                    for actual, part in zip(compile_pipeline(*pipelines[j]), expected[j]):
                        if actual.tobytes() != part.tobytes():
                            failures.append(j)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    @pytest.mark.parametrize("mode", [-1, 2])
    def test_displacement_mode_is_checked(self, mode):
        with pytest.raises(ValueError, match="out of range"):
            compile_pipeline(2, [TwoModeSqueeze(0, 1, 2.0, 0.0), Displace(mode, 1.0, 0.0)])

    def test_pipeline_without_displacement_has_no_shift_columns(self):
        _, _, shifts = compile_pipeline(2, [Loss(0, 0.5), TwoModeSqueeze(0, 1, 2.0, 0.0)])
        assert shifts.shape == (4, 0)


@pytest.fixture
def built(monkeypatch):
    """The elements compile_pipeline builds a channel for, in order."""
    elements, build = [], schemes._element_channel

    def counted(n_modes, element):
        elements.append(element)
        return build(n_modes, element)

    monkeypatch.setattr(schemes, "_element_channel", counted)
    return elements


class TestPipelineMemo:
    """compile_pipeline keeps no memo: each call builds every element's
    channel.  Elements that compare equal must still give equal channels, so
    that a memo keyed by ``==`` would be sound."""

    @pytest.mark.parametrize("lead", [[], [Loss(0, 0.6)]], ids=["prefix", "position"])
    def test_signed_zero_pump_phases_share_a_channel(self, built, lead):
        positive, negative = TwoModeSqueeze(0, 1, 3.0, 0.0), TwoModeSqueeze(0, 1, 3.0, -0.0)
        assert positive == negative
        first = compile_pipeline(2, lead + [positive])
        built.clear()
        second = compile_pipeline(2, lead + [negative])
        assert built == lead + [negative]  # nothing is reused
        for actual, expected, reference in zip(second, first, reference_compile(2, lead + [negative])):
            assert np.array_equal(actual, expected)
            assert_bitwise_equal(actual, reference)


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


def reference_state_check(n_modes, mean, cov):
    """GaussianState's check with its finiteness test as ``np.isfinite(...).all()``:
    the stored ``(mean, cov)``, or the ValueError it raises."""
    mean = np.array(mean, dtype=float)
    cov = np.array(cov, dtype=float, order="C")
    d = 2 * n_modes
    if mean.shape != (d,):
        raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
    if cov.shape != (d, d):
        raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("state moments must be finite")
    cov_t = cov.T
    asym = np.abs(cov - cov_t).max()
    if asym > 1e-12:
        raise ValueError(f"covariance matrix is not symmetric (defect {asym:.3e})")
    cov = 0.5 * (cov + cov_t)
    scale = np.abs(cov).max()
    if scale == math.inf:
        raise ValueError("covariance entries overflow the float range when symmetrised")
    lowest = np.linalg.eigvalsh(cov + i_omega(n_modes))[0]
    if lowest < -1e-12 * max(1.0, scale):
        raise ValueError(
            "covariance matrix violates the uncertainty relation: cov + i omega is "
            f"not positive definite up to rounding (smallest eigenvalue {lowest:.3e})"
        )
    return mean, cov


def state_outcome(check, n_modes, mean, cov):
    """The stored moments' bits and layout, or the rejection message."""
    try:
        with np.errstate(over="ignore"):
            mean, cov = check(n_modes, mean, cov)
    except ValueError as exc:
        return str(exc)
    return mean.tobytes(), cov.tobytes(), mean.flags.c_contiguous, cov.flags.c_contiguous


def state_cases():
    """(n_modes, mean, cov): pure, mixed and near-boundary states, and each kind of rejection."""
    rng = np.random.default_rng(41)
    cases = []
    for k in range(120):
        n_modes, elements = random_pipeline(rng, with_loss=bool(k % 2), with_displacement=True)
        state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
        cases.append((n_modes, state.mean, state.cov))
        # Pure states at the edge of the uncertainty relation, either side of its tolerance.
        cases.append((n_modes, state.mean, state.cov * (1.0 - float(10 ** rng.uniform(-14, -9)))))
    for gain in (1.0, 3.0, 1e3, 1e6):
        s4 = two_mode_squeezer_matrix(gain, 0.7)
        cases += [(2, np.zeros(4), s4 @ s4.T), (2, np.zeros(4), s4 @ s4.T * (1.0 - 1e-12))]
    cases += [(1, np.zeros(2), 0.5 * np.eye(2)), (2, np.zeros(4), 0.5 * np.eye(4))]
    for bad in (math.nan, math.inf, -math.inf):
        for where in range(3):
            mean, cov = np.full(4, 1.5e308 if where == 0 else 0.0), np.eye(4)
            if where == 0:
                mean[3] = bad
            elif where == 1:
                cov[1, 1] = bad
            else:
                cov[0, 3] = cov[3, 0] = bad
            cases.append((2, mean, cov))
    asymmetric = np.eye(4)
    asymmetric[0, 2], asymmetric[2, 0] = 0.3, 0.3 + 1e-9
    rounding = 3.0 * np.eye(4)
    rounding[0, 2], rounding[2, 0] = 0.5, 0.5 + 1e-15
    cases += [(2, np.zeros(4), asymmetric), (2, np.zeros(4), rounding)]
    cases += [(1, np.zeros(2), np.diag([1e308, 1e308])), (3, np.full(6, 1.5e308), 5e307 * np.eye(6))]
    cases += [(2, np.zeros(4), np.asfortranarray(2.0 * np.eye(4))), (1, [0, 1], [[2, 0], [0, 2]])]
    cases += [(2, np.zeros(3), np.eye(4)), (2, np.zeros(4), np.eye(3))]
    return cases


def stored_moments(n_modes, mean, cov):
    state = GaussianState(n_modes, mean, cov)
    return state.mean, state.cov


def test_state_check_is_its_array_form_on_every_outcome():
    outcomes = set()
    for n_modes, mean, cov in state_cases():
        state = state_outcome(stored_moments, n_modes, mean, cov)
        assert state == state_outcome(reference_state_check, n_modes, mean, cov)
        outcomes.add(state.split(":")[0].split(" (")[0] if isinstance(state, str) else "accepted")
    assert outcomes == {
        "accepted",
        "covariance matrix violates the uncertainty relation",
        "state moments must be finite",
        "covariance matrix is not symmetric",
        "covariance entries overflow the float range when symmetrised",
        "mean must have shape",
        "cov must have shape",
    }
