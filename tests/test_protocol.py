import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_aircomp.analysis import mse_lower_bound
from irs_aircomp.channel import SystemConfig, make_geometry, sample_channels
from irs_aircomp import protocol
from irs_aircomp.numerics import RngStream, array_response
from irs_aircomp.protocol import (
    DegenerateChannelError,
    PhaseShiftVector,
    PowerSolution,
    channel_inversion_power_control,
    evaluate_mse,
    evaluate_mse_general,
    majority_vote,
    optimal_power_control,
    oracle_power_control,
    per_device_phases,
    phase_index_rows,
    power_control_rows,
    quantize_phase,
    receive_beamformer,
    vote_indices,
)

TWO_PI = 2 * np.pi


def gamma_instances():
    """Random power-control instances: K in 1..5, 4 decades of magnitude."""
    return st.lists(
        st.floats(1e-2, 1e2), min_size=1, max_size=5
    ).map(lambda mags: np.asarray(mags, dtype=float))


class TestReceiveBeamformer:
    def test_single_antenna(self):
        np.testing.assert_allclose(receive_beamformer(0.77, 1), [1.0])

    def test_broadside(self):
        np.testing.assert_allclose(receive_beamformer(0.0, 4), np.full(4, 0.5))

    def test_endfire_two(self):
        np.testing.assert_allclose(
            receive_beamformer(np.pi / 2, 2),
            np.array([1.0, -1.0]) / np.sqrt(2),
            atol=1e-12,
        )

    def test_unit_norm_and_full_combining_gain(self):
        for phi in (-1.2, 0.0, 0.4, 1.5):
            v = receive_beamformer(phi, 10)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
            gain = abs(np.vdot(v, array_response(10, phi, 0.5))) ** 2
            assert gain == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("spacing", [0.0, -0.5])
    def test_non_positive_spacing_rejected(self, spacing):
        # a zero spacing gave all ones, a negative one the mirrored vector
        with pytest.raises(ValueError, match="spacing_ratio must be positive"):
            receive_beamformer(0.3, 4, spacing)


class TestQuantizePhase:
    def test_examples(self):
        assert quantize_phase(0.3 * np.pi, 2) == 0.0
        assert quantize_phase(0.6 * np.pi, 2) == np.pi
        assert quantize_phase(1.99 * np.pi, 2) == 0.0

    def test_ties_resolve_to_smaller_phase(self):
        assert quantize_phase(np.pi / 2, 2) == 0.0
        assert quantize_phase(3 * np.pi / 2, 2) == 0.0
        assert quantize_phase(np.pi / 4, 4) == 0.0
        # halfway between the top level and 2*pi: the smaller phase is 0
        assert quantize_phase(7 * np.pi / 4, 4) == 0.0
        assert quantize_phase(15 * np.pi / 8, 8) == 0.0
        assert quantize_phase(5 * np.pi / 3, 3) == 0.0

    def test_single_level(self):
        assert quantize_phase(2.9, 1) == 0.0

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            quantize_phase(theta, 2)

    @given(theta=st.floats(-50.0, 50.0), levels=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_result_in_set_and_within_half_step(self, theta, levels):
        q = quantize_phase(theta, levels)
        step = TWO_PI / levels
        k = q / step
        assert abs(k - round(k)) < 1e-9 and 0 <= q < TWO_PI
        wrapped = abs((theta - q) % TWO_PI)
        circ = min(wrapped, TWO_PI - wrapped)
        assert circ <= step / 2 + 1e-9


class TestPerDevicePhases:
    def test_already_aligned(self):
        psv = per_device_phases(0.4, 0.4, 8, 4)
        np.testing.assert_array_equal(psv.indices, 0)

    def test_single_element(self):
        psv = per_device_phases(0.9, -0.3, 1, 2)
        np.testing.assert_array_equal(psv.indices, [0])

    def test_unit_sin_difference(self):
        # sin(phi_t) - sin(nu) = 1 puts element 1 at pi exactly
        psv = per_device_phases(np.pi / 2, 0.0, 2, 2)
        np.testing.assert_allclose(psv.phases, [0.0, np.pi])

    def test_conjugates_steering_vectors_when_unquantized(self):
        N, phi_t, nu = 16, 0.3, -0.7
        psv = per_device_phases(phi_t, nu, N, 10**6)  # effectively continuous
        a_t = array_response(N, phi_t, 0.5)
        a_k = array_response(N, nu, 0.5)
        gain = abs(np.vdot(a_t, np.exp(1j * psv.phases) * a_k))
        assert gain == pytest.approx(N, rel=1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5, 1e308])
    def test_bad_spacing_ratio_rejected(self, bad):
        with pytest.raises(ValueError, match="spacing_ratio"):
            phase_index_rows(0.3, [0.1, -0.4], 4, 2, bad)
        with pytest.raises(ValueError, match="spacing_ratio"):
            per_device_phases(0.3, 0.1, 4, 4, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angles_rejected(self, bad):
        with pytest.raises(ValueError, match="phi_t"):
            per_device_phases(bad, 0.1, 4, 2)
        with pytest.raises(ValueError, match="nu"):
            per_device_phases(0.1, bad, 4, 2)
        with pytest.raises(ValueError, match="nu"):
            phase_index_rows(0.1, [0.2, bad], 4, 2)


def reference_indices(phi_t, nu, n_elements, levels, spacing_ratio=0.5):
    """Per-device loop of the two-step projection: continuous phase in [0, 2*pi),
    then the nearest level by circular distance with ties to the smaller phase."""
    rows = []
    for nu_k in nu:
        theta = np.mod(
            TWO_PI * spacing_ratio * np.arange(n_elements) * (np.sin(phi_t) - np.sin(nu_k)),
            TWO_PI,
        )
        x = np.mod(theta, TWO_PI) * (levels / TWO_PI)
        lo = np.floor(x).astype(np.int64)
        d = x - lo
        lo_idx, hi_idx = lo % levels, (lo + 1) % levels
        idx = np.where(d < 0.5, lo_idx, hi_idx)
        rows.append(np.where(d == 0.5, np.minimum(lo_idx, hi_idx), idx))
    return np.array(rows, dtype=np.int64).reshape(len(nu), n_elements)


def reference_vote(indices, levels):
    counts = np.zeros((levels, indices.shape[1]), dtype=np.int64)
    cols = np.arange(indices.shape[1])
    for row in indices:
        np.add.at(counts, (row, cols), 1)
    return counts.argmax(axis=0)


class TestPhaseKernel:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8, 16, 64])
    @pytest.mark.parametrize("n_elements", [1, 7, 512, 8192])
    def test_matches_per_device_reference(self, levels, n_elements):
        gen = np.random.default_rng(levels * 10_000 + n_elements)
        for K in (1, 3, 21):
            phi_t = float(gen.uniform(-np.pi / 2, np.pi / 2))
            nu = gen.uniform(-np.pi / 2, np.pi / 2, K)
            rows = phase_index_rows(phi_t, nu, n_elements, levels)
            expected = reference_indices(phi_t, nu, n_elements, levels)
            assert rows.dtype == np.int64 and rows.shape == (K, n_elements)
            np.testing.assert_array_equal(rows, expected)
            np.testing.assert_array_equal(vote_indices(rows, levels), reference_vote(rows, levels))
            psv = per_device_phases(phi_t, nu[-1], n_elements, levels)
            np.testing.assert_array_equal(psv.indices, expected[-1])

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8])
    def test_exact_ties(self, levels):
        # element m sits near a multiple of pi (nu = 0) or pi/2 (nu = +-pi/6):
        # exact ties at L = 1, 2 and 3, some between the top level and 0
        nu = [0.0, 0.0, np.pi / 6, -np.pi / 6, np.pi / 2]
        rows = phase_index_rows(np.pi / 2, nu, 64, levels)
        np.testing.assert_array_equal(rows, reference_indices(np.pi / 2, nu, 64, levels))
        np.testing.assert_array_equal(vote_indices(rows, levels), reference_vote(rows, levels))

    def test_tied_votes_go_to_smaller_phase(self):
        rows = np.array([[0, 3, 2, 1], [3, 0, 1, 2], [1, 1, 2, 2]])
        np.testing.assert_array_equal(vote_indices(rows[:2], 4), [0, 0, 1, 1])
        np.testing.assert_array_equal(vote_indices(rows, 4), [0, 0, 2, 2])

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8])
    def test_phase_at_two_pi_maps_to_zero(self, levels):
        assert np.mod(-1e-17, TWO_PI) == TWO_PI
        assert quantize_phase(-1e-17, levels) == 0.0
        # element 1's raw phase pi*(sin(0) - sin(1e-17)) is just below 0
        raw = TWO_PI * 0.5 * 1 * (np.sin(0.0) - np.sin(1e-17))
        assert raw < 0 and np.mod(raw, TWO_PI) == TWO_PI
        rows = phase_index_rows(0.0, [1e-17], 2, levels)
        np.testing.assert_array_equal(rows, [[0, 0]])
        np.testing.assert_array_equal(rows, reference_indices(0.0, [1e-17], 2, levels))

    def test_row_blocks_do_not_change_rows(self):
        # K*N spans several row blocks; each row equals its one-row kernel call
        gen = np.random.default_rng(5)
        nu = gen.uniform(-np.pi / 2, np.pi / 2, 9)
        rows = phase_index_rows(0.4, nu, 4096, 3)
        for k, nu_k in enumerate(nu):
            np.testing.assert_array_equal(rows[k], phase_index_rows(0.4, [nu_k], 4096, 3)[0])


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64), np.ascontiguousarray(expected).view(np.uint64)
    )


def ulp_neighbours(x, steps):
    """x and its neighbours up to ``steps`` ulps away on either side."""
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


# Multiples of 2*pi up to 2**26 turns, the range of the inputs built around them.
PHASE_RANGE = 2**26 * TWO_PI


def assert_within_doubt(steps, diff, levels):
    """The kernel's level coordinate L*frac(t) lies within delta of the reference's x, modulo L.

    t = fl(fl(steps * fl(1/(2*pi))) * d) in turns and x = fl(np.mod(theta,
    2*pi) * fl(L/(2*pi))) from theta = fl(steps * d), as
    :func:`~irs_aircomp.protocol.phase_index_rows` derives; each element
    is held to its own bound delta(L, |t|), which is at most the call's.
    Returns the largest error over delta.
    """
    diff = np.asarray(diff, dtype=float)[:, None]
    t = steps * (1.0 / TWO_PI) * diff
    y = levels * (t - np.floor(t))
    x = np.mod(steps * diff, TWO_PI) * (levels / TWO_PI)
    err = y - x
    err = np.abs(err - levels * np.rint(err / levels))
    worst = float((err / protocol._doubt(levels, np.abs(t))).max(initial=0.0))
    assert worst <= 1.0
    return worst


class TestModTwoPi:
    """The turn kernel gives the levels of the np.mod quantizer, np.mod's remainder and all.

    Each input magnitude u is a kernel step in a row of either sign, so
    the kernel sees theta = +u and -u.  At every finite u the level
    coordinate of each, in turns, lies within delta of the reference's.
    """

    LEVELS = (2, 3, 4, 8)

    @classmethod
    def assert_matches(cls, x):
        # ascending, as the kernel reads its largest step from the end
        steps = np.unique(np.abs(x))
        signs = np.array([1.0, -1.0])
        with np.errstate(invalid="ignore"):
            for levels in cls.LEVELS:
                got = protocol._index_rows(steps, signs, levels)
                want = protocol._quantize_indices(steps * signs[:, None], levels)
                np.testing.assert_array_equal(got, want)
                assert_within_doubt(steps[np.isfinite(steps)], signs, levels)

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e3, 1e6, 4e8])
    def test_random_scales(self, scale):
        self.assert_matches(
            np.random.default_rng(int(np.log10(scale)) + 400).uniform(-scale, scale, 10**5)
        )

    def test_multiples_of_two_pi_and_ulp_neighbours(self):
        # quotients near an integer, where a rounded-up quotient needs the fix-up
        k = np.arange(-300_000, 300_001, dtype=float)
        big = np.random.default_rng(1).integers(-(2**26), 2**26, 10**5).astype(float)
        for multiples in (k * TWO_PI, big * TWO_PI):
            x = ulp_neighbours(multiples, 4)
            self.assert_matches(x[np.abs(x) < PHASE_RANGE])

    @classmethod
    def special_values(cls):
        """Signed zeros, subnormals, half and whole turns, the range guard of each level
        count and an ulp either side of it, and values far past it or not finite."""
        limits = [
            TWO_PI * (protocol._MAX_DELTA / (4.0 * np.finfo(float).eps * levels) - 1.0)
            for levels in cls.LEVELS
        ]
        guards = ulp_neighbours(np.array(limits), 1)
        return np.concatenate(
            [[0.0, -0.0, -1e-17, 1e-17, 5e-324, -5e-324, 2.2250738585072014e-308,
              -2.2250738585072014e-308, np.pi, -np.pi, TWO_PI, -TWO_PI],
             guards, -guards, [PHASE_RANGE, -PHASE_RANGE, 1e300, -1e300, np.inf, np.nan]]
        )

    def test_special_values_and_guard(self):
        x = self.special_values()
        self.assert_matches(x)
        for value in x:  # alone, so the guard sees each value by itself
            self.assert_matches(np.array([value]))
        assert quantize_phase(1e300, 4) == quantize_phase(float(np.mod(1e300, TWO_PI)), 4)

    def test_kernel_phase_sets(self):
        gen = np.random.default_rng(17)
        steps = TWO_PI * 0.5 * np.arange(8192)
        for _ in range(20):
            diff = np.sin(gen.uniform(-np.pi / 2, np.pi / 2)) - np.sin(
                gen.uniform(-np.pi / 2, np.pi / 2, 21)
            )
            theta = steps * diff[:, None]
            for levels in self.LEVELS:
                np.testing.assert_array_equal(
                    protocol._index_rows(steps, diff, levels),
                    protocol._quantize_indices(theta, levels),
                )
            self.assert_matches(theta)

    def test_phase_kernel_runs_no_np_mod(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.mod called on the phase kernel's hot path")

        expected = phase_index_rows(0.3, [-1.2, 0.4, 1.5], 8192, 2)
        monkeypatch.setattr(protocol.np, "mod", refuse)
        np.testing.assert_array_equal(phase_index_rows(0.3, [-1.2, 0.4, 1.5], 8192, 2), expected)


def level_steps(levels):
    """The remainders r at which the reference level of +r and of -r steps.

    One array per row sign, each holding the last r of every lower side,
    found by scanning 64 ulps either side of the step's estimate with
    ``_quantize_indices`` itself.
    """
    edge = (np.arange(1, levels + 1) - 0.5) / (levels / TWO_PI)
    steps = []
    for sign, guess in ((1.0, edge), (-1.0, TWO_PI - edge)):
        r = np.sort(ulp_neighbours(guess[None, :], 64), axis=0)  # (129, levels)
        level = protocol._quantize_indices(sign * r, levels)
        changes = level[1:] != level[:-1]
        assert (changes.sum(axis=0) == 1).all()
        steps.append(r[changes.argmax(axis=0), np.arange(levels)])
    return steps


def count_mod_calls(monkeypatch):
    """Count the calls of np.mod from here on; returns the growing list of calls."""
    calls, mod = [], np.mod

    def counting_mod(*args, **kwargs):
        calls.append(1)
        return mod(*args, **kwargs)

    monkeypatch.setattr(protocol.np, "mod", counting_mod)
    return calls


class TestBreakpointKernel:
    """The threshold kernel equals the reference quantizer ``_quantize_indices`` bit for bit.

    A breakpoint is a remainder at which the reference level steps.
    """

    @staticmethod
    def assert_kernel_matches(steps, diff, levels):
        steps = np.sort(steps)  # the kernel reads its largest step from the end
        got = protocol._index_rows(steps, np.asarray(diff, dtype=float), levels)
        want = protocol._quantize_indices(steps * np.asarray(diff, dtype=float)[:, None], levels)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("levels", range(2, protocol._COUNT_LEVELS + 1))
    def test_every_breakpoint_and_64_ulps_around_it(self, levels):
        for remainders in level_steps(levels):
            r = ulp_neighbours(remainders, 64)
            # rows of either sign see theta = +r and -r exactly
            self.assert_kernel_matches(r, [1.0, -1.0], levels)

    @pytest.mark.parametrize("levels", [2, 3, 4, 8, protocol._COUNT_LEVELS])
    def test_breakpoints_step_the_reference_level(self, levels):
        for sign, remainders in zip((1.0, -1.0), level_steps(levels)):
            at = protocol._quantize_indices(sign * remainders, levels)
            above = protocol._quantize_indices(sign * np.nextafter(remainders, np.inf), levels)
            assert (at != above).all()

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("spacing", [0.37, 0.5, 1.0])
    def test_negative_raw_remainders_and_both_row_signs(self, levels, spacing):
        # theta = 2*pi*s*m*d lands within an ulp of a multiple of 2*pi for
        # d = +-2 (s = 0.5) and d = +-1 (s = 1), where a rounded-up
        # quotient leaves a negative Cody-Waite remainder
        nu = [-np.pi / 2, np.pi / 2, 0.0, np.pi / 6, -np.pi / 6, 1.2, -0.3]
        for phi_t in (np.pi / 2, -np.pi / 2, 0.0, 0.7):
            rows = phase_index_rows(phi_t, nu, 8192, levels, spacing)
            steps = TWO_PI * spacing * np.arange(8192)
            theta = steps * (np.sin(phi_t) - np.sin(np.asarray(nu)))[:, None]
            np.testing.assert_array_equal(rows, protocol._quantize_indices(theta, levels))
            np.testing.assert_array_equal(
                rows, reference_indices(phi_t, nu, 8192, levels, spacing)
            )
        if spacing in (0.5, 1.0):
            # the row d = 1/s: nu = -pi/2 at s = 0.5, nu = 0 at s = 1 (phi_t = pi/2);
            # np.mod's remainder lands just above 0 and just below 2*pi
            theta = TWO_PI * spacing * np.arange(8192) * (1.0 / spacing)
            rho = np.mod(theta, TWO_PI)
            assert (rho > TWO_PI / 2).any() and ((rho > 0.0) & (rho < 1e-9)).any()

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8])
    def test_negative_remainders_next_to_multiples_of_two_pi(self, levels):
        k = np.random.default_rng(levels).integers(1, 2**26, 4000).astype(float)
        steps = ulp_neighbours(k * TWO_PI, 3)
        steps = steps[steps < PHASE_RANGE]
        assert (np.mod(steps, TWO_PI) > TWO_PI / 2).sum() > 100  # just below a multiple
        self.assert_kernel_matches(steps, [1.0, -1.0], levels)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8])
    def test_reduce_limit_fallback(self, levels, monkeypatch):
        # s*(N-1)*|d|, about 1.3e15 turns, puts delta past _MAX_DELTA at every L:
        # the reference path runs, np.mod and all
        nu = [-1.0, 0.2, 1.4]
        expected = reference_indices(0.3, nu, 64, levels, 2.0**44)
        calls = count_mod_calls(monkeypatch)
        rows = phase_index_rows(0.3, nu, 64, levels, 2.0**44)
        assert calls
        np.testing.assert_array_equal(rows, expected)

    @pytest.mark.parametrize(
        "levels",
        sorted({10, 11, protocol._COUNT_LEVELS, protocol._COUNT_LEVELS + 1, 16, 64, 10**6}),
    )
    def test_no_table_above_the_level_cap(self, levels, monkeypatch):
        # the fast path serves every level count, on both sides of the vote's cap, with no np.mod
        nu = np.array([-1.2, -0.3, 0.4, 1.5])
        steps = TWO_PI * 0.5 * np.arange(4096)
        want = protocol._quantize_indices(steps * (np.sin(0.3) - np.sin(nu))[:, None], levels)
        calls = count_mod_calls(monkeypatch)
        np.testing.assert_array_equal(phase_index_rows(0.3, nu, 4096, levels), want)
        assert not calls


def count_fallbacks(monkeypatch):
    """Count the kernel's calls of the reference quantizer from here on; returns the growing list."""
    calls, reference = [], protocol._quantize_indices

    def counting(theta, levels):
        calls.append(theta.size)
        return reference(theta, levels)

    monkeypatch.setattr(protocol, "_quantize_indices", counting)
    return calls


class TestTurnKernel:
    """delta bounds the kernel's error, and the reference runs only where delta leaves doubt."""

    @pytest.mark.parametrize("levels", [2, 3, 4, 8, 16, 64])
    def test_level_error_within_doubt(self, levels):
        # 2 x 5 x 21 x 8192 elements at N = 8192, and more at N = 7 and 512
        gen = np.random.default_rng(levels + 900)
        worst = 0.0
        for spacing in (0.5, 2.3):
            for n, geometries in ((7, 2), (512, 2), (8192, 5)):
                steps = TWO_PI * spacing * np.arange(n)
                for _ in range(geometries):
                    diff = np.sin(gen.uniform(-np.pi / 2, np.pi / 2)) - np.sin(
                        gen.uniform(-np.pi / 2, np.pi / 2, 21)
                    )
                    worst = max(worst, assert_within_doubt(steps, diff, levels))
        assert worst > 0.0

    @pytest.mark.parametrize("levels", [2, 4, 16])
    def test_no_fallback_on_random_geometries_at_benchmark_sizes(self, levels, monkeypatch):
        # the sweeps' 64 stacked geometries of K = 20 at N = 512, and the
        # scaling recipe's K = 21 at N = 512, 2048 and 8192
        gen = np.random.default_rng(levels)
        calls = count_fallbacks(monkeypatch)
        for geometries, K, n in ((64, 20, 512), (8, 21, 512), (8, 21, 2048), (8, 21, 8192)):
            phi_t = gen.uniform(-np.pi / 2, np.pi / 2, geometries)
            nu = gen.uniform(-np.pi / 2, np.pi / 2, (geometries, K))
            protocol._phase_rows(phi_t, nu, n, levels, 0.5)
        assert calls == []

    @pytest.mark.parametrize("levels", range(2, protocol._COUNT_LEVELS + 1))
    def test_breakpoints_fall_back(self, levels, monkeypatch):
        inputs = [np.sort(ulp_neighbours(r, 64)) for r in level_steps(levels)]
        calls = count_fallbacks(monkeypatch)
        for steps in inputs:
            protocol._index_rows(steps, np.array([1.0, -1.0]), levels)
        assert len(calls) == len(inputs)

    def test_special_values_fall_back(self, monkeypatch):
        # not finite, past the range guard, or pi on a half-level at L = 3
        steps = np.unique(np.abs(TestModTwoPi.special_values()))
        calls = count_fallbacks(monkeypatch)
        with np.errstate(invalid="ignore"):
            for levels in TestModTwoPi.LEVELS:
                protocol._index_rows(steps, np.array([1.0, -1.0]), levels)
                assert calls
                calls.clear()
                for value in ([np.pi], [1e300], [np.inf], [np.nan]):
                    protocol._index_rows(np.array(value), np.array([1.0, -1.0]), levels)
                    assert len(calls) == (value != [np.pi] or levels == 3)
                    calls.clear()

    def test_multiples_of_two_pi_are_decided_fast(self, monkeypatch):
        # in turns a multiple of 2*pi is a level centre, far from every half-level
        k = np.arange(-300_000, 300_001, dtype=float)
        steps = np.unique(np.abs(ulp_neighbours(k * TWO_PI, 4)))
        calls = count_fallbacks(monkeypatch)
        for levels in TestModTwoPi.LEVELS:
            protocol._index_rows(steps, np.array([1.0, -1.0]), levels)
        assert calls == []


class TestCountVote:
    @staticmethod
    def bincount_vote(indices, levels):
        n = indices.shape[1]
        counts = np.bincount((indices + levels * np.arange(n)).ravel(), minlength=levels * n)
        return counts.reshape(n, levels).argmax(axis=1)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8, 16, 17, 64])
    @pytest.mark.parametrize("K", [1, 2, 4, 6, 300])
    def test_matches_bincount_vote_with_ties(self, levels, K):
        # few devices and levels make many exact ties, 300 devices a wider tally;
        # 17 and 64 levels are above the cap, where the sort vote runs
        indices = np.random.default_rng(K * 10 + levels).integers(0, levels, (K, 4000))
        vote = vote_indices(indices, levels)
        assert vote.dtype == np.int64
        np.testing.assert_array_equal(vote, self.bincount_vote(indices, levels))

    @pytest.mark.parametrize("K", [1, 3, 20])
    def test_million_levels_match_a_counter_vote(self, K):
        # a few large levels per column make pluralities and ties far from 0
        gen = np.random.default_rng(K)
        pool = gen.integers(0, 10**6, 6)
        indices = pool[gen.integers(0, 6, (K, 2000))]
        indices[:, :1000] = gen.integers(0, 10**6, (K, 1000))  # mostly one vote per level
        want = []
        for column in indices.T.tolist():
            counts = collections.Counter(column)
            want.append(min(counts, key=lambda level: (-counts[level], level)))
        np.testing.assert_array_equal(vote_indices(indices, 10**6), want)


    @pytest.mark.parametrize("levels", [2, 4, 17])
    def test_stack_votes_each_matrix_alone(self, levels):
        # a (B, K, N) stack votes along its device axis; 17 levels take the sort vote
        indices = np.random.default_rng(levels).integers(0, levels, (6, 5, 300))
        vote = vote_indices(indices, levels)
        assert vote.shape == (6, 300) and vote.dtype == np.int64
        for matrix, row in zip(indices, vote):
            np.testing.assert_array_equal(row, vote_indices(matrix, levels))


class TestPhasors:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5, 8, 16])
    def test_table_rows_match_the_complex_formula(self, levels):
        gen = np.random.default_rng(levels)
        for n in (1, 7, 512, 8192):
            theta = PhaseShiftVector(gen.integers(0, levels, n), levels)
            assert_same_bits(theta.phasors.view(float), np.exp(1j * theta.phases).view(float))

    def test_reflection_row_matches_the_complex_formula(self):
        from irs_aircomp.channel import _reflections

        system = SystemConfig(N=1024, L=4)
        for seed in range(5):
            geo = make_geometry(system, RngStream(seed, 0))
            theta = PhaseShiftVector(np.random.default_rng(seed).integers(0, 4, 1024), 4)
            v = receive_beamformer(geo.phi_r, system.M)
            a_m = array_response(system.M, geo.phi_r, geo.spacing_ratio)

            def factors(*thetas):
                phasors = np.array([t.phasors for t in thetas])[None]
                gain, rows = _reflections(
                    geo.rho_1, a_m[None], v[None], [geo.phi_t], geo.spacing_ratio, phasors
                )
                return gain[0], rows[0]

            gain, (row,) = factors(theta)
            a_n = array_response(1024, geo.phi_t, geo.spacing_ratio)
            assert_same_bits(row.view(float), (a_n.conj() * np.exp(1j * theta.phases)).view(float))
            want_gain = np.sqrt(geo.rho_1) * np.vdot(v, a_m)
            assert_same_bits(np.array([gain]).view(float), np.array([want_gain]).view(float))
            # one call for two phase vectors: the same gain, and each vector's own row
            zero = PhaseShiftVector.zero(1024, 4)
            both_gain, rows = factors(theta, zero)
            zero_gain, (zero_row,) = factors(zero)
            assert len(rows) == 2
            for other in (both_gain, zero_gain):
                assert_same_bits(np.array([other]).view(float), np.array([gain]).view(float))
            assert_same_bits(rows[0].view(float), row.view(float))
            assert_same_bits(rows[1].view(float), zero_row.view(float))


class TestMajorityVote:
    def test_strict_majority(self):
        votes = [PhaseShiftVector(np.array([i]), 2) for i in (0, 0, 1)]
        assert majority_vote(votes).indices[0] == 0

    def test_unanimous(self):
        psv = per_device_phases(0.5, -0.5, 8, 2)
        voted = majority_vote([psv, psv, psv])
        np.testing.assert_array_equal(voted.indices, psv.indices)

    def test_tie_breaks_to_smaller_phase(self):
        votes = [PhaseShiftVector(np.array([0]), 2), PhaseShiftVector(np.array([1]), 2)]
        assert majority_vote(votes).indices[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            majority_vote(
                [PhaseShiftVector(np.zeros(3, int), 2), PhaseShiftVector(np.zeros(4, int), 2)]
            )


@pytest.mark.parametrize("count", [2.5, 2.0, np.float64(3.0), True, "2"], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda count: phase_index_rows(0.3, [0.1, 0.2], count, 2), "n_elements"),
        (lambda count: phase_index_rows(0.3, [0.1, 0.2], 4, count), "levels"),
        (lambda count: PhaseShiftVector([0, 1, 0], levels=count), "levels"),
        (lambda count: array_response(count, 0.3), "n_elems"),
        (lambda count: receive_beamformer(0.3, count), "M"),
        (lambda count: vote_indices(np.zeros((3, 4), dtype=np.int64), count), "levels"),
        (lambda count: quantize_phase(1.0, count), "levels"),
    ],
    ids=["phase_rows-n", "phase_rows-levels", "phase_vector", "array_response",
         "beamformer", "vote", "quantize"],
)
def test_non_integer_counts_rejected(call, name, count):
    # a count that is not an integer (a bool is not one) is named, not used as
    # a float grid or passed on to numpy
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
        call(count)


class TestOptimalPowerControl:
    def test_single_device(self):
        sol = optimal_power_control([1.0], 1.0, 1.0)
        assert sol.eta == pytest.approx(4.0, rel=1e-14)
        assert sol.powers[0] == 1.0
        assert sol.critical_number == 1
        assert sol.mse == pytest.approx(0.5, rel=1e-14)

    def test_two_devices_noise_free(self):
        sol = optimal_power_control([1.0, 2.0], 1.0, 0.0)
        assert sol.eta == pytest.approx(1.0, rel=1e-14)
        assert sol.critical_number == 1
        np.testing.assert_allclose(sol.powers, [1.0, 0.25], rtol=1e-14)
        assert sol.mse == pytest.approx(0.0, abs=1e-15)

    def test_two_devices_tied_candidates(self):
        # both prefix candidates equal 4; smallest index wins, powers coincide
        sol = optimal_power_control([1.0, 2.0], 1.0, 1.0)
        assert sol.eta == pytest.approx(4.0, rel=1e-14)
        assert sol.critical_number == 1
        np.testing.assert_allclose(sol.powers, [1.0, 1.0], rtol=1e-14)
        assert sol.mse == pytest.approx(0.5, rel=1e-14)

    def test_zero_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            optimal_power_control([0.0, 1.0], 1.0, 1.0)

    def test_complex_phases_ignored(self):
        mags = np.array([0.5, 1.5, 3.0])
        phased = mags * np.exp(1j * np.array([0.3, -2.0, 1.1]))
        a = optimal_power_control(mags, 1.0, 0.7)
        b = optimal_power_control(phased, 1.0, 0.7)
        np.testing.assert_allclose(a.powers, b.powers, rtol=1e-14)
        assert a.mse == pytest.approx(b.mse, rel=1e-14)

    @given(gammas=gamma_instances(), sigma2=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_feasible_and_prefix_structure(self, gammas, sigma2):
        sol = optimal_power_control(gammas, 1.0, sigma2)
        assert np.all(sol.powers >= 0.0)
        assert np.all(sol.powers <= 1.0 + 1e-12)
        order = np.argsort(gammas**2, kind="stable")
        p_sorted = sol.powers[order]
        kt = sol.critical_number
        np.testing.assert_allclose(p_sorted[:kt], 1.0, rtol=1e-12)
        gs = gammas[order]
        np.testing.assert_allclose(
            p_sorted[kt:], sol.eta / gs[kt:] ** 2, rtol=1e-12
        )
        # the chosen denoising factor is the smallest prefix candidate
        amp = np.cumsum(gs)
        pw = sigma2 + np.cumsum(gs**2)
        assert np.all(sol.eta <= (pw / amp) ** 2 + 1e-9 * sol.eta)

    @given(gammas=gamma_instances(), sigma2=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, gammas, sigma2):
        perm = np.random.default_rng(len(gammas)).permutation(len(gammas))
        base = optimal_power_control(gammas, 1.0, sigma2)
        shuffled = optimal_power_control(gammas[perm], 1.0, sigma2)
        np.testing.assert_allclose(shuffled.powers, base.powers[perm], rtol=1e-12)
        assert shuffled.eta == pytest.approx(base.eta, rel=1e-12)
        assert shuffled.mse == pytest.approx(base.mse, rel=1e-10, abs=1e-15)

    @given(gammas=gamma_instances())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_power_budget(self, gammas):
        small = optimal_power_control(gammas, 1.0, 1.0)
        large = optimal_power_control(gammas, 2.0, 1.0)
        assert large.mse <= small.mse + 1e-12

    @given(gammas=gamma_instances(), sigma2=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_dominates_inversion_and_respects_floor(self, gammas, sigma2):
        opt = optimal_power_control(gammas, 1.0, sigma2)
        inv = channel_inversion_power_control(gammas, 1.0, sigma2)
        assert opt.mse <= inv.mse + 1e-12
        if sigma2 > 0:
            floor = mse_lower_bound(float(np.min(gammas**2)), 1.0, sigma2)
            assert opt.mse >= floor - 1e-12
            assert inv.mse >= floor - 1e-12


@pytest.mark.parametrize(
    "rule", [optimal_power_control, channel_inversion_power_control, oracle_power_control]
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_non_finite_gammas_rejected(rule, bad):
    with pytest.raises(ValueError, match="gammas must be finite") as info:
        rule([1.0, bad], 1.0, 0.1)
    assert not isinstance(info.value, DegenerateChannelError)


def loop_power_control(g, Pmax, sigma2, inversion):
    """One row at a time, in plain 1-D operations: the reference for the row kernel."""
    g = np.abs(g)
    g2 = g**2
    if inversion:
        weakest = int(np.argmin(g2))
        eta = Pmax * float(g2[weakest])
        powers = eta / g2
        powers[weakest] = Pmax
        return powers, eta, 1, sigma2 / eta
    order = np.argsort(g2, kind="stable")
    gs = g[order]
    eta_candidates = (
        (sigma2 + np.cumsum(Pmax * gs**2)) / np.cumsum(np.sqrt(Pmax) * gs)
    ) ** 2
    kt = int(np.argmin(eta_candidates))
    eta = float(eta_candidates[kt])
    powers = np.empty_like(g)
    powers[order] = np.where(np.arange(g.shape[0]) <= kt, Pmax, eta / gs**2)
    misalign = np.sqrt(powers) * g / math.sqrt(eta) - 1.0
    return powers, eta, kt + 1, math.fsum([*(misalign**2).tolist(), sigma2 / eta])


class TestPowerControlRows:
    @pytest.mark.parametrize("inversion", [False, True])
    def test_each_row_matches_loop_reference_exactly(self, inversion):
        rng = np.random.default_rng(5)
        gammas = 10.0 ** rng.uniform(-3.0, 3.0, (40, 7)) * np.exp(
            1j * rng.uniform(0.0, TWO_PI, (40, 7))
        )
        gammas[3] = gammas[3, 0]  # all-equal row: ties resolve by index
        single = channel_inversion_power_control if inversion else optimal_power_control
        powers, eta, kt, mse = power_control_rows(gammas, 0.3, 0.05, inversion=inversion)
        for i, row in enumerate(gammas):
            want_p, want_eta, want_kt, want_mse = loop_power_control(row, 0.3, 0.05, inversion)
            np.testing.assert_array_equal(powers[i], want_p)
            assert (eta[i], kt[i], mse[i]) == (want_eta, want_kt, want_mse)
            sol = single(row, 0.3, 0.05)
            np.testing.assert_array_equal(sol.powers, want_p)
            assert (sol.eta, sol.critical_number, sol.mse) == (want_eta, want_kt, want_mse)

    def test_rejects_one_dimensional_and_degenerate_rows(self):
        with pytest.raises(ValueError, match="2-D"):
            power_control_rows([1.0, 2.0], 1.0, 1.0)
        with pytest.raises(DegenerateChannelError):
            power_control_rows([[1.0, 2.0], [0.0, 1.0]], 1.0, 1.0)


@pytest.mark.parametrize("inversion", [False, True])
@pytest.mark.parametrize("gammas", [[1e-170, 1e170], [1e-170, 1.0], [1.0, 1e170]])
def test_squared_gain_outside_float_range_rejected(inversion, gammas):
    # |gamma|^2 underflows to 0 or overflows to inf although |gamma| is finite
    # and the ValueError is the only signal: no RuntimeWarning on the way; an
    # underflow leaves power control undefined, like a zero gamma
    single = channel_inversion_power_control if inversion else optimal_power_control
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="dynamic range") as info:
            single(gammas, 1.0, 0.0)
        underflow = min(gammas) ** 2 == 0.0
        assert isinstance(info.value, DegenerateChannelError) == underflow
        with pytest.raises(ValueError, match="dynamic range"):
            power_control_rows([[1.0, 2.0], gammas], 1.0, 0.0, inversion=inversion)


def test_squared_gain_range_edges():
    # the smallest and the largest |gamma| whose square is neither 0 nor inf
    # are accepted, and the next float outward of each is rejected
    smallest, largest = 1.5717277847026288e-162, 1.3407807929942596e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for edge in (smallest, largest):
            np.testing.assert_array_equal(protocol._gamma_magnitudes([edge, 1.0]), [edge, 1.0])
        for outside in (math.nextafter(smallest, 0.0), math.nextafter(largest, math.inf)):
            with pytest.raises(ValueError, match="dynamic range"):
                protocol._gamma_magnitudes([outside, 1.0])


class TestChannelInversion:
    def test_example(self):
        sol = channel_inversion_power_control([1.0, 2.0], 1.0, 1.0)
        assert sol.eta == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(sol.powers, [1.0, 0.25], rtol=1e-14)
        assert sol.mse == pytest.approx(1.0, rel=1e-14)
        assert sol.critical_number == 1

    def test_equal_channels_all_full_power(self):
        sol = channel_inversion_power_control([2.0, 2.0, 2.0], 0.5, 1.0)
        np.testing.assert_allclose(sol.powers, 0.5, rtol=1e-14)

    def test_noise_free(self):
        assert channel_inversion_power_control([1.0, 3.0], 1.0, 0.0).mse == 0.0

    def test_weakest_device_at_exact_peak(self):
        sol = channel_inversion_power_control([0.3, 1.7, 0.9], 0.25, 1.0)
        assert sol.powers[0] == 0.25

    def test_zero_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            channel_inversion_power_control([1.0, 0.0], 1.0, 1.0)


class TestEvaluateMse:
    def test_perfect_alignment_leaves_noise_only(self):
        g = np.array([0.5, 1.0, 2.0])
        eta = 0.2
        sol = PowerSolution(
            powers=eta / g**2, eta=eta, critical_number=0, mse=0.0
        )
        assert evaluate_mse(g, sol, 0.7) == pytest.approx(0.7 / eta, rel=1e-14)

    def test_silent_devices(self):
        g = np.array([1.0, 2.0, 3.0])
        sol = PowerSolution(
            powers=np.zeros(3), eta=2.0, critical_number=0, mse=0.0
        )
        assert evaluate_mse(g, sol, 1.0) == pytest.approx(3 + 0.5, rel=1e-14)

    def test_matches_optimal_solution_field(self):
        sol = optimal_power_control([1.0, 2.0], 1.0, 1.0)
        assert evaluate_mse([1.0, 2.0], sol, 1.0) == pytest.approx(0.5, rel=1e-14)


class TestEvaluateMseGeneral:
    def _setup(self, sigma2=0.4):
        cfg = SystemConfig(M=3, N=6, K=3, sigma2=sigma2, ref_loss_linear=1.0,
                           pathloss_exponent_reflected=0.0, pathloss_exponent_direct=0.0)
        geo = make_geometry(cfg, RngStream(31, 0))
        real = sample_channels(geo, cfg, RngStream(31, 1))
        v = receive_beamformer(geo.phi_r, 3)
        theta = PhaseShiftVector.zero(6, 2)
        return cfg, real, v, theta

    def test_silent_devices(self):
        cfg, real, v, theta = self._setup()
        out = evaluate_mse_general(v, theta, np.zeros(3, complex), 2.0, real, cfg.sigma2)
        assert out == pytest.approx(3 + cfg.sigma2 / 2.0, rel=1e-12)

    def test_unconstrained_inversion_cancels(self):
        from irs_aircomp.channel import effective_scalar_channel

        cfg, real, v, theta = self._setup(sigma2=0.0)
        gam = effective_scalar_channel(real, v, theta)
        eta = 1.7
        b = np.sqrt(eta) / gam
        assert evaluate_mse_general(v, theta, b, eta, real, 0.0) == pytest.approx(
            0.0, abs=1e-24
        )

    def test_phase_aligned_b_matches_scalar_form(self):
        from irs_aircomp.channel import effective_scalar_channel

        cfg, real, v, theta = self._setup()
        gam = effective_scalar_channel(real, v, theta)
        sol = optimal_power_control(gam, cfg.Pmax, cfg.sigma2)
        b = np.sqrt(sol.powers) * gam.conj() / np.abs(gam)
        general = evaluate_mse_general(v, theta, b, sol.eta, real, cfg.sigma2)
        assert general == pytest.approx(sol.mse, rel=1e-12)


class TestOracle:
    def test_single_device_matches_closed_form(self):
        orc = oracle_power_control([1.0], 1.0, 1.0)
        assert orc.eta == pytest.approx(4.0, rel=1e-6)
        assert orc.mse == pytest.approx(0.5, rel=1e-9)

    def test_noise_free_reaches_zero(self):
        orc = oracle_power_control([0.3, 1.0, 7.0], 1.0, 0.0)
        assert orc.mse == pytest.approx(0.0, abs=1e-20)

    @given(gammas=gamma_instances(), sigma2=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_never_beats_closed_form(self, gammas, sigma2):
        opt = optimal_power_control(gammas, 1.0, sigma2)
        orc = oracle_power_control(gammas, 1.0, sigma2)
        scale = max(opt.mse, orc.mse, 1e-12)
        assert opt.mse <= orc.mse + 1e-9 * scale
        assert abs(opt.mse - orc.mse) <= 1e-7 * scale


def test_static_beamformer_is_optimal_under_blocked_direct():
    # any other unit-norm combiner only scales every |gamma| down together
    cfg = SystemConfig(M=10, N=64, K=4, block_direct=True)
    geo = make_geometry(cfg, RngStream(41, 0))
    from irs_aircomp.channel import effective_scalar_channel
    from irs_aircomp.experiments import compute_long_term

    lt = compute_long_term(geo, cfg)
    gen = np.random.default_rng(5)
    for trial in range(3):
        real = sample_channels(geo, cfg, RngStream(41, trial + 1))
        best = optimal_power_control(
            effective_scalar_channel(real, lt.v, lt.theta_voted), cfg.Pmax, cfg.sigma2
        ).mse
        for _ in range(20):
            v = gen.standard_normal(10) + 1j * gen.standard_normal(10)
            v /= np.linalg.norm(v)
            mse_v = optimal_power_control(
                effective_scalar_channel(real, v, lt.theta_voted), cfg.Pmax, cfg.sigma2
            ).mse
            assert mse_v >= best - 1e-12
