import collections
import contextlib
import functools
import math
import typing
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
from phase_reference import count_vote, reference_levels
from power_reference import reference_power_rows
from steering_bound import projection_bound

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
    """The np.mod quantizer on each device's continuous phases 2*pi*s*m*(sin(phi_t) - sin(nu_k))."""
    diff = np.sin(phi_t) - np.sin(np.asarray(nu, dtype=float))
    theta = TWO_PI * spacing_ratio * np.arange(n_elements) * diff[:, None]
    return reference_levels(np.mod(theta, TWO_PI), levels).astype(np.int64)


class TestPhaseKernel:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8, 16, 64])
    @pytest.mark.parametrize("n_elements", [1, 2, 7, 64, 65, 512, 8192, 65536])
    def test_matches_per_device_reference(self, levels, n_elements):
        gen = np.random.default_rng(levels * 10_000 + n_elements)
        for K in (1, 3, 21):
            phi_t = float(gen.uniform(-np.pi / 2, np.pi / 2))
            nu = gen.uniform(-np.pi / 2, np.pi / 2, K)
            rows = phase_index_rows(phi_t, nu, n_elements, levels)
            expected = reference_indices(phi_t, nu, n_elements, levels)
            assert rows.dtype == np.int64 and rows.shape == (K, n_elements)
            np.testing.assert_array_equal(rows, expected)
            np.testing.assert_array_equal(vote_indices(rows, levels), count_vote(rows, levels))
            psv = per_device_phases(phi_t, nu[-1], n_elements, levels)
            np.testing.assert_array_equal(psv.indices, expected[-1])

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8])
    def test_exact_ties(self, levels):
        # element m sits near a multiple of pi (nu = 0) or pi/2 (nu = +-pi/6):
        # exact ties at L = 1, 2 and 3, some between the top level and 0
        nu = [0.0, 0.0, np.pi / 6, -np.pi / 6, np.pi / 2]
        rows = phase_index_rows(np.pi / 2, nu, 64, levels)
        np.testing.assert_array_equal(rows, reference_indices(np.pi / 2, nu, 64, levels))
        np.testing.assert_array_equal(vote_indices(rows, levels), count_vote(rows, levels))

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
LEVELS = (2, 3, 4, 8)


# Elements of one block of the checks below, so that their temporaries stay small.
CHUNK = 1 << 16


class KernelCall(typing.NamedTuple):
    slope: float  # theta = fl(fl(slope * m) * diff[k]) at element m < n
    n: int
    diff: np.ndarray
    levels: np.ndarray  # the kernel's output
    patched: list  # the theta arrays it handed to the reference quantizer


@contextlib.contextmanager
def recorded_fallbacks():
    """The theta arrays that the phase kernel hands to ``_quantize_indices`` meanwhile: one
    per call, of its near elements, or of every element in a whole-call fallback."""
    patched, reference = [], protocol._quantize_indices

    def recording(theta, levels):
        patched.append(theta)
        return reference(theta, levels)

    protocol._quantize_indices = recording
    try:
        yield patched
    finally:
        protocol._quantize_indices = reference


def run_kernel(slope, n, diff, levels):
    """``_index_rows`` on one call, and the thetas it handed to the reference quantizer."""
    with recorded_fallbacks() as patched, np.errstate(invalid="ignore"):
        return KernelCall(slope, n, diff, protocol._index_rows(slope, n, diff, levels), patched)


def patched_count(call):
    """Elements of ``call`` set by the reference quantizer."""
    return sum(theta.size for theta in call.patched)


EPS = float(np.finfo(float).eps)


def fixed_point(slope, n, diff):
    """The phase kernel's model of rows ``diff``: (Delta as int64, band).

    tau_k = fl(fl(slope * fl(1/(2*pi))) * d_k) are the turns per element
    and Delta_k = rint(2**32 * (tau_k - rint(tau_k))), so the phase of
    element m is q = m*Delta_k mod 2**32 in 2**-32 turn.  The band w =
    floor(band) bounds q's distance from 2**32 * x/L at every L, x the
    reference's level coordinate: Delta_k's rounding is at most 1/2, so
    m*Delta_k strays up to m/2 <= (n - 1)/2 from 2**32 * m * tau_k (m *
    rint(tau_k) being whole turns); m*tau_k has three roundings to the
    reference phase theta's two, at most 5u|tau_k m|(1 + 2u) turn with
    u = eps/2, and x/L is within 3u(1 + u) turn of theta/(2*pi).  So
    4*eps*(t_max + 1) turn with t_max = (n - 1)*max|tau_k| covers the
    float part, and 2 units cover the floor and the rounding of the
    bound.  The call is fast at L while band*L < 2**28 (:func:`fast`),
    which fails for a NaN or infinite input.
    """
    tau = (slope * (1.0 / TWO_PI)) * diff
    with np.errstate(invalid="ignore"):
        t_max = float((n - 1) * np.max(np.abs(tau), initial=0.0))
        band = (n - 1) / 2 + 2.0 + 2.0**32 * (4.0 * EPS * (t_max + 1.0))
        delta = np.rint((tau - np.rint(tau)) * 2.0**32) if fast(band, 1) else np.zeros_like(tau)
    return delta.astype(np.int64), band


def fast(band, levels):
    """Whether the kernel decides a call of this band at ``levels`` itself: w*L < 2**28."""
    return band * levels < protocol._GUARD


def quarter_distance(q):
    """How far phases q, in 2**-32 turn, lie from the nearest quarter or three-quarter turn."""
    q = np.mod(q, 2**32)
    return np.abs(np.minimum(q, 2**32 - q) - 2**30)


def assert_levels_match(runs, quantizer=False):
    """Every invariant on one call's kernel output at each level count, ``runs`` {L: call}.

    The levels equal the np.mod quantizer's bit for bit (``_quantize_indices``'
    own output where a phase is not finite), and with ``quantizer``
    ``_quantize_indices``' throughout.  With x = fl(np.mod(theta, 2*pi)
    * fl(L/(2*pi))) the reference's level coordinate, from theta =
    fl(fl(slope * m) * d), the kernel's fixed-point phase q
    (:func:`fixed_point`) lies within m/2 + 2**32 * 4*eps*(|t| + 1) of
    2**32 * x/L modulo 2**32 at element m, t = fl(fl(steps * fl(1/(2*pi)))
    * d) its turns, and at most the call's band w, at every level count.
    The kernel handed the reference, in one call and in order, exactly
    the near elements: at L = 2 those with q within w of a quarter turn,
    at any other L those with q*L within (w + 1)*L of a half-level
    2**32*(j + 1/2), in integers; or every element in one call when
    w*L reaches the guard or an input is not finite.

    The remainders are taken once for every level count.  Returns the
    largest error over its bound.
    """
    first, worst = next(iter(runs.values())), 0.0
    slope, n = first.slope, first.n
    steps = slope * np.arange(n)
    turns = steps * (1.0 / TWO_PI)
    fixed, band = fixed_point(slope, n, first.diff)
    near = {levels: ([np.empty(0, dtype=np.int64)], [np.empty(0)]) for levels in runs}
    height = max(1, CHUNK // n)
    for top in range(0, first.diff.size, height):
        rows, d = slice(top, top + height), first.diff[top : top + height, None]
        for start in range(0, n, CHUNK):
            columns = slice(start, start + CHUNK)
            with np.errstate(invalid="ignore"):
                theta = steps[columns] * d
                remainder, t = np.mod(theta, TWO_PI), turns[columns] * d
            finite, m = np.isfinite(theta), np.arange(n)[columns]
            q = np.mod(m * fixed[rows, None], 2**32)  # m*Delta below 2**47: exact in int64
            for levels, call in runs.items():
                want = reference_levels(remainder, levels)
                if not finite.all():
                    with np.errstate(invalid="ignore"):
                        want[~finite] = protocol._quantize_indices(theta[~finite], levels)
                got = call.levels[rows, columns]
                if not np.array_equal(got, want):
                    np.testing.assert_array_equal(got, want, err_msg=f"L = {levels}, rows {rows}")
                if quantizer:
                    with np.errstate(invalid="ignore"):
                        want = protocol._quantize_indices(theta, levels)
                    np.testing.assert_array_equal(got, want)
                if not fast(band, levels):  # a fast call's band bounds every |theta|
                    continue
                w = math.floor(band)
                # 2**32 * x/L, exactly 2**31 * x at L = 2
                err = np.abs(q - remainder * (levels / TWO_PI) * (2.0**32 / levels))
                err = np.minimum(err, 2.0**32 - err)
                ratio = err / (m / 2 + 2.0**32 * (4.0 * EPS * (np.abs(t) + 1.0)))
                worst = max(worst, float(ratio.max(initial=0.0)))
                if levels == 2:
                    close = quarter_distance(q) <= w
                else:
                    close = np.abs(np.mod(q * levels, 2**32) - 2**31) <= (w + 1) * levels
                r, c = np.nonzero(close)
                near[levels][0].append((top + r) * n + start + c)
                near[levels][1].append(theta[close])
    assert worst <= 1.0
    for levels, call in runs.items():
        if not fast(band, levels):
            assert len(call.patched) == 1 and patched_count(call) == call.levels.size
            continue
        at, theta = (np.concatenate(parts) for parts in near[levels])
        want = theta[np.argsort(at)]
        assert len(call.patched) == (want.size > 0)
        assert_same_bits(np.concatenate([np.empty(0), *call.patched]), want)
    return worst


def signed(x):
    """(slope, n, diff) of raw phases: each magnitude u of ``x`` is element 1 at slope 1 in a
    row of either sign, so the kernel sees theta = +u and -u."""
    u = np.unique(np.abs(x))
    return 1.0, 2, np.concatenate([u, -u])


@functools.cache
def input_set(name):
    """The (slope, n, diff) kernel calls of an input set, built once."""
    if name == "multiples":
        # next to a level centre in turns, and np.mod's remainder of a phase just below a
        # multiple just below 2*pi, where the reference wraps to level 0
        # (k in [-300000, 300000] and 10**5 random k below 2**26 in magnitude; the
        # magnitudes of the first set are those of k >= 0)
        k = np.arange(0, 300_001, dtype=float)
        big = np.random.default_rng(1).integers(-(2**26), 2**26, 10**5).astype(float)
        sets = [ulp_neighbours(multiples, 4) for multiples in (k * TWO_PI, big * TWO_PI)]
        return [signed(x[np.abs(x) < PHASE_RANGE]) for x in sets]
    if name == "special":
        # the whole set, then each value alone, so the guard sees it by itself
        x = TestModTwoPi.special_values()
        return [signed(x)] + [signed(np.array([value])) for value in np.unique(np.abs(x))]
    if name == "geometries":
        # 20 random geometries of K = 21 at N = 8192, the scaling recipe's largest N
        gen = np.random.default_rng(17)

        def angles(*size):
            return gen.uniform(-np.pi / 2, np.pi / 2, *size)

        return [(TWO_PI * 0.5, 8192, np.sin(angles()) - np.sin(angles(21))) for _ in range(20)]
    levels = int(name.removeprefix("level-steps-"))  # rows of either sign see theta = +r and -r
    remainders = level_steps(levels)
    calls = [signed(ulp_neighbours(r, 64)) for r in remainders]
    if levels == 2:
        # rows at slopes other than 1 round the turns and the phase apart, so that next
        # to a step the kernel's fixed-point phase and the reference's can fall either side
        for slope in np.random.default_rng(2).uniform(0.05, 2.0, 128):
            calls += [
                (slope, 2, np.concatenate([x, -x]))
                for x in (np.unique(ulp_neighbours(r / slope, 64)) for r in remainders)
            ]
    return calls


@functools.cache
def kernel_run(name, levels):
    """The kernel once per (input set, level count): one ``KernelCall`` per call of the set."""
    return [run_kernel(slope, n, diff, levels) for slope, n, diff in input_set(name)]


def assert_set_matches(name, levels_list, quantizer=False):
    for i in range(len(input_set(name))):
        runs = {levels: kernel_run(name, levels)[i] for levels in levels_list}
        assert_levels_match(runs, quantizer)


@pytest.fixture(scope="module", autouse=True)
def drop_kernel_runs():
    yield
    kernel_run.cache_clear()
    input_set.cache_clear()
    level_steps.cache_clear()


class TestModTwoPi:
    """Raw phases: each input magnitude u is element 1 at slope 1 in a row of either sign, so
    the kernel sees theta = +u and -u.  Its levels are the np.mod quantizer's, np.mod's
    remainder and all, and wherever the call is fast its phase lies within the band w.
    """

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e3, 1e6, 4e8])
    def test_random_scales(self, scale):
        call = signed(np.random.default_rng(int(np.log10(scale)) + 400).uniform(-scale, scale, 10**5))
        assert_levels_match({levels: run_kernel(*call, levels) for levels in LEVELS}, True)

    def test_multiples_of_two_pi_and_ulp_neighbours(self):
        assert_set_matches("multiples", LEVELS)

    @classmethod
    def special_values(cls):
        """Signed zeros, subnormals, half and whole turns, the range guard of each level
        count and an ulp either side of it, and values far past it or not finite."""
        # the raw phase u at which the band (n = 2), 2.5 + 2**32*4*eps*(u/(2*pi) + 1), times L
        # reaches the guard
        limits = [
            TWO_PI * ((protocol._GUARD / levels - 2.5) / (2**32 * 4.0 * EPS) - 1.0)
            for levels in LEVELS
        ]
        guards = ulp_neighbours(np.array(limits), 1)
        return np.concatenate(
            [[0.0, -0.0, -1e-17, 1e-17, 5e-324, -5e-324, 2.2250738585072014e-308,
              -2.2250738585072014e-308, np.pi, -np.pi, TWO_PI, -TWO_PI],
             guards, -guards, [PHASE_RANGE, -PHASE_RANGE, 1e300, -1e300, np.inf, np.nan]]
        )

    def test_special_values_and_guard(self):
        assert_set_matches("special", LEVELS, quantizer=True)
        assert quantize_phase(1e300, 4) == quantize_phase(float(np.mod(1e300, TWO_PI)), 4)

    def test_kernel_phase_sets(self):
        # the rows of random geometries at N = 8192, and their votes against a count
        assert_set_matches("geometries", LEVELS)
        for levels in LEVELS:
            for call in kernel_run("geometries", levels):
                want = count_vote(call.levels, levels)
                np.testing.assert_array_equal(vote_indices(call.levels, levels), want)

    def test_phase_kernel_runs_no_np_mod(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.mod called on the phase kernel's hot path")

        nu = [-1.2, 0.4, 1.5]
        expected = {levels: phase_index_rows(0.3, nu, 8192, levels) for levels in (2, 3)}
        monkeypatch.setattr(protocol.np, "mod", refuse)
        for levels, rows in expected.items():
            np.testing.assert_array_equal(phase_index_rows(0.3, nu, 8192, levels), rows)


@functools.cache
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


class TestBreakpointKernel:
    """Level steps: the kernel equals the reference quantizer ``_quantize_indices`` bit for bit
    where the reference level steps, on rows of either sign and next to multiples of 2*pi.
    """

    @pytest.mark.parametrize("levels", range(2, protocol._COUNT_LEVELS + 1))
    def test_every_breakpoint_and_64_ulps_around_it(self, levels):
        assert_set_matches(f"level-steps-{levels}", [levels], quantizer=True)

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
        # d = +-2 (s = 0.5) and d = +-1 (s = 1), where np.mod's remainder of a
        # theta just below the multiple is just below 2*pi, of level 0
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
        assert_levels_match({levels: run_kernel(*signed(steps), levels)}, quantizer=True)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8])
    def test_reduce_limit_fallback(self, levels):
        # s*(N-1)*|d|, about 1.3e15 turns, puts w*L past the guard at every L: one
        # reference call sets every element of the kernel call
        nu = [-1.0, 0.2, 1.4]
        expected = reference_indices(0.3, nu, 64, levels, 2.0**44)
        with recorded_fallbacks() as patched:
            rows = phase_index_rows(0.3, nu, 64, levels, 2.0**44)
        assert len(patched) == 1 and patched[0].size == rows.size
        np.testing.assert_array_equal(rows, expected)

    @pytest.mark.parametrize(
        "levels",
        sorted({10, 11, protocol._COUNT_LEVELS, protocol._COUNT_LEVELS + 1, 16, 64, 10**6}),
    )
    def test_no_table_above_the_level_cap(self, levels):
        # one read serves every level count, on both sides of the vote's cap, up to the
        # guard w*L < 2**28: at n = 256 (w = 129) no call falls back whole, and at n = 4096
        # (w = 2049) only L = 10**6 does; the values are the reference's on both sides
        nu = np.array([-1.2, -0.3, 0.4, 1.5])
        for n, whole in ((256, False), (4096, levels == 10**6)):
            steps = TWO_PI * 0.5 * np.arange(n)
            want = protocol._quantize_indices(steps * (np.sin(0.3) - np.sin(nu))[:, None], levels)
            with recorded_fallbacks() as patched:
                np.testing.assert_array_equal(phase_index_rows(0.3, nu, n, levels), want)
            assert len(patched) <= 1
            assert (sum(theta.size for theta in patched) == want.size) == whole


class TestTurnKernel:
    """The band w bounds the kernel's fixed-point phase at every L, and the reference runs
    only where it leaves doubt: on the near elements alone, all in one call."""

    @pytest.mark.parametrize("levels", [2, 3, 4, 8, 16, 64])
    def test_level_error_within_doubt(self, levels):
        # the band bounds the fixed-point phase: 2 x 5 x 21 x 8192 elements at N = 8192,
        # and more at N = 7 and 512
        gen = np.random.default_rng(levels + 900)
        worst = 0.0
        for spacing in (0.5, 2.3):
            for n, geometries in ((7, 2), (512, 2), (8192, 5)):
                for _ in range(geometries):
                    diff = np.sin(gen.uniform(-np.pi / 2, np.pi / 2)) - np.sin(
                        gen.uniform(-np.pi / 2, np.pi / 2, 21)
                    )
                    call = run_kernel(TWO_PI * spacing, n, diff, levels)
                    worst = max(worst, assert_levels_match({levels: call}))
        assert worst > 0.0

    @pytest.mark.parametrize("spacing", [0.5, 2.3])
    def test_band_bounds_the_fixed_point_phase(self, spacing):
        # the scaling recipe's N, the benchmark's and the large-N run's, K = 21: the band w
        # bounds the distance of q/2**32 from the reference's x/2, modulo 1, on every element,
        # and Delta's rounding, up to m/2, is most of it
        gen = np.random.default_rng(int(spacing * 10))
        for n in (64, 512, 2048, 4096, 8192, 65536):
            slope = TWO_PI * spacing
            diff = np.sin(gen.uniform(-np.pi / 2, np.pi / 2)) - np.sin(
                gen.uniform(-np.pi / 2, np.pi / 2, 21)
            )
            fixed, band = fixed_point(slope, n, diff)
            w = math.floor(band)
            assert fast(band, 2) and w < (n - 1) / 2 + 3
            m = np.arange(n)
            remainder = np.mod(slope * m * diff[:, None], TWO_PI)
            err = np.abs(np.mod(m * fixed[:, None], 2**32) - remainder * (2.0**32 / TWO_PI))
            err = np.minimum(err, 2.0**32 - err)
            assert err.max() <= w
            assert err.max() > 0.4 * w  # the band is not slack
            assert_levels_match({L: run_kernel(slope, n, diff, L) for L in (2, 3, 4)})

    def test_near_elements_are_patched_one_by_one(self):
        # rows whose element m0 lands within ulps of a quarter or three-quarter turn (and
        # so do m0's odd multiples), among random rows: exactly the elements whose
        # fixed-point phase lies within w of a quarter turn go to the reference, alone
        slope, n = TWO_PI * 0.5, 4096
        gen = np.random.default_rng(34)
        near = [
            ulp_neighbours(np.array([quarter / (slope / TWO_PI * m0)]), 2)
            for quarter in (0.25, 0.75)
            for m0 in (1, 3, 100, 4095)
        ]
        diff = np.concatenate([*near, -near[0], gen.uniform(-2, 2, 9)])
        call = run_kernel(slope, n, diff, 2)
        assert_levels_match({2: call}, quantizer=True)
        fixed, band = fixed_point(slope, n, diff)
        close = quarter_distance(np.arange(n) * fixed[:, None]) <= math.floor(band)
        assert close[: 5 * (len(near) + 1)].any(axis=1).all()  # every built row has one
        assert len(call.patched) == 1 and call.patched[0].size == close.sum()
        theta = slope * np.arange(n) * diff[:, None]
        np.testing.assert_array_equal(
            call.levels[close], protocol._quantize_indices(theta[close], 2)
        )

    def test_band_edges_decide_the_near_elements(self):
        # rows whose fixed-point phase q (element 1, n = 2, w = 2) lies 0 to w + 2 units from
        # a quarter turn or from a half-level of L = 4 or 8: at L = 2 the elements within w
        # are near, at L = 4 and 8 those within w + 1, the unit that y's rounding takes
        targets = [
            centre + sign * offset
            for centre in (2**30, 3 * 2**30, *(2**29 * np.arange(1, 8, 2)),
                           *(2**28 * np.arange(1, 16, 2)))
            for offset in range(5)
            for sign in (1, -1)
        ]
        diff = np.array(targets) / 2.0**32 / (1.0 / TWO_PI)
        fixed, band = fixed_point(1.0, 2, diff)
        assert math.floor(band) == 2
        np.testing.assert_array_equal(np.mod(fixed, 2**32), targets)
        runs = {levels: run_kernel(1.0, 2, diff, levels) for levels in (2, 4, 8)}
        assert_levels_match(runs, quantizer=True)
        # per centre of its own, offset 0 twice and +-1 to +-w (+-(w + 1) at L = 4 and 8)
        assert [patched_count(runs[levels]) for levels in (2, 4, 8)] == [2 * 6, 4 * 8, 8 * 8]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference_quantizer(self, data):
        # any slope, n, level count and rows, some with an element within ulps of a
        # quarter, half, three-quarter or whole turn or of a half-level: the kernel equals
        # _quantize_indices bit for bit; at L = 1000 the guard puts n above about 268 to
        # the reference whole
        slope = data.draw(st.floats(0.05, 20.0), label="slope")
        n = data.draw(st.integers(1, 3000), label="n")
        levels = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8, 16, 1000]), label="levels")
        turns = slope * (1.0 / TWO_PI)
        half_levels = st.integers(0, levels - 1).map(lambda j: (j + 0.5) / levels)
        built = data.draw(st.lists(st.builds(
            lambda turn, m, ulps, sign: sign * turn / (turns * m) * (1.0 + ulps * EPS),
            st.sampled_from([0.25, 0.5, 0.75, 1.0]) | half_levels,
            st.integers(1, max(1, n - 1)), st.integers(-4, 4), st.sampled_from([1.0, -1.0]),
        ), max_size=3), label="built rows")
        drawn = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4), label="rows")
        diff = np.array(built + drawn)
        want = protocol._quantize_indices(slope * np.arange(n) * diff[:, None], levels)
        np.testing.assert_array_equal(protocol._index_rows(slope, n, diff, levels), want)

    @pytest.mark.parametrize("levels", [2, 4, 16])
    def test_no_fallback_on_random_geometries_at_benchmark_sizes(self, levels):
        # the sweeps' 64 stacked geometries of K = 20 at N = 512, and the
        # scaling recipe's K = 21 at N = 512, 2048 and 8192, each stack one call: no
        # whole-call fallback, only the few near elements patched, in at most one call.
        # About K*N*(w + 1)*L/2**31 elements are near; the bound is 4 times that, plus 4
        gen = np.random.default_rng(levels)
        calls = list(kernel_run("geometries", levels)) if levels in LEVELS else []
        for geometries, K, n in ((64, 20, 512), (8, 21, 512), (8, 21, 2048), (8, 21, 8192)):
            phi_t = gen.uniform(-np.pi / 2, np.pi / 2, geometries)
            nu = gen.uniform(-np.pi / 2, np.pi / 2, (geometries, K))
            diff = (np.sin(phi_t)[:, None] - np.sin(nu)).ravel()
            calls.append(run_kernel(TWO_PI * 0.5, n, diff, levels))
        for call in calls:
            rows, n = call.diff.size, call.n
            assert len(call.patched) <= 1
            assert patched_count(call) <= 4 * rows * n * (n / 2 + 3) * levels / 2**31 + 4

    @pytest.mark.parametrize("levels", range(2, protocol._COUNT_LEVELS + 1))
    def test_breakpoints_fall_back(self, levels):
        # every raw phase next to a level step is within the band of a half-level: each
        # row's element 1 is patched alone, all in one call, and element 0 (theta = 0) is not
        for call in kernel_run(f"level-steps-{levels}", levels):
            assert len(call.patched) == 1 and patched_count(call) == call.diff.size

    def test_special_values_fall_back(self):
        # not finite, or past the guard: every element of the call goes to the reference in
        # one call.  pi is a half-level at L = 3, so its elements theta = +pi and -pi are
        # patched alone, and a level centre at L = 2, 4 and 8
        for levels in LEVELS:
            whole, *alone = kernel_run("special", levels)
            assert len(whole.patched) == 1 and patched_count(whole) == whole.levels.size
            for call in alone:
                value = call.diff[0]
                if value == 1e300 or not np.isfinite(value):
                    assert len(call.patched) == 1 and patched_count(call) == call.levels.size
                elif value == np.pi:
                    assert patched_count(call) == 2 * (levels == 3)

    def test_multiples_of_two_pi_are_decided_fast(self):
        # in turns a multiple of 2*pi is a level centre, far from every half-level
        for levels in LEVELS:
            assert all(call.patched == [] for call in kernel_run("multiples", levels))


class TestCountVote:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 8, 16, 17, 64])
    @pytest.mark.parametrize("K", [1, 2, 4, 6, 300])
    def test_matches_bincount_vote_with_ties(self, levels, K):
        # few devices and levels make many exact ties, 300 devices a wider tally;
        # 17 and 64 levels are above the cap, where the sort vote runs
        indices = np.random.default_rng(K * 10 + levels).integers(0, levels, (K, 4000))
        vote = vote_indices(indices, levels)
        assert vote.dtype == np.int64
        np.testing.assert_array_equal(vote, count_vote(indices, levels))

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
        # the reflected path's gain is the formula's bit for bit, one geometry or a
        # stack; its row a_N(phi_t)^H Theta rides in the line of sight's folded
        # factors, whose sums against Theta's phasors are within the derived bound
        # of the line of sight's sums against the formula's row
        from irs_aircomp.channel import _line_of_sight, _reflection_gain, line_of_sight
        from irs_aircomp.numerics import _project

        system = SystemConfig(N=1024, L=4)
        stack = []
        for seed in range(5):
            geo = make_geometry(system, RngStream(seed, 0))
            theta = PhaseShiftVector(np.random.default_rng(seed).integers(0, 4, 1024), 4)
            v = receive_beamformer(geo.phi_r, system.M)
            a_m = array_response(system.M, geo.phi_r, geo.spacing_ratio)
            gain = _reflection_gain(geo.rho_1, a_m[None], v[None])
            want_gain = np.sqrt(geo.rho_1) * np.vdot(v, a_m)
            assert_same_bits(gain.view(float), np.array([want_gain]).view(float))
            stack.append((geo.rho_1, a_m, v, want_gain))

            a_n = array_response(1024, geo.phi_t, geo.spacing_ratio)
            row = a_n.conj() * np.exp(1j * theta.phases)
            factors = _line_of_sight(system, geo.rho_r, geo.nu, geo.phi_t, 1024)
            got = _project(factors, theta.phasors[None], (1024,))[0, 0]
            los = line_of_sight(geo, system)
            bound = projection_bound(np.abs(los[:, 0]), theta.phasors)
            assert np.all(np.abs(got - los @ row) <= bound)
        rho_1, a_m, v, want = (np.array(part) for part in zip(*stack))
        assert_same_bits(_reflection_gain(rho_1, a_m, v).view(float), want.view(float))


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


@pytest.mark.parametrize(
    "indices, message",
    [
        ([0.5, 1.2], "must be integers"),  # truncated to [0, 1]
        (np.array([1.9]), "must be integers"),  # truncated to [1]
        ([True, False], "must be integers"),  # read as [1, 0]
        ([0, 2], r"must lie in \[0, levels\) = \[0, 2\)"),
        ([-1, 0], r"must lie in \[0, levels\) = \[0, 2\)"),
        ([[0, 1]], r"must be a 1-D array of values in \[0, levels\)"),
    ],
    ids=["fractions", "float-array", "bools", "past-levels", "negative", "2-D"],
)
def test_bad_phase_indices_rejected(indices, message):
    with pytest.raises(ValueError, match=f"^indices {message}"):
        PhaseShiftVector(indices, 2)


@pytest.mark.parametrize(
    "indices, levels, message",
    [
        ([0, 1, 1], 2, r"must be a \(\.\.\., K, N\) array"),
        ([[0, 2], [2, 2], [1, 0]], 2, r"must lie in \[0, levels\)"),  # 2 read as 0
        ([[0, -1], [1, 2]], 4, r"must lie in \[0, levels\)"),
        ([[0, 4], [1, 2]], 4, r"must lie in \[0, levels\)"),
        ([[0, 3], [1, 2]], 3, r"must lie in \[0, levels\)"),
        ([[0.5, 1.0], [1.0, 0.0]], 2, "must be integers"),
        ([[True, False], [True, True]], 2, "must be integers"),
        (np.zeros((0, 4), dtype=np.int64), 2, r"must be a \(\.\.\., K, N\) array"),
    ],
    ids=["1-D", "past-levels-2", "negative", "past-levels-4", "past-levels-3", "fractions",
         "bools", "no-devices"],
)
def test_bad_vote_indices_rejected(indices, levels, message):
    with pytest.raises(ValueError, match=f"^indices {message}"):
        vote_indices(np.asarray(indices), levels)


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


@pytest.mark.parametrize(
    "Pmax, sigma2, name",
    [
        (math.inf, 1.0, "Pmax"),
        (math.nan, 1.0, "Pmax"),
        (0.0, 1.0, "Pmax"),
        (1.0, math.inf, "sigma2"),
        (1.0, math.nan, "sigma2"),
        (1.0, -1.0, "sigma2"),
    ],
)
@pytest.mark.parametrize(
    "rule",
    [
        optimal_power_control,
        channel_inversion_power_control,
        oracle_power_control,
        lambda g, Pmax, sigma2: power_control_rows([g], Pmax, sigma2),
        lambda g, Pmax, sigma2: power_control_rows([g], Pmax, sigma2, inversion=True),
    ],
    ids=["optimal", "inversion", "oracle", "rows", "rows-inversion"],
)
def test_power_inputs_out_of_range_rejected(rule, Pmax, sigma2, name):
    # an infinite Pmax or sigma2 gave NaN or infinite powers, eta or MSE, or an
    # error naming the powers; now the argument is named before any solve
    with pytest.raises(ValueError, match=f"^{name} must be"):
        rule([1.0, 2.0, 3.0], Pmax, sigma2)


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


@st.composite
def wide_gamma_blocks(draw):
    """Blocks of B <= 6 rows of K <= 64 effective channels, |gamma| from 1e-150 to 1e150.

    The 300 decades keep every |gamma|^2 a normal float.  Magnitudes
    come from a pool smaller than the block, so rows hold exact ties in
    |gamma|^2, and the phases are random.
    """
    K = draw(st.integers(1, 64))
    B = draw(st.integers(1, 6))
    pool = draw(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=max(1, K // 2)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=B * K, max_size=B * K))
    magnitudes = 10.0 ** np.asarray(pool)[picks].reshape(B, K)
    phases = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, TWO_PI, (B, K))
    return magnitudes * np.exp(1j * phases)


class TestPowerRowsAgainstReference:
    """The row kernel equals the fancy-index, per-row fsum reference bit for bit."""

    @pytest.mark.parametrize("inversion", [False, True])
    @given(
        gammas=wide_gamma_blocks(),
        Pmax=st.sampled_from([0.1, 1.0, 7.0]),
        sigma2=st.sampled_from([0.0, 1e-11, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_reference(self, inversion, gammas, Pmax, sigma2):
        got = power_control_rows(gammas, Pmax, sigma2, inversion=inversion)
        with np.errstate(over="ignore"):  # the reference divides for full-power devices too
            want = reference_power_rows(np.abs(gammas), Pmax, sigma2, inversion)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))

    @pytest.mark.parametrize("inversion", [False, True])
    def test_fortran_ordered_block(self, inversion):
        # a transposed block: every array derived from it keeps its F order
        gammas = np.random.default_rng(5).standard_normal((20, 9)).T * 1e-4
        assert gammas.flags.f_contiguous and not gammas.flags.c_contiguous
        got = power_control_rows(gammas, 0.1, 1e-11, inversion=inversion)
        want = reference_power_rows(np.abs(gammas), 0.1, 1e-11, inversion)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_array_equal(
                np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
            )

    def test_all_tied_rows(self):
        # every row one repeated magnitude: the stable order is the index order
        gammas = np.repeat(10.0 ** np.arange(-140.0, 141.0, 20.0)[:, None], 64, axis=1)
        for inversion in (False, True):
            got = power_control_rows(gammas, 0.5, 1.0, inversion=inversion)
            with np.errstate(over="ignore"):
                want = reference_power_rows(np.abs(gammas), 0.5, 1.0, inversion)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


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

    @pytest.mark.parametrize(
        "gammas, sigma2, name",
        [
            ([1.0], 1.0, "gammas"),  # broadcast against three powers
            ([[1.0, 2.0, 3.0]], 1.0, "gammas"),  # one row too many axes
            ([1.0, math.nan, 3.0], 1.0, "gammas"),
            ([1.0, 2.0, math.inf], 1.0, "gammas"),
            ([1.0, 2.0, 3.0], -1.0, "sigma2"),
            ([1.0, 2.0, 3.0], math.nan, "sigma2"),
            ([1.0, 2.0, 3.0], math.inf, "sigma2"),
        ],
    )
    def test_bad_input_rejected(self, gammas, sigma2, name):
        sol = optimal_power_control([1.0, 2.0, 3.0], 1.0, 1.0)
        with pytest.raises(ValueError, match=name):
            evaluate_mse(gammas, sol, sigma2)

    def test_silent_solution_without_eta_rejected(self):
        # no device transmits, so the solution holds eta = 0, but the MSE divides by it
        sol = PowerSolution(powers=np.zeros(2), eta=0.0, critical_number=0, mse=0.0)
        with pytest.raises(ValueError, match="^eta must be positive$"):
            evaluate_mse([1.0, 2.0], sol, 1.0)


class TestPowerSolution:
    @pytest.mark.parametrize(
        "powers", [[1.0, math.nan], [math.inf, 1.0], [[1.0, 2.0]], [[1.0], [2.0]]]
    )
    def test_bad_powers_rejected(self, powers):
        with pytest.raises(ValueError, match="powers must be"):
            PowerSolution(powers=powers, eta=1.0, critical_number=0, mse=0.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="powers must be non-negative"):
            PowerSolution(powers=[1.0, -0.5], eta=1.0, critical_number=0, mse=0.0)

    @pytest.mark.parametrize(
        "eta, critical_number, message",
        [
            (0.0, 0, "eta must be positive when any device transmits"),
            (math.nan, 0, "eta must be positive when any device transmits"),
            (1.0, 3, r"critical_number must lie in \[0, K\]"),
            (1.0, -1, r"critical_number must lie in \[0, K\]"),
        ],
    )
    def test_bad_eta_or_critical_number_rejected(self, eta, critical_number, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PowerSolution(powers=[1.0, 0.0], eta=eta, critical_number=critical_number, mse=0.0)


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

    @pytest.mark.parametrize(
        "b, eta, message",
        [
            (np.ones(3), 0.0, "eta must be positive$"),
            (np.ones(3), math.nan, "eta must be positive$"),
            (np.ones(2), 1.0, r"b must have shape \(3,\), got \(2,\)$"),
        ],
    )
    def test_bad_input_rejected(self, b, eta, message):
        cfg, real, v, theta = self._setup()
        with pytest.raises(ValueError, match=f"^{message}"):
            evaluate_mse_general(v, theta, b, eta, real, cfg.sigma2)

    @pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf])
    def test_bad_sigma2_rejected(self, sigma2):
        # as evaluate_mse rejects it, not an MSE of nan, inf or below the misalignment
        cfg, real, v, theta = self._setup()
        with pytest.raises(ValueError, match=r"^sigma2 must be non-negative and finite, got "):
            evaluate_mse_general(v, theta, np.ones(3), 1.0, real, sigma2)

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
