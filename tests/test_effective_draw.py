"""The engine's per-trial draw against the full vector-channel sampler, in law.

``run_sweep`` draws, per trial, the direct links and two CN(0, 1)
normals per device and segment of the sweep's element counts
(``channel._effective_draws``), not a full (K, N) channel block.  The
reference draws full blocks with ``sample_channels`` at the largest N,
on streams independent of the engine's, and evaluates them with
``effective_scalar_channel`` at each N (the elements from N on zeroed).
The scenario is small (K=5, M=4, N up to 100, one N not a power of two)
so that 10 000 trials a side stay quick.  Each mean-MSE row must agree
within 3 standard errors of the difference; the per-device moments, of
which each test makes dozens of comparisons, within 4.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from irs_aircomp import channel, experiments, numerics
from irs_aircomp.analysis import expected_channel_power_gain
from irs_aircomp.channel import (
    ChannelRealization,
    SystemConfig,
    effective_scalar_channel,
    make_geometry,
    sample_channels,
)
from irs_aircomp.experiments import ExperimentConfig, Scheme, compute_long_term, run_sweep
from irs_aircomp.numerics import RngStream
from irs_aircomp.protocol import PhaseShiftVector, power_control_rows

TRIALS = 10_000
SIZES = (16, 50, 100)
SYSTEM = SystemConfig(M=4, K=5)
LARGEST = replace(SYSTEM, N=SIZES[-1])
SEED = 2718
VOTED, ZERO, DIRECT = experiments._VOTED, experiments._ZERO, experiments._DIRECT
IRS_SCHEMES = [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS, Scheme.FIXED_PHASE_OPT_PC]
CHUNK = 200  # reference blocks evaluated at once
BLOCK = numerics._STEERING_BLOCK


def reference_rng(seed):
    return np.random.Generator(np.random.Philox(seed))


class Side:
    """One geometry's long-term state at the largest N, and the engine and reference draws on it."""

    def __init__(self, largest, geometry, sizes):
        self.largest, self.geometry, self.sizes = largest, geometry, sizes
        self.state = compute_long_term(geometry, self.largest)

    def draws(self, trials, seed, first=0):
        """(h_direct, w) of the engine's trials first..first+trials-1 of ``seed``: run_sweep's."""
        streams = [RngStream(seed, 3 + 2 * t) for t in range(first, first + trials)]
        return channel._effective_draws(self.geometry.rho_d, self.largest, len(self.sizes), streams)

    def engine(self, trials, seed):
        """{kind: gammas} of the engine's trials 0..trials-1 of ``seed``, every scheme's kind."""
        terms = experiments._stage(self.largest, [self.geometry], self.sizes)
        return experiments._stacked_gammas(terms, *self.draws(trials, seed), list(Scheme))

    def reference(self, trials, gen):
        """({voted and zero kind: gammas (P, T, K)}, h_direct (T, K, M)) of ``trials`` blocks.

        Each chunk's blocks are stacked device-wise, once per N with the
        elements from N on zeroed, into one realization that
        ``effective_scalar_channel`` evaluates row by row: the blocks'
        whole device-IRS vectors ``h_reflect`` as its non-line-of-sight
        part, beside a line of sight of zero factors.
        """
        K, N = self.largest.K, self.largest.N
        zero = PhaseShiftVector.zero(N, self.largest.L)
        below = np.arange(N) < np.array(self.sizes)[:, None]  # (P, N)
        out, direct = {VOTED: [], ZERO: []}, []
        for start in range(0, trials, CHUNK):
            count = min(CHUNK, trials - start)
            blocks = [sample_channels(self.geometry, self.largest, gen) for _ in range(count)]
            h_direct = np.concatenate([b.h_direct for b in blocks])
            h_reflect = np.concatenate([b.h_reflect for b in blocks])
            rows = len(self.sizes) * count * K
            coarse = np.zeros((rows, -(-N // BLOCK)), complex)
            no_los = numerics._Factors(coarse, np.zeros((rows, min(N, BLOCK)), complex), N)
            stacked = ChannelRealization(
                np.tile(h_direct, (len(self.sizes), 1)),
                (h_reflect[None] * below[:, None]).reshape(-1, N),
                self.geometry,
                no_los,
            )
            for kind, theta in ((VOTED, self.state.theta_voted), (ZERO, zero)):
                gammas = effective_scalar_channel(stacked, self.state.v, theta)
                out[kind].append(gammas.reshape(len(self.sizes), count, K))
            direct.append(h_direct.reshape(count, K, -1))
        gammas = {kind: np.concatenate(chunks, axis=1) for kind, chunks in out.items()}
        return gammas, np.concatenate(direct)


def with_direct(gammas, h_direct):
    """{kind: gammas}, the direct kind's from the dominant-direct combiner on h_direct."""
    return {**gammas, DIRECT: experiments._direct_gammas(h_direct)[None]}


def mses(gammas, schemes, system, sizes):
    """{(scheme, N): per-trial MSEs} of {kind: (P or 1, T, K)} gammas."""
    out = {}
    for s in schemes:
        rows = gammas[s.kind]
        for p, N in enumerate(sizes):
            g = rows[p if len(rows) > 1 else 0]
            out[s.value, N] = power_control_rows(
                g, system.Pmax, system.sigma2, inversion=s.inversion
            )[3]
    return out


def stderr(values):
    return float(np.std(values, ddof=1)) / math.sqrt(len(values))


FIXED_CASES = {
    "levels2": (SYSTEM, list(Scheme)),
    "levels4-block-direct": (replace(SYSTEM, L=4, block_direct=True), IRS_SCHEMES),
}


@pytest.fixture(scope="module", params=sorted(FIXED_CASES))
def fixed(request):
    """A case's system and schemes, and engine and reference gammas on run_sweep's geometry of SEED."""
    system, schemes = FIXED_CASES[request.param]
    largest = replace(system, N=SIZES[-1])
    side = Side(largest, make_geometry(system, RngStream(SEED, 0)), SIZES)
    engine = side.engine(TRIALS, SEED)
    reference = with_direct(*side.reference(TRIALS, reference_rng(3141)))
    return system, schemes, side, engine, reference


def test_fixed_geometry_rows_match_full_sampler(fixed):
    system, schemes, _, engine, reference = fixed
    got, want = mses(engine, schemes, system, SIZES), mses(reference, schemes, system, SIZES)
    # the engine's gammas are run_sweep's: its first 64 trials give the same rows
    head = ExperimentConfig(system=system, n_sweep=SIZES, trials=64, seed=SEED)
    for row in run_sweep(head, schemes).rows:
        assert row.mean_mse == math.fsum(got[row.scheme, row.N][:64]) / 64
    for key, values in got.items():
        ref = want[key]
        mean, want_mean = math.fsum(values) / TRIALS, math.fsum(ref) / TRIALS
        z = (mean - want_mean) / math.hypot(stderr(values), stderr(ref))
        assert abs(z) <= 3.0, (key, mean, want_mean, z)


def test_redrawn_geometry_rows_match_full_sampler():
    # trial t's geometry is run_sweep's, from stream 2 + 2t of SEED; the
    # engine and the reference each draw that trial's channels on it, so the
    # per-trial MSE difference is paired in the geometry
    geometries, draws, reference, direct = [], [], [], []
    gen = reference_rng(3143)
    for t in range(TRIALS):
        side = Side(LARGEST, make_geometry(LARGEST, RngStream(SEED, 2 + 2 * t)), SIZES)
        geometries.append(side.geometry)
        draws.append(side.draws(1, SEED, first=t))
        gammas, h_direct = side.reference(1, gen)
        reference.append(gammas)
        direct.append(h_direct)
    terms = experiments._stage(LARGEST, geometries, SIZES)
    h_direct, w = (np.concatenate(part) for part in zip(*draws))
    engine = experiments._stacked_gammas(terms, h_direct, w, list(Scheme))
    stacked = {kind: np.concatenate([r[kind] for r in reference], axis=1) for kind in (VOTED, ZERO)}
    got = mses(engine, list(Scheme), SYSTEM, SIZES)
    want = mses(with_direct(stacked, np.concatenate(direct)), list(Scheme), SYSTEM, SIZES)
    for key, values in got.items():
        difference = values - want[key]
        z = float(np.mean(difference)) / stderr(difference)
        assert abs(z) <= 3.0, (key, z)


def test_channel_power_matches_closed_form(fixed):
    system, _, side, engine, _ = fixed
    zero = PhaseShiftVector.zero(side.largest.N, side.largest.L)
    for kind, theta in ((VOTED, side.state.theta_voted), (ZERO, zero)):
        for p, N in enumerate(SIZES):
            sized = PhaseShiftVector(theta.indices[:N], theta.levels)
            want = expected_channel_power_gain(side.geometry, replace(system, N=N), sized)
            power = np.abs(engine[kind][p]) ** 2  # (T, K)
            se = np.std(power, axis=0, ddof=1) / math.sqrt(TRIALS)
            assert np.all(np.abs(power.mean(axis=0) - want) <= 4.0 * se), (kind, N)


def test_voted_zero_cross_moment_matches_full_sampler(fixed):
    # E[gamma_voted conj(gamma_zero)] per device: the joint law of the two kinds
    *_, engine, reference = fixed
    for p, N in enumerate(SIZES):
        got = engine[VOTED][p] * engine[ZERO][p].conj()
        want = reference[VOTED][p] * reference[ZERO][p].conj()
        for part in (np.real, np.imag):
            a, b = part(got), part(want)
            se = np.hypot(np.std(a, axis=0, ddof=1), np.std(b, axis=0, ddof=1)) / math.sqrt(TRIALS)
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4.0 * se), (N, part)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap of the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") / a.size
    gap -= np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(gap)))


def test_gamma_magnitudes_pass_two_sample_ks(fixed):
    # the devices pooled: the same mixture on both sides; level 0.001
    *_, engine, reference = fixed
    critical = math.sqrt(-math.log(0.001 / 2) / 2)
    for kind in (VOTED, ZERO):
        for p, N in enumerate(SIZES):
            a, b = np.abs(engine[kind][p]).ravel(), np.abs(reference[kind][p]).ravel()
            limit = critical * math.sqrt((a.size + b.size) / (a.size * b.size))
            assert ks_statistic(a, b) <= limit, (kind, N)


def test_paired_difference_along_n_matches_full_sampler():
    # the per-trial MSE difference N=256 -> 512 keeps the full sampler's spread,
    # the sub-array pairing: its variance within 4 standard errors, from the
    # fourth central moment, of the reference's
    sizes = (256, 512)
    side = Side(replace(SYSTEM, N=512), make_geometry(SYSTEM, RngStream(SEED, 0)), sizes)
    engine = side.engine(TRIALS, SEED)
    reference, _ = side.reference(TRIALS, reference_rng(3144))
    schemes = [Scheme.OPT_PC_IRS, Scheme.FIXED_PHASE_OPT_PC]
    got, want = mses(engine, schemes, SYSTEM, sizes), mses(reference, schemes, SYSTEM, sizes)

    def variance_and_se(d):
        centred = d - d.mean()
        var = float(np.mean(centred**2))
        return var, math.sqrt((float(np.mean(centred**4)) - var**2) / d.size)

    for s in schemes:
        (v1, se1), (v2, se2) = (
            variance_and_se(m[s.value, 512] - m[s.value, 256]) for m in (got, want)
        )
        assert abs(v1 - v2) <= 4.0 * math.hypot(se1, se2), (s, v1, v2)


def test_pure_los_gammas_are_the_vector_channels_bit_for_bit():
    # no scattered part: the engine draws the direct links alone, as sample_channels
    # does, and each gamma is the vector channel's at N
    system = replace(LARGEST, pure_los=True)
    side = Side(system, make_geometry(system, RngStream(SEED, 0)), SIZES)
    engine = side.engine(5, SEED)
    for t in range(5):
        zero = PhaseShiftVector.zero(side.largest.N, side.largest.L)
        for kind, theta in ((VOTED, side.state.theta_voted), (ZERO, zero)):
            for p, N in enumerate(SIZES):
                # the block at N: the first N elements of the block at the largest N
                stream = RngStream(SEED, 3 + 2 * t)
                sized = sample_channels(side.geometry, replace(system, N=N), stream)
                want = effective_scalar_channel(
                    sized, side.state.v, PhaseShiftVector(theta.indices[:N], theta.levels)
                )
                assert engine[kind][p, t].tobytes() == want.tobytes(), (kind, N, t)
