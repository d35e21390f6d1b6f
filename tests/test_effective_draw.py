"""The engine's per-trial draw against a full vector-channel sampler, in law.

``run_sweep`` draws, per trial, the direct links and two CN(0, 1)
normals per device and segment of the sweep's element counts, not a
full (K, N) channel block.  The reference here draws full blocks at the
largest N from its own generator, a chunk of trials in one
``standard_normal`` pass, and forms everything else from the paper's
formulas as complex chains: the long-term state (the np.mod quantizer
and a plurality count), each geometry's line of sight
amplitude*exp(i*2*pi*s*m*sin(nu_k)), the rows a_N(phi_t)^H Theta and the
dominant-direct combiner.  It evaluates every kind and every N at once,
each N as a sum of products over the segments below it, and shares no code
with the engine's stage, draws or projection.

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
from irs_aircomp.channel import SystemConfig, make_geometry
from irs_aircomp.experiments import ExperimentConfig, Scheme, compute_long_term, run_sweep
from irs_aircomp.numerics import RngStream
from irs_aircomp.protocol import PhaseShiftVector, power_control_rows
from phase_reference import TWO_PI, count_vote, reference_levels

TRIALS = 10_000
SIZES = (16, 50, 100)
SYSTEM = SystemConfig(M=4, K=5)
LARGEST = replace(SYSTEM, N=SIZES[-1])
SEED = 2718
VOTED, ZERO, DIRECT = experiments._VOTED, experiments._ZERO, experiments._DIRECT
IRS_SCHEMES = [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS, Scheme.FIXED_PHASE_OPT_PC]
CHUNK_ELEMENTS = 1 << 20  # trials * K * N of one reference chunk


def reference_rng(seed):
    return np.random.Generator(np.random.SFC64(seed))


def steering(angles, n, spacing):
    """exp(i*2*pi*s*m*sin(angle)) for m < n, one row per angle: the complex chain as cos + i sin."""
    phase = (TWO_PI * spacing * np.sin(angles))[..., None] * np.arange(n)
    out = np.empty(phase.shape, complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def reference_terms(geo, system):
    """Per geometry: conj(v) (B, M), the reflected gain (B,), the line of sight (B, K, N),
    the rows a_N(phi_t)^H Theta of the voted and zero phases (B, N, 2), and the
    scattered amplitude (B, K).  The votes are a plurality count of each
    device's phases under the np.mod quantizer."""
    M, N, L, s, delta = system.M, system.N, system.L, system.spacing_ratio, system.rician_delta
    a_m = steering(geo["phi_r"], M, s)
    v = a_m / math.sqrt(M)
    gain = np.sqrt(geo["rho_1"]) * np.sum(v.conj() * a_m, axis=-1)
    los = np.sqrt(geo["rho_r"] * delta / (delta + 1.0))[..., None] * steering(geo["nu"], N, s)
    diff = np.sin(geo["phi_t"])[:, None] - np.sin(geo["nu"])
    theta = (TWO_PI * s * np.arange(N)) * diff[..., None]
    votes = count_vote(reference_levels(np.mod(theta, TWO_PI), L), L)
    voted = steering(np.pi / 2, L, 1.0 / L)[votes]  # exp(i*2*pi*l/L)
    a_n = steering(geo["phi_t"], N, s).conj()
    rows = a_n[..., None] * np.stack([voted, np.ones_like(voted)], -1)
    return v.conj(), gain, los, rows, np.sqrt(geo["rho_r"] / (delta + 1.0))


def dominant_direct(h_direct):
    """Direct-link gammas (T, K) under the top unit eigenvector of sum_k h_k h_k^H."""
    gram = np.einsum("tkm,tkn->tmn", h_direct, h_direct.conj())
    u = np.linalg.eigh(gram)[1][..., -1]
    return np.einsum("tkm,tm->tk", h_direct, u.conj())


def prefix_sums(h, rows, sizes):
    """Sums over m < N_p of h[..., k, m] rows[..., m, j] at each N_p of ``sizes``, (..., K, J, P):
    the running sum of the segments' batched products."""
    parts = [h[..., a:b] @ rows[..., a:b, :] for a, b in zip((0, *sizes), sizes)]
    return np.cumsum(np.stack(parts, axis=-1), axis=-1)


def reference(geometries, system, sizes, trials, gen):
    """{kind: gammas (P or 1, T, K)} of ``trials`` full Rician blocks at the largest of
    ``sizes``, one geometry per trial or one that every trial shares.

    A chunk of C trials draws one (C, 2KM + 2KN) normal array: per trial,
    the real then the imaginary plane of the (K, M) direct links, then the
    (K, N) scattered elements device by device, each real part before its
    imaginary part.  The sums of h_reflect against the rows are taken for the
    line of sight and the scattered part apart: h_reflect is their sum.
    """
    names = ("rho_1", "rho_d", "rho_r", "nu", "phi_r", "phi_t")
    geo = {name: np.array([getattr(g, name) for g in geometries]) for name in names}
    system = replace(system, N=sizes[-1])
    K, M, N = system.K, system.M, system.N
    step = max(1, CHUNK_ELEMENTS // (K * N))
    out = {VOTED: [], ZERO: [], DIRECT: []}
    for start in range(0, trials, step):
        count = min(step, trials - start)
        at = slice(start, start + count) if len(geometries) > 1 else slice(None)
        part = {name: values[at] for name, values in geo.items()}
        conj_v, gain, los, rows, amplitude = reference_terms(part, system)
        normals = gen.standard_normal((count, 2 * K * (M + N)))
        direct = normals[:, : 2 * K * M].reshape(count, 2, K, M) / math.sqrt(2.0)
        h_direct = np.sqrt(part["rho_d"])[..., None] * (direct[:, 0] + 1j * direct[:, 1])
        scattered = normals[:, 2 * K * M :].view(complex).reshape(count, K, N)
        scale = (amplitude / math.sqrt(2.0))[..., None, None]
        sums = prefix_sums(los, rows, sizes) + scale * prefix_sums(scattered, rows, sizes)
        combined = np.sum(h_direct * conj_v[:, None, :], axis=-1)[..., None, None]
        gammas = (combined + gain[:, None, None, None] * sums).transpose(2, 3, 0, 1)  # (2, P, C, K)
        out[VOTED].append(gammas[0])
        out[ZERO].append(gammas[1])
        out[DIRECT].append(dominant_direct(h_direct)[None])
    return {kind: np.concatenate(parts, axis=1) for kind, parts in out.items()}


def engine(system, geometry, sizes, trials, seed):
    """{kind: gammas} of run_sweep's trials 0..trials-1 of ``seed`` on one fixed geometry."""
    largest = replace(system, N=sizes[-1])
    terms = experiments._stage(largest, [geometry], sizes)
    ids = [3 + 2 * t for t in range(trials)]
    rewind = numerics._rewinder(seed)
    draws = channel._effective_draws(geometry.rho_d, largest, len(sizes), ids, rewind)
    return experiments._stacked_gammas(terms, *draws, list(Scheme))


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


def sweep_mses(system, sizes, schemes, redraw=False):
    config = ExperimentConfig(
        system=system, n_sweep=sizes, trials=TRIALS, seed=SEED, redraw_geometry_per_trial=redraw
    )
    return run_sweep(config, schemes).trial_mse


def stderr(values):
    return float(np.std(values, ddof=1)) / math.sqrt(len(values))


FIXED_CASES = {
    "levels2": (SYSTEM, list(Scheme)),
    "levels4-block-direct": (replace(SYSTEM, L=4, block_direct=True), IRS_SCHEMES),
}


@pytest.fixture(scope="module", params=sorted(FIXED_CASES))
def fixed(request):
    """A case's system and schemes, run_sweep's geometry of SEED, and on it the engine's
    gammas and per-trial MSEs and the reference's gammas."""
    system, schemes = FIXED_CASES[request.param]
    geometry = make_geometry(system, RngStream(SEED, 0))
    gammas = engine(system, geometry, SIZES, TRIALS, SEED)
    want = reference([geometry], system, SIZES, TRIALS, reference_rng(3141))
    return system, schemes, geometry, gammas, sweep_mses(system, SIZES, schemes), want


def test_fixed_geometry_rows_match_full_sampler(fixed):
    system, schemes, _, gammas, got, reference_gammas = fixed
    want = mses(reference_gammas, schemes, system, SIZES)
    # the engine's gammas that the moment tests read are run_sweep's: its first 64 trials
    head = {kind: g[:, :64] for kind, g in gammas.items()}
    for key, values in mses(head, schemes, system, SIZES).items():
        assert values.tobytes() == got[key][:64].tobytes(), key
    for key, values in got.items():
        ref = want[key]
        mean, want_mean = math.fsum(values) / TRIALS, math.fsum(ref) / TRIALS
        z = (mean - want_mean) / math.hypot(stderr(values), stderr(ref))
        assert abs(z) <= 3.0, (key, mean, want_mean, z)


def test_redrawn_geometry_rows_match_full_sampler():
    # trial t's geometry is run_sweep's, from stream 2 + 2t of SEED; the
    # engine and the reference each draw that trial's channels on it, so the
    # per-trial MSE difference is paired in the geometry
    ids = [2 + 2 * t for t in range(TRIALS)]
    geometries = channel._make_geometries(LARGEST, ids, numerics._rewinder(SEED))
    got = sweep_mses(SYSTEM, SIZES, list(Scheme), redraw=True)
    gammas = reference(geometries, SYSTEM, SIZES, TRIALS, reference_rng(3143))
    want = mses(gammas, list(Scheme), SYSTEM, SIZES)
    for key, values in got.items():
        difference = values - want[key]
        z = float(np.mean(difference)) / stderr(difference)
        assert abs(z) <= 3.0, (key, z)


def test_channel_power_matches_closed_form(fixed):
    system, _, geometry, gammas, *_ = fixed
    state = compute_long_term(geometry, replace(system, N=SIZES[-1]))
    zero = PhaseShiftVector.zero(SIZES[-1], system.L)
    for kind, theta in ((VOTED, state.theta_voted), (ZERO, zero)):
        for p, N in enumerate(SIZES):
            sized = PhaseShiftVector(theta.indices[:N], theta.levels)
            want = expected_channel_power_gain(geometry, replace(system, N=N), sized)
            power = np.abs(gammas[kind][p]) ** 2  # (T, K)
            se = np.std(power, axis=0, ddof=1) / math.sqrt(TRIALS)
            assert np.all(np.abs(power.mean(axis=0) - want) <= 4.0 * se), (kind, N)


def test_voted_zero_cross_moment_matches_full_sampler(fixed):
    # E[gamma_voted conj(gamma_zero)] per device: the joint law of the two kinds
    *_, engine_gammas, _, reference_gammas = fixed
    for p, N in enumerate(SIZES):
        got = engine_gammas[VOTED][p] * engine_gammas[ZERO][p].conj()
        want = reference_gammas[VOTED][p] * reference_gammas[ZERO][p].conj()
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
    *_, engine_gammas, _, reference_gammas = fixed
    critical = math.sqrt(-math.log(0.001 / 2) / 2)
    for kind in (VOTED, ZERO):
        for p, N in enumerate(SIZES):
            a = np.abs(engine_gammas[kind][p]).ravel()
            b = np.abs(reference_gammas[kind][p]).ravel()
            limit = critical * math.sqrt((a.size + b.size) / (a.size * b.size))
            assert ks_statistic(a, b) <= limit, (kind, N)


def test_paired_difference_along_n_matches_full_sampler():
    # the per-trial MSE difference N=256 -> 512 keeps the full sampler's spread,
    # the sub-array pairing: its variance within 4 standard errors, from the
    # fourth central moment, of the reference's
    sizes = (256, 512)
    schemes = [Scheme.OPT_PC_IRS, Scheme.FIXED_PHASE_OPT_PC]
    geometry = make_geometry(SYSTEM, RngStream(SEED, 0))
    got = sweep_mses(SYSTEM, sizes, schemes)
    gammas = reference([geometry], SYSTEM, sizes, TRIALS, reference_rng(3144))
    want = mses(gammas, schemes, SYSTEM, sizes)

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
    geometry = make_geometry(system, RngStream(SEED, 0))
    state = compute_long_term(geometry, system)
    gammas = engine(system, geometry, SIZES, 5, SEED)
    zero = PhaseShiftVector.zero(system.N, system.L)
    for t in range(5):
        for kind, theta in ((VOTED, state.theta_voted), (ZERO, zero)):
            for p, N in enumerate(SIZES):
                # the block at N: the first N elements of the block at the largest N
                stream = RngStream(SEED, 3 + 2 * t)
                sized = channel.sample_channels(geometry, replace(system, N=N), stream)
                want = channel.effective_scalar_channel(
                    sized, state.v, PhaseShiftVector(theta.indices[:N], theta.levels)
                )
                assert gammas[kind][p, t].tobytes() == want.tobytes(), (kind, N, t)
