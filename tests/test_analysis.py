import math

import numpy as np
import pytest

from irs_aircomp.analysis import (
    AsymptoticParams,
    approx_array_gain,
    expected_channel_power_gain,
    group_split,
    lambda1,
    min_gamma_sq_approx,
    mse_lower_bound,
    mse_upper_bound,
    n_threshold,
)
from irs_aircomp.channel import SystemConfig, make_geometry
from irs_aircomp.numerics import RngStream
from irs_aircomp.protocol import PhaseShiftVector, majority_vote, per_device_phases


def params(**overrides):
    base = dict(M=1, N=10, K=2, Pmax=1.0, sigma2=1.0, rho_min=1.0, epsilon=0.25)
    base.update(overrides)
    return AsymptoticParams(**base)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: params(Pmax=0.0), "Pmax"),
        (lambda: params(Pmax=-1.0), "Pmax"),
        (lambda: params(Pmax=math.nan), "Pmax"),
        (lambda: params(Pmax=math.inf), "Pmax"),
        (lambda: params(sigma2=-1.0), "sigma2"),
        (lambda: params(sigma2=math.nan), "sigma2"),
        (lambda: params(sigma2=math.inf), "sigma2"),
        (lambda: params(N=2.5), "N"),
        (lambda: params(M=True), "M"),
        (lambda: params(K=0), "K"),
        (lambda: lambda1(2.5), "K"),
        (lambda: lambda1(True), "K"),
        (lambda: approx_array_gain(2.5, 3), "N"),
        (lambda: approx_array_gain(10, 3.0), "K"),
        (lambda: params(epsilon=1.0), "epsilon"),
        (lambda: mse_lower_bound(0.0, 1.0, 1.0), "gamma1_sq"),
        (lambda: mse_lower_bound(math.nan, 1.0, 1.0), "gamma1_sq"),
        (lambda: mse_lower_bound(math.inf, 1.0, 1.0), "gamma1_sq"),
        (lambda: mse_lower_bound(1.0, -1.0, 1.0), "Pmax"),
        (lambda: mse_lower_bound(1.0, math.nan, 1.0), "Pmax"),
        (lambda: mse_lower_bound(1.0, 1.0, -1.0), "sigma2"),
        (lambda: mse_lower_bound(1.0, 1.0, math.inf), "sigma2"),
    ],
    ids=[
        "Pmax=0", "Pmax=-1", "Pmax=nan", "Pmax=inf", "sigma2=-1", "sigma2=nan", "sigma2=inf",
        "N=2.5", "M=True", "K=0", "lambda1(2.5)", "lambda1(True)", "gain(N=2.5)", "gain(K=3.0)",
        "epsilon=1", "lower_bound(gamma1_sq=0)", "lower_bound(gamma1_sq=nan)",
        "lower_bound(gamma1_sq=inf)", "lower_bound(Pmax=-1)", "lower_bound(Pmax=nan)",
        "lower_bound(sigma2=-1)", "lower_bound(sigma2=inf)",
    ],
)
def test_bound_inputs_rejected_naming_the_field(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


class TestLambda1:
    def test_single_device_always_wins(self):
        assert lambda1(1) == 1.0

    def test_three_devices(self):
        assert lambda1(3) == 0.75

    def test_five_devices(self):
        assert lambda1(5) == 11 / 16

    def test_two_devices_half_tie_mass(self):
        # win outright w.p. 1/2, split the tie otherwise: 1/2 + 1/4
        assert lambda1(2) == 0.75

    def test_range_and_monotone_over_odd(self):
        values = [lambda1(k) for k in range(1, 200, 2)]
        assert all(0.5 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_approaches_one_half(self):
        assert lambda1(4001) == pytest.approx(0.5, abs=0.01)

    def test_stirling_limit(self):
        # (2*lambda1 - 1) * sqrt(pi K / 2) -> 1 for odd K
        for K in (101, 1001):
            scaled = (2 * lambda1(K) - 1) * math.sqrt(math.pi * K / 2)
            assert scaled == pytest.approx(1.0, rel=0.02)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lambda1(0)


class TestApproxArrayGain:
    def test_unit_case(self):
        assert approx_array_gain(1, 1) == pytest.approx(8 / math.pi**3, rel=1e-14)

    def test_quadratic_in_elements(self):
        assert approx_array_gain(20, 3) == pytest.approx(4 * approx_array_gain(10, 3), rel=1e-14)

    def test_inverse_in_devices(self):
        assert approx_array_gain(10, 6) == pytest.approx(approx_array_gain(10, 3) / 2, rel=1e-14)


class TestMseUpperBound:
    def test_reference_value(self):
        assert mse_upper_bound(params()) == pytest.approx(math.pi**3 / 400, rel=1e-12)

    def test_quarter_per_doubled_elements(self):
        assert mse_upper_bound(params(N=20)) == pytest.approx(
            mse_upper_bound(params(N=10)) / 4, rel=1e-14
        )

    def test_noise_free(self):
        assert mse_upper_bound(params(sigma2=0.0)) == 0.0


class TestNThreshold:
    def test_reference_value(self):
        p = params(K=2, epsilon=0.25)
        assert n_threshold(p) == pytest.approx(math.sqrt(math.pi**3 / 4), rel=1e-12)

    def test_diverges_toward_unit_target(self):
        p_far = params(epsilon=1 - 1e-9)
        p_near = params(epsilon=0.5)
        assert n_threshold(p_far) > 100 * n_threshold(p_near)

    def test_noise_free(self):
        assert n_threshold(params(sigma2=0.0)) == 0.0

    def test_reads_rho_min(self):
        assert n_threshold(params(rho_min=0.25)) == pytest.approx(2 * n_threshold(params()), rel=1e-14)

    def test_rejects_bad_pathloss(self):
        with pytest.raises(ValueError, match="rho_min"):
            params(rho_min=0.0)


class TestMseLowerBound:
    def test_reference_value(self):
        assert mse_lower_bound(1.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_noise_free(self):
        assert mse_lower_bound(1.0, 1.0, 0.0) == 0.0

    def test_vanishes_at_high_snr(self):
        assert mse_lower_bound(1e12, 1.0, 1.0) < 1e-11

    def test_below_single_device_optimum(self):
        # K = 1 optimum is 1/2, floor is 1/4
        assert mse_lower_bound(1.0, 1.0, 1.0) <= 0.5


class TestGroupSplit:
    def test_identical(self):
        psv = PhaseShiftVector(np.array([0, 1, 0, 1]), 2)
        assert group_split(psv, psv) == (4, 0)

    def test_fully_flipped(self):
        a = PhaseShiftVector(np.zeros(5, int), 2)
        b = PhaseShiftVector(np.ones(5, int), 2)
        assert group_split(a, b) == (0, 5)

    def test_counts_sum_to_n(self):
        gen = np.random.default_rng(0)
        a = PhaseShiftVector(gen.integers(0, 4, 50), 4)
        b = PhaseShiftVector(gen.integers(0, 4, 50), 4)
        n1, n2 = group_split(a, b)
        assert n1 + n2 == 50

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ValueError):
            group_split(PhaseShiftVector(np.zeros(3, int), 2), PhaseShiftVector(np.zeros(3, int), 4))


class TestMinGammaSqApprox:
    def test_matches_unit_array_gain(self):
        p = params(M=1, N=1, K=1)
        assert min_gamma_sq_approx(p) == pytest.approx(8 / math.pi**3, rel=1e-14)

    def test_linear_in_antennas_quadratic_in_elements(self):
        base = min_gamma_sq_approx(params(M=2, N=8, K=3, rho_min=0.5))
        assert min_gamma_sq_approx(params(M=4, N=8, K=3, rho_min=0.5)) == pytest.approx(
            2 * base, rel=1e-14
        )
        assert min_gamma_sq_approx(params(M=2, N=16, K=3, rho_min=0.5)) == pytest.approx(
            4 * base, rel=1e-14
        )


def _vote_for_geometry(geometry, N, L):
    preferred = [
        per_device_phases(geometry.phi_t, nu_k, N, L, geometry.spacing_ratio)
        for nu_k in geometry.nu
    ]
    return preferred, majority_vote(preferred)


def test_group_split_fraction_tracks_vote_probability():
    # empirical mean |N1|/N over random-angle draws vs the exact vote probability
    K, N = 21, 512
    cfg = SystemConfig(K=K, N=N, L=2, pure_los=True, block_direct=True)
    fractions = []
    for trial in range(60):
        geo = make_geometry(cfg, RngStream(1234, trial))
        preferred, voted = _vote_for_geometry(geo, N, 2)
        for psv in preferred:
            n1, _ = group_split(voted, psv)
            fractions.append(n1 / N)
    assert np.mean(fractions) == pytest.approx(lambda1(K), rel=0.03)


def test_expected_gain_pure_los_limit():
    cfg = SystemConfig(M=4, N=8, K=2, pure_los=True, phi_t=0.2, nu=(0.2, -0.5))
    geo = make_geometry(cfg, RngStream(3, 0))
    theta = PhaseShiftVector.zero(8, 2)
    gains = expected_channel_power_gain(geo, cfg, theta)
    # aligned device: full N^2 array gain plus its direct-link power
    expected0 = geo.rho_d[0] + 4 * geo.rho_1 * geo.rho_r[0] * 8**2
    assert gains[0] == pytest.approx(expected0, rel=1e-12)


def test_expected_gain_rician_adds_scattered_floor():
    cfg = SystemConfig(M=4, N=8, K=1, rician_delta=10.0, phi_t=0.2, nu=(0.2,))
    geo = make_geometry(cfg, RngStream(3, 0))
    theta = PhaseShiftVector.zero(8, 2)
    gain = expected_channel_power_gain(geo, cfg, theta)[0]
    base = 4 * geo.rho_1 * geo.rho_r[0]
    expected = geo.rho_d[0] + base / 11.0 * (10.0 * 8**2 + 8)
    assert gain == pytest.approx(expected, rel=1e-12)
