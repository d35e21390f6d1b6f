"""Correctness checks on the benchmark's outputs, written apart from the simulator.

Nothing here imports ``irs_aircomp``.  Each check recomputes what it
compares against from the paper's closed forms with numpy and the
standard library: path losses, the MSE bound and element threshold,
the effective channels through a materialised M x N IRS-AP matrix, the
optimal power control by a search over the denoising factor, and the
vote-alignment probability as a binomial sum.  No check compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SINC_HALF_SQ = (2.0 / math.pi) ** 2  # sinc(1/2)^2 = (sin(pi/2) / (pi/2))^2
CSV_HEADER = (
    "scheme,N,M,K,trials,mean_mse,stderr_mse,mean_ktilde,bound_mse,n_threshold"
)
IRS_SCHEMES = ("OPT_PC_IRS", "INV_PC_IRS")
ALL_SCHEMES = (
    "OPT_PC_IRS",
    "INV_PC_IRS",
    "OPT_PC_NO_IRS",
    "INV_PC_NO_IRS",
    "FIXED_PHASE_OPT_PC",
)

# Margin, in combined standard errors, of the N=256 ordering and of a rise in N.
ORDERING_SIGMAS = 3.0
# Relative tolerance of recomputed closed forms and channels.
REL_TOL = 1e-9
# Band of the fitted log-log slope of the median MSE on scaling-los.
SLOPE_BAND = (-2.8, -1.8)
# Relative tolerance of the vote-match fraction against the binomial.
VOTE_REL_TOL = 0.01


@dataclass
class Checks:
    """Named pass/fail results; a failure keeps its detail."""

    passed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed.append(name)
        else:
            self.failed.append(f"{name}: {detail}")

    def failed_names(self) -> set[str]:
        return {f.split(":", 1)[0] for f in self.failed}


def steering(n: int, angle: float, spacing: float) -> np.ndarray:
    """Uniform linear array response exp(i 2 pi d m sin(angle)), m = 0..n-1."""
    return np.exp(1j * 2.0 * math.pi * spacing * math.sin(angle) * np.arange(n))


def path_loss(distance: float, exponent: float, ref_loss: float) -> float:
    """C0 d^-alpha with the 1 m reference distance as the near-field floor."""
    return ref_loss * max(float(distance), 1.0) ** (-exponent)


def mse_bound(K, M, N, Pmax, sigma2, rho_min) -> float:
    """The paper's large-system MSE upper bound pi K sigma^2 / (2 Pmax rho sinc^2 M N^2)."""
    return math.pi * K * sigma2 / (2.0 * Pmax * rho_min * SINC_HALF_SQ * M * N**2)


def element_threshold(K, M, Pmax, sigma2, rho_min, epsilon) -> float:
    """The element count beyond which inversion loses at most 1 - epsilon."""
    r = math.sqrt(epsilon)
    return math.sqrt(
        math.pi * K * r * sigma2 / (2.0 * rho_min * M * Pmax * (1.0 - r) * SINC_HALF_SQ)
    )


def vote_win_probability(K: int) -> float:
    """P(a device's binary preference wins the plurality vote of K devices).

    The other K-1 preferences are independent fair bits; an exact tie
    (even K) is credited half, the average of the smaller-phase rule.
    """
    total = 0.0
    for j in range(K):  # j of the other K-1 devices agree
        p = math.comb(K - 1, j) / 2 ** (K - 1)
        mine, theirs = 1 + j, K - 1 - j
        if mine > theirs:
            total += p
        elif mine == theirs:
            total += 0.5 * p
    return total


def power_control_mse(g: np.ndarray, eta: float, Pmax: float, sigma2: float) -> float:
    """MSE at denoising factor eta with the best feasible powers min(Pmax, eta/g^2)."""
    p = np.minimum(Pmax, eta / g**2)
    miss = np.sqrt(p) * g / math.sqrt(eta) - 1.0
    return math.fsum([*(miss**2).tolist(), sigma2 / eta])


def search_optimal_mse(g: np.ndarray, Pmax: float, sigma2: float) -> float:
    """Global minimum over eta of ``power_control_mse``, by exhaustive search.

    Between consecutive saturation points eta = Pmax g_k^2 the objective
    is a quadratic in x = 1/sqrt(eta); each piece is minimised exactly
    and clipped to its interval.  A dense geometric grid over eta backs
    the piecewise search up.
    """
    a = np.sort(math.sqrt(Pmax) * np.abs(g))
    K = a.shape[0]
    candidates = []
    for i in range(K + 1):  # the i weakest devices saturate
        x_hi = math.inf if i == 0 else 1.0 / a[i - 1]
        x_lo = 0.0 if i == K else 1.0 / a[i]
        s1 = float(np.sum(a[:i]))
        s2 = float(np.sum(a[:i] ** 2)) + sigma2
        x = s1 / s2 if s2 > 0 else x_hi
        x = min(max(x, x_lo), x_hi)
        if 0.0 < x < math.inf:
            candidates.append(1.0 / x**2)
    grid = np.geomspace(1e-3 * a[0] ** 2, 1e3 * a[-1] ** 2, 4097)
    candidates.extend(grid.tolist())
    return min(power_control_mse(np.abs(g), eta, Pmax, sigma2) for eta in candidates)


def parse_csv(text: str) -> tuple[str, list[dict]]:
    """Header line and rows of a sweep CSV, with numeric cells parsed."""
    lines = text.splitlines()
    header = lines[0] if lines else ""
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            {
                "scheme": cells[0],
                "N": int(cells[1]),
                "M": int(cells[2]),
                "K": int(cells[3]),
                "trials": int(cells[4]),
                "mean_mse": float(cells[5]),
                "stderr_mse": float(cells[6]),
                "mean_ktilde": float(cells[7]),
                "bound_mse": float(cells[8]) if cells[8] else None,
                "n_threshold": float(cells[9]) if cells[9] else None,
            }
        )
    return header, rows


def check_csv_format(checks: Checks, header: str, rows: list[dict]) -> None:
    checks.expect("csv.header", header == CSV_HEADER, f"header {header!r}")
    keys = [(r["scheme"], r["N"]) for r in rows]
    checks.expect("csv.sorted", keys == sorted(keys), "rows not sorted by (scheme, N)")


def check_rows(
    checks: Checks,
    rows: list[dict],
    *,
    n_sweep,
    trials: int,
    M: int,
    K: int,
    geometry_averaged: bool,
) -> None:
    """Row-level properties of a five-scheme sweep.

    With ``geometry_averaged`` (a geometry drawn per trial) OPT_PC_IRS must
    fall strictly at every N step.  At one fixed geometry the theory does
    not promise that: a step can fall little (1.10x, 2.9 standard errors,
    was the smallest of 209 seeds), so there a step fails only when it
    rises by more than ``ORDERING_SIGMAS`` standard errors, and the whole
    curve must fall.
    """
    want = {(s, n) for s in ALL_SCHEMES for n in n_sweep}
    got = [(r["scheme"], r["N"]) for r in rows]
    checks.expect(
        "rows.complete",
        len(got) == len(want) and set(got) == want,
        f"missing {sorted(want - set(got))}, extra {len(got) - len(want)}",
    )
    bad_shape = [k for k, r in zip(got, rows) if (r["trials"], r["M"], r["K"]) != (trials, M, K)]
    checks.expect("rows.trials", not bad_shape, f"trials/M/K differ at {bad_shape}")
    bad = [k for k, r in zip(got, rows)
           if not (math.isfinite(r["mean_mse"]) and r["mean_mse"] > 0
                   and math.isfinite(r["stderr_mse"]) and r["stderr_mse"] >= 0)]
    checks.expect("rows.finite_positive", not bad, f"non-finite or non-positive at {bad}")
    bad = [k for k, r in zip(got, rows)
           if (r["scheme"].startswith("INV") and r["mean_ktilde"] != 1.0)
           or (r["scheme"].startswith(("OPT", "FIXED")) and not 1.0 <= r["mean_ktilde"] <= K)]
    checks.expect("rows.ktilde", not bad, f"mean_ktilde out of range at {bad}")

    by = {(r["scheme"], r["N"]): r["mean_mse"] for r in rows}
    bad = []
    for n in n_sweep:
        for opt, inv in (("OPT_PC_IRS", "INV_PC_IRS"), ("OPT_PC_NO_IRS", "INV_PC_NO_IRS")):
            o, i = by.get((opt, n)), by.get((inv, n))
            if o is None or i is None or not o <= i * (1.0 + 1e-12):
                bad.append((opt, n))
    checks.expect("rows.opt_le_inv", not bad, f"optimal above inversion at {bad}")

    full = {(r["scheme"], r["N"]): r for r in rows}
    curve = [full.get(("OPT_PC_IRS", n)) for n in n_sweep]
    ok = None not in curve and curve[-1]["mean_mse"] < curve[0]["mean_mse"]
    rises = []
    if ok:
        for a, b in zip(curve, curve[1:]):
            noise = 0.0 if geometry_averaged else math.hypot(a["stderr_mse"], b["stderr_mse"])
            if not b["mean_mse"] - a["mean_mse"] < ORDERING_SIGMAS * noise:
                rises.append(b["N"])
        ok = not rises
    checks.expect(
        "rows.opt_irs_decreasing",
        ok,
        f"OPT_PC_IRS does not fall at N={rises} or overall: "
        f"{[None if r is None else r['mean_mse'] for r in curve]}",
    )

    chain = [full.get((s, 256)) for s in ("OPT_PC_IRS", "FIXED_PHASE_OPT_PC", "OPT_PC_NO_IRS")]
    ok = None not in chain
    margins = []
    if ok:
        for lo, hi in zip(chain, chain[1:]):
            se = math.hypot(lo["stderr_mse"], hi["stderr_mse"])
            margins.append((hi["mean_mse"] - lo["mean_mse"]) / se if se > 0 else -math.inf)
        ok = all(m > ORDERING_SIGMAS for m in margins)
    checks.expect(
        "rows.ordering_n256",
        ok,
        f"OPT_PC_IRS < FIXED_PHASE_OPT_PC < OPT_PC_NO_IRS margins {margins} "
        f"(need > {ORDERING_SIGMAS} combined standard errors)",
    )


def check_bound_columns(
    checks: Checks,
    rows: list[dict],
    *,
    system: dict,
    device_positions: np.ndarray,
    epsilon: float,
) -> None:
    """bound_mse and n_threshold against the closed forms, own path losses.

    ``system`` holds M, K, Pmax, sigma2, ap_position, irs_position,
    pathloss_exponent_reflected and ref_loss_linear;
    ``device_positions`` are those of the reference geometry.
    """
    ap = np.asarray(system["ap_position"], dtype=float)
    irs = np.asarray(system["irs_position"], dtype=float)
    alpha = system["pathloss_exponent_reflected"]
    ref = system["ref_loss_linear"]
    rho_1 = path_loss(np.linalg.norm(irs - ap), alpha, ref)
    rho_r = [path_loss(np.linalg.norm(p - irs), alpha, ref) for p in device_positions]
    rho_min = rho_1 * min(rho_r)
    M, K, Pmax, sigma2 = system["M"], system["K"], system["Pmax"], system["sigma2"]
    threshold = element_threshold(K, M, Pmax, sigma2, rho_min, epsilon)
    bad_bound, bad_thr = [], []
    for r in rows:
        key = (r["scheme"], r["N"])
        if r["scheme"] in IRS_SCHEMES:
            bound = mse_bound(K, M, r["N"], Pmax, sigma2, rho_min)
            if r["bound_mse"] is None or abs(r["bound_mse"] - bound) > REL_TOL * bound:
                bad_bound.append(key)
            if r["n_threshold"] is None or abs(r["n_threshold"] - threshold) > REL_TOL * threshold:
                bad_thr.append(key)
        else:
            if r["bound_mse"] is not None:
                bad_bound.append(key)
            if r["n_threshold"] is not None:
                bad_thr.append(key)
    checks.expect("rows.bound_mse", not bad_bound, f"bound_mse differs at {bad_bound}")
    checks.expect("rows.n_threshold", not bad_thr, f"n_threshold differs at {bad_thr}")


@dataclass
class Block:
    """One freshly drawn coherence block and the program's results on it.

    Angles and spacing come from the geometry; ``rho_1`` is not taken
    from the program but recomputed from the node positions.
    """

    M: int
    N: int
    spacing: float
    phi_r: float
    phi_t: float
    ap_position: tuple
    irs_position: tuple
    exponent_reflected: float
    ref_loss: float
    v: np.ndarray
    theta_phases: np.ndarray
    h_direct: np.ndarray
    h_reflect: np.ndarray
    gammas: np.ndarray
    Pmax: float
    sigma2: float
    inv_mse: float
    opt_mse: float | None = None


def check_block(checks: Checks, b: Block) -> None:
    """Effective channels, power control and MSE bounds on one block."""
    a_m = steering(b.M, b.phi_r, b.spacing)
    checks.expect(
        "block.beamformer",
        np.allclose(b.v, a_m / math.sqrt(b.M), rtol=0.0, atol=1e-12),
        "v is not a_M(phi_r)/sqrt(M)",
    )
    rho_1 = path_loss(
        np.linalg.norm(np.subtract(b.irs_position, b.ap_position)),
        b.exponent_reflected,
        b.ref_loss,
    )
    G = math.sqrt(rho_1) * np.outer(a_m, steering(b.N, b.phi_t, b.spacing).conj())
    received = b.h_direct + (b.h_reflect * np.exp(1j * b.theta_phases)) @ G.T  # (K, M)
    gammas = received @ b.v.conj()
    err = float(np.max(np.abs(b.gammas - gammas)))
    scale = float(np.max(np.abs(gammas)))
    checks.expect(
        "block.effective_channel",
        err <= REL_TOL * scale,
        f"max |gamma - own| {err:.3e} against max |gamma| {scale:.3e}",
    )

    g = np.abs(gammas)
    g1_sq = float(np.min(g) ** 2)
    inv = b.sigma2 / (b.Pmax * g1_sq)
    checks.expect(
        "block.inversion",
        abs(b.inv_mse - inv) <= REL_TOL * inv,
        f"inversion MSE {b.inv_mse!r}, closed form {inv!r}",
    )
    lower = b.Pmax * b.sigma2 * g1_sq / (b.sigma2 + b.Pmax * g1_sq) ** 2
    best = search_optimal_mse(g, b.Pmax, b.sigma2)
    results = [b.inv_mse] + ([b.opt_mse] if b.opt_mse is not None else [])
    checks.expect(
        "block.lower_bound",
        all(x >= lower * (1.0 - 1e-12) for x in results) and best >= lower * (1.0 - 1e-12),
        f"MSEs {results}, search {best!r} against lower bound {lower!r}",
    )
    checks.expect(
        "block.inversion_vs_search",
        best <= b.inv_mse * (1.0 + 1e-12),
        f"search optimum {best!r} above inversion {b.inv_mse!r}",
    )
    if b.opt_mse is not None:
        checks.expect(
            "block.power_search",
            abs(b.opt_mse - best) <= REL_TOL * best,
            f"optimal power control {b.opt_mse!r}, own search {best!r}",
        )


@dataclass
class ScalingPoint:
    """scaling-los at one element count: per-trial MSEs and vote data."""

    N: int
    mses: list[float]
    bound: float
    phi_t: list[float]
    nu: list[np.ndarray]
    voted: list[np.ndarray]


def check_scaling(
    checks: Checks,
    points: list[ScalingPoint],
    *,
    K: int,
    M: int,
    Pmax: float,
    sigma2: float,
    spacing: float,
) -> None:
    """Scaling law, bound and vote statistics of the pure line-of-sight recipe.

    Path losses are unit (reference loss 1, exponent 0), so rho_min = 1.
    """
    ns = [p.N for p in points]
    bad = [p.N for p in points
           if abs(p.bound - mse_bound(K, M, p.N, Pmax, sigma2, 1.0)) > REL_TOL * p.bound]
    checks.expect("scaling.bound", not bad, f"bound differs from the closed form at N={bad}")

    ratios = [math.fsum(p.mses) / len(p.mses) / mse_bound(K, M, p.N, Pmax, sigma2, 1.0)
              for p in points]
    checks.expect("scaling.ratio_above_one", all(r > 1.0 for r in ratios), f"mean/bound {ratios}")
    checks.expect(
        "scaling.ratio_falls",
        all(a > b for a, b in zip(ratios, ratios[1:])),
        f"mean/bound {ratios} at N={ns}",
    )

    medians = [float(np.median(p.mses)) for p in points]
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    lo, hi = SLOPE_BAND
    checks.expect(
        "scaling.slope",
        lo <= slope <= hi,
        f"median-MSE log-log slope {slope:.3f} outside [{lo}, {hi}]",
    )

    matches = []
    for p in points:
        m = np.arange(p.N)
        for phi_t, nu, voted in zip(p.phi_t, p.nu, p.voted):
            # continuous optimum 2 pi d m (sin phi_t - sin nu_k), nearest of {0, pi}
            phase = 2.0 * math.pi * spacing * np.outer(math.sin(phi_t) - np.sin(nu), m)
            preferred = (np.cos(phase) < 0.0).astype(np.int64)
            matches.append(float(np.mean(preferred == np.asarray(voted)[None, :])))
    fraction = float(np.mean(matches))
    lam = vote_win_probability(K)
    checks.expect(
        "scaling.vote_fraction",
        abs(fraction - lam) <= VOTE_REL_TOL * lam,
        f"vote-match fraction {fraction:.5f}, binomial {lam:.5f}",
    )
