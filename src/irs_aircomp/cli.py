"""Command-line interface: sweep, bounds, validate, single.

Exit codes: 0 success, 1 validation failure, 2 configuration or I/O
error, or a degenerate channel.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    approx_array_gain,
    min_gamma_sq_approx,
    mse_lower_bound,
    mse_upper_bound,
    n_threshold,
)
from .channel import make_geometry
from .experiments import (
    ConfigError,
    Scheme,
    _bound_params,
    _write_table_file,
    load_config,
    run_sweep,
    write_csv,
    write_rows,
)
from .numerics import RngStream, sinc_normalized
from .oracles import (
    channel_power_error,
    mse_identity_error,
    power_control_gap,
    random_power_instance,
)
from .protocol import DegenerateChannelError, channel_inversion_power_control, optimal_power_control


def _parse_schemes(raw: str) -> list[str]:
    """The comma-separated ids of ``raw``, blanks dropped; ``run_sweep`` checks them."""
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    schemes = _parse_schemes(args.schemes) if args.schemes else list(Scheme)
    directory = os.path.dirname(args.out) or "."
    # fail before the trials, not after them
    if os.path.isdir(args.out):
        raise OSError(f"failed writing sweep CSV to {args.out}: it is a directory")
    if not os.access(directory, os.W_OK):
        raise OSError(f"failed writing sweep CSV to {args.out}: cannot write in {directory}")
    result = run_sweep(config, schemes)
    write_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    config = load_config(args.config)
    system = config.system
    if system.L != 2:
        # the closed forms assume binary phases; a sweep leaves its bound columns empty
        raise ConfigError(f"bounds assume binary phases (l = 2), got l = {system.L}")
    bound_params = _bound_params(config, make_geometry(system, RngStream(config.seed, 0)))
    header = ("N", "approx_array_gain", "min_gamma_sq_approx", "mse_upper_bound",
              "n_threshold", "mse_lower_bound")
    rows = (
        (
            params.N,
            approx_array_gain(params.N, system.K),
            gamma1_sq := min_gamma_sq_approx(params),
            mse_upper_bound(params),
            n_threshold(params),
            mse_lower_bound(gamma1_sq, system.Pmax, system.sigma2),
        )
        for params in bound_params
    )
    _write_table_file(args.out, "bounds", header, rows)
    print(f"wrote bounds for {len(config.n_sweep)} element counts to {args.out}")
    return 0


def _cmd_single(args) -> int:
    config = load_config(args.config)
    schemes = _parse_schemes(args.scheme)
    if len(schemes) != 1:
        raise ConfigError("single takes exactly one scheme")
    # the row at N depends on the sweep's element counts below N, not above it
    below = tuple(n for n in config.n_sweep if n < args.n)
    result = run_sweep(replace(config, n_sweep=(*below, args.n)), schemes)
    write_rows(replace(result, rows=[r for r in result.rows if r.N == args.n]), sys.stdout)
    return 0


def _permutation_invariant(rng: np.random.Generator, instances: int) -> bool:
    """Reordering the devices reorders the powers and keeps the denoising factor."""
    ok = True
    for _ in range(instances):
        gammas, sigma2 = random_power_instance(rng)
        opt = optimal_power_control(gammas, 1.0, sigma2)
        perm = rng.permutation(gammas.shape[0])
        opt_perm = optimal_power_control(gammas[perm], 1.0, sigma2)
        ok &= bool(
            np.allclose(opt_perm.powers, opt.powers[perm], rtol=1e-12, atol=1e-15)
            and abs(opt_perm.eta - opt.eta) <= 1e-12 * opt.eta
        )
    return ok


def _inversion_dominated(rng: np.random.Generator, instances: int) -> bool:
    """Optimal <= inversion MSE, and both >= the realization lower bound."""
    ok = True
    for _ in range(instances):
        K = int(rng.integers(2, 8))
        gammas = 10.0 ** rng.uniform(-1.5, 1.5, K)
        sigma2 = float(rng.uniform(0.1, 2.0))
        opt = optimal_power_control(gammas, 1.0, sigma2).mse
        inv = channel_inversion_power_control(gammas, 1.0, sigma2).mse
        lb = mse_lower_bound(float(np.min(np.abs(gammas) ** 2)), 1.0, sigma2)
        ok &= opt <= inv + 1e-12 and opt >= lb - 1e-12 and inv >= lb - 1e-12
    return ok


def _sinc_error(rng: np.random.Generator, samples: int) -> float:
    """Relative error of the Monte Carlo |E e^{j theta}|, theta ~ U(-pi/2, pi/2), vs sinc(1/2)."""
    theta = rng.uniform(-np.pi / 2, np.pi / 2, samples)
    target = sinc_normalized(0.5)
    return abs(np.abs(np.mean(np.exp(1j * theta))) - target) / target


def _cmd_validate(args) -> int:
    """The oracle checks of acceptance criteria 1, 8 and 4, and three of its own."""
    fast = args.fast
    print(f"validation suite ({'fast' if fast else 'full'})")
    rng = np.random.default_rng(2024)
    n = 50 if fast else 200
    gap, rel, feasible = power_control_gap(rng, n)
    permuted = _permutation_invariant(rng, n)
    dominated = _inversion_dominated(rng, n)
    identity = mse_identity_error(rng, 25 if fast else 100)
    samples, calls = (10**5, 200) if fast else (10**6, 500)  # calls draw 200 samples each
    sinc = _sinc_error(rng, samples)
    power, power_se = channel_power_error(rng, calls)
    checks = [
        (
            "power control never beats nor trails the search oracle",
            gap <= 1e-9 and rel <= 1e-7,
            f"worst signed gap {gap:.3e}, worst |rel diff| {rel:.3e}",
        ),
        ("power feasibility 0 <= p <= Pmax", feasible, f"{n} instances"),
        ("permutation invariance", permuted, f"{n} instances"),
        ("optimal <= inversion MSE and both >= realization lower bound", dominated, f"{n} instances"),
        (
            "vector-channel MSE equals scalar-channel MSE for phase-aligned b",
            identity <= 1e-12,
            f"worst relative difference {identity:.3e}",
        ),
        (
            "Monte Carlo phase average matches sinc(1/2)",
            sinc <= 0.01,
            f"relative error {sinc:.4f} at {samples} samples",
        ),
        (
            "Monte Carlo effective channel power matches closed form",
            power <= 0.02,
            f"worst relative error {power:.4f} (s.e. {power_se:.4f}) at {calls} calls",
        ),
    ]
    for name, ok, detail in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    failed = sum(not ok for _, ok, _ in checks)
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="irs-aircomp",
        description="Link-level simulator for IRS-aided over-the-air computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run Monte Carlo sweeps and write a CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--schemes", help="comma-separated scheme ids (default: all)")
    p_sweep.add_argument("--trials", type=int)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="emit closed-form reference curves only")
    p_bounds.add_argument("--config", required=True)
    p_bounds.add_argument("--out", required=True)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_validate = sub.add_parser("validate", help="run the oracle and invariant suites")
    p_validate.add_argument("--fast", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_single = sub.add_parser("single", help="run one sweep point and print the row")
    p_single.add_argument("--config", required=True)
    p_single.add_argument("--n", type=int, required=True)
    p_single.add_argument("--scheme", required=True)
    p_single.set_defaults(func=_cmd_single)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, DegenerateChannelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
