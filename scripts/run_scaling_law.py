#!/usr/bin/env python3
"""MSE-vs-elements scaling diagnostic under the inversion power rule.

Pure line-of-sight regime with blocked direct links and unit path
losses: each trial draws fresh static angles, votes the binary phase
configuration, and evaluates the inversion-rule MSE sigma^2 / (Pmax
min_k |gamma_k|^2) next to the closed-form large-system bound.  The
whole sweep is one ``run_sweep`` of ``INV_PC_IRS`` with the geometry
redrawn per trial (trial t's geometry from ``RngStream(seed, 2+2t)``,
its channels from ``RngStream(seed, 3+2t)``).  At the figure-sized
element counts the min-over-devices statistic sits well below its
large-system value; sweep N into the thousands to watch the mean/bound
ratio fall toward 1 and the fitted log-log slope approach -2.
"""

import argparse
import csv
import math

import numpy as np

from irs_aircomp import ExperimentConfig, Scheme, SystemConfig, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default="64,128,256,512,1024,2048,4096",
                        help="comma-separated element counts")
    parser.add_argument("--k", type=int, default=21)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--sigma2", type=float, default=1.0)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", default="scaling_law.csv")
    args = parser.parse_args()

    ns = [int(x) for x in args.n.split(",")]
    system = SystemConfig(
        M=args.m, K=args.k, L=2, Pmax=1.0, sigma2=args.sigma2,
        pure_los=True, block_direct=True,
        ref_loss_linear=1.0,
        pathloss_exponent_reflected=0.0, pathloss_exponent_direct=0.0,
        device_radius=0.0,
    )
    config = ExperimentConfig(
        system=system, n_sweep=ns, trials=args.trials, seed=args.seed,
        redraw_geometry_per_trial=True,
    )
    # at unit path losses the bound column is the closed form at rho_min = 1
    rows = [
        (r.N, r.mean_mse, r.stderr_mse, r.bound_mse, r.mean_mse / r.bound_mse)
        for r in run_sweep(config, [Scheme.INV_PC_IRS]).rows
    ]
    print(f"{'N':>6} {'mean MSE':>12} {'std. error':>12} {'bound':>12} {'mean/bound':>11}")
    for N, mean, stderr, bound, ratio in rows:
        print(f"{N:>6} {mean:>12.5g} {stderr:>12.5g} {bound:>12.5g} {ratio:>11.3f}")

    if len(ns) >= 2:
        slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
        tail = rows[-2:]
        local = math.log(tail[1][1] / tail[0][1]) / math.log(tail[1][0] / tail[0][0])
        print(f"log-log slope: mean {slope:.2f}, last-step mean {local:.2f}")

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["N", "mean_mse", "stderr_mse", "bound_mse", "mean_over_bound"])
        for row in rows:
            writer.writerow([row[0], *(repr(v) for v in row[1:])])
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
