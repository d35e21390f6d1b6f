#!/usr/bin/env python3
"""MSE-vs-elements scaling diagnostic under the inversion power rule.

Runs a recipe config, by default ``configs/scaling_law.cfg``, as
``irs-aircomp sweep --config CONFIG --schemes INV_PC_IRS --out OUT``
does, and writes the same CSV.  It also prints each N's mean MSE,
standard error, closed-form large-system bound and mean/bound ratio,
and the fitted log-log slope of the mean MSE.  The committed recipe is
pure line of sight with blocked direct links and unit path losses, the
geometry redrawn per trial (trial t's geometry from ``RngStream(seed,
2+2t)``, its channels from ``RngStream(seed, 3+2t)``).  At the
figure-sized element counts the min-over-devices statistic sits well
below its large-system value; sweep N into the thousands to watch the
mean/bound ratio fall toward 1 and the fitted log-log slope approach -2.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from irs_aircomp import (
    ConfigError,
    DegenerateChannelError,
    Scheme,
    load_config,
    run_sweep,
    write_csv,
)

RECIPE = Path(__file__).resolve().parents[1] / "configs" / "scaling_law.cfg"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(RECIPE),
                        help="recipe config file (default: configs/scaling_law.cfg)")
    parser.add_argument("--out", default="scaling_law.csv", help="sweep CSV to write")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if config.system.L != 2:
            # as in irs-aircomp bounds: at any other L the sweep leaves the bound column empty
            raise ConfigError(
                f"the bound assumes binary phases (l = 2), got l = {config.system.L}"
            )
        result = run_sweep(config, [Scheme.INV_PC_IRS])
        write_csv(result, args.out)
    except (ConfigError, DegenerateChannelError, OSError) as exc:  # exit 2, as irs-aircomp does
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = result.rows
    print(f"{'N':>6} {'mean MSE':>12} {'std. error':>12} {'bound':>12} {'mean/bound':>11}")
    for r in rows:
        print(
            f"{r.N:>6} {r.mean_mse:>12.5g} {r.stderr_mse:>12.5g} {r.bound_mse:>12.5g}"
            f" {r.mean_mse / r.bound_mse:>11.3f}"
        )
    if len(rows) >= 2:
        slope = np.polyfit(np.log([r.N for r in rows]), np.log([r.mean_mse for r in rows]), 1)[0]
        a, b = rows[-2:]
        local = math.log(b.mean_mse / a.mean_mse) / math.log(b.N / a.N)
        print(f"log-log slope: mean {slope:.2f}, last-step mean {local:.2f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
