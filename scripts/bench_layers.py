#!/usr/bin/env python3
"""Per-layer timings of the simulator's hot functions, written to a JSON record.

    python scripts/bench_layers.py --out BENCH_9.json
    python scripts/bench_layers.py --baseline ../parent/src --out BENCH_9.json
    python scripts/bench_layers.py --baseline ../parent/src --long --repeats 5 --out BENCH_14.json

Times each layer of the long-term and per-block stages on its own: a
fresh random stream (``RngStream.generator``, the public path), the
engine's per-trial stream (one Philox of the run rewound to a trial's
stream, ``numerics._rewinder``), ``make_geometry``,
``compute_long_term`` and its two kernels
(``phase_index_rows``, ``vote_indices``), ``sample_channels``,
``effective_scalar_channel``, the engine's per-trial draw
(``_effective_block``, direct links and two normals per device for each
of the 4 segments of the default sweep) and its block form over a power
block of 64 trials (``_effective_draws``, each trial on the rewound
Philox, into one buffer), the dominant-direct combiner on
a block of 64 trials, single-row and 64-row power control, and the
steering kernel: ``line_of_sight`` at K = 21 (the scaling recipe's
device count) with N in {512, 2048, 8192} and ``array_response`` with
n in {10, 8192} (a receive array and the largest surface).  Other
channel-side layers run at the default scenario (K = 20, M = 10, L = 2)
with N in {64, 512, 4096}; power control runs at K in {20, 1000}.  Two
layers time the whole engine through the public API: ``run_sweep`` over
64 trials (one power block) of the default scenario, every scheme, with
the geometry fixed, and with it redrawn per trial at the CLI
benchmark's N in {32, ..., 512}, where the per-geometry stage runs on
the block's stacked geometries.  ``--long`` adds two 10 000-trial
``run_sweep`` layers of the default scenario and sweep, geometry fixed
and redrawn.  A layer
that a side's source does not have is recorded for the other sides
only.  Each layer is timed in ``--repeats`` repeats (at least 5) of a
batch of calls that fills about 20 ms, the same batch on every side,
and the median, first and third quartile of the per-call time are
recorded in microseconds.

``--src`` (default: this checkout's ``src``) is recorded as ``change``.
``--baseline`` loads a second source tree, such as a parent commit's,
into the same process under another package name and records it as
``parent``; the two sides' repeats alternate, layer by layer, so a
drift in machine speed falls on both alike.  BLAS is pinned to one
thread, like the benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pinning)

N_VALUES = (64, 512, 4096)
LOS_N_VALUES = (512, 2048, 8192)
K_VALUES = (20, 1000)
REDRAW_N_SWEEP = (32, 64, 128, 256, 512)
TARGET_S = 0.02


def load_package(src: Path, name: str):
    """Import the irs_aircomp package found under ``src`` as top-level package ``name``."""
    root = src.resolve() / "irs_aircomp"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def layers(pkg, long: bool):
    """(name, zero-argument callable or None) for every timed layer of package ``pkg``.

    The callables read the loop's current variables, so each is timed
    before the next one is made.  None marks a layer ``pkg`` lacks.
    """
    channel, experiments, protocol = pkg.channel, pkg.experiments, pkg.protocol
    RngStream = pkg.numerics.RngStream

    base = channel.SystemConfig()
    yield "numerics.RngStream.generator", lambda: RngStream(1, 3).generator()
    rewinder = getattr(pkg.numerics, "_rewinder", None)
    rewind = None if rewinder is None else rewinder(1)
    yield "numerics._rewinder[per trial]", None if rewind is None else lambda: rewind(3)
    yield "channel.make_geometry[K=20]", lambda: channel.make_geometry(base, RngStream(1, 0))
    for N in N_VALUES:
        system = channel.SystemConfig(N=N)
        geometry = channel.make_geometry(system, RngStream(1, 0))
        state = experiments.compute_long_term(geometry, system)
        rows = protocol.phase_index_rows(geometry.phi_t, geometry.nu, N, system.L)
        los = channel.line_of_sight(geometry, system)
        gen = np.random.Generator(np.random.Philox(5))
        block = channel.sample_channels(geometry, system, gen, los)
        yield f"experiments.compute_long_term[N={N}]", (
            lambda: experiments.compute_long_term(geometry, system)
        )
        yield f"protocol.phase_index_rows[N={N}]", (
            lambda: protocol.phase_index_rows(geometry.phi_t, geometry.nu, N, system.L)
        )
        yield f"protocol.vote_indices[N={N}]", lambda: protocol.vote_indices(rows, system.L)
        yield f"channel.sample_channels[N={N}]", (
            lambda: channel.sample_channels(geometry, system, gen, los)
        )
        yield f"channel.effective_scalar_channel[N={N}]", (
            lambda: channel.effective_scalar_channel(block, state.v, state.theta_voted)
        )
    draw = getattr(channel, "_effective_block", None)
    segments = len(experiments.ExperimentConfig().n_sweep)
    yield f"channel._effective_block[P={segments}]", (
        None if draw is None else lambda: draw(geometry, base, gen, segments)
    )
    block_draw = getattr(channel, "_effective_draws", None)
    trials = [3 + 2 * t for t in range(64)]
    yield f"channel._effective_draws[B=64,P={segments}]", (
        None
        if block_draw is None
        else lambda: block_draw(geometry.rho_d, base, segments, trials, rewind)
    )
    gen = np.random.default_rng(2)
    direct = (gen.standard_normal((64, 20, 10)) + 1j * gen.standard_normal((64, 20, 10))) / 2**0.5
    yield "experiments._direct_gammas[B=64,K=20]", lambda: experiments._direct_gammas(direct)
    for K in K_VALUES:
        gammas = 1e-4 * (gen.standard_normal((64, K)) + 1j * gen.standard_normal((64, K)))
        one = gammas[0]
        yield f"protocol.optimal_power_control[K={K}]", (
            lambda: protocol.optimal_power_control(one, 0.1, 1e-11)
        )
        yield f"protocol.channel_inversion_power_control[K={K}]", (
            lambda: protocol.channel_inversion_power_control(one, 0.1, 1e-11)
        )
        yield f"protocol.power_control_rows[B=64,K={K}]", (
            lambda: protocol.power_control_rows(gammas, 0.1, 1e-11)
        )
    for N in LOS_N_VALUES:
        system = channel.SystemConfig(K=21, N=N)
        geometry = channel.make_geometry(system, RngStream(1, 0))
        yield f"channel.line_of_sight[K=21,N={N}]", lambda: channel.line_of_sight(geometry, system)
    for n in (10, 8192):
        yield f"numerics.array_response[n={n}]", lambda: pkg.numerics.array_response(n, 0.3)
    sweep = experiments.ExperimentConfig(system=base, trials=64, seed=1)
    schemes = list(experiments.Scheme)
    yield "experiments.run_sweep[T=64]", lambda: experiments.run_sweep(sweep, schemes)
    redrawn = experiments.ExperimentConfig(
        system=base, n_sweep=REDRAW_N_SWEEP, trials=64, seed=1, redraw_geometry_per_trial=True
    )
    yield "experiments.run_sweep[T=64,redraw]", lambda: experiments.run_sweep(redrawn, schemes)
    if long:
        for label, redraw in (("", False), (",redraw", True)):
            sweep = experiments.ExperimentConfig(
                system=base, trials=10_000, seed=1, redraw_geometry_per_trial=redraw
            )
            yield f"experiments.run_sweep[T=10000{label}]", (
                lambda: experiments.run_sweep(sweep, schemes)
            )


def batch_us(fn, calls: int) -> float:
    """Mean time of one call of fn over a batch of ``calls`` calls, in microseconds."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls * 1e6


def calls_per_batch(fn) -> int:
    """Calls of fn that fill about TARGET_S, found by doubling a batch after a warm-up call."""
    fn()  # warm caches and lazy set-up
    calls = 1
    while (took := batch_us(fn, calls) * calls / 1e6) < TARGET_S / 4:
        calls *= 2
    return max(1, round(calls * TARGET_S / took))


def summary(samples: list[float], calls: int) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "repeats": len(samples), "calls": calls}


def source_revision(src: Path) -> str | None:
    """Short commit of the tree holding ``src``, with ``-dirty`` for uncommitted changes."""
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source directory of the change (holds irs_aircomp/)")
    parser.add_argument("--baseline", type=Path, help="source directory of the parent, if any")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--long", action="store_true",
                        help="add 10 000-trial run_sweep layers (minutes per side)")
    args = parser.parse_args()
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")

    sides = {"change": args.src}
    if args.baseline is not None:
        sides["parent"] = args.baseline
    packages = {label: load_package(src, f"irs_aircomp_{label}") for label, src in sides.items()}
    timings: dict[str, dict] = {label: {} for label in sides}
    for per_side in zip(*(layers(pkg, args.long) for pkg in packages.values())):
        name = per_side[0][0]
        fns = {label: fn for label, (_, fn) in zip(sides, per_side) if fn is not None}
        calls = max(calls_per_batch(fn) for fn in fns.values())  # the same batch on every side
        samples: dict[str, list[float]] = {label: [] for label in fns}
        for rep in range(args.repeats):
            for label in (list(fns) if rep % 2 == 0 else list(fns)[::-1]):
                samples[label].append(batch_us(fns[label], calls))
        line = f"{name:48s}"
        for label in fns:
            timings[label][name] = summary(samples[label], calls)
            line += f" {label} {timings[label][name]['median_us']:10.1f} us"
        print(line, flush=True)

    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "measured": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "interleaved": len(sides) > 1,
        "runs": {
            label: {"revision": source_revision(src), "layers_us": timings[label]}
            for label, src in sides.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(sides)} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
