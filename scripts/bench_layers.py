#!/usr/bin/env python3
"""Per-layer timings of the simulator's hot functions, written to a JSON record.

    python scripts/bench_layers.py --out BENCH_9.json
    python scripts/bench_layers.py --baseline ../parent/src --out BENCH_9.json

Times each layer of the long-term and per-block stages on its own:
``make_geometry``, ``compute_long_term`` and its two kernels
(``phase_index_rows``, ``vote_indices``), ``sample_channels``,
``effective_scalar_channel``, the dominant-direct combiner on a block of
64 trials, and single-row and 64-row power control.  Channel-side
layers run at the default scenario (K = 20, M = 10, L = 2) with N in
{64, 512, 4096}; power control runs at K in {20, 1000}.  One layer
times the whole engine through the public API: ``run_sweep`` over 64
trials (one power block) of the default scenario, geometry fixed, every
scheme.  Each layer is
timed in ``--repeats`` repeats (at least 5) of a batch of calls that
fills about 20 ms, the same batch on every side, and the median, first
and third quartile of the per-call time are recorded in microseconds.

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
K_VALUES = (20, 1000)
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


def layers(pkg):
    """(name, zero-argument callable) for every timed layer of package ``pkg``.

    The callables read the loop's current variables, so each is timed
    before the next one is made.
    """
    channel, experiments, protocol = pkg.channel, pkg.experiments, pkg.protocol
    RngStream = pkg.numerics.RngStream

    base = channel.SystemConfig()
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
    sweep = experiments.ExperimentConfig(system=base, trials=64, seed=1)
    schemes = list(experiments.Scheme)
    yield "experiments.run_sweep[T=64]", lambda: experiments.run_sweep(sweep, schemes)


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
    args = parser.parse_args()
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")

    sides = {"change": args.src}
    if args.baseline is not None:
        sides["parent"] = args.baseline
    packages = {label: load_package(src, f"irs_aircomp_{label}") for label, src in sides.items()}
    timings: dict[str, dict] = {label: {} for label in sides}
    for per_side in zip(*(layers(pkg) for pkg in packages.values())):
        name = per_side[0][0]
        fns = dict(zip(sides, (fn for _, fn in per_side)))
        calls = max(calls_per_batch(fn) for fn in fns.values())  # the same batch on every side
        samples: dict[str, list[float]] = {label: [] for label in sides}
        for rep in range(args.repeats):
            for label in (list(sides) if rep % 2 == 0 else list(sides)[::-1]):
                samples[label].append(batch_us(fns[label], calls))
        line = f"{name:48s}"
        for label in sides:
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
