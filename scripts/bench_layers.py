#!/usr/bin/env python3
"""Per-layer timings of the simulator's hot functions, written to a JSON record.

    python scripts/bench_layers.py --out BENCH_9.json
    python scripts/bench_layers.py --baseline ../parent/src --out BENCH_9.json
    python scripts/bench_layers.py --baseline ../parent/src --long --repeats 5 --out BENCH_14.json
    python scripts/bench_layers.py --baseline ../parent/src --end-to-end 5 --out BENCH_22.json
    python scripts/bench_layers.py --baseline ../parent/src --end-to-end 10 --out BENCH_23.json
    python scripts/bench_layers.py --baseline ../parent/src --end-to-end 10 --out BENCH_29.json
    python scripts/bench_layers.py --baseline ../parent/src --long --end-to-end 10 --out BENCH_30.json
    python scripts/bench_layers.py --baseline ../parent/src --end-to-end 10 --out BENCH_33.json
    python scripts/bench_layers.py --baseline ../parent/src --end-to-end 10 --out BENCH_34.json
    python scripts/bench_layers.py --baseline ../parent/src --end-to-end 10 --out BENCH_35.json
    python scripts/bench_layers.py --baseline ../parent/src --end-to-end 10 --out BENCH_37.json

Times each layer of the long-term and per-block stages on its own: a
fresh random stream (``RngStream.generator``, the public path), the
engine's per-trial stream (one Philox of the run rewound to a trial's
stream, ``numerics._rewinder``), ``make_geometry``,
``compute_long_term`` and its two kernels
(``phase_index_rows``, ``vote_indices``), ``sample_channels`` (its
line of sight included: it computes that term on every call),
``effective_scalar_channel``, the engine's draw over a power block of
64 trials (``_effective_draws``: direct links and two normals per
device for each of the 4 segments of the default sweep, each trial on
the rewound Philox, into one buffer), the dominant-direct combiner on
a block of 64 trials, single-row and 64-row power control, and the
steering kernel: ``line_of_sight`` at K = 21 (the scaling recipe's
device count) with N in {512, 2048, 8192, 65536} and ``array_response``
with n in {10, 65, 128, 256, 8192} (a receive array, the first counts
past one block and the largest surface).  The scaling recipe's
per-trial pure line-of-sight layers run at the same K and N up to 8192,
with the system of ``configs/scaling_law.cfg``: ``sample_channels``
from a fresh stream, as the recipe draws each trial,
``effective_scalar_channel`` at N = 8192 and the projection kernel
``numerics._project`` that it runs, on its one row, the voted phases'
phasors.  The phase kernel runs at the same K = 21: ``phase_index_rows``
at L = 2 for those N and 65536 and at L in {3, 4, 16, 64} for N = 512
and 8192, and ``vote_indices`` on the kernel's own rows at N = 8192, in
the dtype the engine votes on (the public call, so its input checks are
timed with it; the engine's count skips them), and ``compute_long_term``, the
scaling recipe's per-trial long-term call, at K = 21 and each of those
N up to 8192.  One layer times a whole scaling-recipe trial
as the ``scaling-los`` benchmark workload makes it, through the five
public calls (``make_geometry``, ``compute_long_term``,
``sample_channels``, ``effective_scalar_channel`` and
``channel_inversion_power_control``), at N = 16, where the calls' fixed
cost is nearly all of it, and at N = 8192.  Other
channel-side layers run at the default scenario (K = 20, M = 10, L = 2)
with N in {64, 512, 4096}; power control runs at K in {20, 1000}, and
on the 90 optimal-rule rows of a 10-trial default sweep.  Five layers
time the whole engine through the public API: ``run_sweep`` of the
default scenario, every scheme, with the geometry fixed, over 1 trial
(its per-run cost), 10 trials (a round of the ``sweep-fixed``
benchmark) and 64 trials (one power block), and over 64 trials with it
redrawn per trial at the CLI benchmark's N in {32, ..., 512}, where the
per-geometry stage runs on the block's stacked geometries; and
``configs/scaling_law.cfg`` with ``INV_PC_IRS`` over 64 trials, the
scaling recipe through the engine (N up to 4096, a geometry per trial),
which no benchmark workload times.  ``--long`` adds two 10 000-trial
``run_sweep`` layers of the default scenario and sweep, geometry fixed
and redrawn.  A layer
that a side's source does not have is recorded for the other sides
only.  Each layer is timed in ``--repeats`` repeats (at least 5) of a
batch of calls that fills about 20 ms, the same batch on every side,
and the median, first and third quartile of the per-call time are
recorded in microseconds.

``--end-to-end PAIRS`` (with ``--baseline``) also runs the benchmark,
``benchmark/run.py`` of each side's checkout (the directory above its
``src``), for every workload of ``BENCHMARK.json``: PAIRS pairs of
separate processes, seeds 1 to PAIRS, the sides' order alternating
from pair to pair, and records the median, first and third quartile of
each end-to-end metric.  A pair takes about a minute per workload.

``--src`` (default: this checkout's ``src``) is recorded as ``change``.
``--baseline`` loads a second source tree, such as a parent commit's,
into the same process under another package name and records it as
``parent``; the two sides' repeats alternate, layer by layer, so a
drift in machine speed falls on both alike.  Each side records its git
revision, or null for a tree outside git (a ``git archive`` or a copy),
the SHA-256 of its Python sources, which names the tree either way, and
``src_code_lines``, the lines of code of those sources with no blank,
comment or docstring line (:func:`src_code_lines`), the size that
ROADMAP aim 2 tracks.  BLAS is pinned to one thread, like the benchmark.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pinning)

N_VALUES = (64, 512, 4096)
LOS_N_VALUES = (512, 2048, 8192)
LARGE_N = 65536  # the largest N of the large-N scaling run
# a receive array, the first counts past one steering block, and the largest surface
ARRAY_N_VALUES = (10, 65, 128, 256, 8192)
# a level count that is not a power of two, and powers up to the sort vote's range
LEVEL_VALUES = (3, 4, 16, 64)
K_VALUES = (20, 1000)
REDRAW_N_SWEEP = (32, 64, 128, 256, 512)
# the whole scaling trial where its fixed cost rules it, and at the benchmark's largest N
TRIAL_N_VALUES = (16, 8192)
# the pure line-of-sight scaling recipe, whose system the scaling layers run at each N
SCALING_RECIPE = Path(__file__).resolve().parent.parent / "configs" / "scaling_law.cfg"
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
    recipe = experiments.load_config(SCALING_RECIPE).system
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
        gen = np.random.Generator(np.random.Philox(5))
        block = channel.sample_channels(geometry, system, gen)
        yield f"experiments.compute_long_term[N={N}]", (
            lambda: experiments.compute_long_term(geometry, system)
        )
        yield f"protocol.phase_index_rows[N={N}]", (
            lambda: protocol.phase_index_rows(geometry.phi_t, geometry.nu, N, system.L)
        )
        yield f"protocol.vote_indices[N={N}]", lambda: protocol.vote_indices(rows, system.L)
        yield f"channel.sample_channels[N={N}]", (
            lambda: channel.sample_channels(geometry, system, gen)
        )
        yield f"channel.effective_scalar_channel[N={N}]", (
            lambda: channel.effective_scalar_channel(block, state.v, state.theta_voted)
        )
    segments = len(experiments.ExperimentConfig().n_sweep)
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
    # the optimal rule's rows of a 10-trial default sweep: 9 per trial
    rows90 = 1e-4 * (gen.standard_normal((90, 20)) + 1j * gen.standard_normal((90, 20)))
    yield "protocol.power_control_rows[B=90,K=20]", (
        lambda: protocol.power_control_rows(rows90, 0.1, 1e-11)
    )
    for N in LOS_N_VALUES:
        system = channel.SystemConfig(K=21, N=N)
        geometry = channel.make_geometry(system, RngStream(1, 0))
        yield f"channel.line_of_sight[K=21,N={N}]", lambda: channel.line_of_sight(geometry, system)
        yield f"protocol.phase_index_rows[K=21,N={N}]", (
            lambda: protocol.phase_index_rows(geometry.phi_t, geometry.nu, N, 2)
        )
        # the scaling recipe's per-trial long-term call
        yield f"experiments.compute_long_term[K=21,N={N}]", (
            lambda: experiments.compute_long_term(geometry, system)
        )
        # the scaling recipe's per-trial block, from its own stream
        scaling = dataclasses.replace(recipe, N=N)
        yield f"channel.sample_channels[K=21,N={N},pure_los]", (
            lambda: channel.sample_channels(geometry, scaling, RngStream(1, 3))
        )
    state = experiments.compute_long_term(geometry, scaling)
    block = channel.sample_channels(geometry, scaling, RngStream(1, 3))
    yield f"channel.effective_scalar_channel[K=21,N={N},pure_los]", (
        lambda: channel.effective_scalar_channel(block, state.v, state.theta_voted)
    )
    # the projection kernel on the block's line of sight and its one row, Theta's phasors
    project = getattr(pkg.numerics, "_project", None)
    row = state.theta_voted.phasors[None]
    yield f"numerics._project[K=21,N={N},J=1]", (
        None if project is None else lambda: project(block.los, row, (N,))
    )
    large = channel.SystemConfig(K=21, N=LARGE_N)
    far = channel.make_geometry(large, RngStream(1, 0))
    yield f"channel.line_of_sight[K=21,N={LARGE_N}]", lambda: channel.line_of_sight(far, large)
    yield f"protocol.phase_index_rows[K=21,N={LARGE_N}]", (
        lambda: protocol.phase_index_rows(far.phi_t, far.nu, LARGE_N, 2)
    )
    # the kernel's own output, in the dtype the engine votes on
    rows = protocol._phase_rows(geometry.phi_t, geometry.nu, N, 2, 0.5)
    yield f"protocol.vote_indices[K=21,N={N},kernel rows]", lambda: protocol.vote_indices(rows, 2)
    # one whole scaling-recipe trial: the five public calls, as benchmark/workloads.py makes them
    for N in TRIAL_N_VALUES:
        yield f"scaling trial[K=21,N={N}]", functools.partial(
            scaling_trial, pkg, dataclasses.replace(recipe, N=N)
        )
    for N in (512, 8192):
        geometry = channel.make_geometry(channel.SystemConfig(K=21, N=N), RngStream(1, 0))
        for L in LEVEL_VALUES:
            yield f"protocol.phase_index_rows[K=21,L={L},N={N}]", (
                lambda: protocol.phase_index_rows(geometry.phi_t, geometry.nu, N, L)
            )
    for n in ARRAY_N_VALUES:
        yield f"numerics.array_response[n={n}]", lambda: pkg.numerics.array_response(n, 0.3)
    schemes = list(experiments.Scheme)
    # one trial (the per-run cost), the sweep-fixed benchmark round, one power block
    for T in (1, 10, 64):
        sweep = experiments.ExperimentConfig(system=base, trials=T, seed=1)
        yield f"experiments.run_sweep[T={T}]", lambda: experiments.run_sweep(sweep, schemes)
    redrawn = experiments.ExperimentConfig(
        system=base, n_sweep=REDRAW_N_SWEEP, trials=64, seed=1, redraw_geometry_per_trial=True
    )
    yield "experiments.run_sweep[T=64,redraw]", lambda: experiments.run_sweep(redrawn, schemes)
    # the scaling recipe through the engine, as the command in its config file runs it
    recipe_sweep = dataclasses.replace(experiments.load_config(SCALING_RECIPE), trials=64)
    inversion = [experiments.Scheme.INV_PC_IRS]
    yield "experiments.run_sweep[scaling recipe,INV_PC_IRS,T=64]", (
        lambda: experiments.run_sweep(recipe_sweep, inversion)
    )
    if long:
        for label, redraw in (("", False), (",redraw", True)):
            sweep = experiments.ExperimentConfig(
                system=base, trials=10_000, seed=1, redraw_geometry_per_trial=redraw
            )
            yield f"experiments.run_sweep[T=10000{label}]", (
                lambda: experiments.run_sweep(sweep, schemes)
            )


def scaling_trial(pkg, system) -> None:
    """Trial 0 of the scaling-los workload at seed 1 and ``system``: its geometry, long-term
    state, block, gammas and inversion-rule power control, each from the public call."""
    channel, RngStream = pkg.channel, pkg.numerics.RngStream
    geometry = channel.make_geometry(system, RngStream(1, 2).generator())
    long_term = pkg.experiments.compute_long_term(geometry, system)
    block = channel.sample_channels(geometry, system, RngStream(1, 3))
    gammas = channel.effective_scalar_channel(block, long_term.v, long_term.theta_voted)
    try:
        pkg.protocol.channel_inversion_power_control(gammas, system.Pmax, system.sigma2)
    except pkg.protocol.DegenerateChannelError:
        pass


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


def end_to_end(roots: dict[str, Path], pairs: int) -> dict:
    """{side: {workload: {metric: quartiles}}} of ``benchmark/run.py``, one process per run."""
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    results: dict[str, dict] = {label: {} for label in roots}
    for workload in (w["name"] for w in spec["workloads"]):
        samples: dict[str, list[dict]] = {label: [] for label in roots}
        for seed in range(1, pairs + 1):
            for label in list(roots) if seed % 2 else list(roots)[::-1]:
                command = [sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(seed)]
                done = subprocess.run(command, cwd=roots[label], capture_output=True, text=True)
                report = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout else {}
                if done.returncode != 0 or not report.get("correct"):
                    raise SystemExit(f"{label} {workload} seed {seed} failed:\n{done.stderr}")
                samples[label].append({k: m["value"] for k, m in report["metrics"].items()})
            print(f"{workload:18s} seed {seed}: " + "  ".join(
                f"{label} {samples[label][-1]['scheme_trials_per_s']:.1f} trials/s"
                for label in roots), flush=True)
        for label, runs in samples.items():
            results[label][workload] = {
                metric: dict(zip(("q1", "median", "q3"), statistics.quantiles(
                    [run[metric] for run in runs], n=4, method="inclusive")))
                for metric in runs[0]
            }
    return results


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


def source_digest(src: Path) -> str:
    """SHA-256 over the ``.py`` files under ``src``: each relative path, then its bytes, sorted."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def src_code_lines(src: Path) -> int:
    """Lines of code of the ``.py`` files under ``src``: no blank, comment or docstring lines.

    A line counts where a token other than a comment or the layout
    (newlines, indents) starts, ends or runs through it, unless it lies
    in a docstring: the string that opens a module, class or function
    body in the file's syntax tree.  A line that continues a bracketed
    expression counts, as does every line of a string that is not a
    docstring.
    """
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    total = 0
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        with path.open("rb") as fh:
            tokens = list(tokenize.tokenize(fh.readline))
        lines = set()
        for tok in tokens:
            if tok.type not in layout:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        tree = ast.parse(path.read_bytes())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    lines.difference_update(range(first.lineno, first.end_lineno + 1))
        total += len(lines)
    return total


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
    parser.add_argument("--end-to-end", type=int, default=0, metavar="PAIRS",
                        help="also run benchmark/run.py in PAIRS alternating pairs per workload")
    args = parser.parse_args()
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    if args.end_to_end and (args.end_to_end < 5 or args.baseline is None):
        parser.error("--end-to-end needs --baseline and at least 5 pairs")

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

    whole = {}
    if args.end_to_end:
        whole = end_to_end({label: src.resolve().parent for label, src in sides.items()},
                           args.end_to_end)
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "measured": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "interleaved": len(sides) > 1,
        "runs": {
            label: {"revision": source_revision(src), "src_sha256": source_digest(src),
                    "src_code_lines": src_code_lines(src), "layers_us": timings[label],
                    **({"end_to_end": whole[label]} if whole else {})}
            for label, src in sides.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(sides)} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
