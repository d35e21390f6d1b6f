#!/usr/bin/env python3
"""Benchmark of the irs-aircomp simulator: one workload per invocation.

    python3 benchmark/run.py --workload sweep-fixed --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the simulator is imported from
``src/``.  Every workload process is a fresh single-threaded Python
(BLAS pinned to one thread).  With ``--trace 0`` the launcher

1. starts one warm-up process that stops after set-up (it also writes
   the bytecode caches) and is not counted;
2. starts ``PROBES`` processes one after another that each set up and
   run one round, timing set-up (launch until the first trial can
   start) and wall time (launch until the process has exited);
3. starts one process that runs whole rounds for ``--seconds`` seconds,
   reports the scheme-trials per second of the median round and its
   peak resident memory, then runs the correctness checks.

Every timed interval is scaled to the nominal machine speed by a
reference measurement taken just before and just after it (see
reference.py): a bare ``import numpy`` process for the probes, a numpy
kernel for the rounds.  The median of the scaled values is reported.

With ``--trace 1`` it starts one process that runs untraced and then
traced rounds, ``--seconds``/2 each, and reports the per-layer metrics.
The last line of standard output is the JSON result.  The exit code is
1 when a correctness check fails, and 2, with no result printed, when
the checkout or a workload process is broken.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # also when PYTHONSAFEPATH leaves the script's directory out

import inputs  # noqa: E402
import reference  # noqa: E402

ROOT = HERE.parent
OUT_DIR = HERE / "out"
PROBES = 21
PROCESS_TIMEOUT_S = 150


class WorkerFailed(Exception):
    """A workload process timed out, exited non-zero or printed no report."""


# Variables that tell the interpreter where its packages are; every other
# PYTHON* setting (no bytecode caches, warnings as errors, ...) is dropped
# so that each workload process starts the same way.
KEPT_PYTHON_VARS = ("PYTHONPATH", "PYTHONHOME", "PYTHONUSERBASE", "PYTHONNOUSERSITE",
                    "PYTHONPLATLIBDIR")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k in KEPT_PYTHON_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(mode: str, args, seconds: float) -> tuple[float, float, dict]:
    """Run one worker; return (launch time, exit time, its JSON report)."""
    argv = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
            str(args.seed), str(seconds), str(OUT_DIR)]
    t_launch = time.monotonic()
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except OSError as exc:
        raise WorkerFailed(f"could not start the {mode} process: {exc}") from exc
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{mode} process timed out after {PROCESS_TIMEOUT_S} s")
    t_exit = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise WorkerFailed(f"{mode} process exited with code {proc.returncode}")
    try:
        return t_launch, t_exit, json.loads(lines[-1])
    except ValueError as exc:
        sys.stderr.write(err)
        raise WorkerFailed(f"{mode} process printed no report: {lines[-1][:200]!r}") from exc


def launch_reference(env: dict) -> float:
    try:
        return reference.launch_numpy(env)
    except (OSError, subprocess.SubprocessError) as exc:
        raise WorkerFailed(f"reference process failed: {exc}") from exc


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "irs_aircomp" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'irs_aircomp'}", file=sys.stderr)
        return 2
    try:
        OUT_DIR.mkdir(exist_ok=True)
        inputs.write_inputs(args.workload, OUT_DIR, args.seed)
    except OSError as exc:
        print(f"error: cannot write the workload's inputs: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            _, _, report = launch("trace", args, args.seconds)
            metrics = report["metrics"]
            print(f"{args.workload} seed {args.seed}: traced round "
                  f"{report['traced_round_s']:.4f} s, untraced {report['untraced_round_s']:.4f} s")
        else:
            launch("setup", args, 0)
            env = child_env()
            gauge = reference.SpeedGauge(lambda: launch_reference(env),
                                         reference.NOMINAL_LAUNCH_S)
            setups, walls, raw_walls, probe_trials = [], [], [], 0
            for _ in range(PROBES):
                t_launch, t_exit, probe = launch("job", args, 0)
                factor = gauge.factor()
                setups.append((probe["ready"] - t_launch) * factor)
                walls.append((t_exit - t_launch) * factor)
                raw_walls.append(t_exit - t_launch)
                probe_trials += probe["attempted"]
            _, _, report = launch("run", args, args.seconds)
            report["attempted"] += probe_trials
            per_round = report["trials_per_round"]
            rates = [per_round / (r * f) for r, f in zip(report["rounds"], report["factors"])]
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "wall_s": metric(statistics.median(walls), "s"),
                "scheme_trials_per_s": metric(statistics.median(rates), "trials/s"),
                "peak_rss_mib": metric(report["peak_rss_kib"] / 1024.0, "MiB"),
            }
            print(f"{args.workload} seed {args.seed}: {len(report['rounds'])} timed rounds of "
                  f"{per_round} scheme-trials; unscaled medians: wall "
                  f"{statistics.median(raw_walls):.4f} s, "
                  f"{per_round / statistics.median(report['rounds']):.1f} trials/s; "
                  f"speed factor {statistics.median(report['factors']):.3f}")
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {report['attempted']} scheme-trials, failed {report['failed']}, "
          f"degenerate-channel redraws {report['redraws']}")
    print(f"  checks: {report['checks_passed']} passed, {len(report['check_failures'])} failed")
    for failure in report["check_failures"]:
        print(f"  CHECK FAILED {failure}")
    correct = not report["check_failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
