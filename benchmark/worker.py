"""One workload process: set up, run whole rounds, check, report one JSON line.

    python3 benchmark/worker.py MODE WORKLOAD SEED SECONDS OUT_DIR

MODE is ``setup`` (stop once the first trial could start), ``job`` (one
round), ``run`` (rounds for SECONDS, then the correctness checks) or
``trace`` (untraced then traced rounds, SECONDS/2 each, then the
checks).  ``ready`` is a ``time.monotonic()`` reading, which the
launcher, ``run.py``, compares with its own.  Each timed round is
followed by a run of the reference kernel; ``factors`` scale the rounds
to the nominal machine speed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import check
import inputs
import workloads


def timed_rounds(workload, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed; at least one."""
    import reference

    raw, factors = [], []
    totals = {"attempted": 0, "failed": 0, "redraws": 0}
    start = time.perf_counter()
    gauge = reference.SpeedGauge()
    while True:
        if tracer is not None:
            tracer.start_round()
        t0 = time.perf_counter()
        result = workload.run_round()
        raw.append(time.perf_counter() - t0)
        factors.append(gauge.factor())
        totals["attempted"] += result.scheme_trials
        totals["failed"] += result.failed
        totals["redraws"] += result.redraws
        if time.perf_counter() - start >= seconds:
            return raw, factors, totals


def run_checks(workload, out_dir: Path) -> tuple[dict, list[str], int]:
    """Run the workload at its check size on its seed and the second seed; check both."""
    checks = check.Checks()
    totals = {"attempted": 0, "failed": 0, "redraws": 0}
    cls = type(workload)
    for seed in (workload.seed, inputs.second_seed(workload.seed)):
        inputs.write_inputs(cls.name, out_dir, seed)
        sized = cls(seed, out_dir, cls.check_trials)
        sized.setup()
        result = sized.run_round()
        sized.check(result.output, checks)
        totals["attempted"] += result.scheme_trials
        totals["failed"] += result.failed
        totals["redraws"] += result.redraws
    return totals, checks.failed, len(checks.passed)


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, out_dir = argv
    out_dir = Path(out_dir)
    cls = workloads.WORKLOADS[name]
    workload = cls(int(seed), out_dir, cls.timed_trials)
    workload.setup()
    report = {"ready": time.monotonic()}
    if mode == "job":
        result = workload.run_round()
        report.update(attempted=result.scheme_trials, failed=result.failed, redraws=result.redraws)
    elif mode == "run":
        raw, factors, totals = timed_rounds(workload, float(seconds))
        report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        extra, report["check_failures"], report["checks_passed"] = run_checks(workload, out_dir)
        report.update(rounds=raw, factors=factors, trials_per_round=totals["attempted"] // len(raw),
                      **{k: totals[k] + extra[k] for k in totals})
    elif mode == "trace":
        import tracer

        untraced, untraced_factors, totals = timed_rounds(workload, float(seconds) / 2)
        spans = tracer.Tracer()
        spans.install()
        try:
            traced, traced_factors, more = timed_rounds(workload, float(seconds) / 2, spans)
        finally:
            spans.uninstall()
        spans.dump(out_dir / f"trace-{name}-{seed}.csv")
        metrics = spans.metrics(totals["attempted"] // len(untraced), traced_factors)
        untraced_s = statistics.median(r * f for r, f in zip(untraced, untraced_factors))
        traced_s = statistics.median(r * f for r, f in zip(traced, traced_factors))
        metrics["tracing.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        extra, report["check_failures"], report["checks_passed"] = run_checks(workload, out_dir)
        report.update(metrics=metrics, untraced_round_s=untraced_s, traced_round_s=traced_s,
                      **{k: totals[k] + more[k] + extra[k] for k in totals})
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
