"""In-memory span tracer that wraps the simulator's layer functions from outside.

Each traced function is replaced, at every module-level name inside
``irs_aircomp`` that holds it, by a
wrapper that records a span (function, start, end, parent span).  A
method is replaced on its class.  Spans stay in memory until ``dump``.
Self time is a span's duration minus the durations of its direct
children; the run is single-threaded, so children nest inside parents.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from pathlib import Path

# (layer module, attribute path inside it)
TRACED = (
    ("numerics", "RngStream.generator"),
    ("channel", "make_geometry"),
    ("channel", "sample_channels"),
    ("channel", "effective_scalar_channel"),
    ("protocol", "per_device_phases"),
    ("protocol", "majority_vote"),
    ("protocol", "optimal_power_control"),
    ("protocol", "channel_inversion_power_control"),
    ("analysis", "mse_upper_bound"),
    ("experiments", "compute_long_term"),
    ("experiments", "run_trial"),
    ("experiments", "run_sweep"),
    ("experiments", "load_config"),
    ("experiments", "write_csv"),
    ("cli", "main"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self._stack: list[int] = []
        self._restore: list = []
        self._round_starts: list[int] = []

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent)

        return traced

    def install(self) -> None:
        callers = [
            mod for name, mod in list(sys.modules.items())
            if name == "irs_aircomp" or name.startswith("irs_aircomp.")
        ]
        for index, (module, attr) in enumerate(TRACED):
            owner = importlib.import_module(f"irs_aircomp.{module}")
            if "." in attr:  # a method: replace it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(index, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(index, original)
            for mod in callers:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def start_round(self) -> None:
        self._round_starts.append(len(self.spans))

    def per_round(self) -> list[tuple[list[int], list[float]]]:
        """For each round: calls and self seconds per traced function."""
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        bounds = self._round_starts + [len(self.spans)]
        rounds = []
        for lo, hi in zip(bounds, bounds[1:]):
            calls = [0] * len(TRACED)
            self_s = [0.0] * len(TRACED)
            for span in range(lo, hi):
                index, start, end, _ = self.spans[span]
                calls[index] += 1
                self_s[index] += (end - start) - child_time[span]
            rounds.append((calls, self_s))
        return rounds

    def metrics(self, scheme_trials_per_round: int, factors: list[float]) -> dict:
        """Per-layer metrics: calls per round and median self seconds per round.

        ``factors`` scale each round's self times to the nominal machine
        speed (see reference.py).
        """
        rounds = [(calls, [t * f for t in self_s])
                  for (calls, self_s), f in zip(self.per_round(), factors)]
        calls = rounds[0][0]
        if any(r[0] != calls for r in rounds):
            raise RuntimeError("traced rounds made different calls")
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = {"value": calls[i], "unit": "count"}
            out[f"{name}.self_s"] = {
                "value": statistics.median(r[1][i] for r in rounds),
                "unit": "s",
            }
        draws = calls[NAMES.index("channel.sample_channels")]
        out["channel.draw_reuse"] = {
            "value": scheme_trials_per_round / draws if draws else 0.0,
            "unit": "trials/call",
        }
        return out

    def dump(self, path: Path) -> None:
        """Write every span as CSV: span, function, start_s, end_s, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,function,start_s,end_s,parent\n")
            for span, (index, start, end, parent) in enumerate(self.spans):
                fh.write(f"{span},{NAMES[index]},{start!r},{end!r},{parent}\n")
