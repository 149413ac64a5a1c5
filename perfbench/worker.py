"""One workload in one fresh process: set up, time whole rounds, check the outputs.

Started by ``run.py``, which passes the wall-clock time at which it
started this process (``--t0``) so that set-up time includes interpreter
start-up.  Modes:

- ``setup``: build the workload and report the set-up time only;
- ``run``: time whole rounds for ``--seconds``, checking each round's
  outputs after it ends, outside the timed part;
- ``trace``: run the workload's fixed number of trace rounds, each
  untraced and then traced, write the spans to ``--spans`` and report
  per-layer totals and tracing overhead.  The count of rounds does not
  depend on ``--seconds`` or on the program's speed, so neither do the
  per-layer counts and times.

Set-up time and operation latencies are reported in reference time
(``speed.py``): wall time, less the time of the speed probes, scaled by the
machine's speed measured while it passed.  The wall figures are reported
beside them.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# per-layer metric (a key of Tracer.totals) -> unit
PER_LAYER = {
    "polyroots.isolate_positive_roots.calls": "count",
    "polyroots.isolate_positive_roots.brackets": "count",
    "polyroots.isolate_positive_roots.self_s": "s",
    "polyroots.sign_at_root.calls": "count",
    "polyroots.sign_at_root.self_s": "s",
    "realize.realize.ladder.calls": "count",
    "realize.realize.ladder.total_s": "s",
    "realize.realize.unscaled.calls": "count",
    "realize.realize.unscaled.total_s": "s",
    "realize.isolate_per_target": "calls/op",
    "polyroots.min_positive_root.calls": "count",
    "polyroots.min_positive_root.self_s": "s",
    "polyroots.sturm_chain.calls": "count",
    "polyroots.sturm_chain.degree_sum": "count",
    "polyroots.sturm_chain.self_s": "s",
    "polyroots.count_roots.calls": "count",
    "polyroots.count_roots.self_s": "s",
    "polyroots.sign_variations.self_s": "s",
    "polyroots.positive_rational_roots.self_s": "s",
    "nilpotent.verify_min_chain.total_s": "s",
    "nilpotent.nilpotent_realization.total_s": "s",
    "charpoly.char_coeffs.calls": "count",
    "charpoly.char_coeffs.self_s": "s",
    "family.coeff_values_batch.calls": "count",
    "family.coeff_values_batch.self_s": "s",
    "minimality.confirm_fixed_sign.corner.total_s": "s",
    "minimality.confirm_fixed_sign.other.total_s": "s",
    "minimality.verify_msap.total_s": "s",
    "cli.main.total_s": "s",
    "jacobian.nj_verify.total_s": "s",
    "jacobian.jacobian_det.total_s": "s",
    "realize.realize_superpattern.total_s": "s",
    "realize.newton_solve.calls": "count",
    "realize.newton_solve.iterations": "count",
    "minimality.obstruction_scan.total_s": "s",
    "bench.trace_overhead": "ratio",
}


def thread_count() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def run_round(wl, k: int, meter: SpeedMeter | None = None):
    """Run round ``k``; return its records and its wall time.

    A record is (input, succeeded, output or exception, start, latency in
    seconds).  With a ``meter``, the time of its probes is left out of
    latencies and round time.
    """
    def stolen():
        return meter.stolen if meter else 0.0

    records = []
    start, stolen0 = time.perf_counter(), stolen()
    for inp, thunk in wl.ops(k):
        t0, s0 = time.perf_counter(), stolen()
        try:
            out, ok = thunk(), True
        except Exception as exc:  # a failed operation is counted, not fatal
            out, ok = exc, False
        records.append((inp, ok, out, t0, time.perf_counter() - t0 - (stolen() - s0)))
    return records, time.perf_counter() - start - (stolen() - stolen0)


class Tally:
    """Checks rounds as they end and keeps only counts, latencies and problems.

    Outputs are dropped once checked, so they do not pile up with the
    number of rounds that fit in the run.
    """

    def __init__(self, wl, meter: SpeedMeter | None = None):
        self.wl = wl
        self.meter = meter
        self.problems: list[str] = []
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.lat_ms: list[float] = []  # completed operations, wall
        self.ref_lat_ms: list[float] = []  # completed operations, reference time
        self.ref_busy_s = 0.0  # all attempted operations, reference time
        self.attempted = 0
        self.check_s = 0.0

    def add(self, records) -> None:
        t0 = time.perf_counter()
        for inp, ok, out, start, lat in records:
            self.attempted += 1
            ref_lat = lat * self.meter.factor(start, start + lat) if self.meter else lat
            self.ref_busy_s += ref_lat
            if ok:
                self.lat_ms.append(lat * 1000.0)
                self.ref_lat_ms.append(ref_lat * 1000.0)
                self.problems += [f"{inp!r:.80}: {p}" for p in self.wl.check(inp, out)]
                continue
            kind = type(out).__name__
            self.failures[kind] += 1
            self.examples.setdefault(kind, str(out))
            if not self.wl.expected_failure(inp, out):
                self.problems.append(f"{inp!r:.80}: unexpected {kind}: {out}")
        self.check_s += time.perf_counter() - t0

    def summary(self) -> dict:
        return {
            "correct": not self.problems,
            "problems": self.problems[:20],
            "attempted": self.attempted,
            "completed": len(self.lat_ms),
            "failed": self.attempted - len(self.lat_ms),
            "failures": {
                k: {"count": v, "example": self.examples[k]} for k, v in self.failures.items()
            },
            "check_s": self.check_s,
        }


def latency_metrics(lat_ms, elapsed) -> dict:
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "ops_per_s": len(lat_ms) / elapsed,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    meter = SpeedMeter()
    meter.start()
    main_t0 = time.perf_counter()

    sys.path.insert(0, str(SRC))
    import numpy
    import sapcert

    if not Path(sapcert.__file__).resolve().is_relative_to(SRC):
        print(f"sapcert was imported from {sapcert.__file__}, not {SRC}", file=sys.stderr)
        return 3
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    setup_wall = time.time() - args.t0 - meter.stolen
    out = {
        "setup_s": setup_wall * meter.factor(main_t0, time.perf_counter()),
        "setup_wall_s": setup_wall,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": thread_count(),
    }
    if args.mode == "setup":
        meter.stop()
        print(json.dumps(out))
        return 0

    if args.mode == "run":
        tally = Tally(wl, meter)
        elapsed, k = 0.0, 0
        while elapsed < args.seconds:
            records, dt = run_round(wl, k, meter)
            elapsed += dt
            if k == 0:
                # the resident size creeps up by about 1 MB a round on some
                # workloads (freed memory the allocator does not return), so
                # peak memory is read after set-up and one round, not after
                # as many rounds as the program's speed fits in the run;
                # ru_maxrss is in KiB on Linux
                out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tally.add(records)
            k += 1
        meter.stop()
        out.update(latency_metrics(tally.ref_lat_ms, tally.ref_busy_s))
        out["wall"] = latency_metrics(tally.lat_ms, elapsed)
        out["speed_samples"] = len(meter.ratios)
        out["speed_factor_median"] = statistics.median(meter.ratios)
    else:
        meter.stop()
        tally = Tally(wl)
        # each traced round follows the same round untraced, so that drift
        # in the machine's speed cancels out of the overhead ratio
        elapsed, traced = 0.0, 0.0
        tracer = Tracer()
        for k in range(wl.trace_rounds):
            records, dt = run_round(wl, k)
            elapsed += dt
            tally.add(records)
            tracer.install("sapcert")
            records, dt = run_round(wl, k)
            tracer.uninstall()
            traced += dt
            tally.add(records)
        k = wl.trace_rounds
        totals = tracer.totals()
        realize_calls = totals["realize.realize.calls"]
        totals["realize.isolate_per_target"] = (
            totals["polyroots.isolate_positive_roots.calls"] / realize_calls if realize_calls else 0.0
        )
        totals["bench.trace_overhead"] = traced / elapsed
        out["metrics"] = {
            name: {"value": totals.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()
        }
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.dump(args.spans)
    out["rounds"] = k
    out["loop_s"] = elapsed
    out["threads"] = max(out["threads"], thread_count())
    out.update(tally.summary())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
