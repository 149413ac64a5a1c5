"""Benchmark of sapcert's certification workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in one fresh process (``worker.py``) with every thread
pool, BLAS included, limited to one thread.  With ``--trace 0`` the
end-to-end metrics are reported, with times corrected for the machine's
speed while they passed (``speed.py``); set-up time is the median over the
run process and set-up-only processes started before and after it.  With
``--trace 1`` one traced process reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object; a
report with the machine, the failures by exception type and every figure
is written under ``perfbench/out/``.
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
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("realize-targets", "nilpotent-cold", "sweep-cli", "generic-nj")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# set-up-only processes started before the run process, and as many after
# it: the machine's speed drifts over seconds, and probes spread in time
# give a steadier median than probes started back to back
SETUP_PROBES_EACH_SIDE = 2
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float, spans=None) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode,
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ({mode}) did not finish in time") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}.json.gz"
        res = spawn(name, seed, seconds, "trace", deadline, spans=spans)
        res["spans_file"] = str(spans.relative_to(ROOT))
        return res

    def probes():
        return [spawn(name, seed, seconds, "setup", deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]

    before = probes()
    res = spawn(name, seed, seconds, "run", deadline)
    after = probes()
    res["setup_probes_s"] = [p["setup_s"] for p in before + [res] + after]
    res["setup_wall_probes_s"] = [p["setup_wall_s"] for p in before + [res] + after]
    res["setup_s"] = statistics.median(res["setup_probes_s"])
    res["metrics"] = {k: {"value": res[k], "unit": unit} for k, unit in END_TO_END.items()}
    return res


def report(name: str, seed: int, seconds: float, trace: bool, res: dict, host: dict) -> None:
    host = dict(host, python=res["python"], numpy=res["numpy"], threads=res["threads"])
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(
        f"  machine: nproc {host['nproc']}, {host['cpu']}, python {host['python']}, "
        f"numpy {host['numpy']}, threads {host['threads']}, commit {host['commit']}"
    )
    print(
        f"  rounds {res['rounds']}  attempted {res['attempted']}  completed {res['completed']}"
        f"  failed {res['failed']}  correct {res['correct']}"
    )
    for kind, info in res["failures"].items():
        print(f"  failure {kind} x{info['count']}: {info['example']}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")
    for metric, m in res["metrics"].items():
        print(f"  {metric:<46} {m['value']:>14.6g} {m['unit']}")
    if "wall" in res:
        wall = dict(res["wall"], setup_s=statistics.median(res["setup_wall_probes_s"]))
        print("  wall time: " + "  ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(dict(res, workload=name, seed=seed, seconds=seconds, machine=host), indent=1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "sapcert" / "__init__.py").is_file():
        print(f"perfbench: no sapcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    host = machine()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            report(name, args.seed, args.seconds, bool(args.trace), results[name], host)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
