"""The elabcat benchmark.

    python3 perfbench/run.py --workload {session,rank4,closure} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload is a single-threaded
closed loop: one client, in one fresh worker process per pass, starts
each CLI job after the previous one returns.  The seed fixes the inputs
(gen.py relabels every group's points and shuffles the job order), and
every job's output is checked against label-independent invariants
frozen in expected.json.

A run generates its inputs in a separate process.  With --trace 0 it
runs --seconds // workloads.PASS_S untraced passes (a count fixed by
the arguments, so parent and child commits do the same work), each
after PROBES_PER_PASS timed worker start-ups.  Every time is reported
at the reference speed of hostspeed.py: the shared host this was built
on changes speed by up to 2x for seconds to minutes at a time, and the
raw times of one commit spread past any useful bound.  A job's time is
its median over the passes.  With --trace 1 it runs a traced pass between two untraced
ones, and reports the per-layer metrics of the traced pass and the
tracing overhead against the untraced ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat the metrics
for a reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
PROBES_PER_PASS = 1
TIME_LIMIT_S = 170.0        # a run must end within 180 s
TAIL_BEYOND = 10            # samples the tail percentile must leave above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The run could not produce a result."""


class Runner:
    """Spawns the generator and the workers, each under one deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run passed its {TIME_LIMIT_S:.0f} s limit")
        return left

    def _wait(self, proc: subprocess.Popen, what: str) -> None:
        try:
            code = proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{what} passed the run's time limit")
        if code != 0:
            raise BenchError(f"{what} exited {code}")

    def generate(self, workload: str, seed: int) -> Path:
        with open(self.work / "stderr.txt", "a") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                 "--seed", str(seed), "--out", str(self.work / "inputs")],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                self._wait(proc, "input generator")
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        return self.work / "inputs" / "jobs.json"

    def worker(self, jobs: Path, *flags: str) -> tuple[float, dict]:
        """Seconds from spawn to the worker's ``ready``, at the reference
        speed, and its result."""
        out = self.work / "result.json"
        out.unlink(missing_ok=True)
        with open(self.work / "stderr.txt", "a") as err:
            speed = hostspeed.speed()
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(jobs), str(out), *flags],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                line = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                lines = proc.stdout.read().split()
            except BaseException:       # e.g. SIGTERM: never leave the worker running
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                self._wait(proc, "worker")
        if line.strip() != "ready" or not lines:
            raise BenchError("worker did not report ready")
        # at the reference speed: the mean of the speeds just before and after
        setup_s *= (speed + float(lines[0])) / 2
        return setup_s, json.loads(out.read_text()) if "--setup-only" not in flags else {}


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with TAIL_BEYOND samples above it;
    100 (the maximum) when there are too few samples for one at or above
    the median."""
    q = math.floor(100 * (samples - TAIL_BEYOND) / samples)
    return q if q >= 50 else 100


def nearest_rank(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def job_times(passes: list[dict]) -> dict[str, float]:
    """Each job's median time over the passes, at the reference speed."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            times.setdefault(j["id"], []).append(j["seconds"] * j["speed"])
    return {k: statistics.median(v) for k, v in times.items()}


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a run's untraced passes, with notes."""
    times = list(job_times(passes).values())
    q = tail_percentile(len(times))
    metrics = {
        "wall_s": (sum(times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (nearest_rank(times, q), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
    }
    notes = [f"passes = {len(passes)} untraced of {len(times)} jobs, measured pass "
             "time " + ", ".join(f"{p['wall_s']:.3f}" for p in passes) + " s",
             "times are at the reference speed: wall_s is the sum over jobs of "
             "each job's median over the passes",
             f"job_tail_s is p{q} of the {len(times)} job times",
             f"setup_s is the median of {len(setups)} worker start-ups"]
    return metrics, notes


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    """Untraced passes for the end-to-end metrics; with trace, a traced
    pass between two untraced ones, which are the overhead baseline."""
    run = Runner(work)
    jobs = run.generate(workload, seed)
    if trace:
        setups, passes = [], [run.worker(jobs)[1]]
        traced = run.worker(jobs, "--trace")[1]
        passes.append(run.worker(jobs)[1])
    else:
        setups, passes, traced = [], [], None
        for _ in range(workloads.passes(seconds)):
            setups += [run.worker(jobs, "--setup-only")[0] for _ in range(PROBES_PER_PASS)]
            setup_s, result = run.worker(jobs)
            setups.append(setup_s)
            passes.append(result)

    everything = passes + ([traced] if traced else [])
    return {
        "attempted": sum(len(p["jobs"]) for p in everything),
        "failures": [f"{j['id']}: exit {j['exit']} {j['errors']}".strip()
                     for p in everything for j in p["jobs"] if not j["ok"]],
        "passes": passes,
        "setups": setups,
        "traced": traced,
    }


def layer_report(m: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics of the traced pass, with notes."""
    traced = m["traced"]
    baseline = statistics.median(sum(job_times([p]).values()) for p in m["passes"])
    overhead = sum(job_times([traced]).values()) / baseline - 1
    values = dict(traced["layers"], **{"trace.overhead_ratio": overhead})
    wall = traced["wall_s"]
    shares = sorted(((v / wall, k) for k, v in values.items()
                     if k.count(".") == 1 and k.endswith(".self_s")), reverse=True)
    notes = [f"traced wall_s = {wall:.4f} s over {traced['spans']} spans",
             "self time share of traced wall_s: "
             + ", ".join(f"{k[:-7]} {s:.1%}" for s, k in shares)]
    if traced["absent"]:
        notes.append("absent (read as zero): " + ", ".join(traced["absent"]))
    return {name: (values[name], unit) for name, unit, _b in tracing.metric_specs()}, notes


def main() -> int:
    ap = argparse.ArgumentParser(description="elabcat benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run unwinds, so every child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "elabcat" / "cli.py").is_file():
        print(f"error: no elabcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {s["name"]: s["unit"] for s in section}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        log = work / "stderr.txt"
        if log.exists():
            print(log.read_text()[-4000:], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, notes = layer_report(m)
    else:
        metrics, notes = end_to_end(m["passes"], m["setups"])
    if {k: u for k, (_v, u) in metrics.items()} != units:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len(m["failures"])
    print(f"workload = {args.workload}, seed = {args.seed}")
    for line in notes + m["failures"]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed / m['attempted']:.6g} ratio "
          f"({failed} of {m['attempted']} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
