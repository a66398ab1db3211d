"""One benchmark client: python3 perfbench/worker.py JOBS OUT [--setup-only] [--trace]

Imports elabcat (and with it numpy), reads the job list that gen.py
wrote, then prints ``ready`` on stdout, and the host's speed (see
hostspeed.py) on the next line; the parent times set-up from spawn to
``ready``.  It then runs the jobs one after another, each through
``elabcat.cli.main(argv)`` with stdout captured and the host's speed
sampled around and during it, and only after the last one checks every
output against the frozen invariants.  OUT receives per-job times, mean
speeds, exit codes and verdicts, the peak RSS of this process after the
job loop, and with --trace the per-layer metrics of the pass; the spans
themselves go to OUT's directory as spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from elabcat import cli, fpmat  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402

SAMPLE_EVERY_S = 0.5


class SpeedSampler:
    """Host speed samples taken every SAMPLE_EVERY_S while a job runs.

    A job of several seconds sees the host change speed under it, so one
    sample before and one after it are not enough.  A SIGALRM handler
    takes the samples between bytecodes of the job; the time they take
    is kept apart, to be subtracted from the job's time."""

    def __init__(self):
        self.speeds: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._take)

    def _take(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.speeds.append(hostspeed.speed())
        self.paused += time.perf_counter() - start

    def start(self, speeds: list[float]) -> None:
        self.speeds, self.paused = speeds, 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        """Stop sampling; the seconds the samples took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.paused


def library_caches() -> list:
    """Every functools cache in elabcat's modules, once each."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "elabcat" or name.startswith("elabcat."):
            for f in vars(module).values():
                if callable(getattr(f, "cache_clear", None)):
                    found[id(f)] = f
    return list(found.values())


def run_job(argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, error text) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:       # argparse rejects the argv
        code = e.code if isinstance(e.code, int) else 2
    except Exception:             # a crash is a failed job, not a failed run
        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("jobs")
    ap.add_argument("out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    jobs = json.loads(Path(args.jobs).read_text())["jobs"]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    print(hostspeed.speed(), flush=True)
    if args.setup_only:
        return 0

    # Each job starts as a CLI invocation in a process of its own would:
    # with elabcat's caches empty and garbage collected, so neither its
    # time nor its cache hits depend on the jobs before it in the order.
    caches, sampler = library_caches(), SpeedSampler()
    info = getattr(getattr(fpmat, "injective_matrices", None), "cache_info", None)
    runs, hits_misses = [], [0, 0]
    for i, job in enumerate(jobs):
        for f in caches:
            f.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.begin_job(i)
        speeds = [hostspeed.speed()]
        sampler.start(speeds)
        seconds, code, stdout, errors = run_job(job["argv"])
        seconds -= sampler.stop()
        speeds.append(hostspeed.speed())
        runs.append((seconds, statistics.fmean(speeds), code, stdout, errors))
        if info is not None:
            hits_misses[0] += info().hits
            hits_misses[1] += info().misses
    wall = sum(seconds for seconds, *_ in runs)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = oracle.load_expected()
    results = []
    for job, (seconds, speed, code, stdout, errors) in zip(jobs, runs):
        want = expected.get(job["id"])
        try:
            ok = oracle.invariants(job["argv"][0], code, stdout) == want
            errors += "" if ok else "output differs from expected.json"
        except (ValueError, KeyError, TypeError, IndexError) as e:
            ok, errors = False, errors + f"unreadable output: {e!r}"
        results.append({"id": job["id"], "seconds": seconds, "speed": speed, "exit": code,
                        "ok": ok, "errors": "" if ok else errors[-2000:]})
    doc = {"wall_s": wall, "peak_rss_mib": peak_rss_mib, "jobs": results}
    if tracer is not None:
        doc["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts,
                                              tuple(hits_misses) if info else None)
        doc["absent"] = tracer.absent
        doc["spans"] = len(tracer.spans)
        Path(args.out).with_name("spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                        "spans": tracer.spans}))
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
