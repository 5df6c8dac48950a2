"""One workload in a fresh interpreter: timed passes over its CLI jobs.

    python3 perfbench/worker.py SPEC.json RESULT.json

run.py starts this with `src` on PYTHONPATH. SPEC holds the jobs (CLI
argument lists and output paths), the seconds to measure, whether to trace
and the CPU to pin this process to. Every job runs in-process through holelab.cli.main. After an untimed
warm-up pass, passes repeat until the seconds (counted from the start of
the warm-up) are spent, and at least MIN_PASSES times. With tracing, the
first half of the time gives untraced passes and the second half traced
ones, so the overhead of tracing is measured in the same process.

Untraced passes also time spin(), a short fixed loop of the benchmark's
own, right before and after each job and every SAMPLE_INTERVAL seconds
during it (from a SIGALRM handler, whose time is taken out of the job's):
how long it takes says how fast the CPU runs at that moment, and run.py
rescales each job's time by it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

MIN_PASSES = 3


def run_job(cli, argv: list[str]):
    """The job's exit code, as the command line would return it; a job
    that raises gets a text code, which the checks count as failed."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # the benchmark reports it and goes on
        return f"raised {type(exc).__name__}: {exc}"


SPIN_ITERATIONS = 5_000
SAMPLE_INTERVAL = 0.02


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop (under 1 ms)."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(SPIN_ITERATIONS):
        acc += i & 7
        seen[i & 255] = acc
    return time.perf_counter() - t0


class Sampler:
    """Times spin() on every SIGALRM while armed, and adds up its own cost."""

    def __init__(self) -> None:
        self.spins: list[float] = []
        self.cost = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.spins.append(spin())
        self.cost += time.perf_counter() - t0

    def time_job(self, cli, argv: list[str]) -> tuple[object, float, list[float]]:
        """(exit code, seconds without the samples' cost, spin() timings)."""
        self.spins, self.cost = [spin()], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        t0 = time.perf_counter()
        code = run_job(cli, argv)
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0 - self.cost
        self.spins.append(spin())
        return code, elapsed, self.spins


def run_pass(cli, jobs: list[dict], sampler: Sampler | None) -> dict:
    for job in jobs:
        if os.path.exists(job["out"]):
            os.remove(job["out"])
    gc.collect()
    times, codes, spins = [], [], []
    for job in jobs:
        if sampler is None:
            t0 = time.perf_counter()
            codes.append(run_job(cli, job["argv"]))
            times.append(time.perf_counter() - t0)
        else:
            code, elapsed, samples = sampler.time_job(cli, job["argv"])
            codes.append(code)
            times.append(elapsed)
            spins.append(samples)
    wall = sum(times)
    digests, sizes = [], []
    for job in jobs:
        try:
            with open(job["out"], "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        digests.append(hashlib.sha256(data).hexdigest())
        sizes.append(len(data))
    return {"wall": wall, "times": times, "spins": spins, "exit": codes, "digest": digests, "bytes": sizes}


def run_for(cli, jobs, deadline: float, sampler=None, on_pass=None, last: float = 0.0) -> list[dict]:
    """Passes until the next one would end after the deadline (judged by
    the last pass), and at least MIN_PASSES."""
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() + last < deadline:
        p = run_pass(cli, jobs, sampler)
        last = p["wall"]
        if on_pass is not None:
            on_pass(p)
        passes.append(p)
    return passes


def main() -> None:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from holelab import cli, kernels

    os.sched_setaffinity(0, {spec["cpu"]})
    jobs, seconds = spec["jobs"], spec["seconds"]
    # the samples would run inside the spans of a traced pass
    sampler = None if spec["trace"] else Sampler()
    start = time.perf_counter()
    warmup = run_pass(cli, jobs, sampler)
    result = {"implementation": kernels.IMPLEMENTATION, "warmup": warmup}
    if not spec["trace"]:
        result["passes"] = run_for(cli, jobs, start + seconds, sampler, last=warmup["wall"])
    else:
        import tracer

        result["passes"] = run_for(cli, jobs, start + seconds / 2, last=warmup["wall"])
        t = tracer.Tracer()
        t.install()

        def record(p):
            p["layers"] = t.metrics()
            p["layers"]["cli.out_bytes"] = sum(p["bytes"])
            p["covered"] = t.covered
            p["self_total"] = t.self_total()
            t.reset()

        t.reset()
        result["traced"] = run_for(cli, jobs, start + seconds, on_pass=record, last=result["passes"][-1]["wall"])
        result["overhead_frac"] = (
            statistics.median(p["wall"] for p in result["traced"])
            / statistics.median(p["wall"] for p in result["passes"])
            - 1
        )
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)


if __name__ == "__main__":
    main()
