"""holelab's benchmark: CLI workloads end to end, and a traced per-module run.

    python3 perfbench/run.py --workload holes-enum --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing is installed or built, the
workload's child interpreter gets `src` on its path. The inputs are made
from --seed by the benchmark's own code (inputs.py, workloads.py). Every
output is checked outside the timed region (oracle.py), and a wrong answer
makes the run exit 1. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off):
    wall_s       wall time of one pass over the workload's CLI jobs: the sum
                 over the jobs of each job's median time
    first_hit_s  the same sum over the first-hit jobs only: the
                 findhole-gadget jobs on holes-window; the other workloads
                 have no separate first-hit part, so there it is wall_s
    setup_s      median, over fresh interpreters, of the time from process
                 start until holelab.cli is imported and the kernel selected
    peak_rss_mb  maximum RSS of the workload's child process
The three times are rescaled to one CPU speed (see at_ref_speed) by the
timings of worker.spin() taken before, during and after them on the same CPU.
failed / attempted is failed_frac: jobs (over all passes) whose exit code or
checked answer differs from the expected one. It is printed on stderr with
the other metrics.

With --trace 1 the metrics are the per-module ones of tracer.py, taken
from the traced pass of median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import spin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 16
# spin() timings before and after each set-up probe
SETUP_SPINS = 4
SETUP_SCRIPT = "import holelab.cli, holelab.kernels as k; print(k.IMPLEMENTATION, flush=True)"
WORKER_TIMEOUT = 150
# seconds that worker.spin() takes on the reference CPU speed, about its
# fastest on a 2.1 GHz Xeon vCPU (Python 3.11); times are reported as if
# the CPU had run at that speed throughout
SPIN_REF = 0.00035

UNITS = {"wall_s": "s", "first_hit_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {"_s": "s", "_frac": "ratio", "_bytes": "bytes"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HOLELAB_THREADS", None)
    env.pop("HOLELAB_PURE", None)
    env["PYTHONPATH"] = SRC
    # one hash seed for every run, so dict and set layouts do not add noise
    env["PYTHONHASHSEED"] = "0"
    return env


def at_ref_speed(seconds: float, spins: list[float]) -> float:
    """A time rescaled to the speed at which spin() takes SPIN_REF, given
    spin() timings spread evenly over it on the same CPU.

    The vCPUs of a shared machine run the same code up to 1.8x slower for
    stretches of a fraction of a second to tens of seconds, with no steal
    time to show for it; spin() timed during the measurement tracks that
    speed. Each timing stands for an equal share of the wall time, and the
    work done in it is proportional to the speed, 1 / spin time.
    """
    return seconds * SPIN_REF * statistics.fmean(1 / s for s in spins)


def measure_setup(env: dict, count: int) -> list[float]:
    """Times from starting a fresh interpreter until it has imported
    holelab.cli and selected the kernel (it then prints the kernel name),
    at the reference speed. This process and the probe run on one CPU, so
    that spin() times the CPU the probe ran on."""
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        return [_setup_probe(env) for _ in range(count)]
    finally:
        os.sched_setaffinity(0, affinity)


def _setup_probe(env: dict) -> float:
    before = [spin() for _ in range(SETUP_SPINS)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_SCRIPT], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or not line.strip():
        raise RuntimeError("importing holelab.cli failed")
    return at_ref_speed(elapsed, before + [spin() for _ in range(SETUP_SPINS)])


def run_worker(jobs, seconds: float, trace: bool, work: str, env: dict) -> dict:
    """Run the passes in one worker pinned to one CPU, and wait for it.

    One worker, not one per CPU: two workers running the same jobs side by
    side slow each other through the caches they share, by an amount
    spin() does not see, and in five runs of holes-enum that doubled the
    run-to-run spread of wall_s.
    """
    spec = {
        "jobs": [{"out": job.out, "argv": job.argv} for job in jobs],
        "seconds": seconds,
        "trace": trace,
        "cpu": min(os.sched_getaffinity(0)),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code:
        raise RuntimeError(f"worker exit code {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_jobs(jobs, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over every pass of every job.

    The output left by the last pass is checked in full; an earlier pass
    fails if its exit code differs or its output bytes differ from that one.
    """
    attempted = failed = 0
    errors = []
    last = passes[-1]
    for j, job in enumerate(jobs):
        try:
            with open(job.out, encoding="ascii") as fh:
                payload = json.load(fh)
            problems = job.check(payload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        errors += [f"{job.name}: {p}" for p in problems[:3]]
        for p in passes:
            attempted += 1
            bad = bool(problems) or p["exit"][j] != job.expect_exit or p["digest"][j] != last["digest"][j]
            if p["exit"][j] != job.expect_exit and p is last:
                errors.append(f"{job.name}: exit {p['exit'][j]}, expected {job.expect_exit}")
            failed += bad
    return attempted, failed, errors


def compare_kernels(kernel_inputs, reference, other) -> tuple[int, int]:
    """(attempted, failed): both kernels must emit identical hole streams."""
    failed = 0
    for adj, n, lo, hi, first_only in kernel_inputs:
        streams = []
        for kernel in (reference, other):
            stream = kernel.find_holes(adj, n, lo, hi)
            streams.append(next(iter(stream), None) if first_only else list(stream))
        failed += streams[0] != streams[1]
    return len(kernel_inputs), failed


def cross_kernel(kernel_inputs) -> tuple[int, int, str]:
    if not kernel_inputs:
        return 0, 0, "no hole inputs"
    sys.path.insert(0, SRC)
    from holelab.kernels import _pycore

    try:
        from holelab.kernels import _fastcore
    except ImportError:
        return 0, 0, "compiled kernel not importable; skipped"
    attempted, failed = compare_kernels(kernel_inputs, _pycore, _fastcore)
    return attempted, failed, f"{attempted - failed}/{attempted} streams identical"


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def median_pass(passes: list[dict]) -> dict:
    ranked = sorted(passes, key=lambda p: p["wall"])
    return ranked[(len(ranked) - 1) // 2]


def job_times(passes: list[dict]) -> list[float]:
    """Each job's median time over the passes, at the reference speed."""
    return [
        statistics.median(at_ref_speed(p["times"][j], p["spins"][j]) for p in passes)
        for j in range(len(passes[0]["times"]))
    ]


def end_to_end(wl, result: dict, setup: list[float]) -> dict:
    """A pass is timed job by job, each job rescaled by the spin() timings
    taken before, during and after it, and each job by its median over the
    passes."""
    per_job = job_times(result["passes"])
    return {
        "wall_s": sum(per_job),
        "first_hit_s": sum(t for t, job in zip(per_job, wl.jobs) if job.first_hit),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }


def per_layer(result: dict) -> dict:
    p = median_pass(result["traced"])
    metrics = dict(p["layers"])
    metrics["trace.overhead_frac"] = result["overhead_frac"]
    metrics["trace.unattributed_s"] = p["wall"] - p["covered"]
    # self times partition the time covered by spans; a gap means a span
    # was counted twice or lost
    if abs(p["self_total"] - p["covered"]) > 1e-6 * max(p["covered"], 1.0):
        raise RuntimeError(f"span self times {p['self_total']} != covered {p['covered']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through the finally blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "holelab", "cli.py")):
        print(f"error: no holelab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "in"))
    os.makedirs(os.path.join(work, "out"))
    try:
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, work)
        gen_s = time.perf_counter() - t0
        env = child_env()
        setup = []
        if not args.trace:
            # the first probe may write bytecode caches and is not counted;
            # half the probes run before the passes and half after, so the
            # median spans the whole run
            measure_setup(env, 1)
            setup += measure_setup(env, SETUP_PROBES // 2)
        result = run_worker(wl.jobs, args.seconds, bool(args.trace), work, env)
        if not args.trace:
            setup += measure_setup(env, SETUP_PROBES - SETUP_PROBES // 2)
        all_passes = [result["warmup"]] + result["passes"] + result.get("traced", [])
        attempted, failed, errors = check_jobs(wl.jobs, all_passes)
        k_att, k_fail, k_note = cross_kernel(wl.kernel_inputs)
        attempted += k_att
        failed += k_fail
        if k_fail:
            errors.append(f"kernel streams differ on {k_fail} of {k_att} inputs")
        metrics = per_layer(result) if args.trace else end_to_end(wl, result, setup)
    except BaseException:
        print(f"work directory kept: {work}", file=sys.stderr)
        raise
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run's work directory is still there

    timed = result["traced"] if args.trace else result["passes"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "implementation": result["implementation"],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "input_digests": wl.digests,
        "input_s": round(gen_s, 3),
        "passes": len(timed),
        "pass_wall_s": [round(p["wall"], 4) for p in timed],
        "job_median_s": {job.name: round(statistics.median(p["times"][j] for p in timed), 4) for j, job in enumerate(wl.jobs)},
        "spin_median_s": round(statistics.median(t for p in timed for job in p.get("spins", []) for t in job), 6)
        if not args.trace else None,
        "spin_ref_s": SPIN_REF,
        "setup_samples": len(setup),
        "cross_kernel": k_note,
    }
    print(json.dumps(info, sort_keys=True))
    print(f"# {args.workload} seed={args.seed} kernel={result['implementation']} passes={len(timed)}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"#   {name:32s} {value:>14.6g} {unit_of(name)}", file=sys.stderr)
    print(f"#   {'failed_frac':32s} {failed / attempted:>14.6g} ratio  ({failed}/{attempted} jobs)", file=sys.stderr)
    if args.trace and "kernels.prune_calls" not in metrics:
        print("#   kernels.prune_*: absent (the kernel in use has no prune hook)", file=sys.stderr)
    for err in errors:
        print(f"# FAILED {err}", file=sys.stderr)
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
