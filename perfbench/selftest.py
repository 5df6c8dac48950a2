"""Self-test of the benchmark's checks: tampered outputs must count as failed.

    python3 perfbench/selftest.py

Runs a few jobs once, in-process, and asserts that
  * the untouched outputs pass every check (failed_frac 0);
  * dropping one hole from a `holes` report, changing one campaign answer,
    or a wrong exit code each raise failed_frac above 0;
  * the cross-kernel comparison flags a kernel that drops a hole;
  * a traced pass has no prune calls on holes-enum, and its span self
    times add up to the time its spans cover.
Exits 1 with a message on the first assertion that does not hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_pass(cli, jobs) -> dict:
    codes = [cli.main(list(job.argv)) for job in jobs]
    digests = []
    for job in jobs:
        with open(job.out, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return {"exit": codes, "digest": digests}


def failed_frac(jobs, passes) -> float:
    attempted, failed, _ = run.check_jobs(jobs, passes)
    return failed / attempted


def rewrite(path: str, edit) -> None:
    with open(path, encoding="ascii") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def drop_first_hole(rows) -> None:
    row = next(r for r in rows if r["holes"])
    row["holes"].pop()
    row["count"] -= 1


def flip_first_verdict(payload) -> None:
    payload["verdicts"][0]["ok"] = not payload["verdicts"][0]["ok"]


class DroppingKernel:
    """A kernel that loses the last hole of every stream."""

    def __init__(self, kernel):
        self.kernel = kernel

    def find_holes(self, *args):
        return iter(list(self.kernel.find_holes(*args))[:-1])


def main() -> None:
    from holelab import cli
    from holelab.kernels import _pycore

    work = tempfile.mkdtemp(prefix="selftest-", dir=HERE)
    try:
        for sub in ("in", "out"):
            os.makedirs(os.path.join(work, sub))
        enum = WORKLOADS["holes-enum"](0, work)
        enum.jobs = enum.jobs[:1]
        p = one_pass(cli, enum.jobs)
        expect(failed_frac(enum.jobs, [p]) == 0, "holes-enum output passes its oracle check")
        rewrite(enum.jobs[0].out, drop_first_hole)
        expect(failed_frac(enum.jobs, [p]) > 0, "one dropped hole raises failed_frac")
        p = one_pass(cli, enum.jobs)
        p_bad = dict(p, exit=[1])
        expect(failed_frac(enum.jobs, [p_bad, p]) > 0, "a wrong exit code raises failed_frac")

        le7 = WORKLOADS["campaign-le7"](0, work)
        le7.jobs = [job for job in le7.jobs if job.name == "verify-ternary_euler"]
        p = one_pass(cli, le7.jobs)
        expect(failed_frac(le7.jobs, [p]) == 0, "campaign answers match the goldens")
        rewrite(le7.jobs[0].out, flip_first_verdict)
        expect(failed_frac(le7.jobs, [p]) > 0, "one changed campaign answer raises failed_frac")

        inputs = enum.kernel_inputs[:3]
        expect(run.compare_kernels(inputs, _pycore, _pycore) == (3, 0), "identical kernels agree")
        expect(run.compare_kernels(inputs, _pycore, DroppingKernel(_pycore))[1] == 3,
               "a kernel that drops a hole is caught")

        t = tracer.Tracer()
        t.install()
        one_pass(cli, enum.jobs)
        m = t.metrics()
        expect(m["kernels.prune_calls"] == 0 and m["kernels.holes"] > 0,
               "holes-enum makes kernel calls and no prune calls")
        expect(abs(t.self_total() - t.covered) < 1e-6 * max(t.covered, 1.0),
               "span self times add up to the covered time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
