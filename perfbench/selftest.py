#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on a tiny job list.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py

Runs `maps --valence 4 --vertices 2` through the harness and checks that:
  - every metric named in BENCHMARK.json prints with its name and unit,
    in the table and in the result line;
  - an injected wrong digest and an injected nonzero exit both count as
    failures, and the run goes on to the end;
  - the traced per-layer self times sum to no more than the traced
    cli.dispatch total;
  - traced and untraced passes agree on every job's digest when the
    cacheable slot is a pool, whose warm re-invocations early in a pass
    re-run the previous pass's member.
Exits 1 on the first check that fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

TINY_JOB = "maps --valence 4 --vertices 2"
TINY = run.Workload(slots=((TINY_JOB,),), cacheable=0)
# 3 half-edges cannot be matched: the CLI exits 2
WITH_BAD_EXIT = run.Workload(slots=((TINY_JOB,), ("maps --valence 3 --vertices 1",)), cacheable=0)
# Under seed 2 the second pass runs the other slot first, so its first warm
# re-invocation re-runs the first pass's pool member untraced and the second
# pass's member traced.
POOLED = run.Workload(slots=((TINY_JOB, "maps --valence 6 --vertices 2"), ("maps --valence 3 --vertices 2",)),
                      cacheable=0)


def check(ok: bool, what: str) -> None:
    if not ok:
        print("FAIL " + what)
        sys.exit(1)
    print("ok   " + what)


def measure(workload, trace: bool, digests: dict, seed: int = 1, seconds: float = 0):
    """A run of the workload, one rotation or pass when `seconds` is 0; the
    result and the printed lines."""
    result, record = run.run_workload("selftest", workload, seed=seed, seconds=seconds, trace=trace, digests=digests)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_report("selftest", result, record, trace)
    return result, out.getvalue().splitlines()


def main() -> int:
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = measure(TINY, trace, digests)
        check(result["correct"] and result["failed"] == 0, "%s run of %s passes" % (kind, TINY_JOB))
        last = json.loads(lines[-1])
        check(sorted(last) == ["attempted", "correct", "failed", "metrics"], "%s result line has the four keys" % kind)
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        check(declared == {k: v["unit"] for k, v in last["metrics"].items()},
              "%s result line carries exactly the BENCHMARK.json metrics and units" % kind)
        table = {ln.split()[0]: ln.split()[2] for ln in lines if ln.startswith("  ") and len(ln.split()) >= 3}
        check(all(table.get(name) == unit for name, unit in declared.items()),
              "%s table prints every metric with its unit" % kind)
        if trace:
            selfcheck = result["_self_check"]
            check(0 < selfcheck["_self_sum_s"] <= selfcheck["_dispatch_total_s"] * (1 + 1e-9),
                  "traced self times sum to no more than the cli.dispatch total")

    wrong = dict(digests, **{TINY_JOB: "0" * 64})
    result, _ = measure(TINY, False, wrong)
    check(result["failed"] == result["attempted"] >= 2 and all("digest" in f for f in result["_failures"]),
          "an injected wrong digest fails every run of the job")

    result, _ = measure(WITH_BAD_EXIT, False, digests)
    check(result["attempted"] >= 3 and result["failed"] == 1
          and "exit code 2" in result["_failures"][0] and not result["correct"],
          "an injected nonzero exit counts as one failure and the run goes on")

    result, _ = measure(POOLED, True, digests, seed=2, seconds=5)
    check(result["_samples"]["passes"] >= 2 and result["correct"],
          "a traced run whose cacheable slot is a pool passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
