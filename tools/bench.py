#!/usr/bin/env python3
"""Before-and-after timings for a speed change, written to one committed
file: ``BENCH_<label>.json`` at the root of the checkout this script sits
in.

Usage (from a clean copy of the tree, nothing else loading the machine):
    python3 tools/bench.py LABEL

Run it on clean copies of both trees, the parent's with this script copied
in, in one session, and commit both files.  Every case runs ``REPEATS``
times and records its minimum and spread (largest less smallest) in
seconds and the sha256 of its output, which must be the same on every
repeat.  The cases:

- ``stage``: the lattice polynomials ``lattice_equation_exprs(nu,
  "string")`` and ``operator_power_entry(2 nu, 1, -1)`` in this process,
  timed with ``time.perf_counter``; the output is the repr of their terms
  in insertion order as (t-degree, b2 offsets, coefficient) triples.
- ``end_to_end``: child CPU (user + system, from ``resource``) of one
  fresh ``python -m mapgenus --no-cache`` process per command, with
  bytecode writing off; the output is its stdout.  The commands are the
  nu grid ``eg --nu 2..12 --g 3`` and a fixed set of larger jobs.

The file also records the machine (CPU, ``nproc``, Python), the git
revision and whether tracked files differ from it, and the load average at
the start and the end.  ``host_noise`` names how far one fixed
pure-Python loop, timed before and after the cases, swings on this host,
and the case of at least ``NOISE_FLOOR_S`` whose repeats spread widest.
"""

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPEATS = 5
NOISE_FLOOR_S = 0.1  # shorter cases show the timer's resolution more than the host
STAGE_NUS = (2, 4, 6, 8, 10, 11)
EG_GRID = ["eg --nu %d --g 3" % nu for nu in range(2, 13)]
COMMANDS = [
    "eg --nu 6 --g 6",
    "eg --nu 10 --g 3",
    "eg --nu 4 --g 8",
    "eg --nu 3 --g 14",
    "eg --nu 2 --g 24",
    "zg --nu 2 --g 24",
    "verify continuum --nu 6 --g 2",
    "verify lattice --nu 2 --nmax 16 --torder 8 --with-t1",
    "report --nu 3",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _case(layer, name, samples, digests) -> dict:
    if len(set(digests)) != 1:
        raise SystemExit("%s: the output differs between repeats" % name)
    return {
        "layer": layer,
        "name": name,
        "repeats": len(samples),
        "min_s": round(min(samples), 6),
        "spread_s": round(max(samples) - min(samples), 6),
        "output_sha256": digests[0],
    }


def stage_case(fn, *args) -> dict:
    samples, digests = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        poly = fn(*args)
        samples.append(time.perf_counter() - start)
        digests.append(_sha256(repr([(key[0], key[1], value) for key, value in poly.terms.items()]).encode()))
    name = "%s(%s)" % (fn.__name__, ", ".join(map(repr, args)))
    return _case("stage", name, samples, digests)


def command_case(command: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "mapgenus", "--no-cache"] + command.split()
    samples, digests = [], []
    for _ in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        digests.append(_sha256(proc.stdout))
    return _case("end_to_end", command, samples, digests)


def reference_loop() -> list[float]:
    """Times of a fixed pure-Python loop, one per repeat."""
    out = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sum(i * i % 7 for i in range(1_000_000))
        out.append(time.perf_counter() - start)
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def revision() -> dict:
    """The checkout's git revision and whether its tracked files differ
    from it (a copied-in script does not count); both None outside a git
    checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}
    return {"revision": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/bench.py LABEL")
    label = sys.argv[1]
    sys.path.insert(0, SRC)
    from mapgenus.combinatorics import lattice_equation_exprs, operator_power_entry

    record = {"label": label, "machine": machine(), **revision(), "loadavg_start": os.getloadavg()}
    loop_before = reference_loop()
    cases = []
    for nu in STAGE_NUS:
        cases.append(stage_case(lattice_equation_exprs, nu, "string"))
        cases.append(stage_case(operator_power_entry, 2 * nu, 1, -1))
    for command in EG_GRID + COMMANDS:
        cases.append(command_case(command))
    loop = loop_before + reference_loop()
    long_cases = [case for case in cases if case["min_s"] >= NOISE_FLOOR_S]
    widest = max(long_cases, key=lambda case: case["spread_s"] / case["min_s"])
    record["loadavg_end"] = os.getloadavg()
    record["host_noise"] = {
        "reference_loop_min_s": round(min(loop), 6),
        "reference_loop_max_over_min": round(max(loop) / min(loop), 3),
        "widest_case": widest["name"],
        "widest_case_spread_over_min": round(widest["spread_s"] / widest["min_s"], 3),
    }
    record["cases"] = cases
    path = os.path.join(ROOT, "BENCH_%s.json" % label)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
