#!/usr/bin/env python3
"""Benchmark of the mapgenus command line, end to end and per layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py [--workload matching|genus|verify|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Every job is a fresh ``python -m mapgenus`` process run against the
checkout's ``src/``.  One client runs the jobs in a closed loop: the next
job starts when the previous one exits.  A pass runs each of a workload's
job slots once, in an order drawn from the seed; a slot with a pool of
commands runs one member per pass.  A rotation is the smallest run of
passes that uses every pool member equally often, so a metric does not
depend on which member the seed drew first.  Rotations repeat until
``--seconds`` have passed; at least one always runs.

Each job's stdout must hash to the sha256 committed in ``digests.json``.
A nonzero exit, a digest mismatch or running past the per-job time limit
counts as a failed job and does not stop the run; the command exits 1
after printing its result when any job failed.  It exits 2 without a
result when the checkout has no importable mapgenus sources.

With ``--trace 0`` the end-to-end metrics are measured: ``wall_s`` and
``cpu_s`` per pass, ``setup_s`` (interpreter spawn to ``import
mapgenus.cli`` done), ``peak_rss_mib`` and ``cache_hit_s`` (a warm
re-invocation of the workload's cacheable job, whose cold run filled a
fresh ``--cache-dir``).  With ``--trace 1`` every pass runs once untraced
and once under ``tracer.py``; the per-layer metrics are self times and
counts per pass from the traced runs, and ``trace.overhead_s`` is traced
minus untraced wall time per pass.

On a shared host the interpreter's speed swings by up to 1.8x, for
seconds or minutes at a time, and raw times of runs a few minutes apart
differ by a fifth.  So between jobs the harness also times a fixed
pure-Python loop (``reference_loop``) for a tenth of the jobs' time, and
reports every time in reference seconds (see ``REFERENCE_S``).  The table
prints the measured value beside each scaled one, and the run record
keeps the loop's mean.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(ROOT, ".perfbench-work")

# Warm re-invocations and set-up probes each get this share of the job time.
SAMPLE_SHARE = 0.08
# A runaway such as `maps --valence 4 --vertices 5` (about 50 min pure)
# must fail within one run, and every run must end well inside 180 s.
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
# Times are reported in reference seconds: measured seconds times
# (REFERENCE_S / the run's mean reference_loop() time) ** REFERENCE_EXPONENT,
# so that a metric reads about the same whether the shared host was busy or
# idle.  The jobs slow down less than the loop when the host is busy: over
# 90 runs on a 2-core Xeon VM, 30 per workload in three periods of
# different load, job time went as loop time to the power 0.68 (matching),
# 0.84 (genus) and 0.87 (verify); 0.8 brought the three periods' medians
# closest together.  The loop gets REFERENCE_SHARE of all child time.
REFERENCE_S = 0.020
REFERENCE_EXPONENT = 0.8
REFERENCE_SHARE = 0.1

SETUP_PROBE = "import sys, mapgenus.cli; sys.stdout.write('.'); sys.stdout.flush()"
ISOLATION_PROBE = (
    "import json, mapgenus, mapgenus.cli, mapgenus.fatgraph_oracle as f; "
    "print(json.dumps([mapgenus.__file__, f.KERNEL_KIND]))"
)


@dataclass(frozen=True)
class Workload:
    slots: tuple[tuple[str, ...], ...]  # each slot is a pool; one member runs per pass
    cacheable: int  # slot whose job runs against a fresh cache, then warm


WORKLOADS = {
    # Brute-force matchings: two 15!! enumerations per pass, the second one
    # inside eg's resonant read-back.  fatgraph_oracle is most of the work.
    "matching": Workload(
        slots=(
            ("maps --valence 4 --vertices 4", "maps --valence 8 --vertices 2"),
            ("eg --nu 2 --g 3",),
        ),
        cacheable=0,
    ),
    # Continuum solvers: graded-series products and rational-function
    # normalisation; the only enumeration is (6,2), 10,395 matchings.
    "genus": Workload(
        slots=(
            ("eg --nu 3 --g 4",),
            ("zg --nu 4 --g 2", "zg --nu 3 --g 3"),
        ),
        cacheable=1,
    ),
    # Lattice tables (Fraction-dict BiSeries), the report sweep and the odd
    # valence checks: the only workload using lattice_oracle and continuum_odd.
    "verify": Workload(
        slots=(
            (
                "verify lattice --nu 2 --nmax 16 --torder 8 --with-t1",
                "verify lattice --nu 3 --nmax 8 --torder 5 --with-t1",
            ),
            ("report --nu 3",),
            ("verify odd --nu 4 --order 24",),
            ("zg --nu 2 --g 3",),
        ),
        cacheable=3,
    ),
}

# name -> unit; every one lower is better
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cache_hit_s": "s",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move).  `_s` is self time and `_calls` a call count, both per pass;
# cli.cache_hit_s is per warm re-invocation.
_GENUS = "wall_s on genus"
_VERIFY = "wall_s on verify"
_MATCHING = "wall_s on matching; flat on genus and verify"
PER_LAYER = {
    "cli.dispatch_s": ("s", "cache_hit_s on all workloads"),
    "cli.render_s": ("s", "cache_hit_s on all workloads"),
    "cli.cache_store_s": ("s", "cache_hit_s on all workloads"),
    "cli.cache_hit_s": ("s", "cache_hit_s on all workloads"),
    "fatgraph_oracle.kappa_tally_s": ("s", _MATCHING),
    "fatgraph_oracle.kappa_tally_calls": ("count", _MATCHING),
    "fatgraph_oracle.kappa_tally_repeats": ("count", _MATCHING),
    "fatgraph_oracle.matchings": ("count", _MATCHING),
    "fatgraph_oracle.matchings_per_s": ("1/s", _MATCHING),
    "exact_kernel.graded_mul_s": ("s", _GENUS),
    "exact_kernel.graded_mul_calls": ("count", _GENUS),
    "exact_kernel.series_mul_s": ("s", _GENUS),
    "exact_kernel.series_mul_calls": ("count", _GENUS),
    "exact_kernel.series_div_s": ("s", _GENUS),
    "exact_kernel.series_div_calls": ("count", _GENUS),
    "exact_kernel.poly_mul_s": ("s", _GENUS),
    "exact_kernel.poly_mul_calls": ("count", _GENUS),
    "exact_kernel.ratfn_init_s": ("s", _GENUS),
    "exact_kernel.ratfn_init_calls": ("count", _GENUS),
    "exact_kernel.poly_gcd_s": ("s", _GENUS),
    "exact_kernel.poly_gcd_calls": ("count", _GENUS),
    "exact_kernel.poly_divmod_s": ("s", _GENUS),
    "exact_kernel.poly_divmod_calls": ("count", _GENUS),
    "exact_kernel.series_to_ratfn_s": ("s", _GENUS),
    "exact_kernel.series_to_ratfn_calls": ("count", _GENUS),
    "exact_kernel.solve_linear_s": ("s", _GENUS),
    "exact_kernel.solve_linear_calls": ("count", _GENUS),
    "exact_kernel.solve_linear_cells": ("count", _GENUS),
    "exact_kernel.ratfn_to_series_s": ("s", _GENUS),
    "exact_kernel.max_coeff_bits": ("bits", _GENUS),
    "continuum_even.solve_zg_s": ("s", _GENUS),
    "continuum_even.solve_zg_calls": ("count", _GENUS),
    "continuum_even.expand_lattice_polynomial_s": ("s", _GENUS),
    "continuum_even.verify_continuum_toda_s": ("s", _GENUS),
    "genus_even.solve_eg_s": ("s", _GENUS),
    "genus_even.solve_eg_calls": ("count", _GENUS),
    "genus_even.hirota_rhs_s": ("s", _GENUS),
    "genus_even.E_w_derivs_s": ("s", _GENUS),
    "genus_even.verify_genus_structure_s": ("s", _GENUS),
    "lattice_oracle.recurrence_table_s": ("s", _VERIFY),
    "lattice_oracle.biseries_mul_s": ("s", _VERIFY),
    "lattice_oracle.biseries_mul_calls": ("count", _VERIFY),
    "lattice_oracle.biseries_div_s": ("s", _VERIFY),
    "lattice_oracle.biseries_div_calls": ("count", _VERIFY),
    "lattice_oracle.verify_lattice_equations_s": ("s", _VERIFY),
    "lattice_oracle.verify_hirota_s": ("s", _VERIFY),
    "lattice_oracle.asymptotic_match_s": ("s", _VERIFY),
    "combinatorics.operator_power_entry_s": ("s", _VERIFY),
    "combinatorics.operator_power_entry_calls": ("count", _VERIFY),
    "combinatorics.lattice_equation_exprs_s": ("s", _VERIFY),
    "continuum_odd.verify_odd_identities_s": ("s", _VERIFY),
    "continuum_odd.solve_leading_odd_s": ("s", _VERIFY),
    "continuum_odd.trivalent_checks_s": ("s", _VERIFY),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s"),
}


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    args: str
    wall: float
    cpu: float
    rss_kib: int
    digest: str
    failure: str | None  # None when the job exited 0 with the committed digest
    spans: list | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAPGENUS_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    return env


def run_job(args: str, cache_dir: str | None, expected: str | None, env, timeout: float,
            spans_file: str | None = None) -> Job:
    """Run one CLI job to completion and check its stdout digest."""
    cache = ["--cache-dir", cache_dir] if cache_dir else ["--no-cache"]
    head = [sys.executable, TRACER, spans_file] if spans_file else [sys.executable, "-m", "mapgenus"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(head + cache + args.split(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    proc.stdout.close()
    digest = hashlib.sha256(out).hexdigest()
    if wall >= timeout:
        failure = "timeout after %.0f s" % timeout
    elif proc.returncode != 0:
        failure = "exit code %d" % proc.returncode
    elif digest != expected:
        failure = "digest %s, expected %s" % (digest[:12], (expected or "none")[:12])
    else:
        failure = None
    spans = None
    if spans_file and os.path.exists(spans_file):
        with open(spans_file) as fh:
            spans = json.load(fh)["spans"]
        os.remove(spans_file)
    return Job(args, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, digest, failure, spans)


@dataclass
class Pass:
    jobs: list[Job]  # the workload's jobs, in the order they ran
    warm: list[Job] = field(default_factory=list)  # warm re-invocations of the cacheable job

    @property
    def wall(self) -> float:
        return sum(j.wall for j in self.jobs)

    @property
    def cpu(self) -> float:
        return sum(j.cpu for j in self.jobs)


class Runner:
    """Runs passes of jobs inside one fresh work directory.

    After every job of a pass come samples paced by the jobs' time, so that
    they see the machine as the jobs saw it, long jobs included: warm
    re-invocations of the cacheable job and set-up probes, each for
    SAMPLE_SHARE of the job time and at least one after each job, then the
    reference loop for REFERENCE_SHARE of all child time."""

    def __init__(self, digests: dict, work: str, deadline: float):
        self.digests = digests
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.filled = None  # (cold job, its cache directory) once one has run
        self.spent = {"warm": 0.0, "setup": 0.0, "child": 0.0, "reference": 0.0}
        self.reference_loops = 0

    def may_repeat(self, start: float, seconds: float, last_s: float) -> bool:
        """Whether another round as long as the last one both starts within
        `seconds` of `start` and ends before the run's deadline."""
        now = time.perf_counter()
        return now - start < seconds and now + last_s < self.deadline

    def keep_reference_pace(self, child_s: float) -> None:
        self.spent["child"] += child_s
        while self.spent["reference"] < REFERENCE_SHARE * self.spent["child"]:
            self.spent["reference"] += reference_loop()
            self.reference_loops += 1

    def reference_loop_s(self) -> float:
        """Mean seconds per reference loop over the run."""
        return self.spent["reference"] / self.reference_loops

    def setup_probe(self) -> float:
        """Seconds from interpreter spawn to `import mapgenus.cli` done."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        ready = proc.stdout.read(1) == b"."
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait()
        if not ready:
            raise SetupError("import mapgenus.cli failed")
        self.keep_reference_pace(elapsed)
        return elapsed

    def job(self, args, cache_dir=None, traced=False) -> Job:
        timeout = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))
        spans_file = os.path.join(self.work, "spans-%d.json" % self.attempted) if traced else None
        job = run_job(args, cache_dir, self.digests.get(args), self.env, timeout, spans_file)
        self.attempted += 1
        self.keep_reference_pace(job.wall)
        if job.failure:
            self.failures.append("%s: %s" % (args, job.failure))
        return job

    def run_pass(self, plan, cacheable: int, traced=False, setup: list | None = None) -> Pass:
        """Run one pass.  The cacheable slot's job fills a fresh cache
        directory; warm re-invocations read back the latest filled one.
        Set-up probes are taken only when `setup` is given."""
        done = Pass([])
        for slot, args in plan:
            cache_dir = tempfile.mkdtemp(dir=self.work) if slot == cacheable else None
            job = self.job(args, cache_dir, traced)
            done.jobs.append(job)
            if slot == cacheable:
                self.filled = (job, cache_dir)
            if self.filled:
                cold, filled_dir = self.filled
                budget = self.spent["warm"] + job.wall * SAMPLE_SHARE
                while self.spent["warm"] < budget:
                    warm = self.job(cold.args, filled_dir, traced)
                    done.warm.append(warm)
                    self.spent["warm"] += warm.wall
                    if warm.digest != cold.digest:
                        self.failures.append("%s: warm digest differs from cold" % cold.args)
            if setup is not None:
                budget = self.spent["setup"] + job.wall * SAMPLE_SHARE
                while self.spent["setup"] < budget:
                    setup.append(self.setup_probe())
                    self.spent["setup"] += setup[-1]
        return done


def plan_rotation(workload: Workload, rng: random.Random) -> list[list[tuple[int, str]]]:
    """Passes that run every pool member equally often, each pass's slots in
    a seeded order."""
    orders = [rng.sample(pool, len(pool)) for pool in workload.slots]
    rotation = []
    for i in range(math.lcm(*(len(pool) for pool in workload.slots))):
        plan = [(s, order[i % len(order)]) for s, order in enumerate(orders)]
        rng.shuffle(plan)
        rotation.append(plan)
    return rotation


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of rational, big-integer and
    list work, the kinds mapgenus does."""
    t0 = time.perf_counter()
    acc, x, cells = Fraction(0), 1, list(range(64))
    for i in range(1, 8000):
        acc += Fraction(1, i % 97 + 1)
        x = (x * 1234567891 + i) % (1 << 256)
        a, b = i % 64, i * 7 % 64
        cells[a], cells[b] = cells[b], cells[a]
    return time.perf_counter() - t0


def check_isolation(env) -> str:
    """Assert the children import mapgenus from this checkout; return the
    matching-kernel kind."""
    if not os.path.isfile(os.path.join(SRC, "mapgenus", "cli.py")):
        raise SetupError("no mapgenus sources under %s" % SRC)
    proc = subprocess.run([sys.executable, "-c", ISOLATION_PROBE], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise SetupError("import mapgenus failed: %s" % proc.stderr.strip()[-300:])
    path, kernel = json.loads(proc.stdout)
    if os.path.commonpath([os.path.realpath(path), os.path.realpath(SRC)]) != os.path.realpath(SRC):
        raise SetupError("mapgenus imported from %s, outside %s" % (path, SRC))
    return kernel


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 80%.  The host flips between a fast and a slow
    state within a second; a median of short samples jumps between the two,
    while a mean moves with the share of time in each, as the reference
    loop's mean does."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def measure(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    runner.setup_probe()  # warms the bytecode cache
    setup: list[float] = []
    rng = random.Random(seed)
    start = last = time.perf_counter()
    rotations = []
    while not rotations or runner.may_repeat(start, seconds, time.perf_counter() - last):
        last = time.perf_counter()
        rotations.append([runner.run_pass(plan, workload.cacheable, setup=setup)
                          for plan in plan_rotation(workload, rng)])
    passes = [p for rot in rotations for p in rot]
    jobs = [j for p in passes for j in p.jobs + p.warm]
    return {
        "wall_s": statistics.median(statistics.fmean(p.wall for p in rot) for rot in rotations),
        "cpu_s": statistics.median(statistics.fmean(p.cpu for p in rot) for rot in rotations),
        "setup_s": trimmed_mean(setup),
        "peak_rss_mib": max(j.rss_kib for j in jobs) / 1024,
        "cache_hit_s": trimmed_mean([j.wall for p in passes for j in p.warm]),
        "_samples": {"rotations": len(rotations), "passes": len(passes), "setup": len(setup),
                     "warm": sum(len(p.warm) for p in passes)},
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def span_self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(jobs: list[Job]) -> dict:
    """Per-layer self times and counters summed over the given traced jobs."""
    totals = {name + "_s": 0.0 for name in tracer.TARGETS}
    totals.update({name + "_calls": 0 for name in tracer.TARGETS})
    totals.update({"cli.cache_store_s": 0.0, "cli.cache_hit_s": 0.0, "fatgraph_oracle.kappa_tally_repeats": 0,
                   "fatgraph_oracle.matchings": 0, "exact_kernel.max_coeff_bits": 0,
                   "exact_kernel.solve_linear_cells": 0, "_dispatch_total_s": 0.0, "_self_sum_s": 0.0})
    for job in jobs:
        spans = job.spans or []
        seen = set()
        for span, own in zip(spans, span_self_times(spans)):
            name, attrs = span[0], span[4] or {}
            totals["_self_sum_s"] += own
            if name == "cli.dispatch" and span[3] < 0:
                totals["_dispatch_total_s"] += span[2] - span[1]
            if name == "cli.cache":
                if attrs["outcome"] in ("store", "hit"):
                    totals["cli.cache_%s_s" % attrs["outcome"]] += own
                else:
                    totals["cli.dispatch_s"] += own
                continue
            totals[name + "_s"] += own
            totals[name + "_calls"] += 1
            if name == "fatgraph_oracle.kappa_tally":
                jm = (attrs["j"], attrs["m"])
                totals["fatgraph_oracle.kappa_tally_repeats"] += jm in seen
                seen.add(jm)
                n = jm[0] * jm[1]
                totals["fatgraph_oracle.matchings"] += math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0
            elif name == "exact_kernel.solve_linear":
                totals["exact_kernel.solve_linear_cells"] += attrs["cells"]
            elif name == "exact_kernel.series_to_ratfn":
                totals["exact_kernel.max_coeff_bits"] = max(totals["exact_kernel.max_coeff_bits"], attrs["bits"])
    return totals


def measure_traced(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    """Run passes untraced and then traced until `seconds` have passed; the
    per-layer metrics are medians over the traced passes, taken from the
    pass's jobs except cli.cache_hit_s, which is per warm re-invocation.
    Passes, not whole rotations, keep the longest workload inside one run's
    limit."""
    rng = random.Random(seed)
    start = last = time.perf_counter()
    rows = []
    untraced = {}  # args -> stdout digest of its untraced runs
    while not rows or runner.may_repeat(start, seconds, time.perf_counter() - last):
        last = time.perf_counter()
        for plan in plan_rotation(workload, rng):
            plain = runner.run_pass(plan, workload.cacheable)
            traced = runner.run_pass(plan, workload.cacheable, traced=True)
            # Warm re-invocations need not pair up by position: a pass's first
            # ones may re-run an earlier pass's cacheable job.  Match by args.
            untraced.update((j.args, j.digest) for j in plain.jobs + plain.warm)
            for job in traced.jobs + traced.warm:
                if job.digest != untraced.get(job.args):
                    runner.failures.append("%s: traced digest differs from untraced" % job.args)
            row = layer_totals(traced.jobs)
            warm = layer_totals(traced.warm)
            row["cli.cache_hit_s"] = warm["cli.cache_hit_s"] / len(traced.warm)
            row["_self_sum_s"] += warm["_self_sum_s"]
            row["_dispatch_total_s"] += warm["_dispatch_total_s"]
            row["fatgraph_oracle.matchings_per_s"] = (
                row["fatgraph_oracle.matchings"] / row["fatgraph_oracle.kappa_tally_s"]
                if row["fatgraph_oracle.kappa_tally_s"] > 0 else 0.0
            )
            row["trace.overhead_s"] = traced.wall - plain.wall
            rows.append(row)
            if time.perf_counter() - start >= seconds:
                break
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["_samples"] = {"passes": len(rows)}
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def run_record(seed: int, kernel: str, load_start, runner: Runner) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                                  timeout=30).stdout.strip()
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=30).stdout.strip()
            revision = head + ("-dirty" if dirty else "") if head else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "kernel_kind": kernel,
        "revision": revision,
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "reference_loop_s": {"mean": runner.reference_loop_s(), "loops": runner.reference_loops},
        "seed": seed,
    }


def run_workload(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
                 digests: dict) -> tuple[dict, dict]:
    """Measure one workload; return (result object, run record)."""
    started = time.perf_counter()
    load_start = os.getloadavg()
    env = child_env()
    kernel = check_isolation(env)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        runner = Runner(digests, work, started + RUN_DEADLINE_S)
        if trace:
            values = measure_traced(workload, seed, seconds, runner)
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            values = measure(workload, seed, seconds, runner)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run's directory is still there
            pass
    scale = (REFERENCE_S / runner.reference_loop_s()) ** REFERENCE_EXPONENT
    scaled = {"s": scale, "1/s": 1 / scale}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": values[k] * scaled.get(u, 1), "unit": u} for k, u in units.items()},
        "_measured": values,
        "_samples": values["_samples"],
        "_failures": runner.failures,
        "_self_check": {k: values[k] for k in ("_dispatch_total_s", "_self_sum_s") if k in values},
    }
    return result, run_record(seed, kernel, load_start, runner)


def print_report(name: str, result: dict, record: dict, trace: bool) -> None:
    """Print the human-readable table, then the result object as the last line."""
    print("workload %s  %s  %s" % (name, "traced" if trace else "untraced",
                                    " ".join("%s=%s" % kv for kv in result["_samples"].items())))
    for failure in result["_failures"]:
        print("  FAILED %s" % failure)
        print("perfbench: %s: FAILED %s" % (name, failure), file=sys.stderr)
    print("  %-48s %14s  %s" % ("failed_frac", "%.4f" % (result["failed"] / result["attempted"]),
                               "1  (%d of %d jobs)" % (result["failed"], result["attempted"])))
    for key, m in result["metrics"].items():
        notes = ["measured %.6g" % result["_measured"][key]] if m["unit"] in ("s", "1/s") else []
        if trace:
            notes.append("moves " + PER_LAYER[key][1])
        note = "; ".join(notes)
        print("  %-48s %14.6g  %-6s %s" % (key, m["value"], m["unit"], note))
    if result["_self_check"]:
        print("  self times sum %.6f s; cli.dispatch spans total %.6f s" % (
            result["_self_check"]["_self_sum_s"], result["_self_check"]["_dispatch_total_s"]))
    print("run record %s" % json.dumps(record, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(DIGESTS) as fh:
            digests = json.load(fh)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        ok = True
        for name in names:
            result, record = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), digests)
            print_report(name, result, record, bool(args.trace))
            ok = ok and result["correct"]
    except (SetupError, OSError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
