#!/usr/bin/env python3
"""End-to-end benchmark of the dgsched figure and campaign binaries.

Builds the repository's own binaries from source (benchmark/CMakeLists.txt,
into .bench_build/ at the repository root), launches them as subprocesses in
a scratch directory under .bench_build/, times them from outside and checks
every output row against the stored references in benchmark/expected/.
benchmark/README.md describes the workloads, the metrics and the binaries
and environment variables the harness depends on.

One run of one workload (the last stdout line is the JSON result):
    python3 benchmark/run.py --workload fig1_high_avail --seed 1 --seconds 25
Per-layer metrics from the traced driver instead of end-to-end metrics:
    python3 benchmark/run.py --workload fig1_high_avail --trace 1
R runs of every workload, written to one JSON file with medians and quartiles:
    python3 benchmark/run.py --repeat 5 --out .bench_build/parent.json
Per-layer profile of each workload beside the same workload at full size:
    python3 benchmark/run.py --profile
Fast check of the harness, the traced driver and the references:
    python3 benchmark/run.py --smoke
Regenerate the references after a deliberate change of the outputs:
    python3 benchmark/run.py --write-expected
"""

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_BUILD = BUILD / "cmake"
RUNS = BUILD / "runs"
EXPECTED_DIR = HERE / "expected"
DIGESTS = EXPECTED_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

# Input seeds with stored reference outputs. --seed n selects n itself when it
# is one of them and the (n mod 16)-th otherwise, so every run, whatever its
# seed, is checked row by row against a stored reference. Smoke mode keeps a
# reference for the default seed only.
REFERENCE_SEEDS = [24301] + list(range(1, 16))
DEFAULT_SEED = 24301
READABLE_SEEDS = [24301, 1, 2]  # also stored as whole files, for reading a diff

TIMED_TARGETS = ["fig1_high_avail", "fig2_low_avail", "robustness_campaign"]
TRACE_TARGET = "dgsched_trace"

SAMPLE_PERIOD_S = 0.05     # Pss sampling period of the process tree
ITERATION_TIMEOUT_S = 150  # a hung binary is killed and its rows count as failed
MIN_ITERATIONS = 2


def lane_count():
    """L = usable cores - 1: one core stays free for the harness itself."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


@dataclass(frozen=True)
class Workload:
    name: str
    binary: str
    env: dict            # size override; --profile runs without it, at full size
    outputs: tuple       # files the binary writes, compared with the reference
    reference: str       # key of the reference outputs in expected/digests.json
    procs: bool = False  # process lanes (DGSCHED_PROCS) instead of threads


# Fewer bags per cell than the binaries' defaults (figures 100, campaign 24),
# so one iteration takes 3-10 s on 3 lanes and a run holds several. The
# replication stays at the binaries' defaults (3..12 until a 5% relative
# error, speculation on), as in real use: the stop rule, the speculative
# launches and their discards run as they do at full size.
_FIGURE_ENV = {"DGSCHED_BOTS": "16"}
_CAMPAIGN_ENV = {"DGSCHED_BOTS": "12"}
_CAMPAIGN_OUT = ("robustness_heatmap.csv", "robustness_seeds.csv")
WORKLOADS = [
    Workload("fig1_high_avail", "fig1_high_avail", _FIGURE_ENV, ("fig1_high_avail.csv",),
             "fig1_high_avail"),
    Workload("fig2_low_avail", "fig2_low_avail", _FIGURE_ENV, ("fig2_low_avail.csv",),
             "fig2_low_avail"),
    Workload("campaign_threads", "robustness_campaign", _CAMPAIGN_ENV, _CAMPAIGN_OUT, "campaign"),
    Workload("campaign_procs", "robustness_campaign", _CAMPAIGN_ENV, _CAMPAIGN_OUT, "campaign",
             procs=True),
]
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}
SMOKE_ENV = {"DGSCHED_BOTS": "15", "DGSCHED_MIN_REPS": "2", "DGSCHED_MAX_REPS": "2",
             "DGSCHED_CAMPAIGN_GRID": "smoke", "DGSCHED_CAMPAIGN_SEEDS": "2"}


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != [w.name for w in WORKLOADS]:
        raise BenchError("BENCHMARK.json workloads differ from run.py's")
    return spec


def workload_env(workload, seed, lanes, smoke, full_size=False):
    """The binary's whole DGSCHED_* environment; inherited ones are dropped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DGSCHED_")}
    if not full_size:
        env.update(workload.env)
    env["DGSCHED_SEED"] = str(seed)
    env["DGSCHED_THREADS"] = str(lanes)
    if workload.procs:
        env["DGSCHED_PROCS"] = str(lanes)
    if smoke:
        env.update(SMOKE_ENV)
    return env


def input_seed(seed, smoke):
    if smoke:
        return DEFAULT_SEED
    return seed if seed in REFERENCE_SEEDS else REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


# --------------------------------------------------------------------------
# Build

def build():
    """Configures and builds into .bench_build; returns whether the traced
    driver built. A timed binary that fails to build is fatal."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no dgsched sources under {ROOT}; run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log, "a") as out:
        def cmake(*args):
            return subprocess.run(["cmake", *args], stdout=out, stderr=subprocess.STDOUT).returncode
        if not (CMAKE_BUILD / "CMakeCache.txt").exists():
            if cmake("-S", str(HERE), "-B", str(CMAKE_BUILD), "-DCMAKE_BUILD_TYPE=Release") != 0:
                raise BenchError(f"cmake configure failed; see {log}")
        if cmake("--build", str(CMAKE_BUILD), "-j", jobs, "--target", *TIMED_TARGETS) != 0:
            raise BenchError(f"build failed; see {log}")
        return cmake("--build", str(CMAKE_BUILD), "-j", jobs, "--target", TRACE_TARGET) == 0


def binary_path(target):
    return CMAKE_BUILD / "trace" / target if target == TRACE_TARGET else CMAKE_BUILD / target


# --------------------------------------------------------------------------
# Running one binary and measuring it from outside

def set_child_subreaper():
    """Orphaned grandchildren (worker processes of a killed coordinator) are
    re-parented to this process, so they can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def group_members(pgid):
    """Live (non-zombie) processes of a process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def pss_kib(pids):
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except (OSError, ValueError):
            pass
    return total


def reap_orphans():
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def stop_group(pgid, leader_waiter):
    """SIGKILLs a process group and waits until every member has ended. The
    leader is reaped by `leader_waiter` alone (it records the leader's
    resource usage); the other members, orphans re-parented to this process,
    are reaped here once it is done."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    leader_waiter.join()
    deadline = time.monotonic() + 30
    while group_members(pgid) and time.monotonic() < deadline:
        reap_orphans()
        time.sleep(0.01)
    reap_orphans()


@dataclass
class Sample:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    returncode: int = -1
    stdout: str = ""
    stderr: str = ""
    ok: bool = False  # exited 0 and every output row matched the reference


def run_measured(cmd, env, cwd, timeout=ITERATION_TIMEOUT_S):
    """Spawns `cmd` as its own process group and measures it: wall (spawn to
    exit), cpu (user+sys of the whole tree, from wait4), setup (spawn to the
    first output byte on either stream) and the peak summed Pss of the tree."""
    if shutil.which("stdbuf"):
        cmd = ["stdbuf", "-oL", *cmd]  # line-buffered stdout: a banner arrives at once
    sample = Sample()
    first_byte = []
    chunks = {"out": [], "err": []}
    exited = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)

    def reader(stream, key):
        while data := os.read(stream.fileno(), 65536):
            if not first_byte:
                first_byte.append(time.perf_counter())
            chunks[key].append(data)

    def waiter():
        _, status, usage = os.wait4(proc.pid, 0)
        sample.wall_s = time.perf_counter() - t0
        sample.cpu_s = usage.ru_utime + usage.ru_stime
        sample.returncode = os.waitstatus_to_exitcode(status)
        proc.returncode = sample.returncode
        exited.set()

    readers = [threading.Thread(target=reader, args=(proc.stdout, "out")),
               threading.Thread(target=reader, args=(proc.stderr, "err"))]
    leader_waiter = threading.Thread(target=waiter)
    for t in [*readers, leader_waiter]:
        t.start()
    peak_kib = 0
    try:
        while not exited.wait(SAMPLE_PERIOD_S):
            peak_kib = max(peak_kib, pss_kib(group_members(proc.pid)))
            if time.perf_counter() - t0 > timeout:
                break
    finally:
        stop_group(proc.pid, leader_waiter)  # a timeout, or anything left behind
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    sample.peak_rss_mb = peak_kib / 1024.0
    sample.setup_s = (first_byte[0] - t0) if first_byte else sample.wall_s
    sample.stdout = b"".join(chunks["out"]).decode(errors="replace")
    sample.stderr = b"".join(chunks["err"]).decode(errors="replace")
    return sample


# --------------------------------------------------------------------------
# Reference outputs

def file_digests(path):
    with open(path) as f:
        return [hashlib.sha256(line.rstrip("\n").encode()).hexdigest()[:12] for line in f]


def load_digests():
    """digests.json is flat ("mode/reference/seed": {file: row digests}) so a
    regenerated file diffs line by line; this nests it back."""
    nested = {}
    if DIGESTS.exists():
        with open(DIGESTS) as f:
            for key, files in json.load(f).items():
                mode, ref, seed = key.split("/")
                nested.setdefault(mode, {}).setdefault(ref, {})[seed] = files
    return nested


def mode_name(smoke):
    return "smoke" if smoke else "full"


def check_outputs(rundir, workload, reference):
    """(rows attempted, rows failed, first mismatch). A missing reference or
    output file fails every row it should have held."""
    if reference is None:
        return 1, 1, f"no stored reference for {workload.reference}"
    attempted = failed = 0
    first = None
    for name in workload.outputs:
        want = reference[name]
        path = rundir / name
        got = file_digests(path) if path.exists() else []
        bad = [i for i, d in enumerate(want) if i >= len(got) or got[i] != d]
        attempted += len(want)
        failed += len(bad) + max(0, len(got) - len(want))
        if bad and first is None:
            first = f"{name}: row {bad[0]} differs from the reference" if got else f"{name}: missing"
    return attempted, min(failed, attempted), first


def output_counts(rundir, workload):
    """What the traced driver's runner pass must repeat, read from the timed
    binary's outputs: grid cells and their committed replications, and for
    the campaign the seed-pass rows and their seeds."""
    def rows(name):
        with open(rundir / name, newline="") as f:
            return list(csv.DictReader(f))
    grid = rows(workload.outputs[0])
    counts = {"check.cells": len(grid),
              "check.reps_committed": sum(int(r["replications"]) for r in grid)}
    if len(workload.outputs) > 1:
        seeds = rows(workload.outputs[1])
        counts["check.seed_cells"] = len(seeds)
        counts["check.seeds"] = sum(int(r["seeds"]) for r in seeds)
    return counts


# --------------------------------------------------------------------------
# Measuring a workload

@dataclass
class RunResult:
    workload: str
    seed: int
    input_seed: int
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> value
    counts: dict = field(default_factory=dict)   # output_counts of a correct iteration

    @property
    def correct(self):
        return self.failed == 0 and not self.errors

    def good_samples(self):
        return [s for s in self.samples if s.ok]


class Runner:
    def __init__(self, spec, smoke):
        self.spec = spec
        self.smoke = smoke
        self.lanes = lane_count()
        self.digests = load_digests()

    def start(self, workload, seed):
        iseed = input_seed(seed, self.smoke)
        result = RunResult(workload.name, seed, iseed)
        env = workload_env(workload, iseed, self.lanes, self.smoke)
        reference = self.digests.get(mode_name(self.smoke), {}).get(
            workload.reference, {}).get(str(iseed))
        return result, env, reference, self.fresh_rundir(workload)

    @staticmethod
    def fresh_rundir(workload):
        rundir = RUNS / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        return rundir

    def iterate(self, workload, env, rundir, reference, result):
        for name in workload.outputs:
            (rundir / name).unlink(missing_ok=True)
        sample = run_measured([str(binary_path(workload.binary))], env, rundir)
        attempted, failed, first = check_outputs(rundir, workload, reference)
        if sample.returncode != 0:
            tail = (sample.stderr or sample.stdout).strip().splitlines()[-3:]
            result.errors.append(f"{workload.binary} exited {sample.returncode}: "
                                 + " | ".join(tail))
            failed = attempted  # a crash fails every row
        sample.ok = failed == 0 and first is None
        if sample.ok:
            result.counts = output_counts(rundir, workload)
        result.attempted += attempted
        result.failed += failed
        if first and first not in result.errors:
            result.errors.append(first)
        result.samples.append(sample)

    def measure(self, workload, seed, seconds, min_iterations=MIN_ITERATIONS):
        """Untraced iterations for `seconds`. wall_s and cpu_s are the fastest
        correct iteration's: host interference on a shared machine comes in
        slow phases that only ever add time. peak_rss_mb and setup_s are
        medians. An iteration that crashed, timed out or wrote a wrong row
        gives no value; a run without a correct iteration reports no metric."""
        result, env, reference, rundir = self.start(workload, seed)
        try:
            start = time.perf_counter()
            while True:
                self.iterate(workload, env, rundir, reference, result)
                elapsed = time.perf_counter() - start
                typical = statistics.median(s.wall_s for s in result.samples)
                if len(result.samples) >= min_iterations and elapsed + typical > seconds:
                    break
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        good = result.good_samples()
        if good:
            result.metrics = {
                "wall_s": min(s.wall_s for s in good),
                "cpu_s": min(s.cpu_s for s in good),
                "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
                "setup_s": statistics.median(s.setup_s for s in good),
            }
        return result

    def trace(self, workload, seed, full_size=False):
        """One traced driver run: (its JSON object, None) or (None, error)."""
        env = workload_env(workload, input_seed(seed, self.smoke), self.lanes, self.smoke,
                           full_size)
        # Smoke runs replay each cell once; full runs keep >= 200 replay samples
        # so the replay p95 has at least ten samples beyond it.
        replay_samples = "1" if self.smoke else "200"
        rundir = self.fresh_rundir(workload)
        try:
            sample = run_measured([str(binary_path(TRACE_TARGET)), workload.name,
                                   str(rundir / "trace"), replay_samples], env, rundir)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        try:
            traced = json.loads(sample.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            traced = None
        if sample.returncode != 0 or not traced:
            tail = " | ".join(sample.stderr.strip().splitlines()[-3:])
            return None, f"{TRACE_TARGET} exited {sample.returncode}: {tail}"
        return traced, None

    def measure_traced(self, workload, seed, seconds):
        """Untraced iterations for half the time, at least one (their outputs
        are checked and their wall is the overhead baseline), then one traced
        driver run. The driver builds its cells itself, so its runner pass must
        repeat the timed binary's cell and replication counts, or the run
        fails."""
        result = self.measure(workload, seed, seconds / 2, min_iterations=1)
        traced, error = self.trace(workload, seed)
        if error:
            result.errors.append(error)
            result.metrics = {}
            return result
        for key, want in result.counts.items():
            if traced.get(key) != want:
                result.errors.append(f"{TRACE_TARGET} ran {key} = {traced.get(key)}, "
                                     f"the timed binary {want}")
        good = result.good_samples()
        if good:
            untraced_wall = statistics.median(s.wall_s for s in good)
            traced["trace.overhead_frac"] = traced["trace.traced_wall_s"] / untraced_wall - 1.0
        missing = [m["name"] for m in self.spec["per_layer"] if m["name"] not in traced]
        if missing:
            result.errors.append(f"{TRACE_TARGET} reported no {', '.join(missing)}")
        result.metrics = {m["name"]: traced[m["name"]] for m in self.spec["per_layer"]
                          if m["name"] in traced}
        return result


# --------------------------------------------------------------------------
# Output

def metric_defs(spec, traced):
    return spec["per_layer"] if traced else spec["end_to_end"]


def print_result(result, defs):
    print(f"== {result.workload}  seed {result.seed} (inputs of seed {result.input_seed}), "
          f"{len(result.samples)} iterations, {result.failed}/{result.attempted} rows failed")
    for m in defs:
        if m["name"] in result.metrics:
            print(f"   {m['name']:30s} {result.metrics[m['name']]:>16.6g} {m['unit']}")
    for error in result.errors:
        print(f"   ERROR {error}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def machine_info(lanes):
    info = {"nproc": len(os.sched_getaffinity(0)), "lanes": lanes,
            "cpu": platform.processor(), "compiler": None, "build_type": None, "git_sha": None}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = {}
    try:
        with open(CMAKE_BUILD / "CMakeCache.txt") as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    info["build_type"] = cache.get("CMAKE_BUILD_TYPE")
    if cache.get("CMAKE_CXX_COMPILER"):
        out = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"], capture_output=True,
                             text=True)
        info["compiler"] = out.stdout.splitlines()[0] if out.stdout else None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        info["git_sha"] = out.stdout.strip() or None
    return info


def summarize_runs(runs, workloads, defs):
    """Median, quartiles and spread (IQR / median) per (workload, metric);
    `flagged` marks a spread wider than the metric's bound."""
    summary = {}
    for name in workloads:
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        attempted = sum(r["attempted"] for r in mine)
        entry = {"runs": len(mine), "fail_frac": sum(r["failed"] for r in mine) / max(attempted, 1),
                 "metrics": {}}
        for m in defs:
            values = [r["metrics"][m["name"]] for r in mine if m["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"]}
            if "bound" in m:
                row["bound"] = m["bound"]
                row["flagged"] = spread > m["bound"]
            entry["metrics"][m["name"]] = row
        summary[name] = entry
    return summary


def print_summary(summary):
    for name, entry in summary.items():
        print(f"== {name}: {entry['runs']} runs, fail_frac {entry['fail_frac']:.4g}")
        for metric, row in entry["metrics"].items():
            flag = "  SPREAD > BOUND" if row.get("flagged") else ""
            print(f"   {metric:30s} median {row['median']:>12.6g} {row['unit']:6s} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}{flag}")


# --------------------------------------------------------------------------
# Modes

def write_expected(runner):
    """Runs every reference workload once per reference seed, full and smoke
    sizes, and stores per-row digests plus readable copies of a few seeds."""
    digests = {}
    for smoke in (False, True):
        runner.smoke = smoke
        seeds = [DEFAULT_SEED] if smoke else REFERENCE_SEEDS
        for workload in WORKLOADS:
            if workload.procs:
                continue  # checked against the thread lanes' reference
            for seed in seeds:
                _, env, _, rundir = runner.start(workload, seed)
                try:
                    sample = run_measured([str(binary_path(workload.binary))], env, rundir)
                    if sample.returncode != 0:
                        raise BenchError(f"{workload.name} seed {seed} exited {sample.returncode}")
                    files = {n: file_digests(rundir / n) for n in workload.outputs}
                    if not smoke and seed in READABLE_SEEDS:
                        copy_dir = EXPECTED_DIR / str(seed)
                        copy_dir.mkdir(parents=True, exist_ok=True)
                        for n in workload.outputs:
                            shutil.copy2(rundir / n, copy_dir / n)
                finally:
                    shutil.rmtree(rundir, ignore_errors=True)
                digests.setdefault(mode_name(smoke), {}).setdefault(
                    workload.reference, {})[str(seed)] = files
                print(f"{mode_name(smoke)} {workload.reference} seed {seed}: "
                      f"{sum(len(v) for v in files.values())} rows", flush=True)
    with open(DIGESTS, "w") as f:
        f.write("{\n")
        lines = []
        for mode, refs in digests.items():
            for ref, seeds in refs.items():
                for seed, files in seeds.items():
                    lines.append(f'  "{mode}/{ref}/{seed}": ' + json.dumps(files))
        f.write(",\n".join(lines) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOAD_BY_NAME),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int,
                        help=f"input seed (default {DEFAULT_SEED}; with --repeat, run k "
                             "uses the k-th reference seed)")
    parser.add_argument("--seconds", type=float, help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                        help="1: per-layer metrics from the traced driver")
    parser.add_argument("--repeat", type=int, metavar="R", help="R runs of each workload")
    parser.add_argument("--out", type=Path, help="--repeat: result file "
                        "(default .bench_build/results.json)")
    parser.add_argument("--append", action="store_true",
                        help="--repeat: add the runs to an existing --out file")
    parser.add_argument("--profile", action="store_true",
                        help="per-layer metrics at the benchmark's size beside full size")
    parser.add_argument("--smoke", action="store_true",
                        help="one small iteration per workload, traced and untraced")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate benchmark/expected/ from this checkout's binaries")
    args = parser.parse_args()
    set_child_subreaper()
    try:
        spec = load_spec()
        trace_built = build()
        runner = Runner(spec, args.smoke)
        if args.write_expected:
            write_expected(runner)
            return 0
        names = args.workload or [w.name for w in WORKLOADS]
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        traced = bool(args.trace) or args.smoke or args.profile
        if traced and not trace_built:
            raise BenchError(f"{TRACE_TARGET} did not build; see {BUILD / 'build.log'}")
        if args.profile:
            return profile(runner, names)
        if args.smoke:
            return smoke(runner, names)
        if args.repeat:
            return repeat(runner, args, names, seconds, traced)
        return single(runner, args, names, seconds, traced)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


def run_one(runner, workload, seed, seconds, traced):
    if traced:
        return runner.measure_traced(workload, seed, seconds)
    return runner.measure(workload, seed, seconds)


def single(runner, args, names, seconds, traced):
    """One run per workload; the last stdout line is the JSON result. Exit
    status 1 when an output row was wrong or a binary failed."""
    defs = metric_defs(runner.spec, traced)
    units = {m["name"]: m["unit"] for m in defs}
    seed = DEFAULT_SEED if args.seed is None else args.seed
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_one(runner, WORKLOAD_BY_NAME[name], seed, seconds, traced)
        print_result(result, defs)
        total["correct"] &= result.correct
        total["attempted"] += result.attempted
        total["failed"] += result.failed
        for metric, value in result.metrics.items():
            key = metric if len(names) == 1 else f"{name}:{metric}"
            total["metrics"][key] = {"value": value, "unit": units[metric]}
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def smoke(runner, names):
    """One untraced iteration and one traced run per workload, references
    checked; exit status 1 on any failure."""
    ok = True
    start = time.perf_counter()
    for name in names:
        result = run_one(runner, WORKLOAD_BY_NAME[name], DEFAULT_SEED, 0, True)
        print_result(result, metric_defs(runner.spec, True))
        ok &= result.correct
    print(f"smoke: {'ok' if ok else 'FAILED'} in {time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


def profile(runner, names):
    """The traced driver on each workload at the benchmark's size and at the
    binaries' default size (no DGSCHED_BOTS), seed 24301, side by side: how
    far the benchmark's workloads stand for full-size runs."""
    ok = True
    for name in names:
        workload = WORKLOAD_BY_NAME[name]
        sized, error = runner.trace(workload, DEFAULT_SEED)
        full, error_full = runner.trace(workload, DEFAULT_SEED, full_size=True)
        if error or error_full:
            print(f"== {name}: {error or error_full}")
            ok = False
            continue
        size = " ".join(f"{k}={v}" for k, v in workload.env.items())
        print(f"== {name}: benchmark size ({size}) vs full size")
        print(f"   {'metric':30s} {'benchmark':>14s} {'full size':>14s} {'full/bench':>10s}")
        for m in runner.spec["per_layer"]:
            a, b = sized.get(m["name"]), full.get(m["name"])
            if a is None or b is None:
                continue  # trace.overhead_frac needs untraced iterations
            ratio = f"{b / a:10.3g}" if a else f"{'n/a':>10s}"
            print(f"   {m['name']:30s} {a:>14.6g} {b:>14.6g} {ratio} {m['unit']}")
    return 0 if ok else 1


def repeat(runner, args, names, seconds, traced):
    out = args.out or BUILD / "results.json"
    data = {"runs": []}
    if args.append and out.exists():
        with open(out) as f:
            data = json.load(f)
    for _ in range(args.repeat):
        for name in names:  # workloads interleaved, so slow host phases hit all alike
            k = sum(1 for r in data["runs"] if r["workload"] == name)
            seed = args.seed if args.seed is not None else REFERENCE_SEEDS[k % len(REFERENCE_SEEDS)]
            result = run_one(runner, WORKLOAD_BY_NAME[name], seed, seconds, traced)
            print_result(result, metric_defs(runner.spec, traced))
            data["runs"].append({"workload": name, "seed": seed, "input_seed": result.input_seed,
                                 "correct": result.correct, "attempted": result.attempted,
                                 "failed": result.failed, "errors": result.errors,
                                 "metrics": result.metrics,
                                 "iterations": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s,
                                                 "peak_rss_mb": s.peak_rss_mb,
                                                 "setup_s": s.setup_s, "ok": s.ok}
                                                for s in result.samples]})
    defs = metric_defs(runner.spec, traced)
    data.update({"schema": "dgsched-benchmark-v1", "seconds": seconds, "traced": traced,
                 "machine": machine_info(runner.lanes), "end_to_end": runner.spec["end_to_end"],
                 "summary": summarize_runs(data["runs"], [w.name for w in WORKLOADS], defs)})
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(data, f, indent=1)
    print_summary(data["summary"])
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in data["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
