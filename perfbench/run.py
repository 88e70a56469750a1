#!/usr/bin/env python3
"""Repository benchmark for the DSM cluster simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator sources
under src/ plus the perfbench_dsm measurement binary) into .bench_build/,
then runs measured operations on one workload, each in a fresh
perfbench_dsm process, until S seconds are used:

  --trace 0  end-to-end metrics. Each operation sets the workload up a few
             times (the setup_s samples) and then runs it once through the
             public harness, run_one.
  --trace 1  per-layer metrics. Untraced run_one operations alternate with
             traced ones. A traced operation rebuilds run_one from public
             calls twice: a plain pass, then a pass with a timing
             MemorySystem between the Engine and the DsmSystem.
             sim.engine_s is the plain pass's parallel phase minus the
             traced pass's time inside access.

Every operation is checked: the process must exit cleanly (verify() and
check_coherence() abort it otherwise), its simulated digests must equal
every other operation's, traced or not, and the fault-free workloads must
report zero fault and recovery counters. A failed check counts the
operation as failed. There is no span-coverage check: sim.engine_s is a
remainder, so the layer self-times add up to the wall by construction.

Every host time is reported at reference speed: each operation also times
a fixed reference task (perfbench.cpp, reference_s), and its host times
are scaled by REFERENCE_S / that time. On a shared host the speed
drifts by up to 1.6x over tens of seconds; the scaling cancels most of
it. wall_s and refs_per_s take the lower quartile over operations
(interference only ever adds time), setup_s the median of every setup
sample. Per-layer host times all come from the traced operation whose
plain pass was fastest. Everything else is simulated and identical
across operations.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_dsm")

# name -> fault layer on
WORKLOADS = {
    "raytrace-migrep": False,
    "mesh64-chaos": True,
}

MIN_OPS = 3
OP_TIMEOUT_S = 120
# Host seconds the reference task (perfbench.cpp, reference_s) takes at
# reference speed: about its time on the 4-vCPU Xeon VM of README.md
# while that host was quiet.
REFERENCE_S = 0.020

E2E_UNITS = {
    "refs_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "net_bytes": "B",
}

LAYER_UNITS = {
    "harness.setup_s": "s",
    "sim.engine_s": "s",
    "sim.engine_ns_per_ref": "ns",
    "mem.l1_miss_ratio": "ratio",
    "mem.l1_hit_ns": "ns",
    "dsm.access_s": "s",
    "dsm.local_miss_ns": "ns",
    "dsm.cache_hit_ns": "ns",
    "dsm.remote_miss_ns": "ns",
    "dsm.other_miss_ns": "ns",
    "dsm.remote_misses": "count",
    "dsm.capacity_misses": "count",
    "dsm.bc_hit_ratio": "ratio",
    "dsm.page_ops": "count",
    "dsm.bus_util": "ratio",
    "dsm.device_util": "ratio",
    "dsm.remote_lat_p50": "cycles",
    "dsm.remote_lat_p99": "cycles",
    "net.msgs": "count",
    "net.bytes.data": "B",
    "net.bytes.control": "B",
    "net.bytes.pageop": "B",
    "net.bytes.recovery": "B",
    "net.ni_util": "ratio",
    "net.link_busy": "cycles",
    "net.link_max_queue": "count",
    "net.fault.retries": "count",
    "net.fault.nacks": "count",
    "net.fault.reroutes": "count",
    "net.fault.hard_errors": "count",
    "net.fault.rehomes": "count",
    "net.fault.dir_rebuilds": "count",
    "net.fault.data_losses": "count",
    "protocols.events": "count",
    "protocols.events_per_ref": "ratio",
    "protocols.decisions": "count",
    "protocols.suppressed": "count",
    "harness.verify_s": "s",
    "harness.teardown_s": "s",
    "trace.overhead": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build perfbench/; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, available_cpus()))])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"build failed: {e}")
            return False
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def run_op(workload, op, seed):
    """One operation in a fresh process: (record, None) or (None, why)."""
    cmd = [BINARY, "--workload", workload, "--op", op, "--seed", str(seed)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{op}: timed out after {OP_TIMEOUT_S}s"
    if p.returncode != 0:
        return None, f"{op}: exit {p.returncode}: {p.stderr.strip()[-500:]}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{op}: unreadable output"


def digests(rec):
    """A traced operation carries its plain pass's digest too."""
    return [rec[k] for k in ("digest", "plain_digest") if k in rec]


def violation(op, rec, faults_on):
    """Why a cleanly exited operation still fails its checks, or None."""
    if not faults_on:
        for k, v in rec["digest"].items():
            if (k.startswith("fault.") or k == "bytes_recovery") and v != 0:
                return f"{op}: {k} = {v} with the fault layer off"
    return None


class Session:
    """Runs operations for --seconds and keeps the ones that pass."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.attempted = 0
        self.failures = []
        self.ops = []  # (op name, record) of processes that exited cleanly

    def elapsed(self):
        return time.monotonic() - self.start

    def run(self, op):
        self.attempted += 1
        t0 = time.monotonic()
        rec, why = run_op(self.args.workload, op, self.args.seed)
        if rec is None:
            self.failures.append(why)
        else:
            rec["op_seconds"] = time.monotonic() - t0
            self.ops.append((op, rec))

    def time_left_for(self, seconds):
        return self.elapsed() + seconds <= self.args.seconds

    def check(self):
        """Fail operations whose digest differs from the majority's or
        whose invariants do not hold."""
        if not self.ops:
            return
        keys = [[json.dumps(d, sort_keys=True) for d in digests(r)]
                for _, r in self.ops]
        flat = [k for ks in keys for k in ks]
        reference = max(set(flat), key=flat.count)
        kept = []
        for (op, rec), ks in zip(self.ops, keys):
            why = violation(op, rec, WORKLOADS[self.args.workload])
            if any(k != reference for k in ks):
                why = f"{op}: simulated digest differs from the other runs"
            if why is None:
                kept.append((op, rec))
            else:
                self.failures.append(why)
        self.ops = kept

    def records(self, op):
        return [r for o, r in self.ops if o == op]


def speed(rec):
    """Factor that scales an operation's host times to reference speed."""
    return REFERENCE_S / statistics.mean(rec["ref_s"])


def lower_quartile(values):
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def end_to_end(s):
    """Trace 0: run_one operations until the time is used."""
    while True:
        s.run("harness")
        per_op = [r["op_seconds"] for r in s.records("harness")]
        next_op = statistics.median(per_op) if per_op else 0.0
        if s.attempted >= MIN_OPS and not s.time_left_for(next_op):
            break
    s.check()
    recs = s.records("harness")
    if not recs:
        return {}
    d = recs[0]["digest"]
    # Parallel phase: run_one's own wall minus this operation's setup.
    parallel = [(r["run_wall_s"] - statistics.median(r["setup_s"])) * speed(r)
                for r in recs]
    return {
        "refs_per_s": d["refs"] / lower_quartile(parallel),
        "wall_s": lower_quartile(r["wall_s"] * speed(r) for r in recs),
        "setup_s": statistics.median(x * speed(r) for r in recs
                                     for x in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
        "sim_cycles": d["sim_cycles"],
        "net_bytes": sum(v for k, v in d.items() if k.startswith("bytes_")),
    }


def per_layer(s):
    """Trace 1: untraced run_one and traced operations, alternating."""
    while True:
        t0 = s.elapsed()
        s.run("harness")
        s.run("traced")
        if not s.time_left_for(s.elapsed() - t0):
            break
    s.check()
    traced = s.records("traced")
    if not traced or not s.records("harness"):
        return {}
    fastest = min(traced,
                  key=lambda r: r["layers"]["trace.plain_wall_s"] * speed(r))
    return {k: fastest["layers"][k] * (speed(fastest) if unit in ("s", "ns")
                                       else 1)
            for k, unit in LAYER_UNITS.items()}


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    # Never look above the checkout: it may not be a repository itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    env.pop("GIT_DIR", None)
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                            "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, env=env)
    except OSError:
        return "none"
    return p.stdout.strip() if p.returncode == 0 else "none"


def host_record(s):
    rec = s.ops[0][1]
    return {
        "nproc": available_cpus(),
        "compiler": rec["compiler"],
        "build_type": rec["build_type"],
        "jobs": 1,
        "revision": git_revision(),
        "src_sha256": source_digest(),
        "workload": s.args.workload,
        "seed": s.args.seed,
        "seconds": s.args.seconds,
        "trace": s.args.trace,
        "operations": s.attempted,
        # The host's own speed over the run; end-to-end host times are
        # scaled by REFERENCE_S / ref_s per operation.
        "ref_s": statistics.median(x for r in s.records("harness")
                                   for x in r["ref_s"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 1
    s = Session(args)
    values = per_layer(s) if args.trace else end_to_end(s)
    for why in s.failures:
        log(f"FAILED {why}")
    if not values:
        log("no operation succeeded")
        return 1
    units = LAYER_UNITS if args.trace else E2E_UNITS

    print("host " + json.dumps(host_record(s), sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<26} {values[name]:>22.10g} {unit}")
    failed = len(s.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": s.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
