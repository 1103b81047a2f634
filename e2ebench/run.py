#!/usr/bin/env python3
"""End-to-end benchmark of the Cohesion simulator.

Builds the driver (e2ebench/CMakeLists.txt) from the checkout's sources
into .bench_build/e2ebench, runs one workload in its own process and
prints the workload's metrics as the last line of standard output:

    python3 e2ebench/run.py --workload paper_cohesion --seed 12345 \
        --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Every job runs with verification and the coherence auditor on; a job
that fails, or whose deterministic fingerprint differs between its
runs, counts in "failed". See e2ebench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
DRIVER = os.path.join(BUILD_DIR, "cohesion-e2ebench")
SWEEP_SPEC = os.path.join(HERE, "workloads", "example_sweep.json")

WORKLOADS = ("paper_cohesion", "paper_hwcc", "example_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The fields a job must reproduce exactly on every run of it.
FINGERPRINT = ("cycles", "events", "instructions", "fingerprint")

# Host-profiler phases (sim/host_profiler.hh) by per-layer metric.
HOST_PHASES = {
    "sim.dispatch_s": "eq.dispatch",
    "arch.bank_msg_s": "bank.msg",
    "arch.cluster_msg_s": "cluster.msg",
    "arch.cluster_core_s": "cluster.core",
    "arch.cluster_swcc_s": "cluster.swcc",
    "coherence.directory_s": "bank.directory",
    "cohesion.table_s": "cohesion.table",
    "coherence.audit_s": "audit",
    "kernels.setup_s": "setup",
    "kernels.verify_s": "verify",
    "sim.fault_pump_s": "fault.pump",
    "harness.export_trace_s": "export.trace",
}
# Handlers that open at the top of an event. The directory and region
# table nest inside bank.msg and SWcc handling inside cluster.core, so
# only these are subtracted from dispatch to get the event core.
TOP_HANDLERS = ("bank.msg", "cluster.msg", "cluster.core")

# Deterministic per-job counts, summed over the workload's jobs.
COUNTS = {
    "sim.events": "events",
    "sim.cycles": "cycles",
    "arch.instructions": "instructions",
    "arch.l2_out_msgs": "l2_out_msgs",
    "arch.fabric_bytes": "fabric_bytes",
    "arch.retries": "retries",
    "cache.l2_hits": "l2_hits",
    "cache.l2_misses": "l2_misses",
    "cache.l3_hits": "l3_hits",
    "cache.l3_misses": "l3_misses",
    "mem.dram_accesses": "dram_accesses",
    "coherence.dir_insertions": "dir_insertions",
    "coherence.dir_evictions": "dir_evictions",
    "coherence.probes": "probes",
    "cohesion.table_lookups": "table_lookups",
    "cohesion.transitions": "transitions",
}
LATENCY = {
    "lat.mshr_cycles": ("mshr",),
    "lat.bank_lock_cycles": ("bank_lock",),
    "lat.dir_cycles": ("dir",),
    "lat.probe_cycles": ("probe",),
    "lat.dram_cycles": ("dram",),
    "lat.fabric_cycles": ("req_fabric", "resp_fabric"),
}


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output goes to a log."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no simulator sources at %s/src" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, traced, quick):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--sweep-spec", SWEEP_SPEC]
    if traced:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(spans_dir, "%s-%d.json" % (workload, seed))]
    if quick:
        cmd.append("--quick")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    if p.returncode != 0:
        fail("driver exited with %d" % p.returncode)
    return json.loads(p.stdout)


def source_digest():
    """sha256 over src/ (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, if the checkout itself is a git repository."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                            "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = p.stdout.decode().split()
    if p.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def check_jobs(doc):
    """Per job: its reference record (first untraced) and how many of its
    records failed or disagree with the reference on the fingerprint."""
    by_job = {}
    for rec in doc["records"]:
        by_job.setdefault(rec["job"], []).append(rec)
    refs, failed = {}, 0
    for job, recs in by_job.items():
        ok = [r for r in recs if r["outcome"] == "ok"]
        ref = next((r for r in ok if not r["traced"]), None)
        if ref is None:
            failed += len(recs)
            continue
        refs[job] = ref
        for r in recs:
            if r["outcome"] != "ok" or any(r[k] != ref[k]
                                            for k in FINGERPRINT):
                failed += 1
                print("e2ebench: job %s failed: %s %s" % (
                    doc["jobs"][job]["label"], r["outcome"],
                    r["what"] or "fingerprint differs"), file=sys.stderr)
    return refs, failed


def summed_median(doc, traced, value):
    """Sum over jobs of the median of value(record) over the job's ok
    records of the given kind."""
    per_job = {}
    for rec in doc["records"]:
        if rec["traced"] == traced and rec["outcome"] == "ok":
            per_job.setdefault(rec["job"], []).append(value(rec))
    return sum(statistics.median(v) for v in per_job.values())


def wall(rec):
    return rec["setup_s"] + rec["run_s"] + rec["export_s"] + rec["teardown_s"]


def end_to_end(doc, refs):
    instructions = sum(r["instructions"] for r in refs.values())
    job_wall = summed_median(doc, False, wall)
    return {
        "setup_s": (summed_median(doc, False, lambda r: r["setup_s"]), "s"),
        "run_s": (summed_median(doc, False, lambda r: r["run_s"]), "s"),
        "job_wall_s": (job_wall, "s"),
        "sim_kips": (instructions / 1e3 / job_wall, "kinst/s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB"),
    }


def fold_fingerprint(doc, refs):
    """One 48-bit number (exact as a JSON double) over every job."""
    h = hashlib.sha256()
    for job in sorted(refs):
        h.update(("%s:%s;" % (doc["jobs"][job]["label"],
                              refs[job]["fingerprint"])).encode())
    return int(h.hexdigest()[:12], 16)


def per_layer(doc, refs):
    def traced_sum(value):
        return summed_median(doc, True, value)

    m = {}
    m["arch.chip_construct_s"] = (traced_sum(lambda r: r["chip_construct_s"]),
                                  "s")
    m["runtime.boot_s"] = (traced_sum(lambda r: r["boot_s"]), "s")
    m["harness.session_construct_s"] = (traced_sum(lambda r: r["setup_s"]),
                                        "s")
    m["harness.teardown_s"] = (traced_sum(lambda r: r["teardown_s"]), "s")
    m["harness.stats_export_s"] = (traced_sum(lambda r: r["export_s"]), "s")
    m["harness.run_s"] = (traced_sum(lambda r: r["run_s"]), "s")
    m["harness.job_wall_s"] = (traced_sum(wall), "s")
    for name, phase in HOST_PHASES.items():
        m[name] = (traced_sum(lambda r, p=phase: r["host"][p]), "s")
    m["sim.event_core_s"] = (traced_sum(
        lambda r: max(0.0, r["host"]["eq.dispatch"] -
                      sum(r["host"][p] for p in TOP_HANDLERS))), "s")

    events = sum(r["events"] for r in refs.values())
    m["sim.host_ns_per_event"] = (m["sim.dispatch_s"][0] * 1e9 / events
                                  if events else 0.0, "ns")
    traced_run = m["harness.run_s"][0]
    m["host.attributed_pct"] = (
        100.0 * traced_sum(lambda r: r["host"]["attributed_s"]) / traced_run
        if traced_run else 0.0, "%")
    untraced_wall = summed_median(doc, False, wall)
    m["trace_overhead_pct"] = (
        100.0 * (m["harness.job_wall_s"][0] - untraced_wall) / untraced_wall,
        "%")

    for name, field in COUNTS.items():
        m[name] = (sum(r[field] for r in refs.values()), "count")

    def ratio(useful, issued):
        n = sum(r[issued] for r in refs.values())
        return sum(r[useful] for r in refs.values()) / n if n else 0.0

    m["cohesion.flush_useful_ratio"] = (ratio("flush_useful", "flush_issued"),
                                        "ratio")
    m["cohesion.inv_useful_ratio"] = (ratio("inv_useful", "inv_issued"),
                                      "ratio")
    m["sim.stats_fingerprint"] = (fold_fingerprint(doc, refs), "hash")
    for name, stages in LATENCY.items():
        m[name] = (sum(r["lat_cycles"][s] for r in refs.values()
                       for s in stages), "cycles")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced machine and job set (smoke test)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    doc = run_driver(args.workload, args.seed, args.seconds,
                     args.trace == 1, args.quick)
    refs, failed = check_jobs(doc)
    attempted = len(doc["records"])
    if not refs:
        fail("no job ran successfully; nothing to measure")
    metrics = per_layer(doc, refs) if args.trace else end_to_end(doc, refs)

    provenance = {
        "host_cores": os.cpu_count(),
        "build_type": doc["build_type"],
        "compiler": doc["compiler"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "machines": sorted({j["machine"] for j in doc["jobs"]}),
        "jobs": len(doc["jobs"]),
        "job_runs": attempted,
        "elapsed_s": doc["elapsed_s"],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(results_dir, "%s-%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-quick" if args.quick else ""))
    with open(out_path, "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
