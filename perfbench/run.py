#!/usr/bin/env python3
"""End-to-end benchmark of the schemr serving stack.

    python3 perfbench/run.py --workload keyword_30k --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout. Builds perfbench/ (which compiles
../src) into .bench_build/ (or $CARGO_TARGET_DIR), prepares the workload's
on-disk repository and traffic from the seed once per build, then starts
one serving process that sets up, serves the measured window and checks
the answers, and prints, as the last line of standard output, one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Diagnostics (CPU reference loop, load, steal, answer
checks, accounting) go to the lines before it. Exits 1 when the program
under test fails (a wrong answer, a failed request or set-up, a crash) or
an input fingerprint changed; then "correct" is false, and "metrics" is
empty when no window was measured. Exits 2, printing no result, when the
benchmark cannot run at all (no sources, a failed build or prepare).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("keyword_30k", "example_2k", "ingest_10k")
DEFAULT_SEED = 42
# Prepare and serve together, after the build.
RUN_TIMEOUT_S = 170

# name -> unit, for the untraced run. Search and ingest timings are the
# serving process's CPU time (hypervisor steal excluded); README.md says
# why. The wall-clock counterparts are diagnostics.
END_TO_END = {
    "setup_s": "s",
    "search_cpu_p50_ms": "ms",
    "search_cpu_p99_ms": "ms",
    "search_per_cpu_s": "1/s",
    "rss_mb": "MB",
}
WALL_CLOCK = ("search_p50_ms", "search_p99_ms", "search_qps")
# Upload cost on ingest_10k: CPU time, and arrival -> visible (reported,
# not gated; README.md says why).
INGEST = ("ingest_cpu_p50_ms", "ingest_cpu_p90_ms", "ingest_p50_ms",
          "ingest_p90_ms")

# name -> unit, for the traced run.
PER_LAYER = {
    "service.overhead_ms": "ms",
    "service.response_kb": "KB",
    "core.parse_query_ms": "ms",
    "core.cache_hit_ratio": "1",
    "index.extract_ms": "ms",
    "index.postings_per_search": "count",
    "match.query_prep_ms": "ms",
    "match.phase2_ms": "ms",
    "match.phase2_p99_ms": "ms",
    "core.candidates_scored_per_search": "count",
    "core.pruned_frac": "1",
    "match.useful_frac": "1",
    "core.tightness_ms": "ms",
    "core.graph_builds_per_search": "count",
    "obs.audit_bytes_per_request": "B",
    "service.shed_total": "count",
    "core.degraded_total": "count",
    "match.failures_total": "count",
    "parse.ddl_ms": "ms",
    "core.ingest_ms": "ms",
    "repo.insert_ms": "ms",
    "store.bytes_per_ingest": "B",
    "index.add_ms": "ms",
    "match.features_ms": "ms",
    "core.publish_ms": "ms",
    "repo.open_s": "s",
    "index.build_s": "s",
    "match.catalog_build_s": "s",
    "service.start_s": "s",
    "index.rss_mb": "MB",
    "match.catalog_rss_mb": "MB",
    "trace.overhead_ms": "ms",
}

# Largest share of each end-to-end value its layer sum may miss by.
ACCOUNTING_RESIDUAL = {"setup": 0.15, "search": 0.15, "ingest": 0.15}


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no schemr sources at %s/src; run from a source checkout" % ROOT)
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def prepare(binary, workload, seed, deadline):
    """The pristine repository, made once per build, and the traffic,
    made once per build and seed. Returns their paths and the manifest."""
    base = os.path.join(build_dir(), "data", file_digest(binary))
    repo = os.path.join(base, "%s.repo" % workload)
    data = os.path.join(base, "%s-%d" % (workload, seed))
    manifest = os.path.join(data, "prepared.json")
    if not (os.path.isfile(manifest) and os.path.isdir(repo)):
        tmp = data + ".tmp%d" % os.getpid()
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.dirname(data), exist_ok=True)
        cmd = [binary, "prepare", "--workload", workload, "--seed", str(seed),
               "--data", tmp, "--repo", repo]
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            shutil.rmtree(tmp, ignore_errors=True)
            fail("prepare timed out for %s seed %d" % (workload, seed))
        lines = [l for l in proc.stdout.splitlines()
                 if l.startswith("PREPARED ")]
        if proc.returncode != 0 or not lines:
            shutil.rmtree(tmp, ignore_errors=True)
            fail("prepare failed for %s seed %d" % (workload, seed))
        with open(os.path.join(tmp, "prepared.json"), "w") as f:
            f.write(lines[-1][len("PREPARED "):])
        try:
            os.rename(tmp, data)
        except OSError:  # another run prepared it first
            shutil.rmtree(tmp, ignore_errors=True)
    with open(manifest) as f:
        return repo, data, json.load(f)


def expected_fingerprint(workload, seed):
    path = os.path.join(HERE, "fingerprints.json")
    if seed != DEFAULT_SEED or not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f).get(workload)


def run_serving(binary, pristine, data, work, args, deadline):
    """Runs the serving process on a pristine copy of the repository.

    Returns ("RESULT", result), or ("FAULT", {"attempted", "failed"}) when
    the program under test failed before the window (its FAULT line),
    crashed, or did not finish by the deadline.
    """
    repo = os.path.join(work, "repo")
    shutil.copytree(pristine, repo)
    cmd = [binary, "serve", "--data", data, "--repo", repo,
           "--fresh", os.path.join(work, "fresh"),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--prefilter", repr(args.prefilter)]
    if args.trace:
        mirror = os.path.join(work, "mirror")
        shutil.copytree(pristine, mirror)
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--mirror", mirror, "--spans", os.path.join(
            traces, "%s-%d.spans.tsv" % (args.workload, args.seed))]
    crashed = {"attempted": 1, "failed": 1}
    try:
        # On a timeout the process is killed and waited for.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: the serving process did not finish in time")
        return "FAULT", crashed
    tagged = {}
    for line in proc.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag in ("RESULT", "FAULT"):
            tagged[tag] = json.loads(rest)
    if proc.returncode == 0 and "RESULT" in tagged:
        return "RESULT", tagged["RESULT"]
    if proc.returncode == 2:
        fail("the serving process could not run the benchmark")
    log("perfbench: the serving process failed (exit %d)" % proc.returncode)
    return "FAULT", tagged.get("FAULT", crashed)


def accounting(result):
    """Layer sums against the end-to-end values they should add up to."""
    setup_s = result["trace.setup_s"]
    setup_sum = (result["repo.open_s"] + result["index.build_s"] +
                 result["match.catalog_build_s"] + result["service.start_s"])
    checks = {
        "setup": (setup_s - setup_sum) / setup_s,
        "search": result["acct.search_residual_frac"],
        "ingest": result["acct.ingest_residual_frac"],
    }
    return {name: {"residual_frac": round(value, 4),
                   "within": abs(value) <= ACCOUNTING_RESIDUAL[name]}
            for name, value in checks.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prefilter", type=float, default=0.0,
                        help="send this signature pre-filter threshold on "
                        "the wire (approximate search); any value > 0 must "
                        "fail the answer check")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    pristine, data, prepared = prepare(binary, args.workload, args.seed,
                                       deadline)
    expected = expected_fingerprint(args.workload, args.seed)
    fingerprint_ok = expected is None or expected == prepared["fingerprint"]
    if not fingerprint_ok:
        log("perfbench: input fingerprint %s != recorded %s: the generated "
            "workload changed" % (prepared["fingerprint"], expected))

    work = os.path.join(build_dir(), "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        kind, result = run_serving(binary, pristine, data, work, args,
                                   deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = failed == 0 and fingerprint_ok
    diagnostics = {
        "workload": args.workload, "seed": args.seed,
        "fingerprint": prepared["fingerprint"],
        "fingerprint_ok": fingerprint_ok,
        "failed_frac": failed / attempted,
    }
    if kind == "FAULT":
        print("# diagnostics " + json.dumps(diagnostics))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        sys.exit(1)
    if not args.trace:
        diagnostics["setup_wall_s"] = result["setup_wall_s"]
    for key in ("cpu_ref_ms", "loadavg", "steal_frac", "late_send_frac",
                "writer_busy_frac", "searches", "ingests",
                "search_tail_quantile", "ingest_tail_quantile",
                "answers_checked", "non_200", "shed", "degraded",
                "wrong_answers", "ingest_failures", "core.cache_hit_ratio"):
        diagnostics[key] = result[key]
    print("# diagnostics " + json.dumps(diagnostics))
    print("# wall-clock " + json.dumps({k: result[k] for k in WALL_CLOCK}))
    if result["ingests"]:
        print("# ingest " + json.dumps({k: result[k] for k in INGEST}))

    if args.trace:
        shares = {k: round(result[k], 4) for k in (
            "core.phase1_share", "core.phase2_share", "core.phase3_share")}
        print("# engine shares " + json.dumps(shares))
        print("# accounting " + json.dumps(accounting(result)))
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
