#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the simulator and the
benchmark's own program, perfbench_node (driver.cc), from source
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build),
then starts perfbench_node once per seed of a sequence derived from --seed
(the first is --seed itself), each in a fresh process so every process pays
the cold set-up a user pays.

Processes run in lanes, one per core but one, each lane running its
processes one after another; a fleet process uses three cores, so the fleet
workload has a single lane. Running lanes side by side samples several
cores at once, which steadies host times on a shared machine whose cores
slow down and speed up independently. In an untraced run the last core runs
a calibration kernel (perfbench_node --calibrate) for the whole run; it
shares no code with the simulator, and every host time is scaled by
CAL_REF_S / its median iteration time, which cancels most of the host-wide
speed swings such a machine also shows. The unscaled figures go to stderr.

With --trace 0 each process, after its cold first run, repeats the run on a
fresh sim of the same seed within its share of --seconds; every repetition
must simulate exactly what the first did. It prints every end-to-end metric
of BENCHMARK.json: set-up as the median over processes, run time as the
median over all runs, wall_s as their sum, simulated outcomes as the median
over the seeds. With --trace 1 it runs an untraced and a traced process for
each of the first TRACE_SEEDS seeds, requires their simulated outputs to be
equal, and prints every per-layer metric from the traced runs, plus the
tracing overhead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. A
checked unit is a measured partitioning interval (node workloads) or a
node-epoch (fleet workload); see checks.h.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("node_mtat", "node_memtis_zipf", "fleet_storm")
# Untraced processes per run, one seed each: simulated outcomes and set-up
# time are medians over them. A traced run uses the first TRACE_SEEDS seeds.
PROCESSES = {"node_mtat": 3, "node_memtis_zipf": 9, "fleet_storm": 8}
TRACE_SEEDS = 3
# Seconds one calibration iteration takes on the reference host (a quiet
# 4-core x86-64 VM). Host times are reported at that speed: measured time x
# CAL_REF_S / the iteration time measured beside the run.
CAL_REF_S = 0.02
CHILD_TIMEOUT_S = 150  # one process; the whole run must end within 180 s
DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def sub_seed(seed, i):
    """Seed of repetition i: --seed itself, then a splitmix64 sequence."""
    if i == 0:
        return seed
    z = (seed + i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally. Returns perfbench_node's path."""
    out = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no simulator sources at src/; run from the root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench_node")


def refuse_mtat_env():
    knobs = sorted(k for k in os.environ if k.startswith("MTAT_"))
    if knobs:
        fail("refusing to run with %s set; the benchmark builds every config "
             "explicitly" % ", ".join(knobs), code=2)


def run_child(binary, workload, seed, trace, size, deadline, budget_s):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--size", size]
    if budget_s > 0:
        cmd += ["--budget-s", "%.3f" % budget_s]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, "%s-%d.json" % (workload, seed))]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        # On a timeout, run() kills the child and waits for it to end.
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "seed %d: timed out after %.0f s" % (seed, timeout)
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "seed %d: exit %d without a result" % (seed, p.returncode)
    log("perfbench: seed %d trace=%d setup %.3f s, runs %s s"
        % (seed, trace, result["host"]["setup_s"],
           " ".join("%.3f" % t for t in result["run_s"])))
    return result, None


def run_lanes(binary, workload, lanes, size, end, deadline):
    """Run the lanes at once; each runs its (seed, traced) processes in turn.

    With an `end`, each process may repeat its runs within an equal share of
    what is left of its lane's time until then; without, it runs once.
    Returns (results, errors) once every process has ended."""
    results, errors = [], []
    lock = threading.Lock()

    def lane(children):
        for k, (seed, traced) in enumerate(children):
            budget = 0.0
            if end is not None:
                budget = max(0.0, (end - time.monotonic()) / (len(children) - k))
            r, err = run_child(binary, workload, seed, traced, size, deadline, budget)
            with lock:
                if err:
                    errors.append(err)
                    return
                results.append(r)

    threads = [threading.Thread(target=lane, args=(c,)) for c in lanes if c]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: the self-test's short runs")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must be in [0, 2^64)", code=2)
    refuse_mtat_env()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    binary = build()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    trace = bool(args.trace)
    # Lanes that run at once: one per core but one, which runs the
    # calibration. A node process is one thread; a fleet process runs up to
    # three, so fleet processes run one at a time.
    cores = os.cpu_count() or 1
    threads = max(1, min(3, cores - 1)) if args.workload == "fleet_storm" else 1
    width = max(1, (cores - 1) // threads)
    if trace:
        # An untraced and a traced process per seed, spread over the lanes
        # so both kinds run under the same load, alternating which goes
        # first where there is a single lane.
        seeds = [sub_seed(args.seed, i) for i in range(TRACE_SEEDS)]
        procs = [(s, (i + j) % 2 == 1) for i, s in enumerate(seeds) for j in range(2)]
    else:
        seeds = [sub_seed(args.seed, i) for i in range(PROCESSES[args.workload])]
        procs = [(s, False) for s in seeds]
    lanes = [procs[i::width] for i in range(width)]
    cal = None
    if not trace and cores > 1:
        cal = subprocess.Popen([binary, "--calibrate", "%.3f" % max(0.5, args.seconds - 2)],
                               stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        results, errors = run_lanes(binary, args.workload, lanes, args.size,
                                    None if trace else start + args.seconds, deadline)
        scale = 1.0
        if cal is not None:
            out, _ = cal.communicate(timeout=max(1.0, deadline - time.monotonic()))
            try:
                cal_s = statistics.median(json.loads(out)["calibrate_s"])
                scale = CAL_REF_S / cal_s
                log("perfbench: calibration %.5f s an iteration; host times scaled by %.4f"
                    % (cal_s, scale))
            except (ValueError, KeyError, statistics.StatisticsError):
                errors.append("calibration printed no timings")
    finally:
        if cal is not None and cal.poll() is None:
            cal.kill()
            cal.wait()
    attempted = sum(r["attempted"] for r in results) or 1
    failed = sum(r["failed"] for r in results)
    for r in results:
        errors += ["seed %d: %s" % (r["seed"], e) for e in r["errors"]]
    print("perfbench: workload=%s seed=%d jobs=%s processes=%d runs=%d trace=%d size=%s"
          % (args.workload, args.seed, results[0]["jobs"] if results else "?",
             len(results), sum(len(r["run_s"]) for r in results), args.trace, args.size),
          flush=True)

    untraced = [r for r in results if not r["trace"]]
    traced = [r for r in results if r["trace"]]
    if trace:
        # Same calls, same run() slicing: tracing must not move the simulation.
        by_seed = {r["seed"]: r for r in untraced}
        for t in traced:
            u = by_seed.get(t["seed"])
            if u is None:
                continue
            if u["digest"] != t["digest"] or u["sim"] != t["sim"]:
                errors.append("seed %d: traced and untraced outputs differ" % t["seed"])

    def median(rows, section, name, how=statistics.median):
        vals = [r[section][name] for r in rows if r[section].get(name) is not None]
        return how(vals) if vals else None

    metrics = {}
    if not errors and results:
        if trace:
            for m in spec["per_layer"]:
                name = m["name"]
                if name == "trace.overhead_frac":
                    value = median(traced, "host", "wall_s") / median(untraced, "host", "wall_s") - 1
                elif name == "check.failed_frac":
                    value = failed / attempted
                else:
                    value = median(traced, "layers", name, statistics.median_low)
                metrics[name] = {"value": value, "unit": m["unit"]}
        else:
            # Host times: set-up is the median over processes, the run time
            # the median over every run of every process; wall_s is their
            # sum. All are scaled to the calibration's reference speed.
            # Simulated outcomes: the median over the processes' seeds.
            setup_s = median(results, "host", "setup_s")
            runs = [t for r in results for t in r["run_s"]]
            rate = statistics.median(r["sim_s"] / t for r in results for t in r["run_s"])
            log("perfbench: unscaled setup_s %.4f wall_s %.4f sim_s_per_host_s %.4f"
                % (setup_s, setup_s + statistics.median(runs), rate))
            host = {"setup_s": setup_s * scale,
                    "wall_s": (setup_s + statistics.median(runs)) * scale,
                    "sim_s_per_host_s": rate / scale,
                    "peak_rss_mib": median(results, "host", "peak_rss_mib")}
            for m in spec["end_to_end"]:
                name = m["name"]
                value = host[name] if name in host else median(results, "sim", name)
                metrics[name] = {"value": value, "unit": m["unit"]}
        missing = [n for n, v in metrics.items() if v["value"] is None]
        if missing:
            errors.append("no value for " + ", ".join(missing))

    for e in errors:
        log("perfbench: FAILED " + e)
    if errors and not results:
        sys.exit(1)
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
