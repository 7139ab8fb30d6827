#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size (well under a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, plan.json and perfbench_node name the same
metrics; that every workload prints every metric with its unit and no failed
unit, traced and untraced; that two same-seed runs simulate exactly the same
thing, and so do the repeated runs inside one process; that corrupted
results (a NaN field, a non-conserving epoch) trip the output checker; and
that a stray MTAT_* variable stops the benchmark.
Exits 0 when everything holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark itself: its build() and workload list)

failures = []


def check(ok, what):
    print("%s: %s" % ("ok" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, seed=1, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "plan.json")) as f:
        plan = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json and run.py list the same workloads")
    check(set(plan["layer_map"]) == set(layers),
          "plan.json maps exactly the per-layer metrics of BENCHMARK.json")
    moved = {m for entry in plan["layer_map"].values() for m in entry["moves"]}
    check(moved <= set(e2e), "the layer map names only end-to-end metrics")
    check(plan["seeds"]["baseline"] != plan["seeds"]["held_out"],
          "baseline and held-out seeds differ")

    binary = run.build()
    check(subprocess.run([binary, "--check-selftest"]).returncode == 0,
          "corrupted results (NaN fields, non-conserving epochs) trip the checker")
    for workload in run.WORKLOADS:
        p = subprocess.run([binary, "--workload", workload, "--seed", "3", "--size", "tiny",
                            "--budget-s", "2"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        out = json.loads(p.stdout.strip().splitlines()[-1])
        check(p.returncode == 0 and len(out["run_s"]) >= 2 and out["failed"] == 0,
              workload + ": repeated runs in one process simulate exactly the same")

    for workload in run.WORKLOADS:
        for trace, names in ((0, e2e), (1, layers)):
            rc, out = bench(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            check(rc == 0 and out is not None, tag + ": exits 0 with a result line")
            if out is None:
                continue
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result has exactly the contract's keys")
            check(out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1,
                  tag + ": correct, no failed unit")
            got = {k: v.get("unit") for k, v in out["metrics"].items()}
            check(got == names, tag + ": every metric printed with its unit")
            check(all(isinstance(v.get("value"), (int, float)) for v in out["metrics"].values()),
                  tag + ": every value is a number")
            if trace:
                check(out["metrics"]["check.failed_frac"]["value"] == 0,
                      tag + ": failed_frac == 0")

    sim_names = [n for n in e2e if n not in ("setup_s", "sim_s_per_host_s", "wall_s",
                                             "peak_rss_mib")]
    runs = [bench("fleet_storm", 0, seed=7)[1] for _ in range(2)]
    check(all(runs) and all(runs[0]["metrics"][n] == runs[1]["metrics"][n] for n in sim_names),
          "two same-seed runs give exactly equal simulated metrics")

    env = dict(os.environ, MTAT_FAULTS="storm")
    rc, out = bench("node_memtis_zipf", 0, env=env)
    check(rc != 0 and out is None, "a stray MTAT_* variable stops the benchmark")

    print("selftest: %s" % ("FAILED: %d check(s)" % len(failures) if failures else "all ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
