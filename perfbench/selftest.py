#!/usr/bin/env python3
"""Smoke self-test of the benchmark, at tiny size (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that an
untraced run prints every end-to-end metric with its unit (as a "metric"
line, and in the JSON exactly the end_to_end set of BENCHMARK.json), that a
traced run reports exactly the per_layer set, and that a corrupted aggregate
trips the correctness gate (non-zero exit, "correct": false).
"""

import json
import subprocess
import sys

# The end-to-end table of README.md: name -> unit.
E2E = {
    "throughput_sps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "client_ms": "ms", "server_cpu_ms": "ms", "upload_bytes": "bytes",
    "server_bytes": "bytes", "server_rss_mb": "MB", "setup_s": "s",
    "restore_ms": "ms", "failed_share": "1",
}
DURABLE_ONLY = {"restore_ms"}
# Every workload the benchmark runs; BENCHMARK.json gates a subset.
WORKLOADS = ["count_durable", "hist64_reject", "bits1024_cluster"]

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL", what)


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
           *extra]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, lines, result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e_json = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    gated = [w["name"] for w in bench["workloads"]]
    check(set(gated) <= set(WORKLOADS), "unknown gated workload in %s" % gated)
    for w in WORKLOADS:
        code, lines, res = run(w, 0)
        check(code == 0 and res is not None and res["correct"],
              "%s: untraced run fails" % w)
        printed = {}
        for l in lines:
            parts = l.split()
            if parts[:1] == ["metric"] and len(parts) == 4:
                printed[parts[1]] = parts[3]
        for name, unit in E2E.items():
            if name in DURABLE_ONLY and w != "count_durable":
                continue
            check(printed.get(name) == unit,
                  "%s: metric %s [%s] not printed" % (w, name, unit))
        if res is not None:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == e2e_json, "%s: JSON metrics %s" % (w, sorted(got)))
            check(res["attempted"] >= 1 and res["failed"] == 0,
                  "%s: attempted/failed" % w)

        code, _, res = run(w, 1)
        check(code == 0 and res is not None and res["correct"],
              "%s: traced run fails" % w)
        if res is not None:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == layers, "%s: per-layer metrics differ: %s" %
                  (w, sorted(set(got) ^ set(layers))))

        code, _, res = run(w, 0, "--corrupt-aggregate")
        check(code != 0 and res is not None and not res["correct"]
              and res["failed"] >= 1,
              "%s: corrupted aggregate passed the gate" % w)
        print("ok", w, flush=True)
    if failures:
        print("%d failure(s)" % len(failures))
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
