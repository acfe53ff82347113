#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark.

A 1.5x slowdown is injected into the benchmark's own wrappers: a busy-wait
of half the wrapped call's time around each `run_trace` call on `large-p`
and around each warm request on `serve-mixed` (`--inject-slowdown`). For
each workload the test alternates plain and injected runs over a few
seeds and checks that the injected median of every gated metric named
below is worse than the plain median by more than its bound in
BENCHMARK.json.

Run from the repository root:

    python3 perfbench/selftest.py [--seeds 901,902,903]

Exits 0 when every injected slowdown is reported as a regression.
"""

import json
import statistics
import subprocess
import sys

GATED = {
    "large-p": ["wall_s", "sim_events_per_s"],
    "serve-mixed": ["wall_s"],
}


def run(command, run_seconds, workload, seed, inject):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(run_seconds), "--trace", "0"]
    if inject:
        args.append("--inject-slowdown")
    proc = subprocess.run(args, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    seeds = [901, 902, 903]
    if len(sys.argv) == 3 and sys.argv[1] == "--seeds":
        seeds = [int(s) for s in sys.argv[2].split(",")]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload, names in GATED.items():
        plain, injected = [], []
        for i, seed in enumerate(seeds):
            # Alternate which side runs first.
            for inject in ((False, True) if i % 2 == 0 else (True, False)):
                r = run(bench["command"], bench["run_seconds"], workload, seed, inject)
                (injected if inject else plain).append(r)
        for name in names:
            m = metrics[name]
            base = statistics.median(r[name] for r in plain)
            slow = statistics.median(r[name] for r in injected)
            change = slow / base - 1 if m["better"] == "lower" else 1 - slow / base
            caught = change > m["bound"]
            ok &= caught
            print(f"{workload} {name}: plain median {base:.6g}, injected median {slow:.6g}, "
                  f"worse by {change:.3f} against bound {m['bound']}: "
                  f"{'REGRESSION REPORTED' if caught else 'MISSED'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
