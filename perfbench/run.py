#!/usr/bin/env python3
"""SDUR benchmark: builds perfbench/sdur_bench and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wan1_allon --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(an untraced run, a traced run of the same seed, and a run of the audit-off
build of the same seed). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Lines before it are a
readable table; build logs and diagnostics go to standard error.

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

runs every workload, end to end and then per layer, and exits non-zero if any
run fails its correctness gate.

    python3 perfbench/run.py --selftest [--workload NAME]

runs each workload twice with one seed and checks that the simulated metrics
and counts repeat exactly and that every metric name and unit matches
BENCHMARK.json.

Both build flavours live under .bench_build/ in the checkout: "default" is the
repository's default build (audit hooks, tracing and fabric counters compiled
in) and "audit-off" adds -DSDUR_AUDIT=OFF.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
FLAVOURS = {"default": "ON", "audit-off": "OFF"}
RUN_TIMEOUT_S = 170
# Host-side metrics; everything else in an e2e result is simulated and must
# repeat exactly for one seed.
HOST_METRICS = {"host_us_per_txn", "setup_s", "peak_rss_mb"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(flavour):
    out = BUILD_DIR / flavour
    if not (out / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DSDUR_AUDIT={FLAVOURS[flavour]}"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"cmake configure of the {flavour} build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "sdur_bench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail(f"the {flavour} build failed")
    return out / "sdur_bench"


def run_bench(binary, workload, seed, seconds, mode):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}, [w["name"] for w in spec["workloads"]]


def check_names(metrics, section):
    want, _ = declared(section)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json {section}: missing {missing}, "
             f"undeclared {extra}, wrong unit {units}")


def measure(workload, seed, seconds, trace):
    binaries = {flavour: build(flavour) for flavour in FLAVOURS}
    if not trace:
        res = run_bench(binaries["default"], workload, seed, seconds, "e2e")
        return res, res["errors"]
    # Three runs of one seed, each in its own process so that each starts
    # from the same cold heap: untraced (host-time baseline), traced (the
    # per-layer metrics) and untraced on the audit-off build.
    third = seconds / 3.0
    base = run_bench(binaries["default"], workload, seed, third, "e2e")
    res = run_bench(binaries["default"], workload, seed, third, "layers")
    off = run_bench(binaries["audit-off"], workload, seed, third, "e2e")
    errors = []
    for label, r in (("untraced", base), ("traced", res), ("audit-off", off)):
        errors += [f"{label} run: {e}" for e in r["errors"]]
        if r["digest"] != base["digest"]:
            errors.append(f"{label} run diverged from the untraced run: "
                          f"{r['digest']} vs {base['digest']}")
    host = base["host_us_per_txn"]
    res["metrics"].update({
        "sim.host_ns_per_event": {"value": base["host_ns_per_event"], "unit": "ns"},
        "sim.wall_us_per_txn": {"value": base["wall_us_per_txn"], "unit": "us"},
        "trace.overhead_pct": {"value": 100.0 * (res["host_us_per_txn"] / host - 1.0),
                               "unit": "%"},
        "audit.host_share": {"value": 1.0 - off["host_us_per_txn"] / host, "unit": "ratio"},
    })
    return res, errors


def selftest(workloads):
    binary = build("default")
    ok = True
    for w in workloads:
        a = run_bench(binary, w, 3, 3, "e2e")
        b = run_bench(binary, w, 3, 3, "e2e")
        check_names(a["metrics"], "end_to_end")
        sim_a = {k: v for k, v in a["metrics"].items() if k not in HOST_METRICS}
        sim_b = {k: v for k, v in b["metrics"].items() if k not in HOST_METRICS}
        same = (a["digest"] == b["digest"] and sim_a == sim_b
                and (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]))
        print(f"{w}: repeat {'identical' if same else 'DIFFERS'}, "
              f"gate {'passed' if a['correct'] and b['correct'] else 'FAILED'}")
        ok = ok and same and a["correct"] and b["correct"]
    return 0 if ok else 1


def report(workload, seed, seconds, trace):
    """Runs one workload, prints its table and result line; True if correct."""
    res, errors = measure(workload, seed, seconds, trace)
    check_names(res["metrics"], "per_layer" if trace else "end_to_end")
    for e in errors:
        print(f"perfbench: correctness gate: {e}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"{workload:12s} {name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return not errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no SDUR sources under {ROOT}; run from a full checkout")
    _, workloads = declared("end_to_end")
    if args.selftest:
        return selftest([args.workload] if args.workload else workloads)
    if args.workload == "all":
        ok = [report(w, args.seed, args.seconds, trace)
              for w in workloads for trace in (False, True)]
        return 0 if all(ok) else 1
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads} or 'all'")
    report(args.workload, args.seed, args.seconds, args.trace == 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
