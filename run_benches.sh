#!/bin/bash
# Usage: run_benches.sh [bench-name ...]
# With no arguments, runs every binary in build/bench/. With arguments,
# runs only the named benches (basenames, e.g. `run_benches.sh
# harness_perf cert_perf`) — handy for seeding the perf trajectory with
# the hot-path benches without paying for the full figure suite.
#
# SDUR_BENCH_BUILD_DIR selects the build tree whose bench/ binaries run
# (default: build/ in this checkout); point it at a build of another
# commit's checkout to record a "before" row. The row is keyed by the
# HEAD SHA of the checkout that build was configured from, suffixed
# "-dirty" when its tracked files differ from HEAD (binaries built from
# uncommitted changes).
root=$(cd "$(dirname "$0")" && pwd)
build_dir="${SDUR_BENCH_BUILD_DIR:-$root/build}"
src_dir=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$build_dir/CMakeCache.txt" 2>/dev/null)
out="$root/bench_output.txt"
json_dir="$root/bench_json"
mkdir -p "$json_dir"
# Figure benches write machine-readable BENCH_<name>.json rows here
# (see BenchReport in bench/common.h).
export SDUR_BENCH_JSON_DIR="$json_dir"
: > "$out"
for b in "$build_dir"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  if [ "$#" -gt 0 ]; then
    wanted=0
    for want in "$@"; do
      [ "$name" = "$want" ] && wanted=1
    done
    [ "$wanted" = 1 ] || continue
  fi
  echo "### $name ###" >> "$out"
  args=()
  case "$name" in
    # google-benchmark binary: use its native JSON reporter.
    micro_components)
      args=(--benchmark_out="$json_dir/BENCH_micro_components.json" --benchmark_out_format=json)
      ;;
  esac
  start=$SECONDS
  "$b" "${args[@]}" >> "$out" 2>&1
  echo "[wall $((SECONDS-start))s]" >> "$out"
  echo >> "$out"
done
# Fold this run's BENCH_*.json into bench_json/TRAJECTORY.json, keyed by
# commit SHA, so perf numbers accumulate across PRs into one time series.
# A filtered run folds only the selected benches (stale BENCH files from
# other binaries must not be re-attributed to this commit).
SDUR_BENCH_FILTER="$*" python3 - "$json_dir" "${src_dir:-$root}" <<'PY' >> "$out" 2>&1
import json, os, pathlib, subprocess, sys

json_dir = pathlib.Path(sys.argv[1])
src_dir = sys.argv[2]
try:
    sha = subprocess.run(["git", "-C", src_dir, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
    if subprocess.run(["git", "-C", src_dir, "diff", "--quiet", "HEAD"]).returncode != 0:
        sha += "-dirty"
except Exception:
    sha = "unknown"

traj_path = json_dir / "TRAJECTORY.json"
trajectory = {}
if traj_path.exists():
    try:
        trajectory = json.loads(traj_path.read_text())
    except json.JSONDecodeError:
        print(f"TRAJECTORY.json unreadable; starting fresh")

selected = set(os.environ.get("SDUR_BENCH_FILTER", "").split())
# Report names that differ from their binary's basename (the filter is
# given binary names on the command line).
aliases = {"trace_breakdown": "latency_breakdown",
           "vote_batching": "ablation_vote_batching",
           "convoy_bypass": "ablation_convoy_bypass"}
entry = trajectory.get(sha, {})
for f in sorted(json_dir.glob("BENCH_*.json")):
    name = f.stem.removeprefix("BENCH_")
    if selected and name not in selected and aliases.get(name) not in selected:
        continue
    try:
        entry[name] = json.loads(f.read_text())
    except json.JSONDecodeError as e:
        print(f"skipping {f.name}: {e}")

trajectory[sha] = entry
traj_path.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
print(f"TRAJECTORY.json: {len(entry)} bench report(s) recorded under {sha}")
PY
echo "ALL-BENCHES-DONE" >> "$out"
