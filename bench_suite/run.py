#!/usr/bin/env python3
"""Build bench_suite from source and run one workload of it.

    python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1
                               [--record SET.jsonl]

Run from the repository root. The first call configures and builds the
suite under .bench_build/ (later calls only rebuild what changed). The
suite's own `workload.metric value unit` lines go to stdout, and the last
stdout line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <median>, "unit": "<unit>"}, ...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). --record appends the run's full artifact, one
JSON object per line, to a set file that compare_runs.py reads.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Stay inside the 180 s a run may take, whatever the build left us.
DEADLINE_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at src/ next to bench_suite/")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                    "bench_suite"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "bench_suite")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the artifact to this set file")
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("run.py: --seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload!r}")

    binary = build()
    started = time.monotonic()
    out = os.path.join(BUILD, "runs",
                       f"{args.workload}-{args.seed}-{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    try:
        # On timeout, subprocess.run kills the suite and waits for it.
        proc = subprocess.run(cmd, timeout=DEADLINE_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: bench_suite ran past {DEADLINE_S} s")
    if not os.path.exists(out):
        sys.exit(f"run.py: bench_suite exited {proc.returncode} "
                 "without an artifact")
    with open(out) as f:
        artifact = json.load(f)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(artifact) + "\n")

    (run,) = artifact["runs"]
    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"run.py: bench_suite did not report {m['name']} "
                     f"in {m['unit']}")
        value = got["median"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"run.py: {m['name']} is not a finite number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": proc.returncode == 0 and run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    print(f"run.py: {time.monotonic() - started:.1f} s after the build",
          file=sys.stderr)


if __name__ == "__main__":
    main()
