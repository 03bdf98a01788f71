#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every run configures and builds
`perfbench` (the simulator's libraries from src/ plus the program in
perfbench/src) in the build directory: $CARGO_TARGET_DIR when set,
else .bench_build. The first run compiles; later runs only re-check.

The program's own JSON line is normalised to the metric lists in
BENCHMARK.json: a --trace 0 run reports every end-to-end metric, a
--trace 1 run every per-layer metric. A per-layer metric the workload
never exercises (a span it does not open, a counter it does not move)
reads 0. For the default seed the digest of simulated statistics must
match the one recorded in perfbench/digests.json. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only when the run was correct.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# Each run must end within 180 s; a build may take up to 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target="perfbench"):
    """Configure and (re)build `target`; returns its path. Configuring
    every time is cheap once the cache exists, and CMake refuses a
    cache made for another source tree, so a build directory shared
    between two checkouts never builds the other one's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator's sources (src/) are not next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                       ".bench_build")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", target,
              "-j", str(os.cpu_count() or 1)]]
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    return os.path.join(out, target)


def source_revision():
    """A content hash of the sources the binary is built from (the
    checkout need not be a git repository), prefixed with the git
    commit when it is one."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    rev = "src-" + h.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            git = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=10)
            if git.returncode == 0:
                rev = "git-" + git.stdout.strip() + "+" + rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def load_json(path):
    with open(path) as f:
        return json.load(f)


def normalise(result, specs, zero_if_absent):
    """Metrics in BENCHMARK.json order and units; raises ValueError on
    a missing metric (unless `zero_if_absent`) or a unit that
    disagrees."""
    metrics = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            if not zero_if_absent:
                raise ValueError("metric %s missing" % spec["name"])
            got = {"value": 0.0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            raise ValueError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %s" % args.workload)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--rev", source_revision()]
    digests = load_json(os.path.join(HERE, "digests.json"))
    if args.seed == digests["seed"] and args.workload in digests["digests"]:
        cmd += ["--expect-digest", digests["digests"][args.workload]]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]

    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, errors="replace",
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        fail("perfbench exited %d without a result" % done.returncode)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        metrics = normalise(result, specs, zero_if_absent=bool(args.trace))
    except ValueError as e:
        fail(str(e))
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
