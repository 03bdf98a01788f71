#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout. The first test run builds the
benchmark binary through perfbench/run.py (about a minute on 4 cores).
Every workload runs at its smallest size: the 100 ops the digest
covers, untraced and traced.
"""

import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(PERFBENCH, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(PERFBENCH, "digests.json")) as f:
    DIGESTS = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}

# Per-layer metrics each workload must measure itself (the rest read 0
# after run.py normalises the line). Probes and host diagnostics run
# in every traced run.
EVERY_TRACED_RUN = {
    "energy.substep_ns", "energy.substep_quiet_ns", "sim.gaussian_ns",
    "mem.access_ns", "energy.charge_100us_ns", "sim.event_ns",
    "sim.snapshot_us", "server.json_parse_ns", "isa.assemble_us",
    "analysis.analyze_us", "host.ref_loop_us", "trace.overhead_pct",
}
MEASURED_BY = {
    "device-steady": {"mcu.instrs_per_op", "mcu.cycles_per_op",
                      "mcu.ns_per_instr", "energy.boots",
                      "energy.brown_outs"},
    "edb-episode": {"edb.charge_us", "edb.charge_sim_ms",
                    "edb.wait_break_us", "edb.wait_break_sim_ms",
                    "edb.read_us", "edb.read_sim_ms", "edb.resume_us",
                    "edb.resume_sim_ms", "edb.printfs",
                    "edb.link_retries", "edb.restore_dv_mv",
                    "energy.boots", "energy.brown_outs"},
    "fleet-debug": {"server.epoch_us", "client.request_us",
                    "client.pump_us", "fleet.worker_busy_ratio",
                    "fleet.kb_per_world", "fleet.instrs_per_op",
                    "fleet.migrations", "fleet.stolen_tasks",
                    "rfid.attempts", "rfid.collisions",
                    "rfid.reply_ratio", "server.frames_in",
                    "server.frames_out", "server.commands_served",
                    "server.hits_delivered", "server.hits_dropped",
                    "server.interference_violations"},
}

# APIs the ROADMAP is due to remove or fold: the benchmark must not
# name them, so those changes land without editing it.
BANNED = [
    "predecodeCache", "flatDispatch", "batchedDrain", "batchedSlices",
    "superblocks", "superblockMaxLen", "superblockMinLen",
    "fastIntegration", "superblockStats", "SuperblockStats",
    "drainStep", "drainBlock", r"OracleId::\w+", r"common\.hh",
]

# The trace file gives each start and duration in microseconds to the
# nanosecond; comparisons of span edges and self times allow 1 ns of
# rounding per span involved.
TS_ROUNDING_US = 0.001


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_us(event, children):
    """A span's duration minus the durations of its child spans."""
    return event["dur"] - sum(c["dur"] for c in children[event["args"]["id"]])


class PerfbenchTest(unittest.TestCase):
    binary = None
    traced = {}
    untraced = {}

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        for w in WORKLOADS:
            path = os.path.join(out_dir, "test-trace-%s.json" % w)
            p = cls.run_binary(w, "--trace", "1", "--trace-out", path)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            cls.traced[w] = (p, last_json(p.stdout), events)
            cls.untraced[w] = subprocess.run(
                [sys.executable, os.path.join(PERFBENCH, "run.py"),
                 "--workload", w, "--seed", str(DIGESTS["seed"]),
                 "--seconds", "0", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, errors="replace",
            timeout=170)

    @classmethod
    def run_binary(cls, workload, *extra):
        return subprocess.run(
            [cls.binary, "--workload", workload, "--seconds", "0",
             "--seed", str(DIGESTS["seed"])] + list(extra),
            cwd=ROOT, capture_output=True, text=True, errors="replace",
            timeout=170)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = self.untraced[w]
                self.assertEqual(p.returncode, 0, p.stderr)
                line = last_json(p.stdout)
                self.assertEqual(set(line),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(line["correct"])
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 100)
                self.assertEqual(
                    {k: v["unit"] for k, v in line["metrics"].items()},
                    END_TO_END)
                for k, v in line["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_run_measures_its_layers(self):
        measured = set()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, line, _ = self.traced[w]
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertTrue(line["correct"])
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                for name in EVERY_TRACED_RUN | MEASURED_BY[w]:
                    self.assertIn(name, got)
                for name, unit in got.items():
                    self.assertIn(name, PER_LAYER)
                    self.assertEqual(unit, PER_LAYER[name], name)
                measured |= set(got)
        self.assertEqual(measured, set(PER_LAYER))

    def test_traced_run_through_run_py_lists_every_per_layer_metric(self):
        p = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"),
             "--workload", "device-steady", "--seconds", "0",
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, errors="replace",
            timeout=170)
        self.assertEqual(p.returncode, 0, p.stderr)
        line = last_json(p.stdout)
        self.assertEqual(
            {k: v["unit"] for k, v in line["metrics"].items()}, PER_LAYER)
        self.assertEqual(line["metrics"]["server.epoch_us"]["value"], 0)

    def test_recorded_digests_match(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.traced[w][1]["digest"],
                                 DIGESTS["digests"][w])

    def test_wrong_recorded_digest_fails_the_run(self):
        p = self.run_binary("device-steady", "--expect-digest",
                        "0123456789abcdef")
        self.assertEqual(p.returncode, 1)
        self.assertFalse(last_json(p.stdout)["correct"])
        self.assertIn("differs from the recorded", p.stderr)

    def test_forced_op_failure_fails_the_run(self):
        p = self.run_binary("device-steady", "--fail-op", "7")
        self.assertEqual(p.returncode, 1)
        line = last_json(p.stdout)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_spans_nest_under_their_op_and_self_times_sum(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                events = self.traced[w][2]
                self.assertTrue(events)
                by_id = {e["args"]["id"]: e for e in events}
                children = {i: [] for i in by_id}
                subtree = {}
                for e in events:
                    a = e["args"]
                    node = e
                    while node["args"]["parent"] >= 0:
                        parent = by_id[node["args"]["parent"]]
                        self.assertLessEqual(parent["ts"], node["ts"])
                        self.assertLessEqual(
                            node["ts"] + node["dur"],
                            parent["ts"] + parent["dur"] + TS_ROUNDING_US)
                        node = parent
                    self.assertEqual(node["name"], "op")
                    self.assertEqual(node["args"]["op"], a["op"])
                    if a["parent"] >= 0:
                        children[a["parent"]].append(e)
                    subtree.setdefault(node["args"]["id"], []).append(e)
                # Siblings never overlap, so no span's children cover
                # more than the span itself: every self time is >= 0.
                for kids in children.values():
                    kids.sort(key=lambda e: e["ts"])
                    for before, after in zip(kids, kids[1:]):
                        self.assertLessEqual(before["ts"] + before["dur"],
                                             after["ts"] + TS_ROUNDING_US)
                for root_id, spans in subtree.items():
                    selves = [self_us(s, children) for s in spans]
                    for s, us in zip(spans, selves):
                        self.assertGreaterEqual(us, -TS_ROUNDING_US,
                                                s["name"])
                    self.assertAlmostEqual(
                        sum(selves), by_id[root_id]["dur"],
                        delta=TS_ROUNDING_US * len(spans))

    def test_per_layer_self_times_match_the_trace(self):
        # Tracer::aggregate against the same figures recomputed here
        # from the spans it wrote out: the median over ops of each
        # op's summed self time per span name, an op without the span
        # counting 0. device-steady opens no span below the op.
        compared = 0
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, line, events = self.traced[w]
                ops = line["attempted"] // 2
                by_id = {e["args"]["id"]: e for e in events}
                children = {i: [] for i in by_id}
                for e in events:
                    if e["args"]["parent"] >= 0:
                        children[e["args"]["parent"]].append(e)
                per_op = {}
                for e in events:
                    if e["name"] == "op" or e["args"]["op"] >= ops:
                        continue
                    sums = per_op.setdefault(e["name"], [0.0] * ops)
                    sums[e["args"]["op"]] += self_us(e, children)
                for name, sums in per_op.items():
                    median = sorted(sums)[math.ceil(0.5 * ops) - 1]
                    self.assertAlmostEqual(
                        line["metrics"][name + "_us"]["value"], median,
                        delta=TS_ROUNDING_US, msg=name)
                    compared += 1
        self.assertGreater(compared, 0)

    def test_tracer_aggregates_a_hand_built_span_tree(self):
        p = subprocess.run([run.build("perfbench_tracer_test")],
                           capture_output=True, text=True, timeout=60)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_sources_use_only_kept_api(self):
        sources = [os.path.join(PERFBENCH, "run.py"),
                   os.path.join(PERFBENCH, "CMakeLists.txt")]
        src_dir = os.path.join(PERFBENCH, "src")
        sources += [os.path.join(src_dir, n) for n in os.listdir(src_dir)]
        pattern = re.compile(r"\b(%s)\b" % "|".join(BANNED))
        for path in sources:
            with open(path) as f:
                for n, line in enumerate(f, 1):
                    self.assertIsNone(pattern.search(line),
                                      "%s:%d: %s" % (path, n, line))

    def test_run_without_the_sources_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "device-steady", "--seed", "3", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
