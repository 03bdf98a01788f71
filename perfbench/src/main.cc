/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--expect-digest HEX] [--trace-out PATH] [--rev TEXT]
 *             [--fail-op K]
 *
 * Untraced run (--trace 0): run checked ops for S seconds between two
 * batches of set-ups (each instance torn down before the next), and
 * report the end-to-end metrics. Traced run (--trace 1): set up
 * two instances from the same seed and run the same ops on both for
 * S seconds, op by op, one untraced and one with every span recorded;
 * then time the probes, and report the per-layer metrics.
 *
 * Every run does at least `windowOps` ops. The digest of simulated
 * statistics and the work counts cover exactly the first `windowOps`
 * ops, so both are exact for a seed whatever the run length. The
 * last line of standard output is one JSON object; the exit code is
 * 0 only when every op passed its check and the digest matched the
 * expected one (when given).
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/** Ops covered by the digest and the work counts; also the least
 *  number of ops in a run, so p90 has ten samples beyond it. */
constexpr std::uint32_t windowOps = 100;

/** An untraced run sets up in two batches, one before the timed loop
 *  and one after it, each at least `minSetups` times and for at least
 *  `setupBudgetNs` of wall time, and reports the median of the two
 *  batch medians (their mean). A single set-up takes from a few ms to
 *  a quarter second, and its time follows the host's speed, which
 *  changes every few seconds; two batches a run apart sample two host
 *  states instead of one. When they differ, the median of all set-ups
 *  would jump to the faster state, which fits more set-ups into its
 *  batch; the mean of the batch medians lies between the two. */
constexpr unsigned minSetups = 5;
constexpr std::int64_t setupBudgetNs = 1'500'000'000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expectDigest;
    std::string traceOut;
    std::string rev = "unknown";
    /** Test hook: treat op K's check as failed (-1 = never). */
    long failOp = -1;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--expect-digest HEX] [--trace-out PATH] [--rev TEXT] "
                 "[--fail-op K]\nworkloads:",
                 why);
    for (const WorkloadDef &w : workloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = v;
        } else if (key == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (key == "--trace") {
            o.trace = std::strtol(v, &end, 10) != 0;
        } else if (key == "--fail-op") {
            o.failOp = std::strtol(v, &end, 10);
        } else if (key == "--expect-digest") {
            o.expectDigest = v;
        } else if (key == "--trace-out") {
            o.traceOut = v;
        } else if (key == "--rev") {
            o.rev = v;
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end && *end != '\0')
            usage(("bad value for " + key).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds >= 0.0))
        usage("--seconds must be >= 0");
    return o;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

volatile unsigned refSink = 0;

/** A fixed branchy integer loop, timed on the thread CPU clock: it
 *  tracks the host's speed phases, which no design can remove. */
double
refLoopUs()
{
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    unsigned acc = 0;
    const std::int64_t t0 = threadCpuNs();
    for (unsigned i = 0; i < 1'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x & 1)
            acc += 3;
        else if (x & 2)
            acc ^= 5;
        else
            acc -= 1;
    }
    refSink = acc;
    return static_cast<double>(threadCpuNs() - t0) / 1e3;
}

/** Append 5 timings of the reference loop to `out`. */
void
refLoops(std::vector<double> &out)
{
    for (int i = 0; i < 5; ++i)
        out.push_back(refLoopUs());
}

/** One workload instance being timed, with its tracer and results. */
struct Lane
{
    Lane(Workload &workload, Tracer &lane_tracer)
        : w(workload), tracer(lane_tracer)
    {}

    Workload &w;
    Tracer &tracer;
    Histogram opUs;
    std::uint32_t failed = 0;
    Digest running;
    /** Digest and work counts of the first windowOps ops. */
    std::string digest;
    Metrics counts;
};

/**
 * Run ops for `seconds` of wall time, and at least windowOps ops,
 * giving each lane op k in turn. Lanes that run the same workload
 * from the same seed thus see the same host phases op by op. The
 * order alternates between ops: the lane that runs second measured
 * about 7% faster on device-steady.
 * @return process CPU time spent.
 */
std::int64_t
runOps(std::vector<Lane *> lanes, const WorkloadDef &def,
       const Options &opt)
{
    auto opClock = def.wallClockOps ? wallNs : threadCpuNs;
    const auto budget = static_cast<std::int64_t>(opt.seconds * 1e9);
    const std::int64_t wall0 = wallNs();
    const std::int64_t cpu0 = processCpuNs();
    for (std::uint32_t op = 0;
         op < windowOps || wallNs() - wall0 < budget; ++op) {
        std::reverse(lanes.begin(), lanes.end());
        for (Lane *l : lanes) {
            l->tracer.setOp(op);
            const std::int64_t t0 = opClock();
            bool ok;
            {
                Span root(l->tracer, "op");
                ok = l->w.op(l->tracer);
            }
            l->opUs.add(static_cast<double>(opClock() - t0) / 1e3);
            if (!ok || static_cast<long>(op) == opt.failOp) {
                if (++l->failed <= 5)
                    std::fprintf(stderr, "%s: op %u failed its check\n",
                                 def.name, op);
            }
            if (op < windowOps) {
                l->w.fold(l->running);
                if (op + 1 == windowOps) {
                    l->w.counts(windowOps, l->counts);
                    l->digest = l->running.hex();
                }
            }
        }
    }
    return processCpuNs() - cpu0;
}

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const std::string &digest, const Metrics &m)
{
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"digest\":\"%s\",\"metrics\":{",
                correct ? "true" : "false", attempted, failed,
                digest.c_str());
    bool first = true;
    for (const Metric &x : m.all()) {
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    first ? "" : ",", x.name.c_str(), x.value,
                    x.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

struct Outcome
{
    Metrics metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    /** Digest of the untraced pass's window. */
    std::string digest;
};

/**
 * One batch of set-ups: build the workload at least `minSetups` times
 * and for at least `setupBudgetNs`, tearing each instance down before
 * the next, and append each set-up's wall seconds to `seconds`.
 * @return the last instance.
 */
std::unique_ptr<Workload>
setUpBatch(const WorkloadDef &def, std::uint64_t seed,
           std::vector<double> &seconds)
{
    std::unique_ptr<Workload> w;
    const std::int64_t start = wallNs();
    for (unsigned k = 0; k < minSetups || wallNs() - start < setupBudgetNs;
         ++k) {
        w.reset();
        const std::int64_t t0 = wallNs();
        w = def.make(seed);
        seconds.push_back(static_cast<double>(wallNs() - t0) / 1e9);
    }
    return w;
}

/** Set up, time ops, set up again: the end-to-end run. */
Outcome
untracedRun(const WorkloadDef &def, const Options &opt)
{
    Outcome out;
    std::vector<double> before;
    std::unique_ptr<Workload> w = setUpBatch(def, opt.seed, before);
    Tracer off(false);
    Lane lane(*w, off);
    const std::int64_t cpuNs = runOps({&lane}, def, opt);
    w.reset();
    std::vector<double> after;
    setUpBatch(def, opt.seed, after);
    std::printf("# setups=%zu+%zu\n", before.size(), after.size());
    out.attempted = static_cast<std::size_t>(lane.opUs.count());
    out.failed = lane.failed;
    out.digest = lane.digest;
    Metrics &m = out.metrics;
    m.set("setup_s",
          (percentile(before, 0.5) + percentile(after, 0.5)) / 2.0, "s");
    m.set("peak_rss_mb", static_cast<double>(vmHwmKb()) / 1024.0, "MB");
    m.set("ops_per_cpu_s",
          static_cast<double>(out.attempted) /
              (static_cast<double>(cpuNs) / 1e9),
          "1/s");
    // The median op is not reported: per-op times mix the host's
    // speed states, and the median jumps between them as the mix
    // changes from run to run (README.md, Noise). p90 stays in the
    // slow state.
    m.set("op_p90_us", lane.opUs.percentile(0.9), "us");
    return out;
}

/**
 * Two instances set up from the same seed run the same ops, op by op:
 * one untraced, one with every span recorded. Then the probes run.
 * This is the per-layer run.
 */
Outcome
tracedRun(const WorkloadDef &def, const Options &opt)
{
    Outcome out;
    Metrics &m = out.metrics;
    const long rss0 = vmRssKb();
    auto plain = def.make(opt.seed);
    if (const unsigned worlds = plain->worlds())
        m.set("fleet.kb_per_world",
              static_cast<double>(vmRssKb() - rss0) / worlds, "kB");
    auto traced = def.make(opt.seed);
    Tracer off(false);
    Tracer tracer(true);
    Lane untracedLane(*plain, off);
    Lane tracedLane(*traced, tracer);
    runOps({&untracedLane, &tracedLane}, def, opt);
    plain.reset();
    traced.reset();
    const auto ops = static_cast<std::uint32_t>(untracedLane.opUs.count());
    out.attempted = 2 * static_cast<std::size_t>(ops);
    out.failed = untracedLane.failed + tracedLane.failed;
    out.digest = untracedLane.digest;
    if (tracedLane.digest != untracedLane.digest) {
        std::fprintf(stderr,
                     "%s: traced digest %s differs from untraced %s\n",
                     def.name, tracedLane.digest.c_str(),
                     untracedLane.digest.c_str());
        out.correct = false;
    }

    for (const Metric &c : tracedLane.counts.all())
        m.set(c.name, c.value, c.unit);
    tracer.aggregate(ops, m);
    out.correct &= runProbes(m);
    const double p50 = untracedLane.opUs.percentile(0.5);
    if (const Metric *instrs = m.find("mcu.instrs_per_op"))
        m.set("mcu.ns_per_instr", p50 * 1e3 / instrs->value, "ns");
    m.set("trace.overhead_pct",
          (tracedLane.opUs.percentile(0.5) - p50) / p50 * 100.0, "%");
    std::printf("# traced ops=%u spans=%zu\n", ops,
                tracer.spans().size());
    if (!opt.traceOut.empty() && !tracer.writeChromeTrace(opt.traceOut)) {
        std::fprintf(stderr, "cannot write %s\n", opt.traceOut.c_str());
        out.correct = false;
    }
    return out;
}

int
run(const Options &opt)
{
    const WorkloadDef *def = findWorkload(opt.workload);
    if (!def)
        usage(("unknown workload " + opt.workload).c_str());

    std::printf("# perfbench workload=%s seed=%llu trace=%d "
                "seconds=%g\n",
                def->name, static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, opt.seconds);
    std::printf("# host nproc=%ld cpu=\"%s\" build=%s compiler=\"%s\" "
                "rev=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                PERFBENCH_BUILD_TYPE, __VERSION__, opt.rev.c_str());
    std::fflush(stdout);

    std::vector<double> ref;
    refLoops(ref);
    const double refBefore = percentile(ref, 0.5);
    Outcome out = opt.trace ? tracedRun(*def, opt) : untracedRun(*def, opt);
    refLoops(ref);
    const double refAfter =
        percentile(std::vector<double>(ref.begin() + 5, ref.end()), 0.5);
    if (opt.trace)
        out.metrics.set("host.ref_loop_us", percentile(ref, 0.5), "us");

    if (out.failed)
        out.correct = false;
    if (!opt.expectDigest.empty() && opt.expectDigest != out.digest) {
        std::fprintf(stderr, "%s: digest %s differs from the recorded %s\n",
                     def->name, out.digest.c_str(),
                     opt.expectDigest.c_str());
        out.correct = false;
    }
    std::printf("# ops=%zu failed=%zu digest=%s (first %u ops) "
                "host.ref_loop_us before=%.1f after=%.1f\n",
                out.attempted, out.failed, out.digest.c_str(), windowOps,
                refBefore, refAfter);
    printJson(out.correct, out.attempted, out.failed, out.digest,
              out.metrics);
    return out.correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
