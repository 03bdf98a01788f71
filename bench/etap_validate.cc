/**
 * @file
 * ETAP-style cross-validation: the static energy analyzer vs.
 * simulated ground truth (DESIGN.md §14).
 *
 * Two legs:
 *
 *  1. A fuzzed population: every generated case runs under the
 *     `etap` differential oracle (src/fuzz/oracle.cc), which
 *     measures each power-on→first-persist drain in a live world and
 *     compares it against the analyzer's worst-case per-boot bound,
 *     and the starvation verdict against the observed persist
 *     history. The harness aggregates: soundness violations and
 *     false starvation verdicts must both be zero, and the bound's
 *     tightness (observed/bound) is reported so over-approximation
 *     creep is visible in CI history.
 *
 *  2. The shipped applications: the debug-build Fibonacci app must
 *     be flagged as starving *statically* (the paper's Fig 9 bug,
 *     found without running it), while the release build, the
 *     activity-recognition app and the README quickstart guest must
 *     all analyze clean.
 *
 * Prints one JSON summary as its last line and exits nonzero unless
 * its `ok` holds.
 *
 * Usage: etap_validate [--cases N] [--seed S]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/cost_model.hh"
#include "apps/activity.hh"
#include "apps/fibonacci.hh"
#include "bench/common.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "isa/assembler.hh"
#include "runtime/libedb.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

/** Pull "key=1.23e-4" out of an oracle detail string. */
double
detailNum(const std::string &detail, const char *key, double fallback)
{
    std::string tag = std::string(key) + "=";
    auto at = detail.find(tag);
    if (at == std::string::npos)
        return fallback;
    return std::strtod(detail.c_str() + at + tag.size(), nullptr);
}

/** A wisp on an effectively infinite capacitor, used only as the
 *  cost-table donor for the example-app verdicts (the verdicts that
 *  matter here — S1 barren-unavoidable — are budget-independent). */
struct ModelRig
{
    sim::Simulator sim{424242};
    energy::TheveninHarvester supply{3.0, 10.0};
    target::Wisp wisp;

    ModelRig()
        : wisp(sim, "wisp", &supply, nullptr,
               [] {
                   target::WispConfig c;
                   c.power.capacitanceF = 1.0;
                   c.power.initialVolts = 3.0;
                   c.power.maxVolts = 3.0;
                   c.power.bootOnStart = true;
                   c.power.harvestNoiseSigma = 0.0;
                   return c;
               }())
    {}
};

analysis::Verdict
verdictOf(const isa::Program &prog)
{
    ModelRig rig;
    analysis::CostModel m = analysis::CostModel::fromWisp(rig.wisp);
    return analysis::analyze(prog, m).verdict;
}

bool
clean(analysis::Verdict v)
{
    return v != analysis::Verdict::Starves &&
           v != analysis::Verdict::MayStarve &&
           v != analysis::Verdict::Unknown;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli(argc, argv);
    const unsigned cases =
        static_cast<unsigned>(cli.intOption("cases", 300));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.intOption("seed", 1));

    unsigned conclusive = 0, inconclusive = 0;
    unsigned soundnessViolations = 0, starveFp = 0, starveFn = 0;
    unsigned otherFailures = 0;
    std::uint64_t windowsTotal = 0;
    std::vector<double> tightness;

    for (unsigned i = 0; i < cases; ++i) {
        fuzz::CaseSpec spec =
            fuzz::generateCase(seed * 100000 + i);
        fuzz::OracleCase c = fuzz::makeOracleCase(spec);
        fuzz::OracleOutcome out =
            fuzz::runOracle(fuzz::OracleId::Etap, c);
        if (out.failed) {
            if (out.detail.find("static bound unsound") !=
                std::string::npos)
                ++soundnessViolations;
            else if (out.detail.find("false positive") !=
                     std::string::npos)
                ++starveFp;
            else if (out.detail.find("false negative") !=
                     std::string::npos)
                ++starveFn;
            else
                ++otherFailures;
            std::printf("case %u FAIL: %s\n", i, out.detail.c_str());
            continue;
        }
        if (out.inconclusive)
            ++inconclusive;
        else
            ++conclusive;
        double windows = detailNum(out.detail, "windows", 0.0);
        windowsTotal += static_cast<std::uint64_t>(windows);
        double bound = detailNum(out.detail, "bound", 0.0);
        double observed =
            detailNum(out.detail, "worstObserved", -1.0);
        if (windows > 0 && bound > 0 && observed >= 0)
            tightness.push_back(observed / bound);
    }

    double medianTightness = 0.0, maxTightness = 0.0;
    if (!tightness.empty()) {
        std::sort(tightness.begin(), tightness.end());
        medianTightness = tightness[tightness.size() / 2];
        maxTightness = tightness.back();
    }

    // Leg 2: the shipped applications, statically.
    apps::FibonacciOptions debugBuild;
    debugBuild.withCheck = true;
    bool fig9Starves =
        verdictOf(apps::buildFibonacciApp(debugBuild)) ==
        analysis::Verdict::Starves;
    analysis::Verdict fibRelease =
        verdictOf(apps::buildFibonacciApp({}));
    bool fibReleaseClean =
        fibRelease != analysis::Verdict::Starves &&
        fibRelease != analysis::Verdict::Unknown;
    apps::ActivityOptions act;
    act.output = apps::ActivityOutput::UartPrintf;
    bool activityClean = clean(verdictOf(apps::buildActivityApp(act)));
    bool quickstartClean = clean(verdictOf(isa::assemble(
        runtime::programHeader() + R"(
main:
    la   r5, 0x5000
loop:
    ldw  r1, [r5]
    addi r1, r1, 1
    stw  r1, [r5]
    andi r2, r1, 0x0FFF
    cmpi r2, 0
    bne  loop
    li   r1, 1
    call edb_watchpoint
    br   loop
)" + runtime::libedbSource())));

    bool ok = soundnessViolations == 0 && starveFp == 0 &&
              starveFn == 0 && otherFailures == 0 && fig9Starves &&
              fibReleaseClean && activityClean && quickstartClean &&
              conclusive > 0 && windowsTotal > 0;

    bench::Json summary;
    summary.field("bench", std::string("etap_validate"))
        .field("cases", static_cast<std::uint64_t>(cases))
        .field("conclusive", static_cast<std::uint64_t>(conclusive))
        .field("inconclusive",
               static_cast<std::uint64_t>(inconclusive))
        .field("soundness_violations",
               static_cast<std::uint64_t>(soundnessViolations))
        .field("starvation_false_positives",
               static_cast<std::uint64_t>(starveFp))
        .field("starvation_false_negatives",
               static_cast<std::uint64_t>(starveFn))
        .field("other_failures",
               static_cast<std::uint64_t>(otherFailures))
        .field("windows_measured", windowsTotal)
        .field("median_tightness", medianTightness)
        .field("max_tightness", maxTightness)
        .field("fig9_debug_starves", fig9Starves)
        .field("fib_release_clean", fibReleaseClean)
        .field("activity_clean", activityClean)
        .field("quickstart_clean", quickstartClean)
        .field("ok", ok);
    summary.print();
    return ok ? 0 : 1;
}
