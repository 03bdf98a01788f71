/**
 * @file
 * Fault-injection soak of the EDB<->target debug link.
 *
 * Runs the linked-list application on harvested power under hundreds
 * of randomized fault plans (UART corruption/drops/duplication, ADC
 * glitches, RF fade windows, forced brown-outs) with an energy
 * breakpoint generating continuous debug-session traffic.
 *
 * Pass criteria, checked per plan and in aggregate:
 *  - the run terminates (no deadlock: every host-side wait is
 *    bounded, so wall progress is guaranteed by construction);
 *  - every opened session either completes its resume or is aborted
 *    with a recorded reason -- a session left open at the horizon
 *    counts as stuck and fails the soak;
 *  - the host parser never desyncs permanently (frames keep parsing
 *    until the horizon whenever the plan leaves the link usable).
 *
 * Usage: soak_fault_link [--plans N | plan-count]   (default 200)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/linked_list.hh"
#include "bench/common.hh"
#include "edb/board.hh"
#include "energy/harvester.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

struct Outcome
{
    std::uint64_t sessions = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t stuck = 0;
    std::uint64_t readFailures = 0;
    std::uint64_t framesOk = 0;
    std::uint64_t crcErrors = 0;
    std::uint64_t resyncs = 0;
    std::uint64_t probes = 0;
    std::uint64_t degraded = 0;
    std::uint64_t abortedEpisodes = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t brownOutsForced = 0;
    bool missingAbortReason = false;
    /** NV backend counters (mem/nv_region.hh): FRAM write traffic,
     *  per-word wear peak and torn commit bursts. */
    std::uint64_t nvWrites = 0;
    std::uint64_t nvMaxWear = 0;
    std::uint64_t nvTornBursts = 0;
    std::uint64_t tornCommits = 0;
};

/** Draw a randomized fault plan; roughly a third of the plans get
 *  RF fades and a third get a forced brown-out. */
sim::FaultPlan
drawPlan(std::uint64_t index, sim::Tick horizon)
{
    sim::Rng meta(9000 + index);
    sim::FaultPlan plan;
    plan.seed = 31 * index + 7;
    plan.uartCorruptProb = meta.uniform(0.0, 0.08);
    plan.uartDropProb = meta.uniform(0.0, 0.08);
    plan.uartDupProb = meta.uniform(0.0, 0.04);
    plan.adcGlitchProb = meta.uniform(0.0, 0.02);
    plan.adcGlitchMagnitudeVolts = meta.uniform(0.05, 0.4);
    if (meta.chance(0.3)) {
        int fades = static_cast<int>(meta.uniformInt(1, 3));
        for (int i = 0; i < fades; ++i) {
            sim::Tick start = meta.uniformInt(0, horizon);
            sim::Tick len =
                meta.uniformInt(5 * sim::oneMs, 40 * sim::oneMs);
            plan.fades.push_back({start, len});
        }
    }
    if (meta.chance(0.3))
        plan.brownOuts.push_back(
            {meta.uniformInt(100 * sim::oneMs, horizon), 0.5});
    return plan;
}

Outcome
runPlan(std::uint64_t index, const target::WispConfig &wisp_config)
{
    const sim::Tick horizon = 1500 * sim::oneMs;
    sim::Simulator simulator(1000 + index);
    energy::RfHarvester rf(30.0, 1.0);
    sim::FaultInjector inj(simulator, "inj",
                           drawPlan(index, horizon));
    energy::FadedHarvester faded(rf, inj);
    target::Wisp wisp(simulator, "wisp", &faded, nullptr,
                      wisp_config);
    edbdbg::EdbBoard board(simulator, "edb", wisp);
    board.injectFaults(&inj);
    wisp.attachFaults(&inj);
    inj.armBrownOuts(0);

    apps::LinkedListOptions options;
    options.withAssert = true;
    wisp.flash(apps::buildLinkedListApp(options));
    wisp.start();
    // Continuous session traffic: stop at every discharge cycle.
    board.enableEnergyBreakpoint(2.0);

    Outcome out;
    edbdbg::DebugSession *last = nullptr;
    while (simulator.now() < horizon) {
        if (!board.waitForSession(100 * sim::oneMs))
            continue;
        auto *session = board.session();
        if (session == last && !session->open())
            continue;
        if (session != last)
            ++out.sessions;
        last = session;
        if (!session
                 ->read32(apps::linked_list_layout::iterCountAddr,
                          100 * sim::oneMs)
                 .has_value())
            ++out.readFailures;
        session->resume();
        board.pumpUntil([&board] { return board.passive(); },
                        2 * sim::oneSec);
        if (!session->open()) {
            if (session->aborted()) {
                ++out.aborted;
                if (session->abortReason().empty())
                    out.missingAbortReason = true;
            } else {
                ++out.completed;
            }
        }
    }
    if (last != nullptr && last->open()) {
        ++out.stuck;
        if (std::getenv("SOAK_DEBUG") != nullptr)
            std::printf("  stuck: pc=0x%04X passive=%d tethered=%d "
                        "wisp=%d "
                        "req=%d charger=%d reason=%s resumeRetries="
                        "%llu abortedEp=%llu\n",
                        unsigned(wisp.mcu().pc()),
                        int(board.passive()), int(board.tethered()),
                        int(wisp.state()),
                        int(wisp.debugPort().reqLevel()),
                        int(board.chargeCircuit().active()),
                        board.lastAbortReason().c_str(),
                        static_cast<unsigned long long>(
                            board.linkStats().resumeRetries),
                        static_cast<unsigned long long>(
                            board.linkStats().abortedEpisodes));
    }

    out.framesOk = board.protocolEngine().stats().framesOk;
    out.crcErrors = board.protocolEngine().stats().crcErrors;
    out.resyncs = board.protocolEngine().stats().resyncs;
    out.probes = board.linkStats().probes;
    out.degraded = board.linkStats().degradedEpisodes;
    out.abortedEpisodes = board.linkStats().abortedEpisodes;
    out.faultsInjected = inj.stats().corrupted +
                         inj.stats().dropped +
                         inj.stats().duplicated +
                         inj.stats().adcGlitches;
    out.brownOutsForced = inj.stats().brownOutsForced;
    const mem::NvRegion &fram = wisp.framRegion();
    out.nvWrites = fram.writeCount();
    out.nvMaxWear = fram.maxWear();
    out.nvTornBursts = fram.tornWrites();
    out.tornCommits = wisp.mcu().tornCommitCount();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli(argc, argv);
    const int plans = static_cast<int>(cli.count("plans", 200));
    bench::banner("Debug-link soak: " + std::to_string(plans) +
                  " randomized fault plans, linked-list app, energy "
                  "breakpoint at 2.0 V, 1.5 s horizon each");

    const target::WispConfig wispConfig =
        bench::applyEngineFlags(cli);
    Outcome total;
    int failedPlans = 0;
    for (int i = 0; i < plans; ++i) {
        Outcome o =
            runPlan(static_cast<std::uint64_t>(i), wispConfig);
        bool ok = o.stuck == 0 && !o.missingAbortReason;
        if (!ok) {
            ++failedPlans;
            std::printf("plan %4d FAIL: stuck=%llu "
                        "missing-abort-reason=%d\n",
                        i, static_cast<unsigned long long>(o.stuck),
                        int(o.missingAbortReason));
        }
        total.sessions += o.sessions;
        total.completed += o.completed;
        total.aborted += o.aborted;
        total.stuck += o.stuck;
        total.readFailures += o.readFailures;
        total.framesOk += o.framesOk;
        total.crcErrors += o.crcErrors;
        total.resyncs += o.resyncs;
        total.probes += o.probes;
        total.degraded += o.degraded;
        total.abortedEpisodes += o.abortedEpisodes;
        total.faultsInjected += o.faultsInjected;
        total.brownOutsForced += o.brownOutsForced;
        total.nvWrites += o.nvWrites;
        if (o.nvMaxWear > total.nvMaxWear)
            total.nvMaxWear = o.nvMaxWear;
        total.nvTornBursts += o.nvTornBursts;
        total.tornCommits += o.tornCommits;
        if ((i + 1) % 50 == 0)
            std::printf("... %d/%d plans\n", i + 1, plans);
    }

    auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    std::printf("\nplans            %d (%d failed)\n", plans,
                failedPlans);
    std::printf("sessions         %llu (completed %llu, aborted "
                "%llu, stuck %llu)\n",
                u(total.sessions), u(total.completed),
                u(total.aborted), u(total.stuck));
    std::printf("read failures    %llu\n", u(total.readFailures));
    std::printf("frames parsed    %llu (crc errors %llu, resyncs "
                "%llu)\n",
                u(total.framesOk), u(total.crcErrors),
                u(total.resyncs));
    std::printf("link recovery    %llu probes, %llu degraded, %llu "
                "aborted episodes\n",
                u(total.probes), u(total.degraded),
                u(total.abortedEpisodes));
    std::printf("faults injected  %llu wire/adc, %llu forced "
                "brown-outs\n",
                u(total.faultsInjected), u(total.brownOutsForced));

    // Machine-readable summary for CI log scrapers. A "leaked" (still
    // open at the horizon) or hung session fails the soak below.
    bench::Json episodes;
    episodes.field("run", total.sessions)
        .field("degraded", total.degraded)
        .field("aborted", total.abortedEpisodes);
    bench::Json sessions;
    sessions.field("opened", total.sessions)
        .field("completed", total.completed)
        .field("aborted", total.aborted)
        .field("leaked", total.stuck);
    bench::Json summary;
    bench::runConfigFields(summary, cli);
    summary.field("plans", plans)
        .field("failed_plans", failedPlans)
        .object("episodes", episodes)
        .object("sessions", sessions)
        .field("frames_ok", total.framesOk)
        .field("crc_errors", total.crcErrors)
        .field("resyncs", total.resyncs);
    bench::Json nv;
    nv.field("writes", total.nvWrites)
        .field("max_wear", total.nvMaxWear)
        .field("torn_bursts", total.nvTornBursts)
        .field("torn_commits", total.tornCommits);
    summary.object("nv", nv);
    summary.print();

    if (failedPlans == 0 && total.sessions > 0) {
        std::printf("\nSOAK PASS\n");
        return 0;
    }
    std::printf("\nSOAK FAIL\n");
    return 1;
}
