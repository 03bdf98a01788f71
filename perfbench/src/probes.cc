/**
 * @file
 * Probes: single public calls timed in isolation, for the layers that
 * sit wholly inside `Simulator::runFor` (the analog sub-step, the
 * gaussian draw, the memory map, the event queue), for two calls
 * the workloads make too rarely or too deep to span (snapshot
 * round trips, JSON request parsing), and for the two layers no
 * timed op calls (assembly, which only set-ups do, and the static
 * analyzer). Probes run only in the traced run. Each figure is the
 * median of several batches, timed on the calling thread's CPU clock.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/cost_model.hh"
#include "apps/activity.hh"
#include "apps/linked_list.hh"
#include "edb/server.hh"
#include "energy/harvester.hh"
#include "energy/power_system.hh"
#include "isa/assembler.hh"
#include "sim/event.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "target/wisp.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace edb;

constexpr unsigned batches = 7;

/** Defeats dead-code elimination of probed results. */
volatile double sink = 0.0;

/** Median over `batches` of the CPU ns per call of `body`, which
 *  makes `calls` calls each time it runs. */
template <class Body>
double
nsPerCall(unsigned calls, Body &&body)
{
    std::vector<double> perCall;
    for (unsigned b = 0; b < batches; ++b) {
        const std::int64_t t0 = threadCpuNs();
        body();
        perCall.push_back(static_cast<double>(threadCpuNs() - t0) /
                          calls);
    }
    return percentile(perCall, 0.5);
}

/** `PowerSystem::advanceTo` by one 4 MHz core cycle at 0.5 mA on the
 *  bench supply: one forward-Euler sub-step. */
double
substepNs(double noise_sigma)
{
    sim::Simulator sim(1);
    energy::TheveninHarvester supply(3.0, 200.0);
    energy::PowerSystemConfig cfg;
    cfg.initialVolts = 2.6;
    cfg.bootOnStart = true;
    cfg.harvestNoiseSigma = noise_sigma;
    energy::PowerSystem power(sim, "power", cfg, &supply);
    power.addLoad("core", 0.5e-3);
    power.start();
    constexpr sim::Tick cycle = sim::oneSec / 4'000'000;
    constexpr unsigned calls = 200'000;
    const double ns = nsPerCall(calls, [&] {
        for (unsigned i = 0; i < calls; ++i)
            power.advanceTo(power.lastUpdateTick() + cycle);
    });
    sink = power.voltageNoAdvance();
    return ns;
}

/** `advanceTo` by 100 us on RF power with the core off (no load):
 *  the charging leg of every EDB episode. */
double
charge100usNs()
{
    sim::Simulator sim(1);
    energy::RfHarvester rf(30.0, 1.0);
    energy::PowerSystem power(sim, "power", {}, &rf);
    constexpr unsigned calls = 10'000;
    const double ns = nsPerCall(calls, [&] {
        for (unsigned i = 0; i < calls; ++i)
            power.advanceTo(power.lastUpdateTick() + 100 * sim::oneUs);
    });
    sink = power.voltageNoAdvance();
    return ns;
}

double
gaussianNs()
{
    sim::Rng rng(1);
    constexpr unsigned calls = 500'000;
    double acc = 0.0;
    const double ns = nsPerCall(calls, [&] {
        for (unsigned i = 0; i < calls; ++i)
            acc += rng.gaussian(0.05);
    });
    sink = acc;
    return ns;
}

/** `MemoryMap::read32`/`write32`, alternating SRAM and FRAM words of
 *  an assembled (not running) WISP. */
double
memAccessNs()
{
    sim::Simulator sim(1);
    energy::NullHarvester none;
    target::Wisp wisp(sim, "wisp", &none, nullptr);
    wisp.flash(apps::buildLinkedListApp());
    const mem::MemoryMap &map = wisp.memoryMap();
    constexpr unsigned iters = 100'000;
    std::uint32_t acc = 0;
    const double ns = nsPerCall(4 * iters, [&] {
        for (unsigned i = 0; i < iters; ++i) {
            const mem::Addr off = (i & 63) * 4;
            std::uint32_t v = 0;
            map.write32(0x1000 + off, i);
            map.read32(0x1000 + off, v);
            acc += v;
            map.write32(0x6000 + off, i);
            map.read32(0x6000 + off, v);
            acc += v;
        }
    });
    sink = acc;
    return ns;
}

/** `EventQueue::schedule` + `runOne`, 64 events in flight. */
double
eventNs()
{
    sim::EventQueue queue;
    sim::Tick now = 0;
    std::uint64_t fired = 0;
    constexpr unsigned rounds = 4'000;
    const double ns = nsPerCall(rounds * 64, [&] {
        for (unsigned r = 0; r < rounds; ++r) {
            for (int i = 0; i < 64; ++i)
                queue.schedule(now + 1 + i, [&fired] { ++fired; });
            while (queue.runOne(now)) {
            }
        }
    });
    sink = static_cast<double>(fired);
    return ns;
}

/** `Wisp::saveState` of a running device plus `restoreState` of the
 *  image into a twin (the fleet's migration and the oracles'
 *  snapshot legs). */
double
snapshotUs(bool &ok)
{
    sim::Simulator simA(1);
    energy::TheveninHarvester supply(3.0, 200.0);
    target::Wisp a(simA, "wisp", &supply, nullptr);
    const isa::Program app = apps::buildLinkedListApp();
    a.flash(app);
    a.start();
    simA.runFor(20 * sim::oneMs);
    sim::Simulator simB(1);
    target::Wisp b(simB, "wisp", &supply, nullptr);
    b.flash(app);
    constexpr unsigned calls = 200;
    const double ns = nsPerCall(calls, [&] {
        for (unsigned i = 0; i < calls; ++i) {
            sim::SnapshotWriter w;
            a.saveState(w);
            sim::SnapshotReader r;
            ok &= r.load(w.finish());
            sim::EventRearmer rearmer(simB);
            b.restoreState(r, rearmer);
            ok &= r.ok();
            rearmer.flush();
        }
    });
    return ns / 1e3;
}

/** `JsonValue::parse` of one client request. */
double
jsonParseNs()
{
    const std::string request =
        "{\"id\":7,\"m\":\"read\",\"addr\":\"0x6000\",\"len\":16}";
    constexpr unsigned calls = 50'000;
    std::size_t acc = 0;
    const double ns = nsPerCall(calls, [&] {
        for (unsigned i = 0; i < calls; ++i)
            acc += edbdbg::JsonValue::parse(request).has_value();
    });
    sink = static_cast<double>(acc);
    return ns;
}

/** `isa::assemble` of the activity app built with libEDB printf, the
 *  program `edb-episode` flashes: the assembly every set-up pays. */
double
assembleUs(isa::Program &program)
{
    apps::ActivityOptions app;
    app.output = apps::ActivityOutput::EdbPrintf;
    const std::string source = apps::activitySource(app);
    constexpr unsigned calls = 20;
    const double ns = nsPerCall(calls, [&] {
        for (unsigned i = 0; i < calls; ++i)
            program = isa::assemble(source);
    });
    return ns / 1e3;
}

/** `analysis::analyze` of `program` against the cost table of a
 *  default WISP: the work behind the debug server's `analyze` RPC. */
double
analyzeUs(const isa::Program &program, bool &ok)
{
    sim::Simulator sim(1);
    energy::NullHarvester none;
    target::Wisp wisp(sim, "wisp", &none, nullptr);
    const analysis::CostModel model = analysis::CostModel::fromWisp(wisp);
    constexpr unsigned calls = 20;
    std::uint64_t analyzed = 0;
    const double ns = nsPerCall(calls, [&] {
        for (unsigned i = 0; i < calls; ++i)
            analyzed += analysis::analyze(program, model)
                            .analyzedInstructions;
    });
    ok &= analyzed > 0;
    return ns / 1e3;
}

} // namespace

bool
runProbes(Metrics &out)
{
    bool snapshotOk = true;
    out.set("energy.substep_ns", substepNs(0.05), "ns");
    out.set("energy.substep_quiet_ns", substepNs(0.0), "ns");
    out.set("sim.gaussian_ns", gaussianNs(), "ns");
    out.set("mem.access_ns", memAccessNs(), "ns");
    out.set("energy.charge_100us_ns", charge100usNs(), "ns");
    out.set("sim.event_ns", eventNs(), "ns");
    out.set("sim.snapshot_us", snapshotUs(snapshotOk), "us");
    out.set("server.json_parse_ns", jsonParseNs(), "ns");
    isa::Program app;
    out.set("isa.assemble_us", assembleUs(app), "us");
    bool analyzeOk = true;
    out.set("analysis.analyze_us", analyzeUs(app, analyzeOk), "us");
    if (!snapshotOk)
        std::fprintf(stderr, "probe: snapshot round trip failed\n");
    if (!analyzeOk)
        std::fprintf(stderr, "probe: the analyzer analysed nothing\n");
    return snapshotOk && analyzeOk;
}

} // namespace perfbench
