#include "fleet/world.hh"

#include "isa/isa.hh"
#include "sim/snapshot.hh"

namespace edb::fleet {

namespace {

/** Fleet worlds always boot on start when pre-charged: a tag given
 *  initial volts above turn-on must execute from tick zero. */
target::WispConfig
bootableWisp(target::WispConfig config)
{
    config.power.bootOnStart = true;
    return config;
}

} // namespace

World::World(const isa::Program &program, const WorldConfig &config)
    : cfg(config), sim(config.seed),
      harvester(txPowerDbm, config.distanceM),
      wisp_(std::make_unique<target::Wisp>(sim, "wisp", &harvester,
                                           nullptr,
                                           bootableWisp(config.wisp)))
{
    wisp_->flash(program);
    if (cfg.withAuditor) {
        aud = std::make_unique<mem::NvAuditor>(wisp_->auditConfig(),
                                               wisp_->framRegion());
        wisp_->attachAuditor(aud.get());
    }
    if (!cfg.schedule.empty()) {
        sim::FaultPlan plan;
        plan.brownOuts = cfg.schedule;
        faults = std::make_unique<sim::FaultInjector>(sim, "faults",
                                                      std::move(plan));
        wisp_->attachFaults(faults.get());
    }
    installHooks();
}

void
World::installHooks()
{
    if (cfg.warDoneWatch != 0) {
        // The completeness probe: an open WAR record exposed by a
        // power loss is exactly what the auditor must flag. The
        // tracer forces per-instruction stepping for this world
        // only; throughput worlds never install one.
        wisp_->mcu().setTracer(
            [this](mem::Addr pc, const isa::Instr &) {
                if (pc == cfg.warDoneWatch)
                    gadgetLive = true;
            });
    }
    wisp_->power().addPowerListener([this](bool on) {
        if (!on) {
            if (gadgetLive)
                ++lossAfterGadget;
            gadgetLive = false;
        }
    });
}

void
World::start()
{
    wisp_->start();
    if (faults)
        faults->armBrownOuts(0);
}

void
World::planEpoch(sim::Tick epoch_start, sim::Tick epoch_end,
                 double carrier_fraction)
{
    instrsAtEpochStart = instrCount();
    double frac = carrier_fraction;
    if (backoff) {
        frac *= 1.0 - collisionBackoff;
        backoff = false;
    }
    if (frac <= 0.0) {
        harvester.setCarrierOn(false);
        return;
    }
    harvester.setCarrierOn(true);
    if (frac < 1.0) {
        sim::Tick span = epoch_end - epoch_start;
        sim::Tick off =
            epoch_start +
            static_cast<sim::Tick>(static_cast<double>(span) * frac);
        if (off < epoch_end)
            sim.schedule(off,
                         [this] { harvester.setCarrierOn(false); });
    }
}

void
World::advanceTo(sim::Tick epoch_end)
{
    sim.runUntil(epoch_end);
}

bool
World::attemptedUplink() const
{
    return instrCount() > instrsAtEpochStart;
}

std::uint64_t
World::instrCount() const
{
    return wisp_->mcu().instrCount();
}

std::uint64_t
World::instrsThisEpoch() const
{
    return instrCount() - instrsAtEpochStart;
}

void
World::noteOutcome(rfid::SlotOutcome outcome)
{
    ++attempts;
    if (outcome == rfid::SlotOutcome::Won) {
        ++replies;
    } else {
        ++collided;
        backoff = true;
    }
}

WorldDigest
World::digest() const
{
    // Architectural digest only: raw event-queue ids are excluded on
    // purpose, because a snapshot round-trip relabels them while
    // leaving the continuation bit-identical.
    sim::SnapshotWriter w;
    const mcu::Mcu &m = wisp_->mcu();
    w.u64(m.instrCount());
    w.u64(m.cycleCount());
    w.u64(m.rebootCount());
    w.u64(m.faultCount());
    w.u64(m.checkpointCount());
    w.u64(m.restoreCount());
    w.u64(wisp_->power().bootCount());
    w.u32(m.pc());
    w.u8(static_cast<std::uint8_t>(m.state()));
    w.u32(m.flags().pack());
    for (unsigned i = 0; i < isa::numRegs; ++i)
        w.u32(m.reg(i));
    w.f64(wisp_->power().voltageNoAdvance());
    w.tick(sim.now());
    w.rng(sim.rng());
    const mem::Ram &fram = wisp_->framRegion();
    w.u32(sim::crc32(fram.data(), fram.size()));
    const mem::Ram &sram = wisp_->sramRegion();
    w.u32(sim::crc32(sram.data(), sram.size()));
    w.u64(wisp_->framRegion().totalWear());
    if (aud) {
        w.u64(aud->violationCount());
        w.u64(aud->unsealedRestoreCount());
    }
    w.u64(replies);
    w.u64(collided);
    w.u64(attempts);
    w.u64(lossAfterGadget);
    std::vector<std::uint8_t> image = w.finish();
    WorldDigest d;
    d.crc = sim::crc32(image.data(), image.size());
    d.instrs = m.instrCount();
    d.reboots = m.rebootCount();
    return d;
}

} // namespace edb::fleet
