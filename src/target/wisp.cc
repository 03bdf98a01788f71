#include "target/wisp.hh"

#include "rfid/channel.hh"
#include "sim/fault.hh"
#include "sim/snapshot.hh"

namespace edb::target {

namespace {

/** Fold the NV technology table into the MCU config before members
 *  initialize: a nonzero per-tech write latency overrides the
 *  McuConfig default so checkpoint costing and store costing agree
 *  with the technology the FRAM region models. */
WispConfig
withNvTech(WispConfig config)
{
    if (config.nvTech.writeExtraCycles != 0)
        config.mcu.framWriteExtraCycles =
            config.nvTech.writeExtraCycles;
    return config;
}

} // namespace

Wisp::Wisp(sim::Simulator &simulator, std::string component_name,
           const energy::Harvester *harvester,
           rfid::RfChannel *channel, WispConfig config)
    : sim::Component(simulator, std::move(component_name)),
      cfg(withNvTech(std::move(config))),
      cursor(simulator),
      power_(simulator, name() + ".power", cfg.power, harvester),
      sram(name() + ".sram", layout::sramBase, layout::sramSize,
           mem::RegionKind::Sram),
      fram(name() + ".fram", layout::framBase, layout::framSize,
           mem::RegionKind::Fram, cfg.nvTech),
      mmio(name() + ".mmio", layout::mmioBase, layout::mmioSize),
      gpio_(simulator, name() + ".gpio", cursor),
      uart_(simulator, name() + ".uart0", cursor, power_,
            consoleUartTxAmps),
      i2c_(simulator, name() + ".i2c", cursor, power_),
      adc_(simulator, name() + ".adc", cursor, power_),
      led_(simulator, name() + ".led", power_, ledAmps),
      debugPort_(simulator, name() + ".dbg", cursor, power_,
                 cfg.debug),
      accel_(simulator, name() + ".accel"),
      core(simulator, name() + ".mcu", cursor, map, power_, cfg.mcu)
{
    // Address space: NULL page unmapped (wild NULL-derived accesses
    // fault, paper Fig 3), SRAM, FRAM, peripheral page.
    map.addRegion(&sram);
    map.addRegion(&fram);
    map.addRegion(&mmio);

    // Peripheral registers.
    namespace m = mcu::mmio;
    gpio_.installMmio(mmio);
    uart_.installMmio(mmio, m::uart0Tx, m::uart0Status, m::uart0Rx);
    i2c_.installMmio(mmio);
    adc_.installMmio(mmio);
    led_.installMmio(mmio);
    debugPort_.installMmio(mmio);
    core.installMmio(mmio);

    // ADC channel 0 senses the storage capacitor (self-measurement,
    // the energy-costly path the paper contrasts with EDB).
    adc_.addChannel(0, [this] { return power_.voltage(); });

    // Sensor bus.
    i2c_.attach(&accel_);

    // NV backend: every modelled FRAM write draws its programming
    // charge straight from the storage capacitor (only while the rail
    // is up; a dead rail can't program cells). The core gets the
    // region handle for the checkpoint unit's commit-burst latch.
    fram.setEnergySink([this](double coulombs) {
        if (power_.poweredOn())
            power_.drawCharge(coulombs);
    });
    core.setNvRegion(&fram);

    // Optional RFID air interface.
    if (channel) {
        rf_ = std::make_unique<rfid::RfFrontend>(
            simulator, name() + ".rf", cursor, power_, *channel);
        rf_->installMmio(mmio);
        channel->attachTag(rf_.get());
    }

    // A brown-out destroys volatile state: SRAM decays and every
    // peripheral resets (outputs low, FIFOs cleared).
    core.setResetHook([this] {
        sram.powerLoss();
        gpio_.powerLost();
        uart_.powerLost();
        i2c_.powerLost();
        adc_.powerLost();
        led_.powerLost();
        debugPort_.powerLost();
        if (rf_)
            rf_->powerLost();
    });
}

void
Wisp::flash(const isa::Program &program)
{
    core.loadProgram(program);
}

void
Wisp::start()
{
    power_.start();
}

mem::NvAuditConfig
Wisp::auditConfig() const
{
    mem::NvAuditConfig audit;
    audit.nvBase = fram.base();
    audit.nvSize = fram.size();
    audit.checkpointBase = mcu::Mcu::checkpointBase;
    audit.checkpointSpan = 2 * mcu::Mcu::checkpointSlotSize;
    return audit;
}

void
Wisp::attachAuditor(mem::NvAuditor *auditor)
{
    core.setAuditor(auditor);
    if (auditor)
        map.setWriteHook(&mem::NvAuditor::rawWriteHook, auditor);
    else
        map.clearWriteHook();
}

void
Wisp::attachFaults(sim::FaultInjector *faults)
{
    faults->setBrownOutHandler(
        [this](double volts) { power_.capacitor().setVoltage(volts); });
    core.setFaultInjector(faults);
}

void
Wisp::saveState(sim::SnapshotWriter &w) const
{
    sim::StateIo io(w, &sim());
    const_cast<Wisp &>(*this).state(io); // saving only reads
}

void
Wisp::restoreState(sim::SnapshotReader &r, sim::EventRearmer &rearmer)
{
    sim::StateIo io(r, &rearmer);
    state(io);
}

void
Wisp::state(sim::StateIo &io)
{
    io.section("wisp");
    sim::Tick now = sim().now();
    sim::Tick local = cursor.localTime();
    io.u64(now);
    io.u64(local);
    if (io.restoring()) {
        sim().restoreClock(now);
        cursor.restoreLocal(local);
    }
    io.rng(sim().rng());
    power_.state(io);
    sram.state(io);
    fram.state(io);
    gpio_.state(io);
    uart_.state(io);
    i2c_.state(io);
    adc_.state(io);
    led_.state(io);
    debugPort_.state(io);
    accel_.state(io);
    // The RF front end must be present on both sides or on neither.
    bool hasRf = rf_ != nullptr;
    io.boolean(hasRf);
    if (!io.check(hasRf == (rf_ != nullptr)))
        return;
    if (rf_)
        rf_->state(io);
    core.state(io);
}

} // namespace edb::target
