/**
 * @file
 * The simulated target device: a WISP 5 class energy-harvesting
 * platform (paper Section 5.1).
 *
 * `Wisp` assembles the MCU core, memories, power system, peripherals,
 * RF front end and accelerometer into one device with the WISP 5
 * electrical constants: a 47 uF storage capacitor, 2.4 V turn-on and
 * 1.8 V brown-out comparators, and an MSP430-like core drawing
 * ~0.5 mA at 4 MHz.
 *
 * Memory layout (`target::layout`): the NULL page is intentionally
 * unmapped so wild NULL-derived accesses fault (paper Fig 3's
 * corruption case study); volatile SRAM sits below the stack top,
 * and non-volatile FRAM holds code, application data and the
 * checkpoint slots.
 */

#ifndef EDB_TARGET_WISP_HH
#define EDB_TARGET_WISP_HH

#include <memory>
#include <string>

#include "energy/harvester.hh"
#include "energy/power_system.hh"
#include "isa/program.hh"
#include "mcu/adc.hh"
#include "mcu/debug_port.hh"
#include "mcu/gpio.hh"
#include "mcu/i2c.hh"
#include "mcu/led.hh"
#include "mcu/mcu.hh"
#include "mcu/mmio_map.hh"
#include "mcu/uart.hh"
#include "mem/memory.hh"
#include "mem/nv_audit.hh"
#include "mem/nv_region.hh"
#include "rfid/frontend.hh"
#include "sensors/accelerometer.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::rfid {
class RfChannel;
}

namespace edb::sim {
class EventRearmer;
class FaultInjector;
class SnapshotReader;
class SnapshotWriter;
class StateIo;
}

namespace edb::target {

/** Fixed address-space layout of the device. */
namespace layout {
/** Volatile SRAM (the NULL page below it is unmapped). */
constexpr mem::Addr sramBase = 0x0400;
constexpr mem::Addr sramSize = 0x3C00;
/** Initial stack pointer: the top of SRAM. */
constexpr mem::Addr stackTop = sramBase + sramSize;
static_assert(stackTop == mcu::Mcu::stackTop);
/** Non-volatile FRAM: code, data, checkpoint slots. */
constexpr mem::Addr framBase = 0x4000;
constexpr mem::Addr framSize = 0xB000;
/** Peripheral page. */
constexpr mem::Addr mmioBase = mcu::mmio::base;
constexpr mem::Addr mmioSize = mcu::mmio::size;
} // namespace layout

/** Aggregate configuration of the device (WISP 5 defaults). */
struct WispConfig
{
    energy::PowerSystemConfig power = {};
    mcu::McuConfig mcu = {};
    mcu::DebugPortConfig debug = {};
    /**
     * NV technology of the FRAM region (mem/nv_region.hh). The
     * default is passive — bit-identical to the seed's plain Ram. An
     * active table (framTech()/flashTech()/sttMramTech()) turns on
     * per-write energy drain, wear tracking and, via
     * `writeExtraCycles`, the store latency the MCU charges
     * (overrides `mcu.framWriteExtraCycles` when nonzero).
     */
    mem::NvTechConfig nvTech = {};
};

/** The assembled target device. */
class Wisp : public sim::Component
{
  public:
    /**
     * Extra supply current while the console UART (the
     * energy-expensive printf path) is shifting. It includes driving
     * the input stage of a non-isolated off-the-shelf USB-to-serial
     * adapter, which the paper (Section 2.2) notes "permit[s] energy
     * to flow into or out of the device".
     */
    static constexpr double consoleUartTxAmps = 2.2e-3;
    /** LED current while lit (paper Section 2.2: ~5x the MCU). */
    static constexpr double ledAmps = 4.0e-3;

    /**
     * @param harvester Ambient energy source (non-owning).
     * @param channel Optional RFID air interface; when present the
     *        tag front end is instantiated and attached.
     */
    Wisp(sim::Simulator &simulator, std::string component_name,
         const energy::Harvester *harvester,
         rfid::RfChannel *channel = nullptr, WispConfig config = {});

    /** Flash a program image (invalidates stale checkpoints). */
    void flash(const isa::Program &program);

    /** Begin the power system's self-ticking; call once. */
    void start();

    /// @name Subsystem access
    /// @{
    mcu::Mcu &mcu() { return core; }
    const mcu::Mcu &mcu() const { return core; }
    energy::PowerSystem &power() { return power_; }
    const energy::PowerSystem &power() const { return power_; }
    mem::MemoryMap &memoryMap() { return map; }
    mem::Ram &sramRegion() { return sram; }
    const mem::Ram &sramRegion() const { return sram; }
    mem::NvRegion &framRegion() { return fram; }
    const mem::NvRegion &framRegion() const { return fram; }
    mcu::Gpio &gpio() { return gpio_; }
    mcu::Uart &uart() { return uart_; }
    mcu::I2cController &i2c() { return i2c_; }
    mcu::Adc &adc() { return adc_; }
    mcu::Led &led() { return led_; }
    mcu::DebugPort &debugPort() { return debugPort_; }
    sensors::Accelerometer &accelerometer() { return accel_; }
    /** RF front end; nullptr when built without an air interface. */
    rfid::RfFrontend *rf() { return rf_.get(); }
    /// @}

    /** Core lifecycle state. */
    mcu::McuState state() const { return core.state(); }

    /** Storage-capacitor voltage (advances the analog model). */
    double voltage() { return power_.voltage(); }

    const WispConfig &config() const { return cfg; }

    /// @name NV consistency auditor (mem/nv_audit.hh)
    /// @{
    /** What an auditor of this device watches: all of FRAM minus
     *  the two checkpoint slots. */
    mem::NvAuditConfig auditConfig() const;
    /** Wire `auditor` into the core and the memory map's write hook
     *  (nullptr detaches both). The auditor is caller-owned. */
    void attachAuditor(mem::NvAuditor *auditor);
    /// @}

    /** Route `faults`' forced brown-outs (its plan's schedule and its
     *  NV tears) to this device's storage capacitor, and hand the
     *  core the injector for its commit-word and torn-word calls.
     *  The injector (non-null) is caller-owned and arms its schedule
     *  itself (`FaultInjector::armBrownOuts`). */
    void attachFaults(sim::FaultInjector *faults);

    /// @name Snapshot support (see sim/snapshot.hh)
    /// Captures the event clock, the shared RNG and every subsystem.
    /// Restore protocol: construct a fresh Simulator (same seed) and
    /// Wisp (same config), `flash` the same program, do NOT `start`,
    /// then `restoreState` + `rearmer.flush()`; the restored run is
    /// bit-identical to the original continuing past the snapshot.
    /// Works in-place too (rewind), since every component cancels its
    /// own pending events before rearming.
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r,
                      sim::EventRearmer &rearmer);
    /// @}

  private:
    /** Snapshot fields, both directions; the pair above wraps it. */
    void state(sim::StateIo &io);

    WispConfig cfg;
    sim::TimeCursor cursor;
    energy::PowerSystem power_;
    mem::Ram sram;
    mem::NvRegion fram;
    mem::MmioRegion mmio;
    mem::MemoryMap map;
    mcu::Gpio gpio_;
    mcu::Uart uart_;
    mcu::I2cController i2c_;
    mcu::Adc adc_;
    mcu::Led led_;
    mcu::DebugPort debugPort_;
    sensors::Accelerometer accel_;
    std::unique_ptr<rfid::RfFrontend> rf_;
    mcu::Mcu core;
};

} // namespace edb::target

#endif // EDB_TARGET_WISP_HH
