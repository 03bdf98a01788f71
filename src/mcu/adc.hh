/**
 * @file
 * On-chip ADC of the target MCU.
 *
 * The paper notes (Section 4.1) that "while it is possible for energy
 * harvesting devices to measure their stored energy levels, doing so
 * uses energy, perturbing the energy state being measured". This
 * model makes that cost concrete: a conversion takes real time and
 * draws extra supply current, so self-measurement is visible in the
 * intermittent behaviour.
 */

#ifndef EDB_MCU_ADC_HH
#define EDB_MCU_ADC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "energy/power_system.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::sim {
class StateIo;
} // namespace edb::sim

namespace edb::mcu {

/** Successive-approximation ADC with registered analog channels. */
class Adc : public sim::Component
{
  public:
    /** Analog channel source: returns volts at sample time. */
    using ChannelFn = std::function<double()>;

    /** Resolution. */
    static constexpr unsigned bits = 12;
    /** Full-scale reference (runtime::adcCodeForVolts's default). */
    static constexpr double vrefVolts = 3.0;
    /** Conversion time (sample + hold + convert). */
    static constexpr sim::Tick conversionTime = 20 * sim::oneUs;
    /** Extra supply current during a conversion. */
    static constexpr double conversionAmps = 0.25e-3;

    Adc(sim::Simulator &simulator, std::string component_name,
        sim::TimeCursor &cursor, energy::PowerSystem &power);

    /** Install CTRL/STATUS/VALUE registers. */
    void installMmio(mem::MmioRegion &mmio);

    /** Register an analog input channel. */
    void addChannel(unsigned channel, ChannelFn source);

    /** Quantize a voltage the way this ADC would. */
    std::uint32_t quantize(double volts) const;

    /** Full-scale code. */
    static constexpr std::uint32_t fullScale() { return (1u << bits) - 1; }

    /** Abort any conversion (reboot). */
    void powerLost();

    /** Snapshot fields, both directions (see sim/snapshot.hh). */
    void state(sim::StateIo &io);

  private:
    void start(unsigned channel);
    void finish();

    sim::TimeCursor &cursor;
    energy::PowerSystem &power;
    energy::PowerSystem::LoadHandle convLoad;
    std::map<unsigned, ChannelFn> channels;
    unsigned curChannel = 0;
    std::uint32_t value = 0;
    bool busy = false;
    bool done = false;
    sim::EventId convEvent = sim::invalidEventId;
};

} // namespace edb::mcu

#endif // EDB_MCU_ADC_HH
