/**
 * @file
 * LED indicator with its (prohibitive) current draw.
 *
 * "Powering an LED increases the WISP's current draw by five times,
 * from around 1 mA to over 5 mA" (paper Section 2.2). The model adds
 * a configurable load while lit so the LED-tracing baseline's energy
 * interference is measurable (bench `ablation_led_tracing`).
 */

#ifndef EDB_MCU_LED_HH
#define EDB_MCU_LED_HH

#include <cstdint>
#include <string>

#include "energy/power_system.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"

namespace edb::sim {
class StateIo;
} // namespace edb::sim

namespace edb::mcu {

/** A single LED on the target board. */
class Led : public sim::Component
{
  public:
    Led(sim::Simulator &simulator, std::string component_name,
        energy::PowerSystem &power, double on_amps = 4.0e-3);

    /** Install the LED register. */
    void installMmio(mem::MmioRegion &mmio);

    /** True while lit. */
    bool lit() const { return on; }

    /** Number of times the LED has been switched on. */
    std::uint64_t blinkCount() const { return blinks; }

    /** Reset on power loss. */
    void powerLost();

    /** Snapshot fields, both directions (see sim/snapshot.hh).
     *  Raw member restore; the LED's supply load is restored
     *  positionally by PowerSystem. */
    void state(sim::StateIo &io);

  private:
    void set(bool level);

    energy::PowerSystem &power;
    energy::PowerSystem::LoadHandle load;
    bool on = false;
    std::uint64_t blinks = 0;
};

} // namespace edb::mcu

#endif // EDB_MCU_LED_HH
