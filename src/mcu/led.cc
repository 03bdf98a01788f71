#include "mcu/led.hh"

#include "mcu/mmio_map.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

Led::Led(sim::Simulator &simulator, std::string component_name,
         energy::PowerSystem &power_sys, double on_amps)
    : sim::Component(simulator, std::move(component_name)),
      power(power_sys)
{
    load = power.addLoad(name(), on_amps, false);
}

void
Led::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::led, name(),
        [this] { return on ? 1u : 0u; },
        [this](std::uint32_t v) { set(v & 1u); });
}

void
Led::set(bool level)
{
    if (level == on)
        return;
    on = level;
    if (on)
        ++blinks;
    power.setLoadEnabled(load, on);
}

void
Led::powerLost()
{
    set(false);
}

void
Led::state(sim::StateIo &io)
{
    io.section("led");
    io.boolean(on);
    io.u64(blinks);
}

} // namespace edb::mcu
