#include "baseline/jtag.hh"

namespace edb::baseline {

JtagDebugger::JtagDebugger(sim::Simulator &simulator,
                           std::string component_name,
                           target::Wisp &target_device,
                           bool supplies_power, double rail_volts,
                           double rail_ohms)
    : sim::Component(simulator, std::move(component_name)),
      wisp(target_device),
      rail(rail_volts, rail_ohms),
      suppliesPower(supplies_power)
{
    wisp.power().addSource(
        name() + ".rail",
        [this](double v, double) { return rail.currentInto(v); });
}

void
JtagDebugger::attach()
{
    isAttached = true;
    if (suppliesPower)
        rail.setEnabled(true);
}

void
JtagDebugger::detach()
{
    isAttached = false;
    rail.setEnabled(false);
}

bool
JtagDebugger::targetResponsive() const
{
    return isAttached && wisp.power().poweredOn();
}

std::optional<std::uint32_t>
JtagDebugger::read32(std::uint32_t addr)
{
    if (!targetResponsive())
        return std::nullopt;
    return wisp.mcu().debugRead32(addr);
}

bool
JtagDebugger::write32(std::uint32_t addr, std::uint32_t value)
{
    if (!targetResponsive())
        return false;
    wisp.mcu().debugWrite32(addr, value);
    return true;
}

} // namespace edb::baseline
