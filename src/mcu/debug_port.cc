#include "mcu/debug_port.hh"

#include "mcu/mmio_map.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

DebugPort::DebugPort(sim::Simulator &simulator,
                     std::string component_name,
                     sim::TimeCursor &time_cursor,
                     energy::PowerSystem &power_sys,
                     DebugPortConfig config)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      cfg(config),
      dbgUart(simulator, component_name + ".uart", time_cursor,
              power_sys, uartTxAmps)
{
    if (cfg.markerLines == 0 || cfg.markerLines > 16)
        sim::fatal("DebugPort: marker lines must be in 1..16");
}

std::uint32_t
DebugPort::maxMarkerId() const
{
    return (1u << cfg.markerLines) - 1;
}

void
DebugPort::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::marker, name() + ".marker", nullptr,
        [this](std::uint32_t v) { pulseMarker(v); });
    mmio.addRegister(
        mmio::dbgReq, name() + ".req",
        [this] { return req ? 1u : 0u; },
        [this](std::uint32_t v) { setReq(v & 1u); });
    mmio.addRegister(
        mmio::bkptMask, name() + ".bkptmask",
        [this] { return bkptMask; }, nullptr);
    dbgUart.installMmio(mmio, mmio::dbgUartTx, mmio::dbgUartStatus,
                        mmio::dbgUartRx);
}

void
DebugPort::addMarkerListener(MarkerListener listener)
{
    markerListeners.push_back(std::move(listener));
}

void
DebugPort::addReqListener(ReqListener listener)
{
    reqListeners.push_back(std::move(listener));
}

void
DebugPort::pulseMarker(std::uint32_t id)
{
    // Ids above the line capacity alias onto the available lines,
    // as they would electrically; id 0 emits no pulse.
    std::uint32_t encoded = id & maxMarkerId();
    if (encoded == 0)
        return;
    ++markers;
    sim::Tick when = cursor.now();
    for (const auto &listener : markerListeners)
        listener(encoded, when);
}

void
DebugPort::setReq(bool level)
{
    if (req == level)
        return;
    req = level;
    sim::Tick when = cursor.now();
    for (const auto &listener : reqListeners)
        listener(level, when);
}

void
DebugPort::powerLost()
{
    setReq(false);
    dbgUart.powerLost();
}

void
DebugPort::state(sim::StateIo &io)
{
    io.section("dbgport");
    io.boolean(req); // raw: restored observers re-attach fresh
    io.u32(bkptMask);
    io.u64(markers);
    dbgUart.state(io);
}

} // namespace edb::mcu
