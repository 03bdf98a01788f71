#include "mcu/adc.hh"

#include <cmath>

#include "mcu/mmio_map.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

Adc::Adc(sim::Simulator &simulator, std::string component_name,
         sim::TimeCursor &time_cursor, energy::PowerSystem &power_sys)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      power(power_sys)
{
    convLoad = power.addLoad(name() + ".conv", conversionAmps, false);
}

void
Adc::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::adcCtrl, name() + ".ctrl", nullptr,
        [this](std::uint32_t v) { start(v); });
    mmio.addRegister(
        mmio::adcStatus, name() + ".status",
        [this] {
            std::uint32_t s = 0;
            if (busy)
                s |= 1u;
            if (done)
                s |= 2u;
            return s;
        },
        nullptr);
    mmio.addRegister(
        mmio::adcValue, name() + ".value",
        [this] { return value; }, nullptr);
}

void
Adc::addChannel(unsigned channel, ChannelFn source)
{
    channels[channel] = std::move(source);
}

std::uint32_t
Adc::quantize(double volts) const
{
    if (volts <= 0.0)
        return 0;
    double code = volts / vrefVolts *
                  static_cast<double>(fullScale());
    auto q = static_cast<std::uint32_t>(std::lround(code));
    return q > fullScale() ? fullScale() : q;
}

void
Adc::start(unsigned channel)
{
    if (busy)
        return;
    busy = true;
    done = false;
    curChannel = channel;
    power.setLoadEnabled(convLoad, true);
    convEvent = cursor.scheduleIn(conversionTime,
                                  [this] { finish(); });
}

void
Adc::finish()
{
    convEvent = sim::invalidEventId;
    if (!busy)
        return;
    busy = false;
    done = true;
    power.setLoadEnabled(convLoad, false);
    auto it = channels.find(curChannel);
    value = it != channels.end() ? quantize(it->second()) : 0;
}

void
Adc::powerLost()
{
    if (convEvent != sim::invalidEventId) {
        sim().cancel(convEvent);
        convEvent = sim::invalidEventId;
    }
    busy = false;
    done = false;
    power.setLoadEnabled(convLoad, false);
}

void
Adc::state(sim::StateIo &io)
{
    io.section("adc");
    io.u32(curChannel);
    io.u32(value);
    io.boolean(busy);
    io.boolean(done);
    io.event(convEvent, [this] { finish(); });
}

} // namespace edb::mcu
