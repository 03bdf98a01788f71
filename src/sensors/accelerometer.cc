#include "sensors/accelerometer.hh"

#include <algorithm>

#include "sim/snapshot.hh"

namespace edb::sensors {

Accelerometer::Accelerometer(sim::Simulator &simulator,
                             std::string component_name,
                             AccelConfig config)
    : sim::Component(simulator, std::move(component_name)), cfg(config)
{}

void
Accelerometer::maybeAdvanceState()
{
    sim::Tick t = now();
    while (t >= stateUntil) {
        isMoving = !isMoving;
        // Exponentially distributed dwell times around the mean.
        double u = std::max(1e-9, sim().rng().uniform());
        auto dwell = static_cast<sim::Tick>(
            -static_cast<double>(cfg.meanDwell) * std::log(u));
        stateUntil += std::max<sim::Tick>(dwell, sim::oneMs);
    }
}

bool
Accelerometer::moving()
{
    maybeAdvanceState();
    return isMoving;
}

void
Accelerometer::latchSample()
{
    maybeAdvanceState();
    auto &rng = sim().rng();
    double sigma = isMoving ? cfg.movingSigma : cfg.stillSigma;
    auto clamp16 = [](double v) {
        return static_cast<std::int16_t>(
            std::clamp(v, -32768.0, 32767.0));
    };
    x = clamp16(rng.gaussian(sigma));
    y = clamp16(rng.gaussian(sigma));
    z = clamp16(gravityCounts + rng.gaussian(sigma));
    ++samples;
    if (isMoving)
        ++movingLatched;
}

std::uint8_t
Accelerometer::readReg(std::uint8_t reg)
{
    using namespace accel_reg;
    switch (reg) {
      case whoAmI:
        return 0x2A;
      case xHi:
        latchSample(); // Reading X-high latches a fresh triple.
        return static_cast<std::uint8_t>(x >> 8);
      case xLo:
        return static_cast<std::uint8_t>(x & 0xFF);
      case yHi:
        return static_cast<std::uint8_t>(y >> 8);
      case yLo:
        return static_cast<std::uint8_t>(y & 0xFF);
      case zHi:
        return static_cast<std::uint8_t>(z >> 8);
      case zLo:
        return static_cast<std::uint8_t>(z & 0xFF);
      case ctrl:
        return ctrlReg;
      default:
        return 0xFF;
    }
}

void
Accelerometer::writeReg(std::uint8_t reg, std::uint8_t value)
{
    if (reg == accel_reg::ctrl)
        ctrlReg = value;
}

void
Accelerometer::state(sim::StateIo &io)
{
    io.section("accel");
    io.boolean(isMoving);
    io.u64(stateUntil);
    io.u32(x);
    io.u32(y);
    io.u32(z);
    io.u8(ctrlReg);
    io.u64(samples);
    io.u64(movingLatched);
}

} // namespace edb::sensors
