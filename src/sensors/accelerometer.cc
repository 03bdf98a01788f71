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
Accelerometer::saveState(sim::SnapshotWriter &w) const
{
    w.section("accel");
    w.boolean(isMoving);
    w.tick(stateUntil);
    w.u32(static_cast<std::uint16_t>(x));
    w.u32(static_cast<std::uint16_t>(y));
    w.u32(static_cast<std::uint16_t>(z));
    w.u8(ctrlReg);
    w.u64(samples);
    w.u64(movingLatched);
}

void
Accelerometer::restoreState(sim::SnapshotReader &r)
{
    r.section("accel");
    isMoving = r.boolean();
    stateUntil = r.tick();
    x = static_cast<std::int16_t>(static_cast<std::uint16_t>(r.u32()));
    y = static_cast<std::int16_t>(static_cast<std::uint16_t>(r.u32()));
    z = static_cast<std::int16_t>(static_cast<std::uint16_t>(r.u32()));
    ctrlReg = r.u8();
    samples = r.u64();
    movingLatched = r.u64();
}

} // namespace edb::sensors
