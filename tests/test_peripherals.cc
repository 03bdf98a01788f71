/**
 * @file
 * Unit tests for the target's peripherals: GPIO, UART, I2C, ADC,
 * LED, debug port, accelerometer.
 */

#include <gtest/gtest.h>

#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "mcu/mmio_map.hh"
#include "sensors/accelerometer.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;
namespace m = edb::mcu::mmio;

namespace {

struct PeriphRig
{
    sim::Simulator sim{29};
    energy::TheveninHarvester supply{3.0, 50.0};
    target::Wisp wisp;

    PeriphRig() : wisp(sim, "wisp", &supply, nullptr) {}

    /** Direct MMIO access (as the core would). */
    void
    poke(std::uint32_t addr, std::uint32_t value)
    {
        wisp.memoryMap().write32(addr, value);
    }

    std::uint32_t
    peek(std::uint32_t addr)
    {
        std::uint32_t v = 0;
        wisp.memoryMap().read32(addr, v);
        return v;
    }
};

TEST(Gpio, OutputAndToggle)
{
    PeriphRig rig;
    rig.poke(m::gpioOut, 0b101);
    EXPECT_EQ(rig.wisp.gpio().output(), 0b101u);
    EXPECT_TRUE(rig.wisp.gpio().pin(0));
    EXPECT_FALSE(rig.wisp.gpio().pin(1));
    rig.poke(m::gpioToggle, 0b011);
    EXPECT_EQ(rig.wisp.gpio().output(), 0b110u);
    EXPECT_EQ(rig.peek(m::gpioOut), 0b110u);
}

TEST(Gpio, ListenersSeeEachChangedPin)
{
    PeriphRig rig;
    std::vector<std::pair<unsigned, bool>> events;
    rig.wisp.gpio().addListener(
        [&events](unsigned pin, bool level, sim::Tick) {
            events.emplace_back(pin, level);
        });
    rig.poke(m::gpioOut, 0b11);
    rig.poke(m::gpioOut, 0b01);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0], (std::pair<unsigned, bool>{0, true}));
    EXPECT_EQ(events[1], (std::pair<unsigned, bool>{1, true}));
    EXPECT_EQ(events[2], (std::pair<unsigned, bool>{1, false}));
}

TEST(Gpio, InputsReadable)
{
    PeriphRig rig;
    rig.wisp.gpio().setInput(3, true);
    EXPECT_EQ(rig.peek(m::gpioIn), 8u);
    rig.wisp.gpio().setInput(3, false);
    EXPECT_EQ(rig.peek(m::gpioIn), 0u);
}

TEST(Gpio, PowerLossDropsOutputs)
{
    PeriphRig rig;
    rig.poke(m::gpioOut, 0xFF);
    rig.wisp.gpio().powerLost();
    EXPECT_EQ(rig.wisp.gpio().output(), 0u);
}

TEST(Uart, TransmitTimingAndBusyFlag)
{
    PeriphRig rig;
    std::vector<std::uint8_t> wire;
    sim::Tick done_at = 0;
    rig.wisp.uart().addTxListener(
        [&](std::uint8_t byte, sim::Tick when) {
            wire.push_back(byte);
            done_at = when;
        });
    rig.poke(m::uart0Tx, 'X');
    EXPECT_TRUE(rig.wisp.uart().txBusy());
    EXPECT_EQ(rig.peek(m::uart0Status) & 1u, 1u);
    rig.sim.runFor(rig.wisp.uart().byteTime() + sim::oneUs);
    EXPECT_FALSE(rig.wisp.uart().txBusy());
    ASSERT_EQ(wire.size(), 1u);
    EXPECT_EQ(wire[0], 'X');
    // 10 bits at 115200 baud ~ 86.8 us.
    EXPECT_NEAR(sim::microsFromTicks(done_at), 86.8, 1.0);
}

TEST(Uart, WriteWhileBusyIsDropped)
{
    PeriphRig rig;
    rig.poke(m::uart0Tx, 'A');
    rig.poke(m::uart0Tx, 'B');
    rig.sim.runFor(sim::oneMs);
    EXPECT_EQ(rig.wisp.uart().transmittedBytes(), 1u);
    EXPECT_EQ(rig.wisp.uart().droppedBytes(), 1u);
}

TEST(Uart, TxDrawsExtraCurrentOnlyWhileShifting)
{
    PeriphRig rig;
    double idle = rig.wisp.power().totalLoadAmps();
    rig.poke(m::uart0Tx, 'Q');
    double busy = rig.wisp.power().totalLoadAmps();
    EXPECT_GT(busy, idle);
    rig.sim.runFor(sim::oneMs);
    EXPECT_DOUBLE_EQ(rig.wisp.power().totalLoadAmps(), idle);
}

TEST(Uart, RxFifoAndOverflow)
{
    PeriphRig rig;
    for (int i = 0; i < 20; ++i)
        rig.wisp.uart().receiveByte(
            static_cast<std::uint8_t>('a' + i));
    // Depth 16: the oldest bytes were dropped.
    EXPECT_EQ(rig.wisp.uart().rxAvailable(), 16u);
    EXPECT_EQ(rig.peek(m::uart0Status) & 2u, 2u);
    EXPECT_EQ(rig.peek(m::uart0Rx), static_cast<std::uint32_t>('e'));
    EXPECT_EQ(rig.wisp.uart().rxAvailable(), 15u);
}

TEST(Uart, PowerLossAbortsShift)
{
    PeriphRig rig;
    int delivered = 0;
    rig.wisp.uart().addTxListener(
        [&delivered](std::uint8_t, sim::Tick) { ++delivered; });
    rig.poke(m::uart0Tx, 'Z');
    rig.wisp.uart().powerLost();
    rig.sim.runFor(sim::oneMs);
    EXPECT_EQ(delivered, 0);
    EXPECT_FALSE(rig.wisp.uart().txBusy());
}

TEST(I2c, ReadTransactionReachesDevice)
{
    PeriphRig rig;
    rig.poke(m::i2cAddr, rig.wisp.accelerometer().address());
    rig.poke(m::i2cReg, sensors::accel_reg::whoAmI);
    rig.poke(m::i2cCtrl, 1);
    EXPECT_EQ(rig.peek(m::i2cStatus) & 1u, 1u); // busy
    rig.sim.runFor(rig.wisp.i2c().transactionTime() + sim::oneUs);
    EXPECT_EQ(rig.peek(m::i2cStatus) & 2u, 2u); // done
    EXPECT_EQ(rig.peek(m::i2cData), 0x2Au);
}

TEST(I2c, WriteTransactionReachesDevice)
{
    PeriphRig rig;
    rig.poke(m::i2cAddr, rig.wisp.accelerometer().address());
    rig.poke(m::i2cReg, sensors::accel_reg::ctrl);
    rig.poke(m::i2cData, 0x5A);
    rig.poke(m::i2cCtrl, 2);
    rig.sim.runFor(sim::oneMs);
    EXPECT_EQ(rig.wisp.accelerometer().readReg(
                  sensors::accel_reg::ctrl),
              0x5A);
}

TEST(I2c, MissingDeviceReadsFF)
{
    PeriphRig rig;
    rig.poke(m::i2cAddr, 0x55); // nobody home
    rig.poke(m::i2cReg, 0);
    rig.poke(m::i2cCtrl, 1);
    rig.sim.runFor(sim::oneMs);
    EXPECT_EQ(rig.peek(m::i2cData), 0xFFu);
}

TEST(I2c, SnifferSeesTransactions)
{
    PeriphRig rig;
    int sniffs = 0;
    std::uint8_t seen_addr = 0;
    bool seen_read = false;
    rig.wisp.i2c().addSniffer([&](std::uint8_t addr, std::uint8_t,
                                  std::uint8_t, bool is_read,
                                  sim::Tick) {
        ++sniffs;
        seen_addr = addr;
        seen_read = is_read;
    });
    rig.poke(m::i2cAddr, 0x1D);
    rig.poke(m::i2cReg, 0);
    rig.poke(m::i2cCtrl, 1);
    rig.sim.runFor(sim::oneMs);
    EXPECT_EQ(sniffs, 1);
    EXPECT_EQ(seen_addr, 0x1D);
    EXPECT_TRUE(seen_read);
}

TEST(Adc, ConversionTimingAndValue)
{
    PeriphRig rig;
    rig.sim.runFor(100 * sim::oneMs); // let Vcap charge to ~3.0 V
    rig.poke(m::adcCtrl, 0);          // channel 0 = Vcap
    EXPECT_EQ(rig.peek(m::adcStatus) & 1u, 1u);
    rig.sim.runFor(mcu::Adc::conversionTime + sim::oneUs);
    EXPECT_EQ(rig.peek(m::adcStatus) & 2u, 2u);
    double vcap = rig.wisp.power().voltage();
    double measured = rig.peek(m::adcValue) * 3.0 / 4095.0;
    EXPECT_NEAR(measured, vcap, 0.01);
}

TEST(Adc, UnknownChannelReadsZero)
{
    PeriphRig rig;
    rig.poke(m::adcCtrl, 9);
    rig.sim.runFor(sim::oneMs);
    EXPECT_EQ(rig.peek(m::adcValue), 0u);
}

TEST(Adc, QuantizeClampsToFullScale)
{
    PeriphRig rig;
    EXPECT_EQ(rig.wisp.adc().quantize(-1.0), 0u);
    EXPECT_EQ(rig.wisp.adc().quantize(99.0),
              rig.wisp.adc().fullScale());
}

TEST(Led, LoadFollowsState)
{
    PeriphRig rig;
    double idle = rig.wisp.power().totalLoadAmps();
    rig.poke(m::led, 1);
    EXPECT_TRUE(rig.wisp.led().lit());
    EXPECT_NEAR(rig.wisp.power().totalLoadAmps() - idle,
                target::Wisp::ledAmps, 1e-12);
    rig.poke(m::led, 0);
    EXPECT_DOUBLE_EQ(rig.wisp.power().totalLoadAmps(), idle);
    EXPECT_EQ(rig.wisp.led().blinkCount(), 1u);
}

TEST(DebugPort, MarkerPulsesWithIds)
{
    PeriphRig rig;
    std::vector<std::uint32_t> ids;
    rig.wisp.debugPort().addMarkerListener(
        [&ids](std::uint32_t id, sim::Tick) { ids.push_back(id); });
    rig.poke(m::marker, 5);
    rig.poke(m::marker, 0);  // id 0: no pulse
    rig.poke(m::marker, 15);
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{5, 15}));
    EXPECT_EQ(rig.wisp.debugPort().markerCount(), 2u);
}

TEST(DebugPort, ReqLineEdgesNotified)
{
    PeriphRig rig;
    std::vector<bool> edges;
    rig.wisp.debugPort().addReqListener(
        [&edges](bool level, sim::Tick) { edges.push_back(level); });
    rig.poke(m::dbgReq, 1);
    rig.poke(m::dbgReq, 1); // no change, no edge
    rig.poke(m::dbgReq, 0);
    EXPECT_EQ(edges, (std::vector<bool>{true, false}));
    EXPECT_FALSE(rig.wisp.debugPort().reqLevel());
}

TEST(DebugPort, BreakpointMaskVisibleToTarget)
{
    PeriphRig rig;
    rig.wisp.debugPort().setBreakpointMask(0b1010);
    EXPECT_EQ(rig.peek(m::bkptMask), 0b1010u);
}

TEST(DebugPort, PowerLossDropsReqLine)
{
    PeriphRig rig;
    rig.poke(m::dbgReq, 1);
    rig.wisp.debugPort().powerLost();
    EXPECT_FALSE(rig.wisp.debugPort().reqLevel());
}

TEST(Accelerometer, IdentityAndLatching)
{
    sim::Simulator simulator(3);
    sensors::Accelerometer accel(simulator, "accel");
    EXPECT_EQ(accel.readReg(sensors::accel_reg::whoAmI), 0x2A);
    EXPECT_EQ(accel.sampleCount(), 0u);
    accel.readReg(sensors::accel_reg::xHi); // latches
    EXPECT_EQ(accel.sampleCount(), 1u);
    accel.readReg(sensors::accel_reg::xLo); // no new latch
    EXPECT_EQ(accel.sampleCount(), 1u);
}

TEST(Accelerometer, StationaryVsMovingVariance)
{
    sim::Simulator simulator(4);
    sensors::AccelConfig config;
    config.meanDwell = 100 * sim::oneMs;
    sensors::Accelerometer accel(simulator, "accel", config);
    double still_dev = 0, moving_dev = 0;
    int still_n = 0, moving_n = 0;
    for (int i = 0; i < 400; ++i) {
        simulator.runFor(10 * sim::oneMs);
        bool truth = accel.moving();
        auto hi = accel.readReg(sensors::accel_reg::xHi);
        auto lo = accel.readReg(sensors::accel_reg::xLo);
        auto x = static_cast<std::int16_t>((hi << 8) | lo);
        if (truth) {
            moving_dev += std::abs(x);
            ++moving_n;
        } else {
            still_dev += std::abs(x);
            ++still_n;
        }
    }
    ASSERT_GT(still_n, 20);
    ASSERT_GT(moving_n, 20);
    EXPECT_GT(moving_dev / moving_n, 4.0 * (still_dev / still_n));
}

TEST(Accelerometer, GravityOnZAxis)
{
    sim::Simulator simulator(5);
    sensors::AccelConfig config;
    config.stillSigma = 0.0;
    config.movingSigma = 0.0;
    sensors::Accelerometer accel(simulator, "accel", config);
    accel.readReg(sensors::accel_reg::xHi);
    auto hi = accel.readReg(sensors::accel_reg::zHi);
    auto lo = accel.readReg(sensors::accel_reg::zLo);
    auto z = static_cast<std::int16_t>((hi << 8) | lo);
    EXPECT_EQ(z, sensors::Accelerometer::gravityCounts);
}

} // namespace
