/**
 * @file
 * Tests of the target-side runtime (libEDB, checkpoint runtime) and
 * the guest applications: they must assemble under every option
 * combination and behave correctly on continuous power.
 */

#include <gtest/gtest.h>

#include "apps/activity.hh"
#include "apps/fibonacci.hh"
#include "apps/linked_list.hh"
#include "apps/rfid_firmware.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "mcu/mmio_map.hh"
#include "runtime/checkpoint.hh"
#include "runtime/libedb.hh"
#include "runtime/protocol_defs.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

TEST(LibEdb, EquatesMatchMmioConstants)
{
    std::string equates = runtime::mmioEquates();
    auto expect_equ = [&equates](const char *name,
                                 std::uint32_t value) {
        std::string line = std::string(".equ ") + name + ", " +
                           std::to_string(value) + "\n";
        EXPECT_NE(equates.find(line), std::string::npos) << line;
    };
    expect_equ("GPIO_OUT", mcu::mmio::gpioOut);
    expect_equ("MARKER", mcu::mmio::marker);
    expect_equ("DBGREQ", mcu::mmio::dbgReq);
    expect_equ("BKPTMASK", mcu::mmio::bkptMask);
    expect_equ("MSG_PRINTF", runtime::proto::msgPrintf);
    expect_equ("CMD_RESUME", runtime::proto::cmdResume);
}

TEST(LibEdb, LibraryAssembles)
{
    EXPECT_NO_THROW(isa::assemble(runtime::programHeader() +
                                  "main:\n    halt\n" +
                                  runtime::libedbSource()));
}

TEST(LibEdb, ExportsAllTableOneEntryPoints)
{
    auto program = isa::assemble(runtime::programHeader() +
                                 "main:\n    halt\n" +
                                 runtime::libedbSource());
    for (const char *symbol :
         {"edb_watchpoint", "edb_assert_fail", "edb_breakpoint",
          "edb_energy_guard_begin", "edb_energy_guard_end",
          "edb_printf", "edb_dbg_isr", "edb_service_loop"}) {
        EXPECT_TRUE(program.hasSymbol(symbol)) << symbol;
    }
    EXPECT_EQ(program.irqHandler, program.symbol("edb_dbg_isr"));
}

TEST(CheckpointRuntime, AdcCodeConversion)
{
    EXPECT_EQ(runtime::adcCodeForVolts(0.0), 0u);
    EXPECT_EQ(runtime::adcCodeForVolts(3.0), 4095u);
    EXPECT_EQ(runtime::adcCodeForVolts(99.0), 4095u);
    EXPECT_NEAR(runtime::adcCodeForVolts(1.5), 2048, 1);
}

TEST(CheckpointRuntime, AdcCodeBoundaries)
{
    // Clamping at both rails, default 12-bit / 3.0 V reference.
    EXPECT_EQ(runtime::adcCodeForVolts(-0.5), 0u);
    EXPECT_EQ(runtime::adcCodeForVolts(3.0), 4095u);
    EXPECT_EQ(runtime::adcCodeForVolts(3.0001), 4095u);
    // 1.5 V is exactly 2047.5 codes; lround rounds away from zero,
    // matching mcu::Adc::quantize.
    EXPECT_EQ(runtime::adcCodeForVolts(1.5), 2048u);
    // One LSB above zero resolves, one LSB below full scale stays
    // below it.
    EXPECT_EQ(runtime::adcCodeForVolts(3.0 / 4095.0), 1u);
    EXPECT_EQ(runtime::adcCodeForVolts(3.0 * 4094.0 / 4095.0),
              4094u);
    // Non-default resolution and reference.
    EXPECT_EQ(runtime::adcCodeForVolts(0.0, 8, 2.0), 0u);
    EXPECT_EQ(runtime::adcCodeForVolts(2.0, 8, 2.0), 255u);
    EXPECT_EQ(runtime::adcCodeForVolts(5.0, 8, 2.0), 255u);
    EXPECT_EQ(runtime::adcCodeForVolts(1.0, 8, 2.0), 128u);
    EXPECT_EQ(runtime::adcCodeForVolts(-1.0, 8, 2.0), 0u);
}

/** rt_checkpoint_if_low at the exact threshold code. The runtime
 *  documents "strictly below" (bgeu), so a reading equal to the
 *  threshold must skip and a threshold one code higher must take the
 *  checkpoint. The ADC's Vcap channel is replaced with a constant
 *  source so the reading is deterministic. */
TEST(CheckpointRuntime, ExactThresholdSkipsCheckpoint)
{
    const double volts = 1.5;
    const unsigned code = runtime::adcCodeForVolts(volts);
    target::WispConfig config;
    config.mcu.checkpointingEnabled = true;
    sim::Simulator simulator(72);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr, config);
    wisp.adc().addChannel(0, [volts] { return volts; });
    ASSERT_EQ(wisp.adc().quantize(volts), code);
    std::string source =
        runtime::programHeader() + "main:\n    li   r1, " +
        std::to_string(code) + R"(
    call rt_checkpoint_if_low
    la   r2, 0x5000
    stw  r0, [r2]            ; 0 = equal reading skips
    li   r1, )" + std::to_string(code + 1) +
        R"(
    call rt_checkpoint_if_low
    la   r2, 0x5004
    stw  r0, [r2]            ; 1 = one code higher takes it
    halt
)" + runtime::checkpointSource() +
        runtime::libedbSource();
    wisp.flash(isa::assemble(source));
    wisp.start();
    simulator.runFor(200 * sim::oneMs);
    ASSERT_EQ(wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(wisp.mcu().debugRead32(0x5000), 0u);
    EXPECT_EQ(wisp.mcu().debugRead32(0x5004), 1u);
    EXPECT_EQ(wisp.mcu().checkpointCount(), 1u);
}

TEST(CheckpointRuntime, VoltageConditionalCheckpoint)
{
    target::WispConfig config;
    config.mcu.checkpointingEnabled = true;
    sim::Simulator simulator(71);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr, config);
    // Threshold far above Vcap: always checkpoints. Then a threshold
    // of 0: never checkpoints.
    std::string source = runtime::programHeader() + R"(
main:
    li   r1, 4095
    call rt_checkpoint_if_low
    la   r2, 0x5000
    stw  r0, [r2]            ; 1 = checkpoint taken
    li   r1, 0
    call rt_checkpoint_if_low
    la   r2, 0x5004
    stw  r0, [r2]            ; 0 = not taken
    halt
)" + runtime::checkpointSource() +
                         runtime::libedbSource();
    wisp.flash(isa::assemble(source));
    wisp.start();
    simulator.runFor(200 * sim::oneMs);
    ASSERT_EQ(wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(wisp.mcu().debugRead32(0x5000), 1u);
    EXPECT_EQ(wisp.mcu().debugRead32(0x5004), 0u);
    EXPECT_EQ(wisp.mcu().checkpointCount(), 1u);
}

/** Every option combination of every app must assemble. */
TEST(Apps, AllVariantsAssemble)
{
    for (bool with_assert : {false, true}) {
        for (bool with_chkpt : {false, true}) {
            for (bool led : {false, true}) {
                apps::LinkedListOptions options;
                options.withAssert = with_assert;
                options.withCheckpoint = with_chkpt;
                options.ledTracing = led;
                EXPECT_NO_THROW(apps::buildLinkedListApp(options));
            }
        }
    }
    for (bool check : {false, true}) {
        for (bool guards : {false, true}) {
            for (bool assert_on : {false, true}) {
                apps::FibonacciOptions options;
                options.withCheck = check;
                options.withGuards = guards;
                options.assertOnViolation = assert_on;
                EXPECT_NO_THROW(apps::buildFibonacciApp(options));
            }
        }
    }
    for (auto output :
         {apps::ActivityOutput::None, apps::ActivityOutput::UartPrintf,
          apps::ActivityOutput::EdbPrintf}) {
        for (bool wp : {false, true}) {
            apps::ActivityOptions options;
            options.output = output;
            options.withWatchpoints = wp;
            EXPECT_NO_THROW(apps::buildActivityApp(options));
        }
    }
    for (bool wp : {false, true}) {
        apps::RfidFirmwareOptions options;
        options.withWatchpoints = wp;
        EXPECT_NO_THROW(apps::buildRfidFirmware(options));
    }
}

TEST(Apps, ProgramsFitTheirMemoryBudget)
{
    // Code must stay below the app data area at 0x5000.
    for (const auto &program :
         {apps::buildLinkedListApp({true, true, false}),
          apps::buildFibonacciApp({true, true, true, 0}),
          apps::buildActivityApp({apps::ActivityOutput::UartPrintf, true}),
          apps::buildRfidFirmware({true})}) {
        for (const auto &seg : program.segments) {
            EXPECT_GE(seg.base, 0x4000u);
            EXPECT_LE(seg.base + seg.bytes.size(), 0x5000u)
                << "code overruns into the data area";
        }
    }
}

struct AppRig
{
    sim::Simulator sim{73};
    energy::TheveninHarvester supply{3.0, 50.0};
    target::Wisp wisp;

    AppRig() : wisp(sim, "wisp", &supply, nullptr) {}
};

TEST(Apps, LinkedListInvariantHoldsOnContinuousPower)
{
    namespace lay = apps::linked_list_layout;
    AppRig rig;
    apps::LinkedListOptions options;
    options.withAssert = true; // must never fire on bench power
    rig.wisp.flash(apps::buildLinkedListApp(options));
    rig.wisp.start();
    rig.sim.runFor(500 * sim::oneMs);
    EXPECT_EQ(rig.wisp.state(), mcu::McuState::Running);
    EXPECT_EQ(rig.wisp.mcu().faultCount(), 0u);
    EXPECT_GT(rig.wisp.mcu().debugRead32(lay::iterCountAddr), 1000u);
    // The node's value counts completed append cycles.
    EXPECT_GT(rig.wisp.mcu().debugRead32(lay::poolAddr +
                                         lay::nodeValueOff),
              500u);
}

TEST(Apps, FibonacciValuesAreCorrect)
{
    namespace lay = apps::fibonacci_layout;
    AppRig rig;
    apps::FibonacciOptions options;
    options.maxNodes = 20;
    rig.wisp.flash(apps::buildFibonacciApp(options));
    rig.wisp.start();
    rig.sim.runFor(200 * sim::oneMs);
    ASSERT_EQ(rig.wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(rig.wisp.mcu().debugRead32(lay::countAddr), 20u);
    std::uint32_t expect_a = 1, expect_b = 1;
    for (unsigned i = 1; i <= 20; ++i) {
        std::uint32_t fib = i <= 2 ? 1 : expect_a + expect_b;
        if (i > 2) {
            expect_a = expect_b;
            expect_b = fib;
        }
        std::uint32_t node = lay::poolAddr + (i - 1) * 16;
        EXPECT_EQ(rig.wisp.mcu().debugRead32(node +
                                             lay::nodeValueOff),
                  fib)
            << "node " << i;
    }
}

TEST(Apps, FibonacciCheckAcceptsOwnList)
{
    namespace lay = apps::fibonacci_layout;
    AppRig rig;
    apps::FibonacciOptions options;
    options.withCheck = true;
    options.maxNodes = 30;
    rig.wisp.flash(apps::buildFibonacciApp(options));
    rig.wisp.start();
    rig.sim.runFor(2 * sim::oneSec);
    ASSERT_EQ(rig.wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(rig.wisp.mcu().debugRead32(lay::violationsAddr), 0u);
}

TEST(Apps, ActivityClassifierMatchesGroundTruth)
{
    namespace lay = apps::activity_layout;
    AppRig rig;
    rig.wisp.flash(apps::buildActivityApp({}));
    rig.wisp.start();
    rig.sim.runFor(4 * sim::oneSec);
    std::uint32_t total =
        rig.wisp.mcu().debugRead32(lay::totalAddr);
    std::uint32_t moving =
        rig.wisp.mcu().debugRead32(lay::movingAddr);
    std::uint32_t still =
        rig.wisp.mcu().debugRead32(lay::stillAddr);
    ASSERT_GT(total, 100u);
    EXPECT_EQ(moving + still, total);
    auto &accel = rig.wisp.accelerometer();
    double truth = double(accel.movingSamples()) /
                   double(accel.sampleCount());
    double classified = double(moving) / double(total);
    EXPECT_NEAR(classified, truth, 0.1);
}

TEST(Apps, ActivitySuccessRateIsPerfectOnBenchPower)
{
    namespace lay = apps::activity_layout;
    AppRig rig;
    rig.wisp.flash(apps::buildActivityApp({}));
    rig.wisp.start();
    rig.sim.runFor(2 * sim::oneSec);
    std::uint32_t started =
        rig.wisp.mcu().debugRead32(lay::startedAddr);
    std::uint32_t total =
        rig.wisp.mcu().debugRead32(lay::totalAddr);
    // At most one iteration in flight.
    EXPECT_LE(started - total, 1u);
}

} // namespace
