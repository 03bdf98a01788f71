/**
 * @file
 * Tests of the baseline instruments (oscilloscope, JTAG, UART log
 * host), the Ekho-style energy record/replay, and the VCD exporter.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "apps/linked_list.hh"
#include "baseline/jtag.hh"
#include "baseline/oscilloscope.hh"
#include "baseline/uart_host.hh"
#include "energy/ekho.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "mcu/mmio_map.hh"
#include "runtime/libedb.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

TEST(Oscilloscope, SamplesAtFixedRate)
{
    sim::Simulator simulator(1);
    baseline::Oscilloscope scope(simulator, "scope", sim::oneMs);
    double value = 0.0;
    scope.addChannel("v", [&value] { return value; });
    scope.start();
    simulator.runFor(10 * sim::oneMs);
    value = 5.0;
    simulator.runFor(10 * sim::oneMs);
    scope.stop();
    simulator.runFor(10 * sim::oneMs);
    // ~21 samples in 20 ms at 1 ms (inclusive ends), none after stop.
    EXPECT_NEAR(double(scope.capture().size()), 21.0, 2.0);
    EXPECT_DOUBLE_EQ(scope.valueAt(0, 5 * sim::oneMs), 0.0);
    EXPECT_DOUBLE_EQ(scope.valueAt(0, 15 * sim::oneMs), 5.0);
}

TEST(Oscilloscope, RisingEdgeCount)
{
    sim::Simulator simulator(2);
    baseline::Oscilloscope scope(simulator, "scope", sim::oneMs);
    bool level = false;
    scope.addChannel("d", [&level] { return level ? 1.0 : 0.0; });
    scope.start();
    for (int i = 0; i < 10; ++i) {
        simulator.runFor(5 * sim::oneMs);
        level = !level;
    }
    simulator.runFor(5 * sim::oneMs);
    EXPECT_EQ(scope.risingEdges(0, 0, simulator.now()), 5u);
}

TEST(Oscilloscope, CsvOutput)
{
    sim::Simulator simulator(3);
    baseline::Oscilloscope scope(simulator, "scope", sim::oneMs);
    scope.addChannel("vcap", [] { return 2.5; });
    bool bit = false;
    scope.addChannel("pin", [&bit] { return bit ? 1.0 : 0.0; });
    scope.start();
    simulator.runFor(2 * sim::oneMs);
    bit = true;
    simulator.runFor(2 * sim::oneMs);

    std::ostringstream csv;
    scope.writeCsv(csv);
    EXPECT_NE(csv.str().find("time_ms,vcap,pin"), std::string::npos);
}

TEST(Jtag, PowersTargetAndMasksIntermittence)
{
    sim::Simulator simulator(4);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf, nullptr);
    baseline::JtagDebugger jtag(simulator, "jtag", wisp);
    wisp.flash(apps::buildLinkedListApp());
    jtag.attach();
    wisp.start();
    simulator.runFor(5 * sim::oneSec);
    // With pod power the device boots once and never browns out.
    EXPECT_EQ(wisp.power().bootCount(), 1u);
    EXPECT_EQ(wisp.mcu().faultCount(), 0u);
    EXPECT_TRUE(jtag.targetResponsive());
    auto value = jtag.read32(apps::linked_list_layout::iterCountAddr);
    ASSERT_TRUE(value.has_value());
    EXPECT_GT(*value, 0u);
    EXPECT_TRUE(jtag.write32(0x5100, 42));
    EXPECT_EQ(jtag.read32(0x5100), 42u);
}

TEST(Jtag, ProtocolFailsWhenTargetUnpowered)
{
    sim::Simulator simulator(5);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf, nullptr);
    // A JTAG isolator: pod does not power the DUT (paper: isolators
    // "do not help with intermittence debugging, because the JTAG
    // protocol fails if the DUT powers off").
    baseline::JtagDebugger jtag(simulator, "jtag", wisp,
                                /*supplies_power=*/false);
    jtag.attach();
    // Target at 0 V: no reads possible.
    EXPECT_FALSE(jtag.targetResponsive());
    EXPECT_FALSE(jtag.read32(0x5000).has_value());
    EXPECT_FALSE(jtag.write32(0x5000, 1));
}

TEST(UartHost, AssemblesLinesAndLoadsTarget)
{
    sim::Simulator simulator(6);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    double before = wisp.power().totalLoadAmps();
    baseline::UartHost host(simulator, "host", wisp);
    // The non-isolated adapter adds a permanent load.
    EXPECT_GT(wisp.power().totalLoadAmps(), before);

    wisp.flash(isa::assemble(runtime::programHeader() + R"(
main:
    la   r5, msg
__next:
    ldb  r1, [r5]
    cmpi r1, 0
    beq  __done
    la   r0, UART0_STATUS
__wait:
    ldw  r2, [r0]
    andi r2, r2, 1
    cmpi r2, 0
    bne  __wait
    la   r0, UART0_TX
    stw  r1, [r0]
    addi r5, r5, 1
    br   __next
__done:
    halt
msg: .asciz "hello\nworld\n"
.align
)" + runtime::libedbSource()));
    wisp.start();
    simulator.runFor(200 * sim::oneMs);
    ASSERT_EQ(host.lines().size(), 2u);
    EXPECT_EQ(host.lines()[0], "hello");
    EXPECT_EQ(host.lines()[1], "world");
    EXPECT_EQ(host.byteCount(), 12u);
}

TEST(Ekho, TraceInterpolationAndCsvRoundTrip)
{
    energy::HarvestTrace trace;
    trace.add({0.0, 2.0, 1000.0});
    trace.add({1.0, 4.0, 2000.0});
    EXPECT_DOUBLE_EQ(trace.durationSeconds(), 1.0);
    auto mid = trace.at(0.5);
    EXPECT_NEAR(mid.voc, 3.0, 1e-12);
    EXPECT_NEAR(mid.rsrc, 1500.0, 1e-12);

    std::stringstream csv;
    trace.writeCsv(csv);
    auto restored = energy::HarvestTrace::readCsv(csv);
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_DOUBLE_EQ(restored.at(1.0).voc, 4.0);
}

TEST(Ekho, TraceRejectsBadSamples)
{
    energy::HarvestTrace trace;
    trace.add({1.0, 2.0, 100.0});
    EXPECT_THROW(trace.add({0.5, 2.0, 100.0}), sim::FatalError);
    EXPECT_THROW(trace.add({2.0, 2.0, 0.0}), sim::FatalError);
    energy::HarvestTrace empty;
    EXPECT_THROW(empty.at(0.0), sim::FatalError);
    EXPECT_THROW(
        { energy::RecordedHarvester bad(empty); (void)bad; },
        sim::FatalError);

    // The CSV reader takes exactly three comma-separated finite
    // numbers per row, under the writer's header.
    auto load = [](const std::string &text) {
        std::istringstream is(text);
        return energy::HarvestTrace::readCsv(is);
    };
    EXPECT_EQ(load("seconds,voc,rsrc\n0,3.2,3000\n\n1e-05,-0,1e+12\n")
                  .size(),
              2u);
    for (const char *row :
         {"0;3.2;3000", "0,3.2,3000abc", "bogus", "0,3.2", "0,1e999,3000",
          "0,nan,3000", "0,3.2,3000,1", " 0,3.2,3000", "0,,3000"}) {
        EXPECT_THROW(load(std::string("seconds,voc,rsrc\n") + row + "\n"),
                     sim::FatalError)
            << row;
    }
    EXPECT_THROW(load(""), sim::FatalError);
    EXPECT_THROW(load("time,voc,rsrc\n0,3.2,3000\n"), sim::FatalError);
}

TEST(Ekho, RecorderCapturesTheveninSurface)
{
    sim::Simulator simulator(7);
    energy::RfHarvester rf(30.0, 1.0);
    energy::HarvestRecorder recorder(simulator, "recorder", rf,
                                     10 * sim::oneMs);
    recorder.start();
    simulator.runFor(100 * sim::oneMs);
    recorder.stop();
    ASSERT_GE(recorder.trace().size(), 10u);
    auto s = recorder.trace().at(0.05);
    EXPECT_NEAR(s.voc, energy::RfHarvester::rectifierVoc, 1e-9);
    EXPECT_NEAR(s.rsrc, rf.sourceResistance(), rf.sourceResistance() *
                                                   0.01);
}

TEST(Ekho, ReplayReproducesIntermittentBehaviour)
{
    // Record the live environment, then run the same program once on
    // the live source and once on the replayed trace: the replay
    // must produce comparable intermittence (same-order boot counts).
    energy::RfHarvester rf(30.0, 1.0);
    energy::HarvestTrace trace;
    for (int i = 0; i <= 100; ++i)
        trace.add({i * 0.1, energy::RfHarvester::rectifierVoc,
                   rf.sourceResistance()});
    energy::RecordedHarvester replay(trace, /*loop=*/true);

    auto boots_with = [](const energy::Harvester *h) {
        sim::Simulator simulator(8);
        target::Wisp wisp(simulator, "wisp", h, nullptr);
        wisp.flash(isa::assemble(
            ".org 0x4000\nmain:\n    br main\n"));
        wisp.start();
        simulator.runFor(10 * sim::oneSec);
        return wisp.power().bootCount();
    };
    auto live = boots_with(&rf);
    auto replayed = boots_with(&replay);
    ASSERT_GT(live, 2u);
    EXPECT_NEAR(double(replayed), double(live), double(live) * 0.3);
}

TEST(Ekho, LoopedReplayWrapsTime)
{
    energy::HarvestTrace trace;
    trace.add({0.0, 2.0, 100.0});
    trace.add({1.0, 4.0, 100.0});
    energy::RecordedHarvester looped(trace, true);
    EXPECT_NEAR(looped.openCircuitVoltage(0.5), 3.0, 1e-9);
    EXPECT_NEAR(looped.openCircuitVoltage(1.5), 3.0, 1e-9);
    energy::RecordedHarvester held(trace, false);
    EXPECT_NEAR(held.openCircuitVoltage(1.5), 4.0, 1e-9);
}

} // namespace
