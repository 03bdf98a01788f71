/**
 * @file
 * Tests of the MCU's timed low-power wait and the Dewdrop-style
 * energy-aware scheduling runtime (paper Section 6.2 related work).
 */

#include <gtest/gtest.h>

#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "runtime/libedb.hh"
#include "runtime/scheduler.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

TEST(Sleep, DrawsMicroampsForTheRequestedDuration)
{
    sim::Simulator simulator(201);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    wisp.flash(isa::assemble(runtime::programHeader() + R"(
main:
    la   r0, CYCLE_LO
    ldw  r5, [r0]
    la   r1, SLEEP
    la   r2, 40000             ; 10 ms at 4 MHz
    stw  r2, [r1]
    nop                        ; wait happens before this commits
    la   r0, CYCLE_LO
    ldw  r6, [r0]
    sub  r7, r6, r5
    la   r0, 0x5000
    stw  r7, [r0]
    halt
)" + runtime::libedbSource()));
    wisp.start();
    // Catch the core mid-sleep and check its draw.
    bool saw_sleeping = false;
    for (int i = 0; i < 200 && !saw_sleeping; ++i) {
        simulator.runFor(sim::oneMs / 4);
        if (wisp.mcu().sleeping()) {
            saw_sleeping = true;
            EXPECT_NEAR(wisp.power().totalLoadAmps(),
                        mcu::Mcu::sleepAmps, 1e-9);
        }
    }
    EXPECT_TRUE(saw_sleeping);
    simulator.runFor(100 * sim::oneMs);
    ASSERT_EQ(wisp.state(), mcu::McuState::Halted);
    // Cycle counter advanced by at least the sleep duration.
    EXPECT_GE(wisp.mcu().debugRead32(0x5000), 40000u);
    EXPECT_LT(wisp.mcu().debugRead32(0x5000), 41000u);
}

TEST(Sleep, DebugIrqWakesEarly)
{
    sim::Simulator simulator(202);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    // A standalone ISR (no EDB attached, so the libEDB ISR -- which
    // talks to the debugger -- must not be used here).
    wisp.flash(isa::assemble(runtime::mmioEquates() + R"(
.org 0x4000
.entry main
.irq isr
main:
    la   r1, SLEEP
    la   r2, 40000000          ; 10 s: would never finish alone
    stw  r2, [r1]
    la   r0, 0x5000
    li   r1, 1
    stw  r1, [r0]
    halt
isr:
    reti
)"));
    wisp.start();
    simulator.runFor(30 * sim::oneMs);
    ASSERT_TRUE(wisp.mcu().sleeping());
    wisp.mcu().raiseDebugIrq();
    simulator.runFor(5 * sim::oneMs);
    wisp.mcu().clearDebugIrq();
    // Awoken: the ISR ran, returned, and the program completed.
    simulator.runFor(50 * sim::oneMs);
    EXPECT_EQ(wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(wisp.mcu().debugRead32(0x5000), 1u);
}

TEST(Sleep, BrownOutDuringSleepReboots)
{
    sim::Simulator simulator(203);
    energy::RfHarvester rf(30.0, 3.0); // too weak to sustain much
    target::Wisp wisp(simulator, "wisp", &rf, nullptr);
    wisp.flash(isa::assemble(runtime::programHeader() + R"(
main:
    la   r0, 0x5000            ; count boots
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]
    la   r1, SLEEP
    la   r2, 60000
    stw  r2, [r1]
    br   main
)" + runtime::libedbSource()));
    wisp.start();
    // Drain the capacitor while the core sleeps.
    simulator.runFor(2 * sim::oneSec);
    wisp.power().capacitor().setVoltage(0.5);
    simulator.runFor(5 * sim::oneSec);
    EXPECT_GE(wisp.mcu().debugRead32(0x5000), 2u);
}

/**
 * The Dewdrop claim: a task too expensive for opportunistic dispatch
 * completes reliably when dispatched only above a calibrated energy
 * threshold, and the sleep-wait does not itself burn the charge.
 */
TEST(Dewdrop, EnergyAwareDispatchBeatsOpportunistic)
{
    // The task: ~160k cycles (40 ms) of work, then a completion
    // marker. It tears if power fails mid-way.
    auto program_for = [](bool scheduled) {
        std::string dispatch =
            scheduled ? "    la   r1, 3100          ; ~2.27 V\n"
                        "    call dw_wait_energy\n"
                      : "";
        return runtime::programHeader() + R"(
main:
)" + dispatch + R"(
    ; attempt counter
    la   r0, 0x5004
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]
    ; the task
    la   r2, 40000
__task:
    addi r2, r2, -1
    cmpi r2, 0
    bne  __task
    ; completion counter
    la   r0, 0x5000
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]
    br   main
)" + runtime::dewdropSource() +
               runtime::libedbSource();
    };

    auto run = [&](bool scheduled) {
        sim::Simulator simulator(scheduled ? 204 : 205);
        energy::RfHarvester rf(30.0, 1.05);
        target::Wisp wisp(simulator, "wisp", &rf, nullptr);
        wisp.flash(isa::assemble(program_for(scheduled)));
        wisp.start();
        simulator.runFor(30 * sim::oneSec);
        std::uint32_t done = wisp.mcu().debugRead32(0x5000);
        std::uint32_t tried = wisp.mcu().debugRead32(0x5004);
        return std::pair<double, std::uint32_t>(
            tried ? double(done) / double(tried) : 0.0, done);
    };

    auto [opportunistic_rate, opportunistic_done] = run(false);
    auto [scheduled_rate, scheduled_done] = run(true);

    // Both make progress; the scheduled variant tears far less.
    EXPECT_GT(opportunistic_done, 10u);
    EXPECT_GT(scheduled_done, 10u);
    EXPECT_GT(scheduled_rate, opportunistic_rate + 0.10)
        << "opportunistic " << opportunistic_rate << " vs scheduled "
        << scheduled_rate;
    EXPECT_GT(scheduled_rate, 0.9);
}

TEST(Dewdrop, WaitReportsSleepPeriods)
{
    sim::Simulator simulator(206);
    energy::TheveninHarvester supply(3.0, 2000.0); // slow charge
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    wisp.flash(isa::assemble(runtime::programHeader() + R"(
main:
    la   r1, 3900              ; ~2.86 V: must wait for charge
    call dw_wait_energy
    la   r1, 0x5000
    stw  r0, [r1]              ; sleep periods taken
    li   r2, 1
    stw  r2, [r1 + 4]
    halt
)" + runtime::dewdropSource() +
                             runtime::libedbSource()));
    wisp.start();
    simulator.runFor(3 * sim::oneSec);
    ASSERT_EQ(wisp.mcu().debugRead32(0x5004), 1u);
    EXPECT_GT(wisp.mcu().debugRead32(0x5000), 0u);
}

} // namespace
