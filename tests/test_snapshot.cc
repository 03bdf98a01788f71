/**
 * @file
 * Snapshot/restore tests: container integrity, resume equivalence
 * (a restored run is bit-identical to the original continuing), and
 * per-peripheral round trips with transactions restored mid-flight.
 *
 * Restore protocol under test (target/wisp.hh): construct a fresh
 * Simulator with the same seed and a Wisp with the same config, flash
 * the same program, do NOT start(), then restoreState + flush().
 */

#include <gtest/gtest.h>

#include <utility>

#include "apps/activity.hh"
#include "apps/linked_list.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "mcu/mmio_map.hh"
#include "rfid/channel.hh"
#include "sim/fault.hh"
#include "sim/snapshot.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;
namespace m = edb::mcu::mmio;

namespace {

std::vector<std::uint8_t>
snapshotOf(const target::Wisp &wisp)
{
    sim::SnapshotWriter w;
    wisp.saveState(w);
    return w.finish();
}

bool
restoreInto(const std::vector<std::uint8_t> &image, sim::Simulator &s,
            target::Wisp &wisp)
{
    sim::SnapshotReader r;
    if (!r.load(image))
        return false;
    sim::EventRearmer rearmer(s);
    wisp.restoreState(r, rearmer);
    if (!r.ok())
        return false;
    rearmer.flush();
    return true;
}

/** Everything the resume-equivalence guarantee promises to match. */
struct Digest
{
    std::uint64_t instrs, cycles, reboots, boots, checkpoints,
        restores;
    std::uint32_t pc;
    mcu::McuState state;
    double volts;
    sim::Tick now;
};

Digest
digestOf(sim::Simulator &s, target::Wisp &wisp)
{
    Digest d;
    d.instrs = wisp.mcu().instrCount();
    d.cycles = wisp.mcu().cycleCount();
    d.reboots = wisp.mcu().rebootCount();
    d.boots = wisp.power().bootCount();
    d.checkpoints = wisp.mcu().checkpointCount();
    d.restores = wisp.mcu().restoreCount();
    d.pc = wisp.mcu().pc();
    d.state = wisp.state();
    d.volts = wisp.power().voltageNoAdvance();
    d.now = s.now();
    return d;
}

void
expectSameDigest(const Digest &a, const Digest &b)
{
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.reboots, b.reboots);
    EXPECT_EQ(a.boots, b.boots);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.state, b.state);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.volts, b.volts);
    EXPECT_EQ(a.now, b.now);
}

// ---------------------------------------------------------------
// Container integrity.
// ---------------------------------------------------------------

TEST(SnapshotContainer, RoundTripsTypedFields)
{
    sim::SnapshotWriter w;
    w.section("t");
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.tick(-42);
    w.boolean(true);
    w.f64(3.25);
    std::vector<std::uint8_t> payload{1, 2, 3};
    w.bytes(payload.data(), payload.size());
    sim::SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    EXPECT_TRUE(r.section("t"));
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.tick(), -42);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.f64(), 3.25);
    std::vector<std::uint8_t> back(payload.size());
    r.bytes(back.data(), back.size());
    EXPECT_EQ(back, payload);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotContainer, CorruptionIsDetected)
{
    sim::SnapshotWriter w;
    w.section("t");
    w.u32(1234);
    auto image = w.finish();
    auto corrupt = image;
    // at(), not back(): GCC 12 cannot tell the copy is non-empty
    // and warns (-Wstringop-overflow) on an unchecked write.
    corrupt.at(corrupt.size() - 1) ^= 0x01;
    sim::SnapshotReader r;
    EXPECT_FALSE(r.load(corrupt));
    EXPECT_FALSE(r.ok());
    auto truncated = image;
    truncated.pop_back();
    EXPECT_FALSE(r.load(truncated));
    auto bad_magic = image;
    bad_magic[0] = 'X';
    EXPECT_FALSE(r.load(bad_magic));
}

TEST(SnapshotContainer, SectionMismatchFailsSticky)
{
    sim::SnapshotWriter w;
    w.section("aaa");
    w.u32(7);
    sim::SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    EXPECT_FALSE(r.section("bbb"));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u32(), 0u); // total: reads after failure return 0
}

// ---------------------------------------------------------------
// Resume equivalence on a full intermittent run.
// ---------------------------------------------------------------

/** Save under `cfg` at 500 ms, resume in a fresh world running
 *  `resume_engine`, and require the uninterrupted run's digest at
 *  1.5 s. Resuming under the other engine pins that the engine holds
 *  no architectural state. */
void
resumeEquivalence(const target::WispConfig &cfg, std::uint64_t seed,
                  energy::Engine resume_engine)
{
    constexpr sim::Tick snapAt = 500 * sim::oneMs;
    constexpr sim::Tick endAt = 1500 * sim::oneMs;
    auto program = apps::buildLinkedListApp();

    sim::Simulator sim1(seed);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1, nullptr, cfg);
    wisp1.flash(program);
    wisp1.start();
    sim1.runUntil(snapAt);
    auto image = snapshotOf(wisp1);
    ASSERT_GT(wisp1.mcu().instrCount(), 0u);

    // The original continues to the end: the reference trajectory.
    sim1.runUntil(endAt);
    Digest ref = digestOf(sim1, wisp1);

    // A fresh world resumes from the snapshot.
    target::WispConfig resume_cfg = cfg;
    resume_cfg.power.engine = resume_engine;
    sim::Simulator sim2(seed);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2, nullptr, resume_cfg);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image, sim2, wisp2));
    EXPECT_EQ(sim2.now(), snapAt);
    sim2.runUntil(endAt);
    expectSameDigest(digestOf(sim2, wisp2), ref);
}

TEST(SnapshotResume, BitIdenticalOnFastPath)
{
    resumeEquivalence(target::WispConfig{}, 11, energy::Engine::Fast);
}

TEST(SnapshotResume, BitIdenticalOnReferencePath)
{
    target::WispConfig cfg;
    cfg.power.engine = energy::Engine::Reference;
    resumeEquivalence(cfg, 11, energy::Engine::Reference);
}

TEST(SnapshotResume, BitIdenticalAcrossEngines)
{
    for (auto [save, resume] :
         {std::pair{energy::Engine::Fast, energy::Engine::Reference},
          std::pair{energy::Engine::Reference, energy::Engine::Fast}}) {
        SCOPED_TRACE(save == energy::Engine::Fast ? "fast -> reference"
                                                  : "reference -> fast");
        target::WispConfig cfg;
        cfg.power.engine = save;
        resumeEquivalence(cfg, 11, resume);
    }
}

TEST(SnapshotResume, BitIdenticalWithCheckpointing)
{
    target::WispConfig cfg;
    cfg.mcu.checkpointingEnabled = true;
    resumeEquivalence(cfg, 3, energy::Engine::Fast);
}

TEST(SnapshotResume, InPlaceRewindIsDeterministic)
{
    constexpr sim::Tick snapAt = 400 * sim::oneMs;
    constexpr sim::Tick endAt = 900 * sim::oneMs;
    sim::Simulator simulator(9);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf);
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();
    simulator.runUntil(snapAt);
    auto image = snapshotOf(wisp);
    simulator.runUntil(endAt);
    Digest first = digestOf(simulator, wisp);

    // Rewind the same world and replay: identical trajectory.
    ASSERT_TRUE(restoreInto(image, simulator, wisp));
    EXPECT_EQ(simulator.now(), snapAt);
    simulator.runUntil(endAt);
    expectSameDigest(digestOf(simulator, wisp), first);
}

TEST(SnapshotResume, ForcedBrownOutAfterTheSnapshotFiresAtTheSameTick)
{
    // One forced loss before the snapshot, which the restored state
    // already holds, and one after it, which the resumed world re-arms
    // from the snapshot tick.
    constexpr sim::Tick snapAt = 300 * sim::oneMs;
    constexpr sim::Tick endAt = 900 * sim::oneMs;
    sim::FaultPlan plan;
    plan.brownOuts = {{100 * sim::oneMs, 0.5}, {600 * sim::oneMs, 0.5}};
    auto program = apps::buildLinkedListApp();

    struct Rig
    {
        sim::Simulator sim{21};
        energy::TheveninHarvester supply{3.0, 200.0};
        target::Wisp wisp{sim, "wisp", &supply};
        sim::FaultInjector faults;
        std::vector<sim::Tick> losses;

        explicit Rig(const sim::FaultPlan &plan) : faults(sim, "f", plan)
        {
            wisp.attachFaults(&faults);
            wisp.power().addPowerListener([this](bool on) {
                if (!on)
                    losses.push_back(sim.now());
            });
        }
    };

    Rig orig(plan);
    orig.wisp.flash(program);
    orig.wisp.start();
    orig.faults.armBrownOuts(0);
    orig.sim.runUntil(snapAt);
    auto image = snapshotOf(orig.wisp);
    const std::size_t lossesBefore = orig.losses.size();
    orig.sim.runUntil(endAt);

    Rig resumed(plan);
    resumed.wisp.flash(program);
    ASSERT_TRUE(restoreInto(image, resumed.sim, resumed.wisp));
    resumed.faults.armBrownOuts(snapAt);
    resumed.sim.runUntil(endAt);

    ASSERT_EQ(lossesBefore, 1u);
    const std::vector<sim::Tick> lossesAfter(
        orig.losses.begin() + lossesBefore, orig.losses.end());
    ASSERT_EQ(lossesAfter.size(), 1u);
    EXPECT_GE(lossesAfter[0], 600 * sim::oneMs);
    EXPECT_LT(lossesAfter[0], 601 * sim::oneMs);
    EXPECT_EQ(resumed.losses, lossesAfter);
    EXPECT_EQ(orig.faults.stats().brownOutsForced, 2u);
    EXPECT_EQ(resumed.faults.stats().brownOutsForced, 1u);
    expectSameDigest(digestOf(resumed.sim, resumed.wisp),
                     digestOf(orig.sim, orig.wisp));
}

TEST(SnapshotResume, RestoredRunCanBeResnapshotted)
{
    // Chained snapshots: snapshot a restored run and resume again.
    constexpr sim::Tick t1 = 300 * sim::oneMs;
    constexpr sim::Tick t2 = 600 * sim::oneMs;
    constexpr sim::Tick t3 = 900 * sim::oneMs;
    auto program = apps::buildLinkedListApp();

    sim::Simulator sim1(13);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1);
    wisp1.flash(program);
    wisp1.start();
    sim1.runUntil(t1);
    auto image1 = snapshotOf(wisp1);
    sim1.runUntil(t3);
    Digest ref = digestOf(sim1, wisp1);

    sim::Simulator sim2(13);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image1, sim2, wisp2));
    sim2.runUntil(t2);
    auto image2 = snapshotOf(wisp2);

    sim::Simulator sim3(13);
    energy::RfHarvester rf3(30.0, 1.0);
    target::Wisp wisp3(sim3, "wisp", &rf3);
    wisp3.flash(program);
    ASSERT_TRUE(restoreInto(image2, sim3, wisp3));
    sim3.runUntil(t3);
    expectSameDigest(digestOf(sim3, wisp3), ref);
}

TEST(SnapshotResume, ActivityAppWithSensorRng)
{
    // The accelerometer draws the shared simulator RNG: equivalence
    // here proves the full engine state (mid-block) survives.
    constexpr sim::Tick snapAt = 700 * sim::oneMs;
    constexpr sim::Tick endAt = 2 * sim::oneSec;
    auto program = apps::buildActivityApp();

    sim::Simulator sim1(21);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1);
    wisp1.flash(program);
    wisp1.start();
    sim1.runUntil(snapAt);
    auto image = snapshotOf(wisp1);
    sim1.runUntil(endAt);
    Digest ref = digestOf(sim1, wisp1);
    std::uint64_t refSamples = wisp1.accelerometer().sampleCount();
    std::uint64_t refMoving = wisp1.accelerometer().movingSamples();

    sim::Simulator sim2(21);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image, sim2, wisp2));
    sim2.runUntil(endAt);
    expectSameDigest(digestOf(sim2, wisp2), ref);
    EXPECT_EQ(wisp2.accelerometer().sampleCount(), refSamples);
    EXPECT_EQ(wisp2.accelerometer().movingSamples(), refMoving);
}

// ---------------------------------------------------------------
// Peripherals restored mid-transaction (bench-supply rig: direct
// MMIO pokes, as the peripheral unit tests do).
// ---------------------------------------------------------------

struct Rig
{
    sim::Simulator sim;
    energy::TheveninHarvester supply{3.0, 50.0};
    target::Wisp wisp;

    explicit Rig(std::uint64_t seed = 29)
        : sim(seed), wisp(sim, "wisp", &supply, nullptr)
    {
    }

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

TEST(SnapshotPeripheral, UartByteRestoredMidShift)
{
    Rig a;
    a.poke(m::uart0Tx, 0x5A);
    ASSERT_TRUE(a.wisp.uart().txBusy());
    // Let part of the byte shift out, then snapshot mid-wire.
    a.sim.runFor(a.wisp.uart().byteTime() / 2);
    ASSERT_TRUE(a.wisp.uart().txBusy());
    auto image = snapshotOf(a.wisp);

    std::vector<std::pair<std::uint8_t, sim::Tick>> gotA, gotB;
    a.wisp.uart().addTxListener(
        [&gotA](std::uint8_t b, sim::Tick t) {
            gotA.emplace_back(b, t);
        });
    a.sim.runFor(10 * a.wisp.uart().byteTime());
    ASSERT_EQ(gotA.size(), 1u);
    EXPECT_EQ(gotA[0].first, 0x5A);
    EXPECT_FALSE(a.wisp.uart().txBusy());

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_TRUE(b.wisp.uart().txBusy());
    b.wisp.uart().addTxListener(
        [&gotB](std::uint8_t b_, sim::Tick t) {
            gotB.emplace_back(b_, t);
        });
    b.sim.runFor(10 * b.wisp.uart().byteTime());
    // The interrupted byte completes at the identical tick.
    ASSERT_EQ(gotB.size(), 1u);
    EXPECT_EQ(gotB[0], gotA[0]);
    EXPECT_FALSE(b.wisp.uart().txBusy());
}

TEST(SnapshotPeripheral, I2cAccelReadRestoredMidTransaction)
{
    Rig a;
    auto accel_addr =
        static_cast<std::uint32_t>(a.wisp.accelerometer().address());
    a.poke(m::i2cAddr, accel_addr);
    a.poke(m::i2cReg, 0x00); // WHO_AM_I-style register
    a.poke(m::i2cCtrl, 1);   // read
    ASSERT_TRUE(a.wisp.i2c().busy());
    a.sim.runFor(a.wisp.i2c().transactionTime() / 2);
    ASSERT_TRUE(a.wisp.i2c().busy());
    auto image = snapshotOf(a.wisp);

    a.sim.runFor(2 * a.wisp.i2c().transactionTime());
    ASSERT_FALSE(a.wisp.i2c().busy());
    std::uint32_t statusA = a.peek(m::i2cStatus);
    std::uint32_t dataA = a.peek(m::i2cData);

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_TRUE(b.wisp.i2c().busy());
    b.sim.runFor(2 * b.wisp.i2c().transactionTime());
    ASSERT_FALSE(b.wisp.i2c().busy());
    EXPECT_EQ(b.peek(m::i2cStatus), statusA);
    EXPECT_EQ(b.peek(m::i2cData), dataA);
    EXPECT_EQ(b.sim.now(), a.sim.now());
}

TEST(SnapshotPeripheral, AdcConversionRestoredMidFlight)
{
    Rig a;
    a.poke(m::adcCtrl, 0); // channel 0: Vcap
    ASSERT_TRUE((a.peek(m::adcStatus) & 1u) != 0);
    auto image = snapshotOf(a.wisp);

    a.sim.runFor(sim::oneMs);
    ASSERT_TRUE((a.peek(m::adcStatus) & 2u) != 0);
    std::uint32_t valueA = a.peek(m::adcValue);

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_TRUE((b.peek(m::adcStatus) & 1u) != 0);
    b.sim.runFor(sim::oneMs);
    ASSERT_TRUE((b.peek(m::adcStatus) & 2u) != 0);
    EXPECT_EQ(b.peek(m::adcValue), valueA);
}

TEST(SnapshotPeripheral, GpioAndLedSurviveRoundTrip)
{
    Rig a;
    a.poke(m::gpioOut, 0b1011);
    a.poke(m::led, 1);
    a.poke(m::led, 0);
    a.poke(m::led, 1);
    auto image = snapshotOf(a.wisp);

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_EQ(b.wisp.gpio().output(), 0b1011u);
    EXPECT_EQ(b.peek(m::gpioOut), 0b1011u);
    EXPECT_TRUE(b.wisp.led().lit());
    EXPECT_EQ(b.wisp.led().blinkCount(),
              a.wisp.led().blinkCount());
}

TEST(SnapshotPeripheral, RfFrameRestoredMidAir)
{
    sim::Simulator simA(31);
    energy::TheveninHarvester supplyA{3.0, 50.0};
    rfid::RfChannel chanA(simA, "air");
    target::Wisp wispA(simA, "wisp", &supplyA, &chanA);

    auto poke = [](target::Wisp &w, std::uint32_t addr,
                   std::uint32_t v) { w.memoryMap().write32(addr, v); };
    poke(wispA, m::rfTxByte, 0x11);
    poke(wispA, m::rfTxByte, 0x22);
    poke(wispA, m::rfTxCtrl, 1);
    ASSERT_TRUE(wispA.rf()->txBusy());
    simA.runFor(sim::oneUs);
    ASSERT_TRUE(wispA.rf()->txBusy());
    auto image = snapshotOf(wispA);

    simA.runFor(10 * sim::oneMs);
    ASSERT_FALSE(wispA.rf()->txBusy());
    std::uint64_t txA = wispA.rf()->framesTransmitted();

    sim::Simulator simB(31);
    energy::TheveninHarvester supplyB{3.0, 50.0};
    rfid::RfChannel chanB(simB, "air");
    target::Wisp wispB(simB, "wisp", &supplyB, &chanB);
    ASSERT_TRUE(restoreInto(image, simB, wispB));
    EXPECT_TRUE(wispB.rf()->txBusy());
    simB.runFor(10 * sim::oneMs);
    EXPECT_FALSE(wispB.rf()->txBusy());
    EXPECT_EQ(wispB.rf()->framesTransmitted(), txA);
    EXPECT_EQ(simB.now(), simA.now());
}

TEST(SnapshotPeripheral, RfPresenceMismatchIsRejected)
{
    sim::Simulator simA(31);
    energy::TheveninHarvester supplyA{3.0, 50.0};
    rfid::RfChannel chanA(simA, "air");
    target::Wisp wispA(simA, "wisp", &supplyA, &chanA);
    auto image = snapshotOf(wispA);

    // Restoring onto a build without the RF front end must fail
    // loudly, not half-restore.
    Rig b;
    EXPECT_FALSE(restoreInto(image, b.sim, b.wisp));
}

TEST(SnapshotPeripheral, MidTransactionUnderRealProgram)
{
    // The activity firmware polls the accelerometer over I2C; catch
    // a transaction in flight and prove the restored world finishes
    // it identically.
    auto program = apps::buildActivityApp();
    sim::Simulator sim1(37);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1);
    wisp1.flash(program);
    wisp1.start();

    sim::Tick limit = 5 * sim::oneSec;
    while (!wisp1.i2c().busy() && sim1.now() < limit)
        sim1.runFor(5 * sim::oneUs);
    ASSERT_TRUE(wisp1.i2c().busy())
        << "activity app never touched the accelerometer";
    auto image = snapshotOf(wisp1);
    sim::Tick endAt = sim1.now() + 500 * sim::oneMs;
    sim1.runUntil(endAt);
    Digest ref = digestOf(sim1, wisp1);

    sim::Simulator sim2(37);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image, sim2, wisp2));
    EXPECT_TRUE(wisp2.i2c().busy());
    sim2.runUntil(endAt);
    expectSameDigest(digestOf(sim2, wisp2), ref);
}

} // namespace
