/**
 * @file
 * Tests for the deterministic fault-injection layer and the hardened
 * debug link: injector determinism and zero-cost-when-off, protocol
 * fuzzing, and bounded-retry behaviour against a dead link.
 */

#include <gtest/gtest.h>

#include "apps/linked_list.hh"
#include "edb/board.hh"
#include "edb/protocol.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "runtime/libedb.hh"
#include "runtime/protocol_defs.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;
using namespace edb::edbdbg;
namespace proto = edb::runtime::proto;

namespace {

TEST(FaultInjector, SameSeedSameFaultSequence)
{
    sim::FaultPlan plan;
    plan.seed = 77;
    plan.uartCorruptProb = 0.2;
    plan.uartDropProb = 0.2;
    plan.uartDupProb = 0.2;
    auto run = [&plan] {
        sim::Simulator simulator(1);
        sim::FaultInjector inj(simulator, "inj", plan);
        std::vector<std::uint8_t> out;
        for (int i = 0; i < 2000; ++i) {
            auto r = inj.onWire(static_cast<std::uint8_t>(i));
            for (int k = 0; k < r.count; ++k)
                out.push_back(r.bytes[k]);
        }
        return out;
    };
    EXPECT_EQ(run(), run());

    auto first = run();
    plan.seed = 78;
    EXPECT_NE(run(), first);
}

TEST(FaultInjector, DisabledPlanIsCompletelyInert)
{
    sim::FaultPlan plan;
    plan.enabled = false;
    plan.uartCorruptProb = 1.0;
    plan.uartDropProb = 1.0;
    plan.adcGlitchProb = 1.0;
    plan.fades.push_back({0, 10 * sim::oneSec});
    plan.brownOuts = {{sim::oneMs, 0.5}};
    plan.nvTearAtCommitWord = 1;
    sim::Simulator simulator(2);
    sim::FaultInjector inj(simulator, "inj", plan);
    int fired = 0;
    inj.setBrownOutHandler([&fired](double) { ++fired; });
    inj.armBrownOuts(0);
    for (int i = 0; i < 100; ++i) {
        auto r = inj.onWire(0x5A);
        EXPECT_EQ(r.count, 1);
        EXPECT_EQ(r.bytes[0], 0x5A);
        EXPECT_EQ(inj.onAdc(2.4), 2.4);
        inj.onNvCommitWord();
    }
    simulator.runFor(2 * sim::oneMs);
    EXPECT_FALSE(inj.inFade(sim::oneSec));
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(inj.stats().wireBytes, 0u);
    EXPECT_EQ(inj.stats().adcGlitches, 0u);
    EXPECT_EQ(inj.stats().brownOutsForced, 0u);
}

TEST(FaultInjector, WireFaultRatesMatchThePlan)
{
    sim::FaultPlan plan;
    plan.seed = 5;
    plan.uartCorruptProb = 0.1;
    plan.uartDropProb = 0.2;
    plan.uartDupProb = 0.05;
    sim::Simulator simulator(3);
    sim::FaultInjector inj(simulator, "inj", plan);
    const int n = 20000;
    std::uint64_t delivered = 0;
    for (int i = 0; i < n; ++i)
        delivered +=
            static_cast<std::uint64_t>(inj.onWire(0xA5).count);
    const auto &s = inj.stats();
    EXPECT_EQ(s.wireBytes, static_cast<std::uint64_t>(n));
    EXPECT_NEAR(double(s.dropped) / n, 0.2, 0.02);
    // Corruption/duplication only apply to non-dropped bytes.
    EXPECT_NEAR(double(s.corrupted) / n, 0.1 * 0.8, 0.02);
    EXPECT_NEAR(double(s.duplicated) / n, 0.05 * 0.8, 0.01);
    EXPECT_EQ(delivered, n - s.dropped + s.duplicated);
}

TEST(ClientWireFaults, DisconnectAfterFramesDeliversExactlyN)
{
    sim::ClientFaultPlan plan;
    plan.disconnectAfterFrames = 2;
    sim::ClientWireFaults faults(plan);
    const std::vector<std::uint8_t> frame = {1, 2, 3};

    EXPECT_FALSE(faults.wantsDisconnect());
    EXPECT_EQ(faults.onFrame(frame), frame); // frame 1 delivered
    EXPECT_FALSE(faults.wantsDisconnect());
    EXPECT_EQ(faults.onFrame(frame), frame); // frame 2 delivered
    // The disconnect comes *after* N frames, never instead of the
    // Nth (N=1 must not mean zero frames sent).
    EXPECT_TRUE(faults.wantsDisconnect());
    EXPECT_TRUE(faults.onFrame(frame).empty());
    EXPECT_EQ(faults.stats().frames, 2u);
    EXPECT_EQ(faults.stats().disconnects, 1u);

    sim::ClientFaultPlan one;
    one.disconnectAfterFrames = 1;
    sim::ClientWireFaults f1(one);
    EXPECT_EQ(f1.onFrame(frame), frame); // the single promised frame
    EXPECT_TRUE(f1.onFrame(frame).empty());
}

TEST(FaultInjector, FadeWindowsAreHalfOpen)
{
    sim::FaultPlan plan;
    plan.fades.push_back({10 * sim::oneMs, 5 * sim::oneMs});
    sim::Simulator simulator(4);
    sim::FaultInjector inj(simulator, "inj", plan);
    EXPECT_FALSE(inj.inFade(10 * sim::oneMs - 1));
    EXPECT_TRUE(inj.inFade(10 * sim::oneMs));
    EXPECT_TRUE(inj.inFade(15 * sim::oneMs - 1));
    EXPECT_FALSE(inj.inFade(15 * sim::oneMs));
    EXPECT_TRUE(inj.inFadeSeconds(0.012));
}

TEST(FaultInjector, ArmsOnlyBrownOutsAfterTheArmTick)
{
    sim::FaultPlan plan;
    plan.brownOuts = {{10, 0.1}, {20, 0.2}, {30, 0.3}};
    sim::Simulator simulator(6);
    sim::FaultInjector inj(simulator, "inj", plan);
    std::vector<std::pair<sim::Tick, double>> fired;
    inj.setBrownOutHandler([&](double volts) {
        fired.emplace_back(simulator.now(), volts);
    });
    // A world resumed from a snapshot at tick 20 already holds the
    // effects of the entries at 10 and 20.
    inj.armBrownOuts(20);
    simulator.runUntil(40);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].first, 30);
    EXPECT_EQ(fired[0].second, 0.3);
    EXPECT_EQ(inj.stats().brownOutsForced, 1u);
}

TEST(FaultInjector, RearmCancelsPendingBrownOuts)
{
    sim::FaultPlan plan;
    plan.brownOuts = {{10, 0.1}, {20, 0.2}};
    sim::Simulator simulator(6);
    sim::FaultInjector inj(simulator, "inj", plan);
    std::vector<sim::Tick> fired;
    inj.setBrownOutHandler(
        [&](double) { fired.push_back(simulator.now()); });
    inj.armBrownOuts(0);
    inj.armBrownOuts(0); // replaces the first arm, never doubles it
    simulator.runUntil(15);
    EXPECT_EQ(fired, (std::vector<sim::Tick>{10}));

    // Re-arm mid-run: the pending entry at 20 is replaced by its
    // re-armed copy, which fires once.
    inj.armBrownOuts(simulator.now());
    simulator.runUntil(40);
    EXPECT_EQ(fired, (std::vector<sim::Tick>{10, 20}));
    EXPECT_EQ(simulator.nextEventTime(), sim::maxTick);
}

TEST(FaultInjector, AttachFaultsRoutesBrownOutVoltsToTheCapacitor)
{
    sim::Simulator simulator(6);
    energy::TheveninHarvester supply(3.0, 200.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    sim::FaultPlan plan;
    plan.brownOuts = {{5 * sim::oneMs, 1.25}, {9 * sim::oneMs, 0.75}};
    plan.nvTearAtCommitWord = 2;
    sim::FaultInjector inj(simulator, "inj", plan);
    wisp.attachFaults(&inj);
    inj.armBrownOuts(0);
    // Probes scheduled after the arm run right after each entry, at
    // its tick.
    std::vector<double> volts;
    for (const sim::BrownOut &b : plan.brownOuts)
        simulator.schedule(b.at, [&] {
            volts.push_back(wisp.power().voltageNoAdvance());
        });
    simulator.runUntil(10 * sim::oneMs);
    EXPECT_EQ(volts, (std::vector<double>{1.25, 0.75}));

    // An NV tear forces its own fixed drop through the same route.
    inj.onNvCommitWord();
    EXPECT_EQ(wisp.power().voltageNoAdvance(), 0.75);
    inj.onNvCommitWord();
    EXPECT_EQ(wisp.power().voltageNoAdvance(),
              sim::FaultInjector::nvTearVolts);
    EXPECT_EQ(inj.stats().brownOutsForced, 3u);
}

TEST(FadedHarvester, BlanksTheSupplyDuringFades)
{
    energy::TheveninHarvester base(3.0, 200.0);
    sim::FaultPlan plan;
    plan.fades.push_back({10 * sim::oneMs, 10 * sim::oneMs});
    sim::Simulator simulator(7);
    sim::FaultInjector inj(simulator, "inj", plan);
    energy::FadedHarvester faded(base, inj);
    EXPECT_GT(faded.currentInto(1.0, 0.005), 0.0);
    EXPECT_EQ(faded.currentInto(1.0, 0.015), 0.0);
    EXPECT_EQ(faded.openCircuitVoltage(0.015), 0.0);
    EXPECT_NEAR(faded.openCircuitVoltage(0.025), 3.0, 1e-9);
}

/** Count every event the parser dispatches. */
struct EventCounter
{
    int asserts = 0, bkpts = 0, begins = 0, ends = 0;
    int printfs = 0, reads = 0, acks = 0, waits = 0;

    void
    attach(ProtocolEngine &engine)
    {
        engine.handlers.assertFail = [this](std::uint16_t) {
            ++asserts;
        };
        engine.handlers.bkptHit = [this](std::uint16_t) { ++bkpts; };
        engine.handlers.guardBegin = [this] { ++begins; };
        engine.handlers.guardEnd = [this] { ++ends; };
        engine.handlers.printfText = [this](const std::string &) {
            ++printfs;
        };
        engine.handlers.readReply =
            [this](const std::vector<std::uint8_t> &) { ++reads; };
        engine.handlers.writeAck = [this] { ++acks; };
        engine.handlers.waitRestore = [this] { ++waits; };
    }

    int
    total() const
    {
        return asserts + bkpts + begins + ends + printfs + reads +
               acks + waits;
    }
};

TEST(ProtocolFuzz, PureNoiseNeverCrashesAndParserRecovers)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ProtocolEngine engine;
        engine.setInterByteTimeout(2 * sim::oneMs);
        EventCounter events;
        events.attach(engine);
        sim::Rng rng(seed);
        sim::Tick t = 0;
        for (int i = 0; i < 20000; ++i)
            engine.onByte(
                static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                t += 10 * sim::oneUs);
        const auto &s = engine.stats();
        // Random noise contains frame-shaped runs whose CRC matches
        // 1/256 of the time; anything dispatched was a valid frame.
        EXPECT_GT(s.strayBytes, 0u);
        // After arbitrary garbage plus a link-silence gap, one clean
        // frame must parse: no permanent desync.
        int before = events.asserts;
        t += 10 * sim::oneMs;
        for (std::uint8_t b :
             buildFrame({proto::msgAssertFail, 0x34, 0x12}))
            engine.onByte(b, t += 10 * sim::oneUs);
        EXPECT_EQ(events.asserts, before + 1)
            << "seed " << seed << " left the parser desynced";
    }
}

TEST(ProtocolFuzz, FaultedFrameStreamNeverDesyncsPermanently)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        sim::Simulator simulator(seed);
        sim::FaultPlan plan;
        plan.seed = seed * 101;
        plan.uartCorruptProb = 0.05;
        plan.uartDropProb = 0.05;
        plan.uartDupProb = 0.02;
        sim::FaultInjector inj(simulator, "inj", plan);
        ProtocolEngine engine;
        engine.setInterByteTimeout(2 * sim::oneMs);
        EventCounter events;
        events.attach(engine);
        sim::Tick t = 0;
        const int frames = 500;
        for (int i = 0; i < frames; ++i) {
            for (std::uint8_t b :
                 buildFrame({proto::msgGuardBegin})) {
                auto r = inj.onWire(b);
                for (int k = 0; k < r.count; ++k)
                    engine.onByte(r.bytes[k], t += 100 * sim::oneUs);
            }
            t += 5 * sim::oneMs; // inter-frame gap beats the timeout
        }
        // Most frames survive a ~12% per-frame fault rate, and every
        // lost frame is accounted for as a CRC error or resync --
        // never a hang and never a spurious different event type.
        EXPECT_GT(events.begins, frames / 2);
        EXPECT_LT(events.begins, frames + 1);
        int before = events.begins;
        t += 10 * sim::oneMs;
        for (std::uint8_t b : buildFrame({proto::msgGuardBegin}))
            engine.onByte(b, t += 100 * sim::oneUs);
        EXPECT_EQ(events.begins, before + 1)
            << "seed " << seed << " left the parser desynced";
    }
}

TEST(ProtocolFuzz, SingleBitFlipsNeverDispatchAndNeverWedge)
{
    // CRC-8 (poly 0x07) detects every single-bit error, so a frame
    // with any one bit flipped must be rejected — and the parser must
    // be back in sync after a link-silence gap, every time.
    ProtocolEngine engine;
    engine.setInterByteTimeout(2 * sim::oneMs);
    EventCounter events;
    events.attach(engine);
    std::vector<std::uint8_t> clean =
        buildFrame({proto::msgGuardBegin});
    sim::Tick t = 0;
    for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
        std::vector<std::uint8_t> mangled = clean;
        mangled[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        for (std::uint8_t b : mangled)
            engine.onByte(b, t += 10 * sim::oneUs);
        t += 5 * sim::oneMs; // silence beats the inter-byte timeout
        int before = events.begins;
        for (std::uint8_t b : clean)
            engine.onByte(b, t += 10 * sim::oneUs);
        EXPECT_EQ(events.begins, before + 1) << "bit " << bit;
    }
    // Every dispatched event came from the clean frames alone.
    EXPECT_EQ(events.total(), events.begins);
    const auto &s = engine.stats();
    EXPECT_GT(s.crcErrors + s.strayBytes + s.resyncs, 0u);
}

TEST(ProtocolFuzz, TruncatedFramesExpireWithinOneTimeout)
{
    ProtocolEngine engine;
    const sim::Tick timeout = 2 * sim::oneMs;
    engine.setInterByteTimeout(timeout);
    EventCounter events;
    events.attach(engine);
    std::vector<std::uint8_t> clean =
        buildFrame({proto::msgAssertFail, 0x34, 0x12});
    sim::Tick t = 0;
    int rounds = 0;
    for (std::size_t cut = 1; cut < clean.size(); ++cut, ++rounds) {
        for (std::size_t i = 0; i < cut; ++i)
            engine.onByte(clean[i], t += 10 * sim::oneUs);
        EXPECT_TRUE(engine.midFrame()) << "cut " << cut;
        // Bounded-time resync: one inter-byte timeout later the
        // half-frame is dead and a clean frame parses immediately.
        t += timeout + sim::oneUs;
        for (std::uint8_t b : clean)
            engine.onByte(b, t += 10 * sim::oneUs);
        EXPECT_EQ(events.asserts, rounds + 1) << "cut " << cut;
        EXPECT_FALSE(engine.midFrame());
    }
    EXPECT_GE(engine.stats().resyncs,
              static_cast<std::uint64_t>(rounds));
    EXPECT_EQ(events.total(), events.asserts);
}

/** Target + EDB on a bench supply, stopped at an assert. */
struct SessionRig
{
    sim::Simulator sim{55};
    energy::TheveninHarvester supply{3.0, 200.0};
    target::Wisp wisp;
    EdbBoard board;

    SessionRig()
        : wisp(sim, "wisp", &supply, nullptr),
          board(sim, "edb", wisp)
    {
        wisp.flash(isa::assemble(runtime::programHeader() + R"(
main:
    la   r0, 0x5000
    la   r1, 0xCAFE
    stw  r1, [r0]
    li   r1, 7
    call edb_assert_fail
    halt
)" + runtime::libedbSource()));
        wisp.start();
    }
};

TEST(DeadLink, SessionReadAndWriteTimeOutWithBoundedRetries)
{
    SessionRig rig;
    ASSERT_TRUE(rig.board.waitForSession(sim::oneSec));
    auto *session = rig.board.session();

    // Healthy link first.
    auto value = session->read32(0x5000);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, 0xCAFEu);

    // Kill the link in both directions.
    sim::FaultPlan dead;
    dead.uartDropProb = 1.0;
    sim::FaultInjector inj(rig.sim, "inj", dead);
    rig.board.injectFaults(&inj);

    sim::Tick start = rig.sim.now();
    EXPECT_FALSE(session->read32(0x5000, 100 * sim::oneMs)
                     .has_value());
    EXPECT_FALSE(session->write32(0x5004, 1, 100 * sim::oneMs));
    // The retry budget bounds the wall-clock cost: both calls gave
    // up, they did not hang.
    EXPECT_LT(rig.sim.now() - start, sim::oneSec);
    EXPECT_GE(rig.board.linkStats().readRetries, 1u);
    EXPECT_GE(rig.board.linkStats().writeRetries, 1u);
    EXPECT_TRUE(session->open());

    // Link heals: the same session keeps working.
    rig.board.injectFaults(nullptr);
    value = session->read32(0x5000);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, 0xCAFEu);
    session->resume();
    EXPECT_TRUE(rig.board.waitPassive(sim::oneSec));
    EXPECT_FALSE(session->open());
}

TEST(DeadLink, LostEventFrameAbortsEpisodeInsteadOfHanging)
{
    SessionRig rig;
    // Dead from the start: the request line rises but every UART
    // byte is dropped, so the event frame never arrives.
    sim::FaultPlan dead;
    dead.uartDropProb = 1.0;
    sim::FaultInjector inj(rig.sim, "inj", dead);
    rig.board.injectFaults(&inj);

    EXPECT_FALSE(rig.board.waitForSession(sim::oneSec));
    EXPECT_GE(rig.board.linkStats().probes, 1u);
    EXPECT_GE(rig.board.linkStats().abortedEpisodes, 1u);
    // Each abandoned episode left a durable trace record (the board
    // re-arms afterwards, so lastAbortReason() may already belong to
    // a newer episode attempt).
    bool traced = false;
    for (const auto &e :
         rig.board.traceBuffer().ofKind(trace::Kind::Generic))
        traced |= e.text == "abort-link-dead";
    EXPECT_TRUE(traced);
    // The board is not wedged: it re-armed and keeps monitoring.
    rig.board.pumpFor(100 * sim::oneMs);
}

TEST(DeadLink, CorruptedLinkStillOpensSessionsEventually)
{
    SessionRig rig;
    sim::FaultPlan lossy;
    lossy.seed = 9;
    lossy.uartCorruptProb = 0.02;
    lossy.uartDupProb = 0.02;
    sim::FaultInjector inj(rig.sim, "inj", lossy);
    rig.board.injectFaults(&inj);

    ASSERT_TRUE(rig.board.waitForSession(5 * sim::oneSec));
    auto *session = rig.board.session();
    auto value = session->read32(0x5000, sim::oneSec);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, 0xCAFEu);
    session->resume();
    EXPECT_TRUE(rig.board.waitPassive(5 * sim::oneSec));
}

TEST(ProtocolFuzz, TargetParserSurvivesCrcFlipsAndTruncation)
{
    // Same hardening, target side: the firmware's __edb_rx_frame
    // (runtime/libedb.cc) must discard a CRC-flipped frame and slide
    // past a truncated one without wedging the open session. The
    // board's bounded read retries absorb whatever the garbage eats.
    SessionRig rig;
    ASSERT_TRUE(rig.board.waitForSession(sim::oneSec));
    auto *session = rig.board.session();
    ASSERT_EQ(session->read32(0x5000).value_or(0), 0xCAFEu);

    auto injectRaw = [&rig](std::vector<std::uint8_t> bytes) {
        for (std::uint8_t b : bytes)
            rig.wisp.debugPort().uart().receiveByte(b);
        rig.board.pumpFor(10 * sim::oneMs);
    };
    // Full frame, one CRC bit flipped: silently discarded.
    std::vector<std::uint8_t> bad =
        buildFrame({proto::cmdStatus});
    bad.back() ^= 0x01;
    injectRaw(bad);
    EXPECT_EQ(session->read32(0x5000, sim::oneSec).value_or(0),
              0xCAFEu);

    // Truncated frame: SYNC + LEN promising 6 bytes, then silence.
    // The next real command is partially eaten; the retry budget
    // recovers within its bounded window instead of hanging.
    injectRaw({proto::syncByte, 6, 0x01});
    EXPECT_EQ(session->read32(0x5000, sim::oneSec).value_or(0),
              0xCAFEu);
    EXPECT_TRUE(session->open());
    session->resume();
    EXPECT_TRUE(rig.board.waitPassive(5 * sim::oneSec));
}

TEST(FaultInjector, DisabledInjectorIsBitIdenticalToNoInjector)
{
    // The zero-cost-when-off guarantee: a full save/tether/session/
    // restore cycle runs tick-for-tick identically whether a
    // disabled injector is attached or no injector exists at all.
    struct Result
    {
        sim::Tick halted;
        double saved, restored;
        std::uint64_t frames;

        bool
        operator==(const Result &o) const
        {
            return halted == o.halted && saved == o.saved &&
                   restored == o.restored && frames == o.frames;
        }
    };
    auto run = [](bool attach_disabled_injector) {
        SessionRig rig;
        sim::FaultPlan off;
        off.enabled = false;
        off.uartCorruptProb = 1.0; // would be catastrophic if live
        off.uartDropProb = 1.0;
        off.adcGlitchProb = 1.0;
        sim::FaultInjector inj(rig.sim, "inj", off);
        if (attach_disabled_injector)
            rig.board.injectFaults(&inj);
        EXPECT_TRUE(rig.board.waitForSession(sim::oneSec));
        rig.board.session()->read32(0x5000);
        rig.board.session()->resume();
        rig.board.pumpUntil(
            [&rig] {
                return rig.wisp.state() == mcu::McuState::Halted;
            },
            sim::oneSec);
        return Result{rig.sim.now(), rig.board.lastSavedVolts(),
                      rig.board.lastRestoredVolts(),
                      rig.board.protocolEngine().stats().framesOk};
    };
    EXPECT_TRUE(run(true) == run(false));
}

TEST(FaultedRun, ForcedBrownOutRebootsLinkedListApp)
{
    sim::Simulator simulator(88);
    energy::TheveninHarvester supply(3.0, 200.0);
    sim::FaultPlan plan;
    plan.brownOuts = {{40 * sim::oneMs, 0.5}};
    sim::FaultInjector inj(simulator, "inj", plan);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    wisp.attachFaults(&inj);
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();
    inj.armBrownOuts(0);
    simulator.runFor(sim::oneSec);
    EXPECT_EQ(inj.stats().brownOutsForced, 1u);
    EXPECT_GE(wisp.power().brownOutCount(), 1u);
    EXPECT_GE(wisp.power().bootCount(), 2u);
}

} // namespace
