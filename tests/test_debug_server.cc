/**
 * @file
 * Debug-server and virtual-breakpoint tests (DESIGN.md §13): the
 * condition grammar and its strictly read-only evaluation (registers,
 * NV/SRAM words, capacitor voltage including exactly-at-threshold),
 * the zero-energy proof (per-world digests bit-identical with a
 * server + breakpoints attached vs a bare fleet), and the server's
 * robustness machinery — busy backpressure, command deadlines, idle
 * aborts, quota/ownership/range errors, read-only write rejection,
 * JSON parser hardening, and stuck-session accounting for wires that
 * die mid-frame.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "edb/server.hh"
#include "edb/vbreak.hh"
#include "fleet/fleet.hh"
#include "isa/assembler.hh"
#include "isa/listing.hh"
#include "sim/rng.hh"
#include "target/wisp.hh"

using namespace edb;
using edbdbg::DebugServer;
using edbdbg::JsonValue;
using edbdbg::RpcClient;
using edbdbg::ServerConfig;
using edbdbg::SessionOutcome;
using edbdbg::VBreakCondition;

namespace {

/** One-tag charged fleet: the target executes from epoch one. */
fleet::FleetConfig
tinyFleet(unsigned tags = 1)
{
    fleet::FleetConfig cfg;
    cfg.tags = tags;
    cfg.threads = 0;
    cfg.seed = 42;
    cfg.wisp.power.initialVolts = 2.6;
    cfg.wisp.power.capacitanceF = 4700e-9;
    cfg.wisp.mcu.checkpointingEnabled = true;
    return cfg;
}

bool
evalOn(const target::Wisp &wisp, const std::string &text)
{
    auto cond = VBreakCondition::parse(text);
    EXPECT_TRUE(cond.has_value()) << text;
    return cond && cond->eval(wisp);
}

/** Find the response carrying `id` in a drained batch. */
const JsonValue *
findId(const std::vector<JsonValue> &batch, std::uint64_t id)
{
    for (const JsonValue &r : batch)
        if (r.getUint("id").value_or(0) == id)
            return &r;
    return nullptr;
}

bool
isErr(const JsonValue &r, const std::string &code)
{
    const JsonValue *ok = r.get("ok");
    return ok && !ok->boolean(true) &&
           r.getStr("err").value_or("") == code;
}

} // namespace

// ---------------------------------------------------------------------
// Condition grammar

TEST(VBreakCondition, ParsesValidExpressions)
{
    const char *good[] = {
        "",
        "r0==0",
        "r15 != 0x10",
        "pc>=0x4000",
        "vcap>1.8",
        "instrs<1000000",
        "cycles >= 5",
        "nv[0x4000]==0xdeadbeef",
        "sram[0x0400]<256",
        "r1>2&&r2<5",
        "r1>2||r2<5",
        "(r1>2||r2<5)&&vcap>=0.5",
        "vcap<1.802",
        "r3==0XFF",
        "instrs<18446744073709551615",
        "r007==7",
    };
    for (const char *text : good) {
        std::string why;
        EXPECT_TRUE(VBreakCondition::parse(text, &why).has_value())
            << text << ": " << why;
    }
    EXPECT_TRUE(VBreakCondition::parse("")->unconditional());
    EXPECT_FALSE(VBreakCondition::parse("r0==0")->unconditional());
}

TEST(VBreakCondition, RejectsMalformedExpressions)
{
    const char *bad[] = {
        "r0",          // missing relop
        "r0==",        // missing rhs
        "==5",         // missing lhs
        "(r0==1",      // unbalanced paren
        "r99==0",      // register out of range
        "nv[==0",      // broken index
        "bogus==1",    // unknown operand
        "r0 = 1",      // assignment is not comparison
        "r0==1 &&",    // dangling conjunction
        "r0==1 extra", // trailing junk
        "nv[nan]==0",  // index is not an address...
        "nv[-4]==0",
        "sram[1.5]==0",
        "nv[1e20]==0", // ...nor is one past 32 bits
        "nv[0x100000000]==0",
        "vcap<nan",    // literals: unsigned integers or plain
        "r0==inf",     // decimal fractions only
        "r1>=0x1p4",
        "r2<-5",
        "r0==1e400",
        "vcap>.5",
        "vcap>1.",
        "r0==18446744073709551616",
        "r4294967296==0", // register indices must not wrap
        "r4294967297==0",
    };
    for (const char *text : bad) {
        std::string why;
        EXPECT_FALSE(VBreakCondition::parse(text, &why).has_value())
            << text;
        EXPECT_FALSE(why.empty()) << text;
    }
}

// ---------------------------------------------------------------------
// Evaluation against a live target

TEST(VBreakCondition, EvaluatesRegisters)
{
    fleet::Fleet fleet(tinyFleet());
    target::Wisp &wisp = fleet.world(0).wisp();
    wisp.mcu().setReg(2, 41);
    EXPECT_TRUE(evalOn(wisp, "r2==41"));
    EXPECT_TRUE(evalOn(wisp, "r2>=41"));
    EXPECT_TRUE(evalOn(wisp, "r2<=41"));
    EXPECT_TRUE(evalOn(wisp, "r2>40"));
    EXPECT_TRUE(evalOn(wisp, "r2<42"));
    EXPECT_FALSE(evalOn(wisp, "r2!=41"));
    EXPECT_FALSE(evalOn(wisp, "r2>41"));
    wisp.mcu().setReg(3, 7);
    EXPECT_TRUE(evalOn(wisp, "r2==41&&r3==7"));
    EXPECT_FALSE(evalOn(wisp, "r2==41&&r3==8"));
    EXPECT_TRUE(evalOn(wisp, "r2==0||r3==7"));
    // && binds tighter than ||: true || (false && false).
    EXPECT_TRUE(evalOn(wisp, "r3==7||r3==8&&r2==0"));
}

TEST(VBreakCondition, EvaluatesNvAndSramWords)
{
    fleet::Fleet fleet(tinyFleet());
    target::Wisp &wisp = fleet.world(0).wisp();
    namespace lay = target::layout;

    const mem::Addr nvAddr = lay::framBase + lay::framSize - 8;
    wisp.framRegion().write32(nvAddr, 0xCAFEF00Du);
    char buf[64];
    std::snprintf(buf, sizeof buf, "nv[0x%x]==0xcafef00d", nvAddr);
    EXPECT_TRUE(evalOn(wisp, buf));
    std::snprintf(buf, sizeof buf, "nv[0x%x]!=0xcafef00d", nvAddr);
    EXPECT_FALSE(evalOn(wisp, buf));

    const mem::Addr ramAddr = lay::sramBase + 0x100;
    wisp.sramRegion().write32(ramAddr, 1234);
    std::snprintf(buf, sizeof buf, "sram[0x%x]==1234", ramAddr);
    EXPECT_TRUE(evalOn(wisp, buf));

    // Out-of-range indices evaluate to 0 — never a fault.
    EXPECT_TRUE(evalOn(wisp, "nv[0x0]==0"));
    EXPECT_TRUE(evalOn(wisp, "sram[0xffffff00]==0"));
}

TEST(VBreakCondition, NearOverflowAddressesEvaluateToZero)
{
    fleet::Fleet fleet(tinyFleet());
    target::Wisp &wisp = fleet.world(0).wisp();
    namespace lay = target::layout;

    // `addr + 4` wraps in 32-bit arithmetic up here; a naive bounds
    // check passes and reads ~4 GB past the region buffer.
    EXPECT_TRUE(evalOn(wisp, "nv[0xfffffffe]==0"));
    EXPECT_TRUE(evalOn(wisp, "nv[0xfffffffc]==0"));
    EXPECT_TRUE(evalOn(wisp, "sram[0xffffffff]==0"));

    // The last fully in-range word still reads normally...
    const mem::Addr last = lay::framBase + lay::framSize - 4;
    wisp.framRegion().write32(last, 0x11223344u);
    char buf[64];
    std::snprintf(buf, sizeof buf, "nv[0x%x]==0x11223344", last);
    EXPECT_TRUE(evalOn(wisp, buf));
    // ...and one byte further straddles the end: out of range again.
    std::snprintf(buf, sizeof buf, "nv[0x%x]==0", last + 1);
    EXPECT_TRUE(evalOn(wisp, buf));
}

// ---------------------------------------------------------------------
// Probe tracer chaining

TEST(WorldProbe, ChainsUnderAndRestoresWorldOwnedTracer)
{
    fleet::Fleet fleet(tinyFleet());
    target::Wisp &wisp = fleet.world(0).wisp();

    // Stand-in for a world-owned tracer (the WAR-gadget watch on
    // auditor-completeness worlds).
    int worldHookCalls = 0;
    wisp.mcu().setTracer(
        [&worldHookCalls](mem::Addr, const isa::Instr &) {
            ++worldHookCalls;
        });

    edbdbg::WorldProbe probe;
    edbdbg::VirtualBreakpoint bp;
    bp.id = 1;
    bp.sessionId = 1;
    bp.addr = 0x9000;
    probe.put(bp);
    probe.install(wisp);
    // Reinstall on the same core is a no-op — no self-chaining.
    probe.install(wisp);

    const isa::Instr nop;
    wisp.mcu().tracerHook()(0x9000, nop);
    EXPECT_EQ(worldHookCalls, 1); // world's own hook still fires
    EXPECT_EQ(probe.evals(), 1u); // exactly once — not chained twice
    EXPECT_EQ(probe.drainHits().size(), 1u);

    probe.uninstall();
    ASSERT_TRUE(static_cast<bool>(wisp.mcu().tracerHook()));
    wisp.mcu().tracerHook()(0x9000, nop);
    EXPECT_EQ(worldHookCalls, 2); // restored, not cleared
    EXPECT_EQ(probe.evals(), 1u); // probe detached
}

TEST(VBreakCondition, VcapExactlyAtThreshold)
{
    fleet::Fleet fleet(tinyFleet());
    target::Wisp &wisp = fleet.world(0).wisp();
    wisp.power().capacitor().setVoltage(1.8);
    EXPECT_TRUE(evalOn(wisp, "vcap>=1.8"));
    EXPECT_TRUE(evalOn(wisp, "vcap<=1.8"));
    EXPECT_TRUE(evalOn(wisp, "vcap==1.8"));
    EXPECT_FALSE(evalOn(wisp, "vcap>1.8"));
    EXPECT_FALSE(evalOn(wisp, "vcap<1.8"));
    EXPECT_TRUE(evalOn(wisp, "vcap>1.7"));
}

TEST(VBreakCondition, EvaluationDrawsNoEnergy)
{
    fleet::Fleet fleet(tinyFleet());
    fleet.runEpochs(3);
    const target::Wisp &wisp = fleet.world(0).wisp();
    const double before = wisp.power().voltageNoAdvance();
    for (int i = 0; i < 1000; ++i) {
        evalOn(wisp, "vcap>1.0&&r2>=0");
        evalOn(wisp, "nv[0x4000]==0||sram[0x0400]!=0");
    }
    // Bitwise equality: eval may not advance the analog model.
    EXPECT_EQ(before, wisp.power().voltageNoAdvance());
}

// ---------------------------------------------------------------------
// Zero-energy proof: digest parity with a server attached

TEST(DebugServer, DigestParityWithBreakpointsAttached)
{
    const unsigned epochs = 24;
    const fleet::FleetConfig cfg = tinyFleet(2);

    std::vector<fleet::WorldDigest> served;
    {
        fleet::Fleet fleet(cfg);
        DebugServer server(fleet);
        isa::Program image =
            isa::assemble(fleet::Fleet::defaultFirmware().listing);
        server.setSymbols(isa::SymbolTable::fromProgram(image));

        RpcClient rpc(server, "parity");
        rpc.request("\"m\":\"attach\",\"world\":0");
        rpc.request("\"m\":\"setbreak\",\"addr\":\"0x4000\","
                    "\"cond\":\"vcap>0.1\"");
        rpc.request("\"m\":\"setbreak\",\"addr\":\"0x4004\","
                    "\"cond\":\"instrs>10&&r2>=0\"");
        for (unsigned e = 0; e < epochs; ++e) {
            if (e % 4 == 0)
                rpc.request("\"m\":\"regs\"");
            rpc.pump();
            rpc.takeResponses();
            rpc.takeEvents();
            server.runEpoch();
        }
        ASSERT_EQ(fleet.epochsRun(), epochs);
        EXPECT_EQ(server.stats().interferenceViolations, 0u);
        EXPECT_GT(server.stats().commandsServed, 0u);
        served = fleet.digests();
    }

    fleet::Fleet bare(cfg);
    bare.runEpochs(epochs);
    std::vector<fleet::WorldDigest> ref = bare.digests();
    ASSERT_EQ(served.size(), ref.size());
    for (std::size_t w = 0; w < ref.size(); ++w)
        EXPECT_TRUE(served[w] == ref[w]) << "world " << w;
}

// ---------------------------------------------------------------------
// JSON hardening

TEST(JsonValue, SurvivesByteSoup)
{
    std::uint64_t state = 7;
    auto next = [&state] { return state = sim::splitmix64(state); };
    for (int trial = 0; trial < 2000; ++trial) {
        std::string soup;
        std::size_t len = next() % 64;
        for (std::size_t i = 0; i < len; ++i)
            soup.push_back(static_cast<char>(next() & 0xFF));
        JsonValue::parse(soup); // must not crash or hang
    }
    EXPECT_FALSE(JsonValue::parse("{\"a\":").has_value());
    EXPECT_FALSE(JsonValue::parse("[1,2").has_value());
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(JsonValue::parse("nul").has_value());
}

TEST(JsonValue, DepthCapRejectsAdversarialNesting)
{
    std::string deep;
    for (int i = 0; i < 64; ++i)
        deep += "[";
    for (int i = 0; i < 64; ++i)
        deep += "]";
    EXPECT_FALSE(JsonValue::parse(deep).has_value());
    EXPECT_TRUE(JsonValue::parse("[[[[1]]]]").has_value());

    auto obj = JsonValue::parse(
        "{\"id\":7,\"m\":\"read\",\"addr\":\"0x4000\",\"len\":16}");
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(obj->getUint("id").value_or(0), 7u);
    EXPECT_EQ(obj->getUint("addr").value_or(0), 0x4000u);
    EXPECT_EQ(obj->getStr("m").value_or(""), "read");
}

TEST(JsonValue, NumbersFollowTheJsonGrammar)
{
    for (const char *bad : {"-nan", "+nan", "nan", "inf", "-inf", "+1",
                            "0x2", "01", "-", "1.", ".5", "1e", "1e+"})
        EXPECT_FALSE(JsonValue::parse(bad).has_value()) << bad;
    for (const char *good : {"0", "-0", "7", "-12", "1.5", "1e3", "2E+2",
                             "1.25e-3"})
        EXPECT_TRUE(JsonValue::parse(good).has_value()) << good;
}

TEST(JsonValue, StringsFollowTheJsonGrammar)
{
    // RFC 8259 §7: a \u escape takes exactly four hex digits, and
    // control characters must be escaped.
    for (const char *bad :
         {"\"\\uZZZZ\"", "\"\\u00zz\"", "\"\\u12\"", "\"\\u\"",
          "\"a\x01" "b\"", "\"tab\there\"", "\"nl\nx\"", "\"\x1f\""})
        EXPECT_FALSE(JsonValue::parse(bad).has_value()) << bad;
    for (const char *good :
         {"\"\\u0041\"", "\"\\uBEEF\"", "\"a\\tb\"", "\" \x7f\""})
        EXPECT_TRUE(JsonValue::parse(good).has_value()) << good;
    auto v = JsonValue::parse("\"x\\u00e9y\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str(), "x?y");
}

TEST(JsonValue, GetUintTakesOnlyUnsignedIntegers)
{
    auto uintOf = [](const std::string &member) {
        auto v = JsonValue::parse("{\"a\":" + member + "}");
        EXPECT_TRUE(v.has_value()) << member;
        return v ? v->getUint("a") : std::nullopt;
    };
    EXPECT_EQ(uintOf("42"), 42u);
    EXPECT_EQ(uintOf("\"42\""), 42u);
    EXPECT_EQ(uintOf("\"0x4000\""), 0x4000u);
    EXPECT_EQ(uintOf("\"18446744073709551615\""), UINT64_MAX);
    for (const char *bad :
         {"1.5", "-1", "1e300", "\"\"", "\"0x\"", "\" 7\"", "\"7 \"",
          "\"+7\"", "\"-7\"", "\"-0x7\"", "\"07\"", "\"0x-7\"",
          "\"18446744073709551616\"", "\"1.5\"", "true", "[1]"})
        EXPECT_FALSE(uintOf(bad).has_value()) << bad;
}

// ---------------------------------------------------------------------
// Server robustness units

namespace {

/** Drive until the response with `id` shows up (or epochs exhaust). */
std::optional<JsonValue>
awaitId(RpcClient &rpc, std::uint64_t id, unsigned epochs = 20)
{
    return rpc.await(id, epochs);
}

} // namespace

TEST(DebugServer, AttachValidation)
{
    fleet::Fleet fleet(tinyFleet(2));
    DebugServer server(fleet);
    RpcClient rpc(server, "t");

    std::uint64_t before =
        rpc.request("\"m\":\"regs\""); // not attached yet
    std::uint64_t badWorld =
        rpc.request("\"m\":\"attach\",\"world\":99");
    std::uint64_t okId = rpc.request("\"m\":\"attach\",\"world\":1");
    std::uint64_t again = rpc.request("\"m\":\"attach\",\"world\":0");

    auto r = awaitId(rpc, again);
    ASSERT_TRUE(r.has_value());
    std::vector<JsonValue> all = rpc.takeResponses();
    all.push_back(*r);
    const JsonValue *rb = findId(all, before);
    const JsonValue *rw = findId(all, badWorld);
    const JsonValue *ro = findId(all, okId);
    ASSERT_TRUE(rb && rw && ro);
    EXPECT_TRUE(isErr(*rb, "detached"));
    EXPECT_TRUE(isErr(*rw, "world"));
    EXPECT_TRUE(ro->get("ok")->boolean(false));
    EXPECT_EQ(ro->getUint("world").value_or(99), 1u);
    EXPECT_TRUE(isErr(*r, "attached"));
}

TEST(DebugServer, BusyBackpressureOnCommandFlood)
{
    fleet::Fleet fleet(tinyFleet());
    ServerConfig cfg;
    cfg.maxPendingCmds = 4;
    DebugServer server(fleet, cfg);
    RpcClient rpc(server, "flood");

    rpc.request("\"m\":\"attach\",\"world\":0");
    // One pump moves all staged frames to the server; the next poll
    // parses them in one gulp, overflowing the 4-deep queue.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 12; ++i)
        ids.push_back(rpc.request("\"m\":\"ping\""));
    auto last = awaitId(rpc, ids.back(), 30);
    ASSERT_TRUE(last.has_value());
    std::vector<JsonValue> all = rpc.takeResponses();
    all.push_back(*last);
    unsigned busy = 0, okCount = 0;
    for (std::uint64_t id : ids) {
        const JsonValue *r = findId(all, id);
        ASSERT_NE(r, nullptr) << "lost response id " << id;
        if (isErr(*r, "busy"))
            ++busy;
        else if (r->get("ok") && r->get("ok")->boolean(false))
            ++okCount;
    }
    EXPECT_GT(busy, 0u) << "queue overflow must answer busy";
    EXPECT_GT(okCount, 0u);
    EXPECT_EQ(server.stats().commandsBackpressured, busy);
    EXPECT_EQ(server.stuckSessions(), 0u);
}

TEST(DebugServer, StaleCommandsFailDeadline)
{
    fleet::Fleet fleet(tinyFleet());
    ServerConfig cfg;
    cfg.commandsPerPoll = 1; // one command per epoch...
    cfg.commandDeadline = sim::oneUs; // ...and a 1 µs deadline
    DebugServer server(fleet, cfg);
    RpcClient rpc(server, "stale");

    std::uint64_t attach = rpc.request("\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(rpc, attach).has_value());
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(rpc.request("\"m\":\"ping\""));
    auto last = awaitId(rpc, ids.back(), 30);
    ASSERT_TRUE(last.has_value());
    std::vector<JsonValue> all = rpc.takeResponses();
    all.push_back(*last);
    unsigned deadlined = 0;
    for (std::uint64_t id : ids)
        if (const JsonValue *r = findId(all, id))
            if (isErr(*r, "deadline"))
                ++deadlined;
    // The first command of each poll executes; queued followers age a
    // whole epoch (5 ms) past the 1 µs deadline and must fail loudly.
    EXPECT_GT(deadlined, 0u);
    EXPECT_EQ(server.stats().commandsDeadlined, deadlined);
}

TEST(DebugServer, IdleSessionProbedThenAborted)
{
    fleet::Fleet fleet(tinyFleet());
    ServerConfig cfg;
    cfg.idleTimeout = 8 * sim::oneMs; // under two epochs
    cfg.maxProbes = 2;
    DebugServer server(fleet, cfg);
    RpcClient rpc(server, "sleeper");

    std::uint64_t attach = rpc.request("\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(rpc, attach).has_value());
    // Now go silent. The server must ping, then give up — bounded.
    bool sawPing = false, sawBye = false;
    for (unsigned e = 0; e < 40 && !sawBye; ++e) {
        server.runEpoch();
        rpc.pump();
        for (const JsonValue &ev : rpc.takeEvents()) {
            std::string kind = ev.getStr("ev").value_or("");
            sawPing = sawPing || kind == "ping";
            sawBye = sawBye || kind == "bye";
        }
    }
    EXPECT_TRUE(sawPing);
    EXPECT_TRUE(sawBye);
    EXPECT_EQ(server.stats().sessionsAborted, 1u);
    EXPECT_EQ(server.activeSessions(), 0u);
    ASSERT_EQ(server.reports().size(), 1u);
    const edbdbg::SessionReport &rpt = server.reports()[0];
    EXPECT_EQ(rpt.outcome, SessionOutcome::Aborted);
    EXPECT_EQ(rpt.reason, "idle");
    EXPECT_LE(server.stats().probesSent,
              static_cast<std::uint64_t>(cfg.maxProbes));
}

TEST(DebugServer, BreakpointQuotaCondAndOwnership)
{
    fleet::Fleet fleet(tinyFleet());
    ServerConfig cfg;
    cfg.maxBreakpointsPerSession = 2;
    DebugServer server(fleet, cfg);

    RpcClient alice(server, "alice");
    std::uint64_t a1 = alice.request("\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(alice, a1).has_value());
    std::uint64_t b1 = alice.request(
        "\"m\":\"setbreak\",\"addr\":\"0x4000\"");
    std::uint64_t b2 = alice.request(
        "\"m\":\"setbreak\",\"addr\":\"0x4002\",\"cond\":\"r1>0\"");
    std::uint64_t b3 = alice.request(
        "\"m\":\"setbreak\",\"addr\":\"0x4004\""); // over quota
    std::uint64_t b4 = alice.request(
        "\"m\":\"setbreak\",\"cond\":\"r1>0\""); // no addr
    auto last = awaitId(alice, b4);
    ASSERT_TRUE(last.has_value());
    std::vector<JsonValue> all = alice.takeResponses();
    all.push_back(*last);
    const JsonValue *r1 = findId(all, b1);
    const JsonValue *r2 = findId(all, b2);
    const JsonValue *r3 = findId(all, b3);
    ASSERT_TRUE(r1 && r2 && r3);
    EXPECT_TRUE(r1->get("ok")->boolean(false));
    std::uint64_t bkId = r1->getUint("bk").value_or(0);
    EXPECT_NE(bkId, 0u);
    EXPECT_TRUE(r2->get("ok")->boolean(false));
    EXPECT_TRUE(isErr(*r3, "quota"));
    EXPECT_TRUE(isErr(*last, "addr"));

    // Bad condition text is a parse-time error, not a silent pass.
    std::uint64_t bad = alice.request(
        "\"m\":\"clearbreak\",\"bk\":" + std::to_string(bkId));
    auto cleared = awaitId(alice, bad);
    ASSERT_TRUE(cleared.has_value());
    EXPECT_TRUE(cleared->get("ok")->boolean(false));
    std::uint64_t badCond = alice.request(
        "\"m\":\"setbreak\",\"addr\":\"0x4006\","
        "\"cond\":\"bogus==\"");
    auto rc = awaitId(alice, badCond);
    ASSERT_TRUE(rc.has_value());
    EXPECT_TRUE(isErr(*rc, "cond"));

    // Bob cannot clear what remains of Alice's set.
    std::uint64_t b2Id = r2->getUint("bk").value_or(0);
    RpcClient bob(server, "bob");
    std::uint64_t battach = bob.request(
        "\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(bob, battach).has_value());
    std::uint64_t steal = bob.request(
        "\"m\":\"clearbreak\",\"bk\":" + std::to_string(b2Id));
    auto rs = awaitId(bob, steal);
    ASSERT_TRUE(rs.has_value());
    EXPECT_TRUE(isErr(*rs, "bk"));

    // Nor can Alice reach it through an id that truncates to it.
    std::uint64_t alias = alice.request(
        "\"m\":\"clearbreak\",\"bk\":" +
        std::to_string(b2Id + (std::uint64_t{1} << 32)));
    auto ra = awaitId(alice, alias);
    ASSERT_TRUE(ra.has_value());
    EXPECT_TRUE(isErr(*ra, "bk"));
}

TEST(DebugServer, ReadOnlySessionsCannotWrite)
{
    fleet::Fleet fleet(tinyFleet());
    DebugServer server(fleet);

    RpcClient ro(server, "ro");
    std::uint64_t a = ro.request("\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(ro, a).has_value());
    std::uint64_t w = ro.request(
        "\"m\":\"write\",\"addr\":\"0x4100\",\"d\":\"aa\"");
    auto rr = awaitId(ro, w);
    ASSERT_TRUE(rr.has_value());
    EXPECT_TRUE(isErr(*rr, "ro"));

    RpcClient rw(server, "rw");
    std::uint64_t a2 = rw.request(
        "\"m\":\"attach\",\"world\":0,\"mode\":\"rw\"");
    ASSERT_TRUE(awaitId(rw, a2).has_value());
    std::uint64_t w2 = rw.request(
        "\"m\":\"write\",\"addr\":\"0x4100\",\"d\":\"a55a\"");
    auto wr = awaitId(rw, w2);
    ASSERT_TRUE(wr.has_value());
    ASSERT_TRUE(wr->get("ok")->boolean(false));
    EXPECT_EQ(wr->getUint("n").value_or(0), 2u);
    std::uint64_t rd = rw.request(
        "\"m\":\"read\",\"addr\":\"0x4100\",\"len\":2");
    auto rv = awaitId(rw, rd);
    ASSERT_TRUE(rv.has_value());
    EXPECT_EQ(rv->getStr("d").value_or(""), "a55a");

    // Out-of-range reads are refused, never serviced partially.
    std::uint64_t oob = rw.request(
        "\"m\":\"read\",\"addr\":\"0xeff0\",\"len\":32");
    auto ov = awaitId(rw, oob);
    ASSERT_TRUE(ov.has_value());
    EXPECT_TRUE(isErr(*ov, "range"));
    EXPECT_EQ(server.stats().oversizeReplies, 0u);
}

TEST(DebugServer, NonIntegerIdsAreMalformed)
{
    fleet::Fleet fleet(tinyFleet());
    DebugServer server(fleet);
    edbdbg::ClientWire *wire = server.connect("ids");
    ASSERT_NE(wire, nullptr);
    const char *ids[] = {"-nan", "+nan", "inf", "0x2", "1.5", "01"};
    for (const char *id : ids) {
        std::string req =
            std::string("{\"id\":") + id + ",\"m\":\"ping\"}";
        ASSERT_TRUE(wire->toServer(edbdbg::buildFrame(
            std::vector<std::uint8_t>(req.begin(), req.end()))));
    }
    server.runEpoch();
    EXPECT_EQ(server.stats().framesIn, std::size(ids));
    EXPECT_EQ(server.stats().malformedJson, std::size(ids));
    EXPECT_EQ(server.stats().commandsServed, 0u);
}

TEST(DebugServer, MalformedStringsAreMalformed)
{
    fleet::Fleet fleet(tinyFleet());
    DebugServer server(fleet);
    edbdbg::ClientWire *wire = server.connect("strings");
    ASSERT_NE(wire, nullptr);
    const std::string reqs[] = {
        "{\"id\":1,\"m\":\"pi\\u00zzng\"}",
        "{\"id\":2,\"m\":\"\\uZZZZ\"}",
        "{\"id\":3,\"m\":\"pi\x01" "ng\"}",
    };
    for (const std::string &req : reqs)
        ASSERT_TRUE(wire->toServer(edbdbg::buildFrame(
            std::vector<std::uint8_t>(req.begin(), req.end()))));
    server.runEpoch();
    EXPECT_EQ(server.stats().framesIn, std::size(reqs));
    EXPECT_EQ(server.stats().malformedJson, std::size(reqs));
    EXPECT_EQ(server.stats().commandsServed, 0u);
}

TEST(DebugServer, AddressesOutsideTheAddressSpaceAreRejected)
{
    fleet::Fleet fleet(tinyFleet());
    DebugServer server(fleet);
    RpcClient rpc(server, "alias");
    std::uint64_t a = rpc.request("\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(rpc, a).has_value());

    // Each of these once aliased SRAM at 0x400: through truncation to
    // 32 bits, or through strtoull's sign and space handling.
    for (const char *addr : {"\"0x100000400\"", "4294968320",
                             "\"-0xFFFFFC00\"", "\" 0x400\""}) {
        std::uint64_t rd =
            rpc.request(std::string("\"m\":\"read\",\"addr\":") + addr);
        auto r = awaitId(rpc, rd);
        ASSERT_TRUE(r.has_value()) << addr;
        EXPECT_TRUE(isErr(*r, "range")) << addr;
    }
    std::uint64_t bk = rpc.request(
        "\"m\":\"setbreak\",\"addr\":\"0x100004000\"");
    auto rb = awaitId(rpc, bk);
    ASSERT_TRUE(rb.has_value());
    EXPECT_TRUE(isErr(*rb, "addr"));

    std::uint64_t rd = rpc.request("\"m\":\"read\",\"addr\":\"0x400\"");
    auto r = awaitId(rpc, rd);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->get("ok")->boolean(false));
}

TEST(DebugServer, BreakpointHitsSurviveRebalancing)
{
    // A probe is installed once, at setbreak. Rebalancing every epoch
    // on two shards re-homes the worlds under their probes, so each
    // client sees exactly the hits of the inline fleet, where no
    // world ever changes shard.
    auto hitLog = [](unsigned threads, std::uint64_t &migrations) {
        fleet::FleetConfig fcfg = tinyFleet(4);
        fcfg.threads = threads;
        fcfg.rebalancePeriod = 1;
        fleet::Fleet fleet(fcfg);
        ServerConfig scfg;
        // Room for every hit an epoch can buffer: nothing is shed.
        scfg.maxQueuedBytes = 1 << 16;
        scfg.maxPendingCmds = 128;
        DebugServer server(fleet, scfg);
        server.setSymbols(
            isa::SymbolTable::fromProgram(fleet.worldProgram(0)));
        std::vector<std::unique_ptr<RpcClient>> clients;
        for (std::size_t w = 0; w < fleet.size(); ++w) {
            clients.push_back(std::make_unique<RpcClient>(
                server, "c" + std::to_string(w)));
            clients[w]->request("\"m\":\"attach\",\"world\":" +
                                std::to_string(w));
            clients[w]->request("\"m\":\"setbreak\",\"sym\":\"work\"");
        }
        std::vector<std::string> log;
        for (unsigned e = 0; e < 24; ++e) {
            for (std::size_t c = 0; c < clients.size(); ++c) {
                clients[c]->pump();
                for (const JsonValue &ev : clients[c]->takeEvents())
                    log.push_back(
                        std::to_string(c) + ":" +
                        std::to_string(ev.getUint("bk").value_or(0)) +
                        "@" + std::to_string(ev.getUint("t").value_or(0)) +
                        "#" + std::to_string(ev.getUint("i").value_or(0)));
            }
            server.runEpoch();
        }
        EXPECT_EQ(server.stats().hitsDropped, 0u);
        migrations = fleet.migrations();
        return log;
    };
    std::uint64_t inlineMoves = 0, shardedMoves = 0;
    const std::vector<std::string> inlineHits = hitLog(0, inlineMoves);
    const std::vector<std::string> shardedHits = hitLog(2, shardedMoves);
    EXPECT_EQ(inlineMoves, 0u);
    EXPECT_GT(shardedMoves, 0u);
    ASSERT_FALSE(inlineHits.empty());
    EXPECT_EQ(shardedHits, inlineHits);
}

TEST(DebugServer, SymbolsPaginateAndLookupRoundTrips)
{
    fleet::Fleet fleet(tinyFleet());
    ServerConfig cfg;
    cfg.symbolsPerPage = 2;
    DebugServer server(fleet, cfg);
    isa::Program image =
        isa::assemble(fleet::Fleet::defaultFirmware().listing);
    isa::SymbolTable syms = isa::SymbolTable::fromProgram(image);
    server.setSymbols(syms);
    const std::size_t total = syms.symbols().size();
    ASSERT_GT(total, 2u);

    RpcClient rpc(server, "sym");
    std::size_t seen = 0;
    std::string firstName;
    for (std::size_t off = 0; off < total;
         off += cfg.symbolsPerPage) {
        std::uint64_t id = rpc.request(
            "\"m\":\"symbols\",\"off\":" + std::to_string(off));
        auto r = awaitId(rpc, id);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->getUint("total").value_or(0), total);
        const JsonValue *page = r->get("syms");
        ASSERT_NE(page, nullptr);
        EXPECT_LE(page->arr().size(), cfg.symbolsPerPage);
        seen += page->arr().size();
        if (off == 0 && !page->arr().empty())
            firstName = page->arr()[0].arr()[0].str();
    }
    EXPECT_EQ(seen, total);

    std::uint64_t lk = rpc.request(
        "\"m\":\"lookup\",\"sym\":\"" + firstName + "\"");
    auto lr = awaitId(rpc, lk);
    ASSERT_TRUE(lr.has_value());
    ASSERT_TRUE(lr->get("ok")->boolean(false));
    std::uint64_t addr = lr->getUint("v").value_or(0);
    std::uint64_t back = rpc.request(
        "\"m\":\"lookup\",\"addr\":" + std::to_string(addr));
    auto br = awaitId(rpc, back);
    ASSERT_TRUE(br.has_value());
    EXPECT_EQ(br->getStr("sym").value_or(""), firstName);

    std::uint64_t unk = rpc.request(
        "\"m\":\"lookup\",\"sym\":\"no_such_symbol\"");
    auto ur = awaitId(rpc, unk);
    ASSERT_TRUE(ur.has_value());
    EXPECT_TRUE(isErr(*ur, "sym"));
}

TEST(DebugServer, MidFrameDisconnectNeverWedges)
{
    fleet::Fleet fleet(tinyFleet());
    DebugServer server(fleet);
    edbdbg::ClientWire *wire = server.connect("halfframe");
    ASSERT_NE(wire, nullptr);

    // A valid attach, then a frame that stops after the length byte:
    // sync + len(40) and silence.
    std::string attach = "{\"id\":1,\"m\":\"attach\",\"world\":0}";
    wire->toServer(edbdbg::buildFrame(
        std::vector<std::uint8_t>(attach.begin(), attach.end())));
    wire->toServer({0x7E, 40, 0x11, 0x22});
    server.runEpochs(3);
    // Mid-frame with a live wire is not stuck — the inter-byte
    // timeout will resync. Kill the wire: the reaper must retire the
    // session, half-frame and all.
    wire->disconnect();
    server.runEpoch();
    server.poll();
    EXPECT_EQ(server.stuckSessions(), 0u);
    EXPECT_EQ(server.activeSessions(), 0u);
    ASSERT_EQ(server.reports().size(), 1u);
    EXPECT_EQ(server.reports()[0].outcome,
              SessionOutcome::Disconnected);
}

TEST(DebugServer, DetachLeavesCompletedReport)
{
    fleet::Fleet fleet(tinyFleet());
    DebugServer server(fleet);
    RpcClient rpc(server, "polite");
    std::uint64_t a = rpc.request("\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(rpc, a).has_value());
    std::uint64_t d = rpc.request("\"m\":\"detach\"");
    auto r = awaitId(rpc, d);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->get("ok")->boolean(false));
    ASSERT_EQ(server.reports().size(), 1u);
    EXPECT_EQ(server.reports()[0].outcome,
              SessionOutcome::Completed);
    EXPECT_GT(server.reports()[0].commandsServed, 0u);
    EXPECT_EQ(server.stuckSessions(), 0u);
}

// ---------------------------------------------------------------------
// Condition parser hardening: round-trip, hostile input, boundaries

TEST(VBreakCondition, TextRoundTripsThroughParse)
{
    fleet::Fleet fleet(tinyFleet());
    target::Wisp &wisp = fleet.world(0).wisp();
    const char *exprs[] = {
        "",
        "r0==0",
        "r15 != 0x10",
        "vcap>1.8",
        "instrs<1000000||cycles>=5",
        "(r1>2||r2<5)&&vcap>=0.5",
        "nv[0x4000]==0&&sram[0x0400]<256",
    };
    for (const char *text : exprs) {
        auto first = VBreakCondition::parse(text);
        ASSERT_TRUE(first.has_value()) << text;
        EXPECT_EQ(first->text(), text);
        // Reparsing the recovered source yields an equivalent
        // condition: same text, same shape, same live verdict.
        auto second = VBreakCondition::parse(first->text());
        ASSERT_TRUE(second.has_value()) << text;
        EXPECT_EQ(second->text(), first->text());
        EXPECT_EQ(second->unconditional(), first->unconditional());
        EXPECT_EQ(second->eval(wisp), first->eval(wisp)) << text;
    }
}

TEST(VBreakCondition, OverlongExpressionRejected)
{
    // Exactly at the 4 KiB cap still parses (trailing whitespace is
    // legal); one byte past is rejected before the parser walks it.
    std::string padded = "r0==0";
    padded.resize(4096, ' ');
    EXPECT_TRUE(VBreakCondition::parse(padded).has_value());
    std::string why;
    padded.push_back(' ');
    EXPECT_FALSE(VBreakCondition::parse(padded, &why).has_value());
    EXPECT_NE(why.find("long"), std::string::npos) << why;

    // A syntactically valid but oversize conjunction chain is
    // rejected by length alone.
    std::string chain = "r0==0";
    while (chain.size() <= 4200)
        chain += "&&r0==0";
    EXPECT_FALSE(VBreakCondition::parse(chain).has_value());
}

TEST(VBreakCondition, DepthCapRejectsDeepNesting)
{
    auto nested = [](unsigned n) {
        std::string s(n, '(');
        s += "r0==0";
        s.append(n, ')');
        return s;
    };
    EXPECT_TRUE(VBreakCondition::parse(nested(8)).has_value());
    EXPECT_TRUE(VBreakCondition::parse(nested(32)).has_value());
    std::string why;
    EXPECT_FALSE(
        VBreakCondition::parse(nested(33), &why).has_value());
    EXPECT_NE(why.find("deep"), std::string::npos) << why;
    // An unterminated paren bomb fails cleanly too — the depth cap
    // fires long before recursion could exhaust the host stack.
    EXPECT_FALSE(
        VBreakCondition::parse(std::string(4000, '(')).has_value());
}

TEST(VBreakCondition, SurvivesMalformedByteSoup)
{
    std::uint64_t state = 99;
    auto next = [&state] { return state = sim::splitmix64(state); };
    // Half grammar-adjacent glyphs (reaches deep parser states),
    // half raw bytes. Parse must never crash, hang, or fail without
    // a reason.
    const char glyphs[] = "r0123456789()&|=<>![]xpcvainstrsyle. ";
    for (int trial = 0; trial < 4000; ++trial) {
        std::string text;
        std::size_t len = next() % 48;
        for (std::size_t i = 0; i < len; ++i) {
            if (next() & 1)
                text.push_back(
                    glyphs[next() % (sizeof glyphs - 1)]);
            else
                text.push_back(static_cast<char>(next() & 0xFF));
        }
        std::string why;
        auto cond = VBreakCondition::parse(text, &why);
        if (!cond.has_value()) {
            EXPECT_FALSE(why.empty());
        }
    }
}

TEST(VBreakCondition, RegionBaseBoundaryAddresses)
{
    fleet::Fleet fleet(tinyFleet());
    target::Wisp &wisp = fleet.world(0).wisp();
    namespace lay = target::layout;
    char buf[64];

    // The first word of each region reads normally...
    wisp.framRegion().write32(lay::framBase, 0xa5a5a5a5u);
    std::snprintf(buf, sizeof buf, "nv[0x%x]==0xa5a5a5a5",
                  lay::framBase);
    EXPECT_TRUE(evalOn(wisp, buf));
    wisp.sramRegion().write32(lay::sramBase, 0x5a5a5a5au);
    std::snprintf(buf, sizeof buf, "sram[0x%x]==0x5a5a5a5a",
                  lay::sramBase);
    EXPECT_TRUE(evalOn(wisp, buf));

    // ...one byte below each base is out of range: reads as zero.
    std::snprintf(buf, sizeof buf, "nv[0x%x]==0", lay::framBase - 1);
    EXPECT_TRUE(evalOn(wisp, buf));
    std::snprintf(buf, sizeof buf, "sram[0x%x]==0",
                  lay::sramBase - 1);
    EXPECT_TRUE(evalOn(wisp, buf));
}

// ---------------------------------------------------------------------
// Static-analysis RPCs: read-only verdicts, budget accounting

TEST(DebugServer, AnalyzeRpcVerdictWithZeroInterference)
{
    const fleet::FleetConfig cfg = tinyFleet(2);

    std::vector<fleet::WorldDigest> served;
    std::uint64_t ran = 0;
    {
        fleet::Fleet fleet(cfg);
        DebugServer server(fleet);
        RpcClient rpc(server, "analyst");
        rpc.request("\"m\":\"attach\",\"world\":0");

        std::uint64_t an = rpc.request("\"m\":\"analyze\"");
        auto ra = awaitId(rpc, an);
        ASSERT_TRUE(ra.has_value());
        EXPECT_TRUE(ra->get("ok")->boolean(false));
        EXPECT_FALSE(ra->getStr("verdict").value_or("").empty());
        EXPECT_GT(ra->getUint("budgetNc").value_or(0), 0u);
        EXPECT_GE(ra->getUint("nrg").value_or(0), 1u);
        EXPECT_GT(ra->getUint("instrs").value_or(0), 0u);

        std::uint64_t wc = rpc.request("\"m\":\"willComplete\"");
        auto rw = awaitId(rpc, wc);
        ASSERT_TRUE(rw.has_value());
        EXPECT_TRUE(rw->get("ok")->boolean(false));
        std::string will = rw->getStr("will").value_or("");
        EXPECT_TRUE(will == "yes" || will == "no" ||
                    will == "maybe" || will == "never" ||
                    will == "unknown")
            << will;

        while (fleet.epochsRun() < 12) {
            server.runEpoch();
            rpc.pump();
            rpc.takeResponses();
            rpc.takeEvents();
        }
        // The virtual charge/restore discipline held bitwise: the
        // read-only analysis moved the capacitor not at all.
        EXPECT_EQ(server.stats().interferenceViolations, 0u);
        ran = fleet.epochsRun();
        served = fleet.digests();
    }

    // And the stronger form: world trajectories with the analysis
    // session attached are bit-identical to a bare fleet's.
    fleet::Fleet bare(cfg);
    bare.runEpochs(static_cast<unsigned>(ran));
    std::vector<fleet::WorldDigest> ref = bare.digests();
    ASSERT_EQ(served.size(), ref.size());
    for (std::size_t w = 0; w < ref.size(); ++w)
        EXPECT_TRUE(served[w] == ref[w]) << "world " << w;
}

TEST(DebugServer, AnalyzeSpamShedsOnEvalBudget)
{
    fleet::Fleet fleet(tinyFleet());
    ServerConfig cfg;
    // The default firmware prices far more than 10 instructions per
    // analyze, so a single served request busts the poll budget.
    cfg.evalBudgetPerPoll = 10;
    DebugServer server(fleet, cfg);
    RpcClient rpc(server, "spammer");
    std::uint64_t attach =
        rpc.request("\"m\":\"attach\",\"world\":0");
    ASSERT_TRUE(awaitId(rpc, attach).has_value());
    for (int i = 0; i < 8; ++i)
        rpc.request("\"m\":\"analyze\"");
    for (unsigned e = 0; e < 20 && server.activeSessions() > 0;
         ++e) {
        server.runEpoch();
        rpc.pump();
        rpc.takeResponses();
        rpc.takeEvents();
    }
    EXPECT_EQ(server.activeSessions(), 0u);
    ASSERT_EQ(server.reports().size(), 1u);
    EXPECT_EQ(server.reports()[0].outcome, SessionOutcome::Shed);
    EXPECT_EQ(server.reports()[0].reason, "eval-budget");
}
