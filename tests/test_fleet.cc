/**
 * @file
 * Fleet subsystem tests: seed derivation, the slotted RF arbiter's
 * determinism contract, the work-stealing pool's batch semantics,
 * shard re-homing, and the headline property — per-world digests
 * bit-identical at 1, 2 and 8 shards (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "fleet/fleet.hh"
#include "fleet/pool.hh"
#include "fleet/world.hh"
#include "isa/assembler.hh"
#include "rfid/channel.hh"
#include "sim/rng.hh"

using namespace edb;

// ---------------------------------------------------------------------
// Seed derivation

TEST(DeriveSeed, NonZeroAndStreamIndependent)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 0; s < 1000; ++s) {
        std::uint64_t d = sim::deriveSeed(42, s);
        EXPECT_NE(d, 0u);
        seen.insert(d);
    }
    // Adjacent streams must not collide.
    EXPECT_EQ(seen.size(), 1000u);
    // Different bases give different streams.
    EXPECT_NE(sim::deriveSeed(1, 7), sim::deriveSeed(2, 7));
}

// ---------------------------------------------------------------------
// Slotted arbiter

TEST(SlottedArbiter, DeterministicAcrossInstances)
{
    rfid::RfEnvConfig env;
    std::vector<std::uint32_t> tags;
    for (std::uint32_t t = 0; t < 40; ++t)
        tags.push_back(t);

    rfid::SlottedArbiter a(env, 99), b(env, 99);
    for (std::uint64_t round = 0; round < 20; ++round) {
        auto ra = a.resolve(round, tags);
        auto rb = b.resolve(round, tags);
        EXPECT_EQ(ra, rb) << "round " << round;
    }
    EXPECT_EQ(a.q(), b.q());
    EXPECT_EQ(a.singlesTotal(), b.singlesTotal());
    EXPECT_EQ(a.collisionsTotal(), b.collisionsTotal());
}

TEST(SlottedArbiter, SeedChangesOutcomes)
{
    rfid::RfEnvConfig env;
    std::vector<std::uint32_t> tags;
    for (std::uint32_t t = 0; t < 64; ++t)
        tags.push_back(t);
    rfid::SlottedArbiter a(env, 1), b(env, 2);
    bool differed = false;
    for (std::uint64_t round = 0; round < 8 && !differed; ++round)
        differed = a.resolve(round, tags) != b.resolve(round, tags);
    EXPECT_TRUE(differed);
}

TEST(SlottedArbiter, QAdaptsUpUnderLoad)
{
    rfid::RfEnvConfig env;
    env.initialQ = 1; // 2 slots for 64 tags: collision storm
    std::vector<std::uint32_t> tags;
    for (std::uint32_t t = 0; t < 64; ++t)
        tags.push_back(t);
    rfid::SlottedArbiter a(env, 5);
    for (std::uint64_t round = 0; round < 12; ++round)
        a.resolve(round, tags);
    EXPECT_GT(a.q(), 1u);
    EXPECT_GT(a.collisionsTotal(), 0u);
}

TEST(SlottedArbiter, SingleTagAlwaysWins)
{
    rfid::RfEnvConfig env;
    rfid::SlottedArbiter a(env, 3);
    std::vector<std::uint32_t> one{7};
    for (std::uint64_t round = 0; round < 6; ++round) {
        auto r = a.resolve(round, one);
        ASSERT_EQ(r.size(), 1u);
        EXPECT_EQ(r[0], rfid::SlotOutcome::Won);
    }
    EXPECT_EQ(a.singlesTotal(), 6u);
    EXPECT_EQ(a.collisionsTotal(), 0u);
}

// ---------------------------------------------------------------------
// Work-stealing pool

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce)
{
    fleet::WorkStealingPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    std::vector<fleet::WorkStealingPool::Task> tasks;
    std::vector<unsigned> home;
    for (int i = 0; i < 100; ++i) {
        tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
        home.push_back(0); // all on one shard: forces stealing
    }
    pool.runBatch(std::move(tasks), home);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    EXPECT_EQ(pool.executedLocal() + pool.executedStolen(), 100u);
}

TEST(WorkStealingPool, InlineModeRunsOnCallerThread)
{
    fleet::WorkStealingPool pool(0);
    EXPECT_EQ(pool.shards(), 1u);
    EXPECT_EQ(pool.threads(), 0u);
    int ran = 0;
    std::vector<fleet::WorkStealingPool::Task> tasks;
    tasks.push_back([&ran] { ++ran; });
    tasks.push_back([&ran] { ++ran; });
    pool.runBatch(std::move(tasks), {0, 0});
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(pool.executedStolen(), 0u);
}

TEST(WorkStealingPool, BackToBackBatches)
{
    fleet::WorkStealingPool pool(2);
    std::atomic<int> n{0};
    for (int batch = 0; batch < 10; ++batch) {
        std::vector<fleet::WorkStealingPool::Task> tasks;
        for (int i = 0; i < 8; ++i)
            tasks.push_back([&n] { n.fetch_add(1); });
        pool.runBatch(std::move(tasks),
                      {0, 1, 0, 1, 0, 1, 0, 1});
    }
    EXPECT_EQ(n.load(), 80);
}

// ---------------------------------------------------------------------
// Worlds and the fleet

namespace {

fleet::FleetConfig
testConfig(unsigned tags, unsigned threads)
{
    fleet::FleetConfig cfg;
    cfg.tags = tags;
    cfg.threads = threads;
    cfg.seed = 2026;
    cfg.epochLength = 2 * sim::oneMs;
    // Start charged so tags execute (and contend) from epoch one,
    // with a small store cap so per-world duty cycles (and therefore
    // per-shard loads) actually differ with drawn distance.
    cfg.wisp.power.initialVolts = 2.6;
    cfg.wisp.power.capacitanceF = 4.7e-7;
    cfg.rebalancePeriod = 2; // exercise migration aggressively
    return cfg;
}

} // namespace

TEST(Fleet, DigestsBitIdenticalAcrossShardCounts)
{
    auto base = fleet::Fleet(testConfig(16, 0), {});
    base.runEpochs(4);
    const std::vector<fleet::WorldDigest> want = base.digests();
    ASSERT_EQ(want.size(), 16u);

    for (unsigned threads : {2u, 8u}) {
        fleet::Fleet f(testConfig(16, threads), {});
        f.runEpochs(4);
        const std::vector<fleet::WorldDigest> got = f.digests();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t w = 0; w < want.size(); ++w)
            EXPECT_EQ(got[w], want[w])
                << "world " << w << " at " << threads << " threads";
    }
}

TEST(Fleet, MigrationHappensAndPreservesDigests)
{
    // Same run shape as above; with rebalancePeriod=2 and skewed
    // per-world load the 2-thread fleet must actually migrate.
    fleet::Fleet f(testConfig(16, 2), {});
    std::vector<const fleet::World *> before;
    std::vector<unsigned> homeBefore;
    for (std::size_t i = 0; i < f.size(); ++i) {
        before.push_back(&f.world(i));
        homeBefore.push_back(f.homeShardOf(i));
    }
    f.runEpochs(6);
    EXPECT_GT(f.migrations(), 0u);
    // A migration re-homes a world; it never rebuilds or moves it.
    std::size_t rehomed = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_EQ(&f.world(i), before[i]) << "world " << i;
        rehomed += f.homeShardOf(i) != homeBefore[i] ? 1 : 0;
    }
    EXPECT_GT(rehomed, 0u);

    fleet::Fleet g(testConfig(16, 0), {});
    g.runEpochs(6);
    EXPECT_EQ(g.migrations(), 0u); // single shard: nothing to move
    EXPECT_EQ(f.digests(), g.digests());
}

TEST(Fleet, TagsMakeProgressAndContend)
{
    fleet::Fleet f(testConfig(24, 2), {});
    f.runEpochs(5);
    EXPECT_GT(f.totalInstrs(), 0u);
    EXPECT_GT(f.channelStats().attempts, 0u);
    EXPECT_GT(f.channelStats().replies, 0u);
    // 24 charged tags in <= 2^4 initial slots must collide sometimes.
    EXPECT_GT(f.channelStats().collisions, 0u);
    EXPECT_GT(f.arbiter().roundsResolved(), 0u);
}

TEST(Fleet, SeedChangesTrajectories)
{
    fleet::FleetConfig a = testConfig(4, 0);
    fleet::FleetConfig b = testConfig(4, 0);
    b.seed = 2027;
    fleet::Fleet fa(a, {}), fb(b, {});
    fa.runEpochs(3);
    fb.runEpochs(3);
    EXPECT_NE(fa.digests(), fb.digests());
}

TEST(World, BackoffShrinksCarrierWindow)
{
    const isa::Program prog =
        isa::assemble(fleet::Fleet::defaultFirmware().listing);
    fleet::WorldConfig wc;
    wc.seed = sim::deriveSeed(7, 1);
    wc.wisp.power.initialVolts = 2.6;
    wc.wisp.mcu.checkpointingEnabled = true;
    // Small store cap: the tag duty-cycles within an epoch, so the
    // harvested-energy difference shows up in instruction counts.
    wc.wisp.power.capacitanceF = 4.7e-7;

    fleet::World a(prog, wc), b(prog, wc);
    a.start();
    b.start();
    const sim::Tick epoch = 2 * sim::oneMs;
    for (int e = 0; e < 6; ++e) {
        // b collides every epoch: each carrier window is halved.
        b.noteOutcome(rfid::SlotOutcome::Collided);
        a.planEpoch(e * epoch, (e + 1) * epoch, 1.0);
        b.planEpoch(e * epoch, (e + 1) * epoch, 1.0);
        a.advanceTo((e + 1) * epoch);
        b.advanceTo((e + 1) * epoch);
    }
    // Less carrier-on time, less harvested charge, fewer retired
    // instructions for the backed-off tag.
    EXPECT_LT(b.instrCount(), a.instrCount());
}
