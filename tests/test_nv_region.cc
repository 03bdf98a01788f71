/**
 * @file
 * Tests of the parameterized NV backend (mem/nv_region.hh): the
 * passive/active split, per-technology presets, wear accounting and
 * deterministic stuck-at wear-out, energy-per-write draining, the
 * commit-burst latch, and snapshot round trips with a burst in
 * flight. The last suite drives the crash-anywhere oracle over a
 * small deterministic sweep: under the sealed commit discipline no
 * torn NV write may ever produce a hybrid restore.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "energy/harvester.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "mem/nv_region.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

constexpr mem::Addr base = 0x4000;
constexpr mem::Addr size = 0x1000;

mem::NvRegion
makeRegion(mem::NvTechConfig tech)
{
    return mem::NvRegion("nv", base, size, mem::RegionKind::Fram,
                         std::move(tech));
}

TEST(NvTech, PresetsAreActiveAndOrdered)
{
    const mem::NvTechConfig fram = mem::framTech();
    const mem::NvTechConfig flash = mem::flashTech();
    const mem::NvTechConfig mram = mem::sttMramTech();
    EXPECT_TRUE(fram.active());
    EXPECT_TRUE(flash.active());
    EXPECT_TRUE(mram.active());
    EXPECT_EQ(fram.name, "fram");
    EXPECT_EQ(flash.name, "flash");
    EXPECT_EQ(mram.name, "sttmram");
    // The magnitudes must keep their NORM-flavoured ordering: flash
    // is the slow, costly, low-endurance outlier.
    EXPECT_LT(fram.writeExtraCycles, mram.writeExtraCycles);
    EXPECT_LT(mram.writeExtraCycles, flash.writeExtraCycles);
    EXPECT_LT(fram.writeChargeCoulombs, flash.writeChargeCoulombs);
    EXPECT_GT(flash.enduranceWrites, 0u);
    EXPECT_EQ(fram.enduranceWrites, 0u);
}

TEST(NvRegion, PassiveDefaultKeepsDirectStore)
{
    mem::NvRegion nv = makeRegion({});
    EXPECT_FALSE(nv.active());
    // The published direct store is what lets the fast engine
    // devirtualize — a passive NvRegion must be indistinguishable from
    // the plain Ram it replaced.
    EXPECT_NE(nv.directStore(), nullptr);
    nv.write32(base + 8, 0xDEADBEEFu);
    EXPECT_EQ(nv.read32(base + 8), 0xDEADBEEFu);
    EXPECT_EQ(nv.wearAt(base + 8), 0u);
    EXPECT_EQ(nv.maxWear(), 0u);
}

TEST(NvRegion, ActiveRegionUnpublishesDirectStore)
{
    mem::NvRegion nv = makeRegion(mem::framTech());
    EXPECT_TRUE(nv.active());
    EXPECT_EQ(nv.directStore(), nullptr);
    nv.write32(base + 16, 0x12345678u);
    EXPECT_EQ(nv.read32(base + 16), 0x12345678u);
    EXPECT_EQ(nv.wearAt(base + 16), 1u);
    nv.write8(base + 16, 0xAA);
    EXPECT_EQ(nv.wearAt(base + 16), 2u);
    EXPECT_EQ(nv.read32(base + 16), 0x123456AAu);
    EXPECT_EQ(nv.maxWear(), 2u);
    EXPECT_EQ(nv.totalWear(), 2u);
}

TEST(NvRegion, EnduranceWearOutSticksBitsDeterministically)
{
    mem::NvTechConfig tech = mem::flashTech();
    tech.enduranceWrites = 3;
    mem::NvRegion nv = makeRegion(tech);
    const mem::Addr addr = base + 0x40;
    const std::size_t word = (addr - base) / 4;

    // Within budget: values land verbatim.
    for (int i = 0; i < 3; ++i)
        nv.write32(addr, 0xFFFFFFFFu);
    EXPECT_EQ(nv.read32(addr), 0xFFFFFFFFu);
    EXPECT_EQ(nv.wornWords(), 0u);

    // Past the budget the stuck-at bits retain the old value.
    const std::uint32_t mask = nv.stuckMask(word);
    EXPECT_NE(mask, 0u);
    nv.write32(addr, 0x00000000u);
    EXPECT_EQ(nv.read32(addr), mask);
    EXPECT_EQ(nv.wearAt(addr), 4u);
    EXPECT_EQ(nv.wornWords(), 1u);

    // The pattern is a pure function of (seed, word index): a second
    // region with the same seed agrees, a reseeded one differs
    // somewhere in the first few words.
    mem::NvRegion twin = makeRegion(tech);
    EXPECT_EQ(twin.stuckMask(word), mask);
    tech.wearSeed ^= 0x1234567ULL;
    mem::NvRegion other = makeRegion(tech);
    bool differs = false;
    for (std::size_t w = 0; w < 16 && !differs; ++w)
        differs = other.stuckMask(w) != nv.stuckMask(w);
    EXPECT_TRUE(differs);
}

TEST(NvRegion, EnergySinkSeesEveryModelledWrite)
{
    mem::NvTechConfig tech = mem::sttMramTech();
    mem::NvRegion nv = makeRegion(tech);
    double coulombs = 0.0;
    int draws = 0;
    nv.setEnergySink([&](double c) {
        coulombs += c;
        ++draws;
    });
    for (int i = 0; i < 5; ++i)
        nv.write32(base + 4 * i, 0x5Au);
    nv.write8(base + 0x100, 0x5A);
    EXPECT_EQ(draws, 6);
    EXPECT_DOUBLE_EQ(coulombs, 6 * tech.writeChargeCoulombs);
}

TEST(NvRegion, SnapshotRoundTripsBurstInFlight)
{
    mem::NvRegion nv = makeRegion(mem::flashTech());
    nv.write32(base + 0x20, 0xCAFED00Du);
    nv.write32(base + 0x20, 0x0BADF00Du);
    // Open a commit burst and leave it in flight, with one earlier
    // burst already recorded as torn.
    nv.beginBurst(base + 0x200);
    nv.noteBurstWord();
    nv.endBurst(true);
    nv.setCommitSlot(1);
    nv.beginBurst(base + 0x300);
    nv.noteBurstWord();
    nv.noteBurstWord();
    nv.noteBurstWord();

    sim::SnapshotWriter w;
    sim::StateIo save(w);
    nv.state(save);
    const std::vector<std::uint8_t> image = w.finish();

    mem::NvRegion copy = makeRegion(mem::flashTech());
    sim::SnapshotReader r;
    ASSERT_TRUE(r.load(image));
    sim::StateIo restore(r);
    copy.state(restore);
    ASSERT_TRUE(r.ok());

    EXPECT_EQ(copy.read32(base + 0x20), 0x0BADF00Du);
    EXPECT_EQ(copy.wearAt(base + 0x20), 2u);
    EXPECT_TRUE(copy.burstOpen());
    EXPECT_EQ(copy.burstAddr(), base + 0x300);
    EXPECT_EQ(copy.burstWords(), 3u);
    EXPECT_EQ(copy.tornWrites(), 1u);
    EXPECT_EQ(copy.commitSlot(), 1);
    // The in-flight burst keeps counting after restore.
    copy.noteBurstWord();
    copy.endBurst(true);
    EXPECT_EQ(copy.tornWrites(), 2u);
}

TEST(NvRegion, SnapshotFromOtherTechnologyIsRejected)
{
    // An active region keeps a per-word wear table, a passive one
    // keeps none: the tables cannot line up, so the restore fails.
    mem::NvRegion active = makeRegion(mem::flashTech());
    active.write32(base + 0x20, 0xCAFED00Du);
    sim::SnapshotWriter w;
    sim::StateIo save(w);
    active.state(save);

    mem::NvRegion passive = makeRegion(mem::NvTechConfig{});
    sim::SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    sim::StateIo restore(r);
    passive.state(restore);
    EXPECT_FALSE(r.ok());
}

TEST(NvRegion, SnapshotHugeWearCountFailsFast)
{
    // A crafted wear-table count must be rejected at once, not
    // skipped word by word (2^63 reads would never finish).
    mem::NvRegion nv = makeRegion(mem::flashTech());
    sim::SnapshotWriter w;
    sim::StateIo save(w);
    nv.mem::Ram::state(save);
    w.section("nvrg");
    w.u64(std::uint64_t{1} << 63);

    sim::SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    sim::StateIo restore(r);
    nv.state(restore);
    EXPECT_FALSE(r.ok());
}

TEST(NvRegion, WispAppliesTechnologyTable)
{
    target::WispConfig config;
    config.nvTech = mem::flashTech();
    config.power.initialVolts = 3.0;
    sim::Simulator simulator(5);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr, config);
    // The technology's write latency lands in the MCU config and the
    // FRAM member is the active backend.
    EXPECT_EQ(wisp.config().mcu.framWriteExtraCycles,
              mem::flashTech().writeExtraCycles);
    EXPECT_TRUE(wisp.framRegion().active());
    EXPECT_EQ(wisp.framRegion().tech().name, "flash");
    // NV writes drain the capacitor through the wired sink (which is
    // gated on the rail being up, so boot the device first).
    wisp.start();
    const double before = wisp.power().capacitor().voltage();
    ASSERT_GT(before, 0.0);
    for (int i = 0; i < 200; ++i)
        wisp.framRegion().write32(
            wisp.framRegion().base() + 0x800 +
                static_cast<mem::Addr>(4 * i),
            0x5Au);
    EXPECT_LT(wisp.power().capacitor().voltage(), before);
}

/** Crash-anywhere mini-sweep: the same oracle soak_nv runs at scale,
 *  pinned here as a deterministic unit test. Every case runs a
 *  generated checkpointing program under the sealed discipline with
 *  an interruptible commit and a seed-derived tear point; the NV
 *  auditor must never observe a restore from a frame no completed
 *  commit sealed. */
TEST(CrashAnywhere, SealedCommitNeverRestoresHybrids)
{
    int conclusive = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        fuzz::GeneratorOptions small;
        small.minElements = 3;
        small.maxElements = 8;
        fuzz::CaseSpec spec = fuzz::generateCase(seed, small);
        spec.checkpointing = true;
        fuzz::Element ck;
        ck.kind = fuzz::Element::Kind::Chkpt;
        spec.elements.push_back(ck);
        spec.elements.push_back(ck);
        fuzz::OracleCase c = fuzz::makeOracleCase(spec);
        fuzz::OracleOutcome out =
            fuzz::runOracle(fuzz::OracleId::CrashAnywhere, c);
        EXPECT_FALSE(out.failed)
            << "seed " << seed << ": " << out.detail;
        if (!out.inconclusive)
            ++conclusive;
    }
    // The sweep must have teeth: a healthy fraction of the seeds
    // actually tears a commit (9/30 with the current generator).
    EXPECT_GE(conclusive, 5);
}

} // namespace
