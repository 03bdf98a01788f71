/**
 * @file
 * Unit tests for the simulation kernel: event queue, simulator,
 * RNG, time helpers, time cursor, logging.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/progress.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "sim/time.hh"
#include "sim/time_cursor.hh"

using namespace edb::sim;

namespace {

TEST(Time, UnitConversions)
{
    EXPECT_EQ(oneSec, 1'000'000'000'000);
    EXPECT_EQ(ticksFromSeconds(1.0), oneSec);
    EXPECT_EQ(ticksFromSeconds(0.5e-6), oneUs / 2);
    EXPECT_DOUBLE_EQ(secondsFromTicks(oneSec), 1.0);
    EXPECT_DOUBLE_EQ(millisFromTicks(oneMs), 1.0);
    EXPECT_DOUBLE_EQ(microsFromTicks(oneUs), 1.0);
}

TEST(Time, McuCycleIsIntegral)
{
    // 4 MHz must map to an exact tick count (see time.hh rationale).
    EXPECT_EQ(ticksFromSeconds(1.0 / 4e6), 250 * oneNs);
}

TEST(EventQueue, FiresInTimestampOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(30, [&] { order.push_back(3); });
    queue.schedule(10, [&] { order.push_back(1); });
    queue.schedule(20, [&] { order.push_back(2); });
    Tick now = 0;
    while (queue.runOne(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        queue.schedule(42, [&order, i] { order.push_back(i); });
    Tick now = 0;
    while (queue.runOne(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue queue;
    bool fired = false;
    EventId id = queue.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_TRUE(queue.empty());
    Tick now = 0;
    EXPECT_FALSE(queue.runOne(now));
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse)
{
    EventQueue queue;
    EventId id = queue.schedule(10, [] {});
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(invalidEventId));
}

TEST(EventQueue, NextTimeSkipsCancelled)
{
    EventQueue queue;
    EventId early = queue.schedule(10, [] {});
    queue.schedule(20, [] {});
    queue.cancel(early);
    EXPECT_EQ(queue.nextTime(), 20);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, CancelFiredIdChangesNothing)
{
    EventQueue queue;
    bool late = false;
    EventId early = queue.schedule(10, [] {});
    queue.schedule(20, [&] { late = true; });
    Tick now = 0;
    ASSERT_TRUE(queue.runOne(now));
    EXPECT_FALSE(queue.cancel(early));
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(queue.nextTime(), 20);
    EXPECT_TRUE(queue.runOne(now));
    EXPECT_TRUE(late);
    EXPECT_EQ(now, 20);
}

TEST(EventQueue, NextTimeEmptyIsMax)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextTime(), maxTick);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(10, [&] {
        order.push_back(1);
        queue.schedule(15, [&] { order.push_back(2); });
    });
    Tick now = 0;
    while (queue.runOne(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(now, 15);
}

TEST(Simulator, RunUntilStopsAtBoundary)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(100, [&] { ++fired; });
    sim.schedule(200, [&] { ++fired; });
    sim.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 150);
    sim.runUntil(200); // boundary events fire
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative)
{
    Simulator sim;
    sim.runFor(50);
    EXPECT_EQ(sim.now(), 50);
    sim.runFor(50);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleInPastClampsToNow)
{
    Simulator sim;
    sim.runFor(100);
    bool fired = false;
    sim.schedule(10, [&] { fired = true; });
    sim.runFor(1);
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 101);
}

TEST(Simulator, CancelFiredEventKeepsLaterOnes)
{
    Simulator sim;
    bool late = false;
    EventId early = sim.schedule(10, [] {});
    sim.schedule(20, [&] { late = true; });
    sim.runUntil(15);
    EXPECT_FALSE(sim.cancel(early));
    EXPECT_EQ(sim.runToCompletion(), 20);
    EXPECT_TRUE(late);
}

TEST(Simulator, TimeIsMonotonic)
{
    Simulator sim;
    Tick last = -1;
    for (int i = 0; i < 50; ++i) {
        sim.scheduleIn(i * 7 % 13, [&sim, &last] {
            EXPECT_GE(sim.now(), last);
            last = sim.now();
        });
    }
    sim.runToCompletion();
}

TEST(Simulator, ComponentSeesItsSimulator)
{
    Simulator sim;
    Component a(sim, "a");
    Component b(sim, "b");
    EXPECT_EQ(&a.sim(), &sim);
    EXPECT_EQ(b.now(), 0);
}

TEST(Rng, DeterministicBySeed)
{
    Rng a(7), b(7), c(8);
    double va = a.uniform();
    EXPECT_DOUBLE_EQ(va, b.uniform());
    EXPECT_NE(va, c.uniform());
}

TEST(Rng, UniformBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyCorrect)
{
    Rng rng(2);
    double sum = 0, sum2 = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(2.0);
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.1);
    EXPECT_NEAR(sum2 / n, 4.0, 0.3);
}

TEST(Rng, GaussianZeroSigmaIsZero)
{
    Rng rng(3);
    EXPECT_EQ(rng.gaussian(0.0), 0.0);
    EXPECT_EQ(rng.gaussian(-1.0), 0.0);
}

TEST(Rng, EngineMatchesStdMt19937_64WordForWord)
{
    // The standard pins mersenne_twister_engine's output exactly;
    // the bulk-tempering engine must reproduce it across several
    // twist boundaries and for diverse seeds.
    for (std::uint64_t seed : {1ULL, 7ULL, 5489ULL, 0xDEADBEEFULL}) {
        Mt64 ours(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
}

TEST(Rng, CanonicalMatchesStdGenerateCanonical)
{
    Rng rng(11);
    std::mt19937_64 ref(11);
    for (int i = 0; i < 100000; ++i) {
        double expect = std::generate_canonical<double, 53>(ref);
        EXPECT_EQ(rng.canonical(), expect) << "draw " << i;
    }
}

TEST(Rng, GaussianMatchesStdNormalDistributionExactly)
{
    // The hand-inlined polar method must reproduce the library
    // stream bit for bit (a fresh distribution per draw, as
    // gaussian() has always behaved) — the whole point of the fast
    // path is that seeded runs keep their historical trajectories.
    Rng rng(42);
    std::mt19937_64 ref(42);
    for (int i = 0; i < 100000; ++i) {
        double expect = std::normal_distribution<double>(0.0, 0.05)(ref);
        EXPECT_EQ(rng.gaussian(0.05), expect) << "draw " << i;
    }
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/**
 * Every sampler against the library on a reference engine, in an
 * interleaving that keeps discarding and refilling the gaussian
 * look-ahead: runs of one to a few hundred gaussians (two sigmas)
 * broken by each other kind of draw, with one snapshot export into
 * a fresh Rng half way. Values are compared bit for bit.
 */
TEST(Rng, InterleavedSamplersMatchTheLibraryBitForBit)
{
    Rng first(2024);
    Rng second(1);
    Rng *rng = &first;
    std::mt19937_64 ref(2024);
    std::uint64_t pick = 0; // op chooser, independent of both engines
    constexpr unsigned total = 1'200'000;
    unsigned op = 0;
    bool moved = false;
    while (op < total) {
        if (!moved && op >= total / 2) {
            second.importState(first.exportState());
            rng = &second;
            moved = true;
        }
        const std::uint64_t r = splitmix64(++pick);
        const unsigned kind = r % 8;
        const unsigned run = kind <= 1 ? 1 + (r >> 8) % 300 : 1 + (r >> 8) % 3;
        for (unsigned i = 0; i < run; ++i, ++op) {
            switch (kind) {
              case 0:
              case 1: {
                const double sigma = kind == 0 ? 0.05 : 2.5;
                const double expect =
                    std::normal_distribution<double>(0.0, sigma)(ref);
                ASSERT_EQ(bits(rng->gaussian(sigma)), bits(expect))
                    << "op " << op;
                break;
              }
              case 2: {
                const double expect =
                    std::uniform_real_distribution<double>(0.0, 1.0)(ref);
                ASSERT_EQ(bits(rng->uniform()), bits(expect)) << "op " << op;
                break;
              }
              case 3: {
                const double lo = -3.0 + (r >> 20) % 7;
                const double hi = lo + 0.25 + (r >> 32) % 5;
                const double expect =
                    std::uniform_real_distribution<double>(lo, hi)(ref);
                ASSERT_EQ(bits(rng->uniform(lo, hi)), bits(expect))
                    << "op " << op;
                break;
              }
              case 4: {
                const std::int64_t expect =
                    std::uniform_int_distribution<std::int64_t>(-50, 1000)(
                        ref);
                ASSERT_EQ(rng->uniformInt(-50, 1000), expect) << "op " << op;
                break;
              }
              case 5: {
                const bool expect =
                    std::uniform_real_distribution<double>(0.0, 1.0)(ref) <
                    0.3;
                ASSERT_EQ(rng->chance(0.3), expect) << "op " << op;
                break;
              }
              case 6: {
                const double expect =
                    std::generate_canonical<double, 53>(ref);
                ASSERT_EQ(bits(rng->canonical()), bits(expect))
                    << "op " << op;
                break;
              }
              default:
                ASSERT_EQ(rng->raw()(), ref()) << "op " << op;
                break;
            }
        }
    }
    EXPECT_TRUE(moved);
    EXPECT_EQ(rng->raw()(), ref());
}

/**
 * Long gaussian runs from each start offset 0..3, so polar pairs meet
 * the 312-word block end at both parities (a pair that straddles it
 * takes the scalar loop); the next raw words show the engine was
 * skipped to exactly where the library leaves it.
 */
TEST(Rng, GaussianRunsAcrossBlockEdgesAtBothParities)
{
    for (unsigned offset = 0; offset < 4; ++offset) {
        Rng rng(77 + offset);
        std::mt19937_64 ref(77 + offset);
        for (unsigned i = 0; i < offset; ++i)
            ASSERT_EQ(rng.raw()(), ref());
        for (int i = 0; i < 5000; ++i) {
            const double expect =
                std::normal_distribution<double>(0.0, 1.0)(ref);
            ASSERT_EQ(bits(rng.gaussian(1.0)), bits(expect))
                << "offset " << offset << " draw " << i;
        }
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(rng.raw()(), ref()) << "offset " << offset;
    }
}

/**
 * The look-ahead names a stream position, not just a read index: an
 * import, or exactly one block of other draws, that leaves the index
 * where the last gaussian() left it must still discard it, so the
 * next gaussian comes from the words now in the buffer.
 */
TEST(Rng, LookAheadIsDiscardedAtTheSameIndex)
{
    for (int warm = 5; warm < 40; ++warm) {
        Rng imported(31);
        Rng drawn(31);
        std::mt19937_64 ref(31);
        for (int i = 0; i < warm; ++i) {
            // Leaves a look-ahead, often partly used.
            imported.gaussian(1.0);
            drawn.gaussian(1.0);
            std::normal_distribution<double>(0.0, 1.0)(ref);
        }
        Mt64::State s = imported.exportState();
        for (unsigned k = s.index; k < 312; ++k)
            s.out[k] = splitmix64(s.out[k]);
        imported.importState(s);
        Mt64 importRef;
        importRef.importState(s);
        for (unsigned k = 0; k < 312; ++k)
            ASSERT_EQ(drawn.raw()(), ref());
        for (int i = 0; i < 20; ++i) {
            const double a = std::normal_distribution<double>(0.0, 1.0)(
                importRef);
            ASSERT_EQ(bits(imported.gaussian(1.0)), bits(a))
                << "warm-up " << warm << " draw " << i;
            const double b = std::normal_distribution<double>(0.0, 1.0)(ref);
            ASSERT_EQ(bits(drawn.gaussian(1.0)), bits(b))
                << "warm-up " << warm << " draw " << i;
        }
    }
}

/**
 * Edge words planted in the engine's output buffer: the exact
 * conversion must round them as `(double)w` does, the top-end guard
 * must catch those that round to 2^64, and the polar loop's corner
 * cases (r2 == 1, r2 == 0, x at the guard) must match the library run
 * on an engine that returns the same words.
 */
TEST(Rng, CraftedWordsMatchTheLibrary)
{
    const std::uint64_t top = ~std::uint64_t{0};
    const std::uint64_t edges[] = {
        0,
        1,
        (std::uint64_t{1} << 53) - 1,
        (std::uint64_t{1} << 53) + 1,
        (std::uint64_t{1} << 63) - 1,
        std::uint64_t{1} << 63,
        (std::uint64_t{1} << 63) + 1,
        top - (std::uint64_t{1} << 11) + 1, // 2^64 - 2^11
        top - (std::uint64_t{1} << 10),     // 2^64 - 2^10 - 1
        top - (std::uint64_t{1} << 10) + 1, // 2^64 - 2^10
        top,                                // 2^64 - 1
    };
    const Mt64::State base = Rng(5).exportState();

    // One edge word at a time through canonical().
    for (std::uint64_t w : edges) {
        Mt64::State s = base;
        s.out[0] = w;
        s.index = 0;
        Rng rng;
        rng.importState(s);
        Mt64 ref;
        ref.importState(s);
        EXPECT_EQ(bits(rng.canonical()),
                  bits(std::generate_canonical<double, 53>(ref)))
            << "word " << w;
    }
    for (std::uint64_t w : {top, top - (std::uint64_t{1} << 10) + 1}) {
        Mt64::State s = base;
        s.out[0] = w;
        s.index = 0;
        Rng rng;
        rng.importState(s);
        EXPECT_EQ(rng.canonical(), std::nextafter(1.0, 0.0));
    }

    // Blocks made only of edge words, in several orders, through
    // gaussian() and every other sampler; runs go past the block end
    // into genuinely twisted words.
    const unsigned count = sizeof(edges) / sizeof(edges[0]);
    for (unsigned stride = 1; stride < count; ++stride) {
        Mt64::State s = base;
        for (unsigned k = 0; k < 312; ++k)
            s.out[k] = edges[(k * stride + k / count) % count];
        s.index = stride % 2;
        Rng rng;
        rng.importState(s);
        Mt64 ref;
        ref.importState(s);
        for (int i = 0; i < 400; ++i) {
            if (i % 97 == 96) {
                ASSERT_EQ(bits(rng.canonical()),
                          bits(std::generate_canonical<double, 53>(ref)));
                continue;
            }
            const double expect =
                std::normal_distribution<double>(0.0, 0.5)(ref);
            ASSERT_EQ(bits(rng.gaussian(0.5)), bits(expect))
                << "stride " << stride << " draw " << i;
        }
        EXPECT_EQ(rng.raw()(), ref());
    }

    // The polar corner cases on their own: x = -1, y = 0 gives
    // r2 == 1 (accepted, mult = sqrt(-0.0)); x = y = 0 gives r2 == 0
    // (rejected); x at the guard with y = 0 is accepted.
    const std::uint64_t half = std::uint64_t{1} << 63;
    const std::uint64_t corner[] = {half, half, 0, half, top, half};
    for (unsigned shift = 0; shift < 6; shift += 2) {
        Mt64::State s = base;
        for (unsigned k = 0; k < 312; ++k)
            s.out[k] = corner[(k + shift) % 6];
        s.index = 0;
        Rng rng;
        rng.importState(s);
        Mt64 ref;
        ref.importState(s);
        for (int i = 0; i < 200; ++i) {
            const double expect =
                std::normal_distribution<double>(0.0, 1.0)(ref);
            ASSERT_EQ(bits(rng.gaussian(1.0)), bits(expect))
                << "shift " << shift << " draw " << i;
        }
    }
}

TEST(Rng, ChanceEdges)
{
    Rng rng(4);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(TimeCursor, TracksMaxOfClocks)
{
    Simulator sim;
    TimeCursor cursor(sim);
    EXPECT_EQ(cursor.now(), 0);
    cursor.advance(500);
    EXPECT_EQ(cursor.now(), 500);
    cursor.advance(100); // lower values ignored
    EXPECT_EQ(cursor.now(), 500);
    sim.runFor(1000);
    EXPECT_EQ(cursor.now(), 1000);
}

TEST(TimeCursor, ScheduleInUsesLocalClock)
{
    Simulator sim;
    TimeCursor cursor(sim);
    cursor.advance(300);
    bool fired = false;
    Tick when = 0;
    cursor.scheduleIn(100, [&] {
        fired = true;
        when = sim.now();
    });
    sim.runToCompletion();
    EXPECT_TRUE(fired);
    EXPECT_EQ(when, 400);
}

TEST(Rng, ExportImportResumesStreamExactly)
{
    Rng a(123);
    // Land mid-block: 1000 draws = 3 refills + 64 into the buffer.
    for (int i = 0; i < 1000; ++i)
        a.raw()();
    Mt64::State saved = a.exportState();

    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 700; ++i) // crosses the next refill boundary
        expect.push_back(a.raw()());

    Rng b(1); // different seed: import must fully overwrite
    b.importState(saved);
    for (std::uint64_t v : expect)
        EXPECT_EQ(b.raw()(), v);
}

TEST(Rng, ExportCapturesMidBlockIndex)
{
    Rng a(7);
    for (int i = 0; i < 5; ++i)
        a.raw()();
    EXPECT_EQ(a.exportState().index, 5u);
}

TEST(Rng, ImportClampsCorruptIndex)
{
    Mt64::State s = Rng(9).exportState();
    s.index = 9999; // out of bounds: must clamp, not read past out[]
    Rng a(1), b(2);
    a.importState(s);
    b.importState(s);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.raw()(), b.raw()());
}

TEST(Rng, ExportImportCoversDistributionHelpers)
{
    Rng a(55);
    a.gaussian(1.0); // leave the engine at an arbitrary offset
    a.uniformInt(0, 99);
    Mt64::State saved = a.exportState();
    double u = a.uniform();
    double g = a.gaussian(2.5);
    std::int64_t n = a.uniformInt(-10, 10);

    Rng b(1);
    b.importState(saved);
    EXPECT_EQ(b.uniform(), u);
    EXPECT_EQ(b.gaussian(2.5), g);
    EXPECT_EQ(b.uniformInt(-10, 10), n);
}

TEST(ProgressMonitor, TripsOnRebootsWithoutCommit)
{
    ProgressMonitor mon(3);
    EXPECT_FALSE(mon.update(0, 0)); // primes
    EXPECT_FALSE(mon.update(1, 0));
    EXPECT_FALSE(mon.update(2, 0));
    EXPECT_TRUE(mon.update(3, 0));
    EXPECT_TRUE(mon.tripped());
    EXPECT_EQ(mon.rebootsSinceCommit(), 3u);
}

TEST(ProgressMonitor, CommitResetsTheWindow)
{
    ProgressMonitor mon(3);
    mon.update(0, 0);
    mon.update(2, 0);
    EXPECT_FALSE(mon.update(2, 1)); // a commit lands
    EXPECT_EQ(mon.rebootsSinceCommit(), 0u);
    EXPECT_FALSE(mon.update(4, 1));
    EXPECT_TRUE(mon.update(5, 1));
}

TEST(ProgressMonitor, RebaseAfterRewind)
{
    ProgressMonitor mon(3);
    mon.update(5, 0);
    mon.update(7, 0);
    // Counters drop below the baseline (a snapshot rewind):
    // auto-rebase instead of a bogus huge delta.
    EXPECT_FALSE(mon.update(3, 0));
    EXPECT_EQ(mon.rebootsSinceCommit(), 0u);
    EXPECT_FALSE(mon.update(5, 0));
    EXPECT_TRUE(mon.update(6, 0));
}

TEST(ProgressMonitor, SnapshotKeepsThePartialWindow)
{
    ProgressMonitor mon(5);
    mon.update(0, 0);
    mon.update(3, 0); // 3 reboots into the window
    SnapshotWriter w;
    mon.saveState(w);

    ProgressMonitor back(1); // threshold restored from the image
    SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    back.restoreState(r);
    EXPECT_EQ(back.threshold(), 5u);
    EXPECT_EQ(back.rebootsSinceCommit(), 3u);
    EXPECT_FALSE(back.update(4, 0));
    EXPECT_TRUE(back.update(5, 0));
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

} // namespace
