/**
 * @file
 * Tracer::aggregate on a hand-built span tree. A scripted clock gives
 * every span edge a known time, so each per-layer figure is known
 * exactly: per op, the summed self time of each span name (duration
 * minus the children's durations), then the median over the window's
 * ops, an op without the span counting 0. Prints each wrong figure
 * and exits 1 if there is one. Built and run by tests/test_perfbench.py.
 */

#include <cmath>
#include <cstdio>

#include "harness.hh"

namespace {

using perfbench::Metric;
using perfbench::Metrics;
using perfbench::Tracer;

std::int64_t now = 0;

std::int64_t
scriptedClock()
{
    return now;
}

/** Open span `name` at `start` ns and return its id. */
std::int32_t
openAt(Tracer &t, const char *name, std::int64_t start)
{
    now = start;
    return t.open(name);
}

void
closeAt(Tracer &t, std::int32_t id, std::int64_t end)
{
    now = end;
    t.close(id);
}

int failures = 0;

void
expect(const Metrics &m, const char *name, double value, const char *unit)
{
    const Metric *got = m.find(name);
    if (!got || std::fabs(got->value - value) > 1e-9 || got->unit != unit) {
        std::printf("FAIL %s: got %g %s, want %g %s\n", name,
                    got ? got->value : NAN, got ? got->unit.c_str() : "-",
                    value, unit);
        ++failures;
    }
}

} // namespace

int
main()
{
    Tracer t(true, scriptedClock);

    // Ops 0-2, at scale k = 1, 2, 3: a [10, 40) holding b [15, 25) and
    // b [30, 35); c [50, 90) holding a [60, 70); sample s = k twice.
    // Self times: a (15 + 10)k, b (10 + 5)k, c 30k (µs).
    for (std::uint32_t op = 0; op < 3; ++op) {
        const std::int64_t k = op + 1;
        const std::int64_t t0 = op * 1'000'000;
        t.setOp(op);
        const std::int32_t root = openAt(t, "op", t0);
        const std::int32_t a = openAt(t, "a", t0 + 10'000 * k);
        closeAt(t, openAt(t, "b", t0 + 15'000 * k), t0 + 25'000 * k);
        closeAt(t, openAt(t, "b", t0 + 30'000 * k), t0 + 35'000 * k);
        closeAt(t, a, t0 + 40'000 * k);
        const std::int32_t c = openAt(t, "c", t0 + 50'000 * k);
        closeAt(t, openAt(t, "a", t0 + 60'000 * k), t0 + 70'000 * k);
        closeAt(t, c, t0 + 90'000 * k);
        t.sample("s", static_cast<double>(k), "unit");
        t.sample("s", static_cast<double>(k), "unit");
        closeAt(t, root, t0 + 100'000 * k);
    }
    // Op 3: a [0, 5) alone. Op 4: no span below the root.
    t.setOp(3);
    std::int32_t root = openAt(t, "op", 4'000'000);
    closeAt(t, openAt(t, "a", 4'000'000), 4'005'000);
    closeAt(t, root, 4'010'000);
    t.setOp(4);
    closeAt(t, openAt(t, "op", 5'000'000), 5'010'000);
    // Op 5 lies outside the 5-op window and must not count.
    t.setOp(5);
    root = openAt(t, "op", 6'000'000);
    closeAt(t, openAt(t, "c", 6'000'000), 900'000'000);
    t.sample("s", 99.0, "unit");
    closeAt(t, root, 900'000'000);

    // Per-op sums a {25, 50, 75, 5, 0}, b {15, 30, 45, 0, 0}, c {30,
    // 60, 90, 0, 0}, s {2, 4, 6, 0, 0}: the nearest-rank median of 5
    // is the third smallest.
    Metrics m;
    t.aggregate(5, m);
    expect(m, "a_us", 25.0, "us");
    expect(m, "b_us", 15.0, "us");
    expect(m, "c_us", 30.0, "us");
    expect(m, "s", 2.0, "unit");
    if (m.find("op_us")) {
        std::printf("FAIL the root span `op` is reported\n");
        ++failures;
    }

    Tracer off(false, scriptedClock);
    off.sample("s", 1.0, "unit");
    Metrics none;
    off.aggregate(3, none);
    if (!none.all().empty()) {
        std::printf("FAIL a disabled tracer recorded a sample\n");
        ++failures;
    }

    if (failures == 0)
        std::printf("tracer_test: OK\n");
    return failures == 0 ? 0 : 1;
}
