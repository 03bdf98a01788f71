/**
 * @file
 * Fleet-scale soak: thousands of independent tags on the
 * work-stealing pool (DESIGN.md §12).
 *
 * Modes (composable; the default run always happens):
 *
 *  - default: one fleet of `--tags` worlds for `--episodes` epochs
 *    on `--threads` workers, with a determinism cross-check — the
 *    same fleet re-run at 1, 2 and 8 shards must produce
 *    bit-identical per-world digests (skip with `--no-check`);
 *  - `--sweep`: tag-count scaling sweep (10 → 5000) at `--threads`
 *    plus a single-thread baseline at the largest sweep point, so
 *    the JSON records the aggregate speedup CI gates on;
 *  - `--audit-sweep N`: N firmware variants (quickstart-derived,
 *    clean generated, and seeded-WAR mutants) under the NV auditor.
 *    Clean worlds must audit clean (zero false positives); mutants
 *    that demonstrably lost power after the gadget must be flagged.
 *
 * Exit code is the gate: determinism mismatch, an audit false
 * positive / missed mutant, or a sub-threshold sweep speedup all
 * fail the soak.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "fleet/fleet.hh"
#include "fuzz/generator.hh"
#include "trace/stats.hh"

using namespace edb;

namespace {

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

struct RunResult
{
    double wallSec = 0.0;
    std::uint64_t instrs = 0;
    std::uint64_t migrations = 0;
    std::uint64_t stolen = 0;
    fleet::ChannelStats chan;
    std::vector<fleet::WorldDigest> digests;
};

fleet::FleetConfig
baseConfig(const bench::Cli &cli, unsigned tags, unsigned threads)
{
    fleet::FleetConfig cfg;
    cfg.tags = tags;
    cfg.threads = threads;
    cfg.seed = static_cast<std::uint64_t>(cli.intOption("seed", 42));
    cfg.epochLength =
        cli.intOption("epoch-us", 5000) * sim::oneUs;
    cfg.wisp = bench::applyEngineFlags(cli);
    // Soak defaults: tags start charged (and boot immediately) with
    // a dev-board-sized cap, so throughput is visible from epoch one.
    cfg.wisp.power.initialVolts =
        static_cast<double>(cli.intOption("init-mv", 2600)) * 1e-3;
    cfg.wisp.power.capacitanceF =
        static_cast<double>(cli.intOption("cap-nf", 4700)) * 1e-9;
    cfg.wisp.mcu.checkpointingEnabled = true;
    cfg.rebalancePeriod =
        static_cast<unsigned>(cli.intOption("rebalance", 4));
    return cfg;
}

RunResult
collect(fleet::Fleet &fleet, double wall_sec)
{
    RunResult r;
    r.wallSec = wall_sec;
    r.instrs = fleet.totalInstrs();
    r.migrations = fleet.migrations();
    r.stolen = fleet.pool().executedStolen();
    r.chan = fleet.channelStats();
    r.digests = fleet.digests();
    return r;
}

RunResult
runFleet(const fleet::FleetConfig &cfg, unsigned epochs,
         fleet::FirmwareFn firmware = {})
{
    fleet::Fleet fleet(cfg, std::move(firmware));
    const double t0 = nowSec();
    fleet.runEpochs(epochs);
    return collect(fleet, nowSec() - t0);
}

/** Spread of one per-world counter: n, min, mean, interpolated
 *  p50 / p90 and max. */
bench::Json
spreadJson(const trace::SampleSet &s)
{
    bench::Json j;
    j.field("n", static_cast<std::uint64_t>(s.count()))
        .field("min", s.summary().min())
        .field("mean", s.summary().mean())
        .field("p50", s.quantile(0.5))
        .field("p90", s.quantile(0.9))
        .field("max", s.summary().max());
    return j;
}

/** Per-world distributions — each world's own counters, never a
 *  shared accumulator, so the spread across tags is real. */
bench::Json
perWorldJson(fleet::Fleet &fleet)
{
    trace::SampleSet instrs, reboots, wear, torn;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        fleet::World &w = fleet.world(i);
        const mcu::Mcu &m = w.wisp().mcu();
        instrs.add(static_cast<double>(m.instrCount()));
        reboots.add(static_cast<double>(m.rebootCount()));
        wear.add(static_cast<double>(w.wisp().framRegion().totalWear()));
        torn.add(static_cast<double>(w.wisp().framRegion().tornWrites()));
    }
    bench::Json j;
    j.object("instrs", spreadJson(instrs))
        .object("reboots", spreadJson(reboots))
        .object("nv_wear", spreadJson(wear))
        .object("nv_torn", spreadJson(torn));
    return j;
}

bench::Json
runJson(const RunResult &r, unsigned tags, unsigned threads)
{
    bench::Json j;
    j.field("tags", static_cast<std::uint64_t>(tags))
        .field("threads", static_cast<std::uint64_t>(threads))
        .field("wall_sec", r.wallSec)
        .field("instrs", r.instrs)
        .field("instrs_per_sec",
               r.wallSec > 0.0
                   ? static_cast<double>(r.instrs) / r.wallSec
                   : 0.0)
        .field("migrations", r.migrations)
        .field("stolen_tasks", r.stolen)
        .field("attempts", r.chan.attempts)
        .field("replies", r.chan.replies)
        .field("collisions", r.chan.collisions);
    return j;
}

/**
 * Determinism cross-check: identical fleets at 1, 2 and 8 shards.
 * Digests are architectural, so migration (which only happens with
 * >= 2 shards) must not show up either.
 */
bool
determinismCheck(const bench::Cli &cli, unsigned tags,
                 unsigned epochs, bench::Json &out)
{
    const unsigned shardCases[] = {0, 2, 8};
    std::vector<std::vector<fleet::WorldDigest>> all;
    for (unsigned threads : shardCases) {
        RunResult r = runFleet(baseConfig(cli, tags, threads), epochs);
        all.push_back(std::move(r.digests));
    }
    bool ok = true;
    std::uint64_t mismatches = 0;
    for (std::size_t c = 1; c < all.size(); ++c)
        for (std::size_t w = 0; w < all[c].size(); ++w)
            if (!(all[c][w] == all[0][w])) {
                ok = false;
                if (++mismatches <= 4)
                    std::printf("DIGEST MISMATCH world %zu: "
                                "%u-thread crc %08x vs baseline "
                                "%08x\n",
                                w, shardCases[c], all[c][w].crc,
                                all[0][w].crc);
            }
    out.field("worlds", static_cast<std::uint64_t>(all[0].size()))
        .field("shard_cases", 3)
        .field("mismatches", mismatches)
        .field("ok", ok);
    return ok;
}

/** Tag-count scaling sweep + single-thread baseline speedup. */
bool
scalingSweep(const bench::Cli &cli, unsigned threads,
             unsigned epochs, bench::Json &out)
{
    const unsigned points[] = {10, 50, 200, 1000, 5000};
    const unsigned speedupTags = static_cast<unsigned>(
        cli.intOption("speedup-tags", 1000));
    bench::Json rows;
    double rateAtSpeedupTags = 0.0;
    for (unsigned tags : points) {
        bench::note("sweep: " + std::to_string(tags) + " tags, " +
                    std::to_string(threads) + " threads");
        RunResult r = runFleet(baseConfig(cli, tags, threads), epochs);
        if (tags == speedupTags && r.wallSec > 0.0)
            rateAtSpeedupTags =
                static_cast<double>(r.instrs) / r.wallSec;
        rows.object("tags_" + std::to_string(tags),
                    runJson(r, tags, threads));
    }
    bench::note("sweep baseline: " + std::to_string(speedupTags) +
                " tags, single-thread");
    RunResult base =
        runFleet(baseConfig(cli, speedupTags, 0), epochs);
    const double baseRate =
        base.wallSec > 0.0
            ? static_cast<double>(base.instrs) / base.wallSec
            : 0.0;
    const double speedup =
        baseRate > 0.0 ? rateAtSpeedupTags / baseRate : 0.0;
    // The requested gate assumes the cores exist; on a smaller
    // machine it scales down to 80% of hardware concurrency. With a
    // single hardware thread there is no parallelism to measure at
    // all -- a 1-worker pool against the inline baseline is pure
    // handoff overhead -- so the gate is recorded but not enforced;
    // multi-core CI runners enforce it.
    const double requested =
        static_cast<double>(cli.intOption("min-speedup-pct", 250)) /
        100.0;
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const double minSpeedup =
        std::min(requested, 0.8 * static_cast<double>(hw));
    const bool gated = hw >= 2;
    const bool ok = !gated || speedup >= minSpeedup;
    out.object("points", rows)
        .object("baseline", runJson(base, speedupTags, 0))
        .field("speedup", speedup)
        .field("min_speedup_requested", requested)
        .field("min_speedup", minSpeedup)
        .field("hw_concurrency", static_cast<std::uint64_t>(hw))
        .field("speedup_gated", gated)
        .field("ok", ok);
    return ok;
}

/**
 * Auditor variant sweep. Firmware mix per world index i:
 *   i % 4 == 0  quickstart-derived default firmware (clean);
 *   i % 4 == 3  seeded-WAR mutant of a generated case;
 *   otherwise   clean generated case.
 * Every world carries the auditor; generated cases keep their
 * forced brown-out schedules so mutants actually lose power after
 * the gadget (worlds where that never happened are inconclusive,
 * same as the audit oracle).
 */
bool
auditSweep(const bench::Cli &cli, unsigned variants,
           unsigned threads, bench::Json &out)
{
    fleet::FleetConfig cfg = baseConfig(cli, variants, threads);
    cfg.withAuditor = true;
    cfg.rebalancePeriod = 2;
    const std::uint64_t seed = cfg.seed;
    fuzz::GeneratorOptions small;
    small.minElements = 3;
    small.maxElements = 10;
    auto firmware = [seed, small](std::uint32_t i) {
        fleet::WorldFirmware fw;
        if (i % 4 == 0) {
            fw = fleet::Fleet::defaultFirmware();
        } else {
            fuzz::CaseSpec spec =
                fuzz::generateCase(seed * 7919 + i, small);
            fw.schedule = spec.schedule;
            if (i % 4 == 3) {
                fw.listing = fuzz::renderWarMutant(spec);
                fw.checkpointing = false;
                fw.warMutant = true;
            } else {
                fw.listing = fuzz::renderProgram(spec);
                fw.checkpointing = spec.checkpointing;
            }
        }
        // Start charged so the forced schedules land on a live
        // target regardless of the world's drawn distance.
        fw.initialVolts = 2.6;
        return fw;
    };

    fleet::Fleet fleet(cfg, firmware);
    // Generated horizons are 40 ms; run the fleet at least that far.
    const unsigned epochs = static_cast<unsigned>(
        (40 * sim::oneMs + cfg.epochLength - 1) / cfg.epochLength);
    fleet.runEpochs(epochs);

    std::uint64_t cleanWorlds = 0, falsePositives = 0;
    std::uint64_t mutants = 0, conclusive = 0, flagged = 0,
                  missed = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        fleet::World &w = fleet.world(i);
        const std::uint64_t violations =
            w.auditor() ? w.auditor()->violationCount() : 0;
        if (w.config().warDoneWatch != 0) {
            ++mutants;
            if (w.lossesAfterGadget() == 0)
                continue; // inconclusive: gadget never exposed
            ++conclusive;
            if (violations > 0)
                ++flagged;
            else {
                ++missed;
                std::printf("MISSED MUTANT world %zu (%llu losses "
                            "after gadget, 0 violations)\n",
                            i,
                            static_cast<unsigned long long>(
                                w.lossesAfterGadget()));
            }
        } else {
            ++cleanWorlds;
            if (violations > 0) {
                ++falsePositives;
                std::printf("FALSE POSITIVE world %zu (%llu "
                            "violations on clean firmware)\n",
                            i,
                            static_cast<unsigned long long>(
                                violations));
            }
        }
    }
    // Gate: no clean world flags, no conclusive mutant escapes, and
    // enough mutants were conclusive for the completeness half to
    // mean anything.
    const bool ok = falsePositives == 0 && missed == 0 &&
                    (mutants == 0 || conclusive * 4 >= mutants);
    out.field("variants", static_cast<std::uint64_t>(variants))
        .field("clean_worlds", cleanWorlds)
        .field("false_positives", falsePositives)
        .field("mutants", mutants)
        .field("conclusive_mutants", conclusive)
        .field("flagged_mutants", flagged)
        .field("missed_mutants", missed)
        .field("ok", ok);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli(argc, argv);
    const unsigned tags = bench::tagsOption(cli, 64);
    const unsigned threads = bench::threadsOption(cli);
    const unsigned epochs = static_cast<unsigned>(
        cli.count("episodes", 8));

    bench::banner("fleet soak");
    std::printf("tags=%u threads=%u epochs=%u hw=%u\n", tags,
                threads, epochs,
                std::thread::hardware_concurrency());

    bool ok = true;
    bench::Json summary;
    bench::runConfigFields(summary, cli, 64);
    summary.field("episodes", static_cast<std::uint64_t>(epochs));

    // The main run.
    {
        fleet::Fleet fleet(baseConfig(cli, tags, threads));
        const double t0 = nowSec();
        fleet.runEpochs(epochs);
        RunResult r = collect(fleet, nowSec() - t0);
        bench::Json run = runJson(r, tags, threads);
        run.object("per_world", perWorldJson(fleet));
        summary.object("run", run);
    }

    if (!cli.has("no-check")) {
        bench::note("determinism cross-check (1 / 2 / 8 shards)");
        bench::Json det;
        const unsigned checkTags = static_cast<unsigned>(
            cli.intOption("check-tags", tags > 128 ? 128 : tags));
        const bool detOk =
            determinismCheck(cli, checkTags, epochs, det);
        summary.object("determinism", det);
        ok = ok && detOk;
    }

    if (cli.has("sweep")) {
        bench::note("tag-count scaling sweep");
        bench::Json sweep;
        const unsigned sweepThreads =
            threads != 0 ? threads
                         : std::max(2u,
                                    std::thread::
                                        hardware_concurrency());
        // No short-circuit: every requested gate must run and
        // record its verdict even when an earlier one failed.
        const bool sweepOk =
            scalingSweep(cli, sweepThreads, epochs, sweep);
        ok = ok && sweepOk;
        summary.object("sweep", sweep);
    }

    if (cli.has("audit-sweep")) {
        const unsigned variants = static_cast<unsigned>(
            cli.intOption("audit-sweep", 520));
        bench::note("auditor variant sweep (" +
                    std::to_string(variants) + " firmware variants)");
        bench::Json audit;
        const bool auditOk =
            auditSweep(cli, variants, threads, audit);
        ok = ok && auditOk;
        summary.object("audit", audit);
    }

    summary.field("ok", ok);
    summary.print();
    std::printf("\nFLEET %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
