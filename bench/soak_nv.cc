/**
 * @file
 * Torn-write NV soak: commit disciplines × NV technologies × fault
 * plans (DESIGN.md §11).
 *
 * Each matrix cell runs a batch of generated checkpointing programs
 * (the fuzzer's constrained generator, with checkpoint elements
 * forced in) on a Wisp whose FRAM is a parameterized NvRegion
 * (fram / flash / STT-MRAM technology tables) under a chosen commit
 * discipline, with interruptible commits and a fault injector that
 * forces a brown-out at a seed-derived NV word inside a commit
 * burst. The NV auditor's seal check counts restores of frames no
 * completed commit sealed — hybrid pre/post-checkpoint states.
 *
 * The gates have teeth in both directions:
 *  - the naive discipline (sequence number written before the
 *    payload) must demonstrably corrupt: at least one auditor-flagged
 *    unsealed restore across its cells;
 *  - the sealed discipline (CRC seal + seq written last, verified
 *    recovery scan with fallback) must stay auditor-clean everywhere;
 *  - a crash-anywhere oracle sweep (--sweep-cases, deterministic
 *    seeds) must report zero hybrid restores.
 *
 * Usage: soak_nv [--episodes N] [--sweep-cases N] [--seed S]
 *        (defaults: 12 episodes per cell, 1000 sweep cases)
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "energy/harvester.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "isa/assembler.hh"
#include "mem/nv_audit.hh"
#include "mem/nv_region.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

constexpr sim::Tick quantum = sim::oneMs;

struct CellStats
{
    std::uint64_t episodes = 0;
    std::uint64_t commits = 0;
    std::uint64_t restores = 0;
    std::uint64_t reboots = 0;
    std::uint64_t tears = 0;
    std::uint64_t tornBursts = 0;
    std::uint64_t tornWordsCorrupted = 0;
    std::uint64_t unsealedRestores = 0;
    std::uint64_t maxWear = 0;
    std::uint64_t totalWear = 0;
    std::uint64_t wornWords = 0;
};

/** A generated checkpointing case: the fuzzer's constrained
 *  generator with checkpoint elements forced in so commit bursts
 *  actually happen. */
fuzz::OracleCase
makeCase(std::uint64_t seed)
{
    fuzz::GeneratorOptions small;
    small.minElements = 3;
    small.maxElements = 8;
    fuzz::CaseSpec spec = fuzz::generateCase(seed, small);
    spec.checkpointing = true;
    fuzz::Element ck;
    ck.kind = fuzz::Element::Kind::Chkpt;
    spec.elements.push_back(ck);
    spec.elements.push_back(ck);
    return fuzz::makeOracleCase(spec);
}

/** One episode: world with the cell's discipline + technology, a
 *  seed-derived tear point, run to the case horizon. */
void
runEpisode(mcu::CommitDiscipline discipline,
           const mem::NvTechConfig &tech, std::uint64_t seed,
           CellStats &cell)
{
    fuzz::OracleCase c = makeCase(seed);

    target::WispConfig config;
    config.power.capacitanceF = c.capacitanceF;
    config.power.initialVolts = c.initialVolts;
    config.mcu.checkpointingEnabled = true;
    config.mcu.commitDiscipline = discipline;
    config.mcu.interruptibleCommit = true;
    config.nvTech = tech;

    sim::Simulator simulator(c.seed);
    energy::TheveninHarvester src(3.1, 900.0);
    target::Wisp wisp(simulator, "wisp", &src, nullptr, config);

    sim::FaultPlan plan;
    plan.seed = seed ^ 0x6E767470ULL; // "nvtp"
    {
        sim::Rng rng(plan.seed);
        plan.nvTearAtCommitWord =
            static_cast<std::uint64_t>(rng.uniformInt(1, 120));
        plan.nvTornCorruptProb = 0.5;
    }
    plan.brownOuts = c.schedule;
    sim::FaultInjector fault(simulator, "fault", plan);
    wisp.attachFaults(&fault);

    mem::NvAuditor aud(wisp.auditConfig(), wisp.framRegion());
    wisp.attachAuditor(&aud);

    fault.armBrownOuts(0);
    wisp.flash(isa::assemble(c.program));
    wisp.start();
    while (simulator.now() < c.horizon)
        simulator.runFor(quantum);

    ++cell.episodes;
    cell.commits += wisp.mcu().checkpointCount();
    cell.restores += wisp.mcu().restoreCount();
    cell.reboots += wisp.mcu().rebootCount();
    cell.tears += fault.stats().nvTears;
    cell.tornWordsCorrupted += fault.stats().nvTornWordsCorrupted;
    cell.unsealedRestores += aud.unsealedRestoreCount();
    const mem::NvRegion &fram = wisp.framRegion();
    cell.tornBursts += fram.tornWrites();
    cell.totalWear += fram.totalWear();
    cell.wornWords += fram.wornWords();
    if (fram.maxWear() > cell.maxWear)
        cell.maxWear = fram.maxWear();
}

bench::Json
cellJson(const CellStats &cell)
{
    bench::Json wear;
    wear.field("max", cell.maxWear)
        .field("total", cell.totalWear)
        .field("worn_words", cell.wornWords);
    bench::Json j;
    j.field("episodes", cell.episodes)
        .field("commits", cell.commits)
        .field("restores", cell.restores)
        .field("reboots", cell.reboots)
        .field("tears", cell.tears)
        .field("torn_bursts", cell.tornBursts)
        .field("torn_words_corrupted", cell.tornWordsCorrupted)
        .field("unsealed_restores", cell.unsealedRestores)
        .object("wear", wear);
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli(argc, argv);
    const int episodes = static_cast<int>(cli.count("episodes", 12));
    const int sweepCases =
        static_cast<int>(cli.count("sweep-cases", 1000));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.intOption("seed", 11));

    bench::banner(
        "NV torn-write soak: {naive, seqlast, sealed} x {fram, "
        "flash, sttmram}, " +
        std::to_string(episodes) +
        " episodes per cell, interruptible commits, seed-derived "
        "tear points, then a " +
        std::to_string(sweepCases) +
        "-case crash-anywhere oracle sweep");

    const struct
    {
        mcu::CommitDiscipline id;
        const char *name;
    } disciplines[] = {
        {mcu::CommitDiscipline::Naive, "naive"},
        {mcu::CommitDiscipline::SeqLast, "seqlast"},
        {mcu::CommitDiscipline::Sealed, "sealed"},
    };
    const mem::NvTechConfig techs[] = {
        mem::framTech(),
        mem::flashTech(),
        mem::sttMramTech(),
    };

    bench::Json matrix;
    std::uint64_t naiveUnsealed = 0;
    std::uint64_t sealedUnsealed = 0;
    std::uint64_t totalTears = 0;
    std::uint64_t episodeSeed = seed * 10000;
    for (const auto &d : disciplines) {
        for (const mem::NvTechConfig &tech : techs) {
            CellStats cell;
            for (int e = 0; e < episodes; ++e)
                runEpisode(d.id, tech, ++episodeSeed, cell);
            totalTears += cell.tears;
            if (d.id == mcu::CommitDiscipline::Naive)
                naiveUnsealed += cell.unsealedRestores;
            if (d.id == mcu::CommitDiscipline::Sealed)
                sealedUnsealed += cell.unsealedRestores;
            std::string key =
                std::string(d.name) + "_" + tech.name;
            matrix.object(key, cellJson(cell));
            std::printf("cell %-16s episodes=%llu commits=%llu "
                        "tears=%llu unsealed_restores=%llu\n",
                        key.c_str(),
                        static_cast<unsigned long long>(
                            cell.episodes),
                        static_cast<unsigned long long>(
                            cell.commits),
                        static_cast<unsigned long long>(cell.tears),
                        static_cast<unsigned long long>(
                            cell.unsealedRestores));
        }
    }

    // Crash-anywhere oracle sweep: sealed discipline, deterministic
    // seeds, zero hybrid restores allowed.
    std::uint64_t sweepFailed = 0, sweepInconclusive = 0;
    for (int i = 0; i < sweepCases; ++i) {
        fuzz::OracleCase c =
            makeCase(seed * 1000003ULL + static_cast<unsigned>(i));
        fuzz::OracleOutcome out =
            fuzz::runOracle(fuzz::OracleId::CrashAnywhere, c);
        if (out.failed) {
            ++sweepFailed;
            std::printf("sweep case %d FAIL: %s\n", i,
                        out.detail.c_str());
        } else if (out.inconclusive) {
            ++sweepInconclusive;
        }
        if ((i + 1) % 250 == 0)
            std::printf("... sweep %d/%d cases\n", i + 1,
                        sweepCases);
    }

    bench::Json sweep;
    sweep.field("cases", sweepCases)
        .field("failed", sweepFailed)
        .field("inconclusive", sweepInconclusive);
    bench::Json summary;
    bench::runConfigFields(summary, cli);
    summary.field("episodes_per_cell", episodes)
        .field("seed", seed)
        .object("matrix", matrix)
        .object("sweep", sweep)
        .print();

    // Teeth in both directions: the fault model must actually tear,
    // the naive discipline must demonstrably corrupt, and the sealed
    // discipline must never restore an unsealed frame -- in the
    // matrix or anywhere in the sweep.
    bool ok = totalTears > 0 && sealedUnsealed == 0 &&
              sweepFailed == 0;
    if (episodes >= 4)
        ok = ok && naiveUnsealed > 0;
    std::printf(ok ? "\nSOAK PASS\n" : "\nSOAK FAIL\n");
    return ok ? 0 : 1;
}
