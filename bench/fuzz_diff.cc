/**
 * @file
 * Coverage-guided differential fuzzer for the intermittent simulator.
 *
 * Each case is a constrained random EH32 program plus a forced
 * brown-out schedule (src/fuzz/generator.hh), checked against the
 * six oracles in src/fuzz/oracle.hh: fast-vs-reference engine
 * bit-identity, snapshot resume-equivalence, from-scratch replay
 * determinism, NV-auditor soundness/completeness, crash-anywhere
 * checkpoint-commit consistency (torn NV writes must never yield a
 * hybrid restore), and etap static-analyzer soundness (the
 * worst-case per-boot energy bound vs. measured drain, and the
 * starvation verdict vs. observed progress).
 * Coverage feedback (opcodes,
 * opcode x address-class pairs, MMIO registers, power-state edges,
 * reboot-interrupted code buckets) keeps cases that exercised new
 * behaviour in a mutation pool; failures are minimized with the
 * shrinker and written as replayable artifacts.
 *
 * Everything is deterministic for a fixed --seed: all randomness
 * flows through sim::Rng streams derived from it, and the simulator
 * itself never reads a wall clock.
 *
 * Usage:
 *   fuzz_diff [--cases N] [--seed S] [--artifacts DIR]
 *   fuzz_diff --emit-corpus DIR [--corpus-count N] [--seed S]
 *
 * Exit status is nonzero when any oracle failed (the artifacts are
 * in DIR, default ./fuzz-artifacts) or when corpus emission could
 * not produce the requested cases.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "mcu/mmio_map.hh"
#include "fuzz/corpus.hh"
#include "fuzz/coverage.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "fuzz/shrink.hh"
#include "sim/rng.hh"

using namespace edb;

namespace {

constexpr std::size_t poolCap = 64;

struct Failure
{
    fuzz::OracleId oracle;
    std::string detail;
    std::string path;
    std::size_t beforeInstrs = 0;
    std::size_t afterInstrs = 0;
    unsigned shrinkRuns = 0;
};

/** Re-run one oracle on a candidate spec (the shrink predicate). */
bool
oracleStillFails(fuzz::OracleId id, const fuzz::CaseSpec &spec)
{
    fuzz::OracleCase c = fuzz::makeOracleCase(spec);
    return fuzz::runOracle(id, c).failed;
}

int
runFuzz(const bench::Cli &cli)
{
    const int cases = static_cast<int>(cli.count("cases", 300));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.intOption("seed", 1));
    const std::string artifactDir =
        cli.strOption("artifacts", "fuzz-artifacts");

    bench::banner(
        "Differential fuzz: " + std::to_string(cases) +
        " cases, seed " + std::to_string(seed) +
        ", oracles fastref/snapshot/replay/audit/crashanywhere/etap, "
        "coverage-guided");

    sim::Rng master(seed * 0x9E3779B97F4A7C15ULL + 1);
    fuzz::Coverage global;
    std::vector<fuzz::CaseSpec> pool;
    std::vector<Failure> failures;
    std::uint64_t oracleRuns = 0;
    std::uint64_t inconclusive = 0;
    std::uint64_t mutated = 0;
    std::uint64_t keptForCoverage = 0;
    std::uint64_t perOracleFailures[fuzz::numOracles] = {};

    for (int i = 0; i < cases; ++i) {
        std::uint64_t caseSeed = static_cast<std::uint64_t>(
            master.uniformInt(1, 1LL << 62));
        fuzz::CaseSpec spec;
        if (!pool.empty() && master.chance(0.5)) {
            const fuzz::CaseSpec &base =
                pool[static_cast<std::size_t>(master.uniformInt(
                    0, static_cast<std::int64_t>(pool.size() - 1)))];
            spec = fuzz::mutateCase(base, caseSeed);
            ++mutated;
        } else {
            spec = fuzz::generateCase(caseSeed);
        }
        fuzz::OracleCase c = fuzz::makeOracleCase(spec);

        fuzz::Coverage caseCov;
        for (unsigned o = 0; o < fuzz::numOracles; ++o) {
            auto id = static_cast<fuzz::OracleId>(o);
            fuzz::OracleOutcome out =
                fuzz::runOracle(id, c, &caseCov);
            ++oracleRuns;
            if (out.inconclusive)
                ++inconclusive;
            if (!out.failed)
                continue;
            ++perOracleFailures[o];
            std::printf("case %d FAIL [%s]: %s\n", i,
                        fuzz::oracleName(id), out.detail.c_str());

            Failure f;
            f.oracle = id;
            f.detail = out.detail;
            fuzz::ShrinkResult shrunk = fuzz::shrinkCase(
                spec,
                [id](const fuzz::CaseSpec &s) {
                    return oracleStillFails(id, s);
                });
            f.beforeInstrs = shrunk.beforeInstrs;
            f.afterInstrs = shrunk.afterInstrs;
            f.shrinkRuns = shrunk.runs;

            std::filesystem::create_directories(artifactDir);
            fuzz::Artifact artifact;
            artifact.oracle = id;
            artifact.oracleCase =
                fuzz::makeOracleCase(shrunk.spec);
            artifact.note = "case " + std::to_string(i) + " seed " +
                            std::to_string(seed) + " shrunk " +
                            std::to_string(shrunk.beforeInstrs) +
                            "->" +
                            std::to_string(shrunk.afterInstrs) +
                            " instrs";
            f.path = artifactDir + "/case-" + std::to_string(i) +
                     "-" + fuzz::oracleName(id) + ".case";
            fuzz::saveArtifact(artifact, f.path);
            std::printf("  minimized %zu -> %zu instrs (%u shrink "
                        "runs), artifact: %s\n",
                        f.beforeInstrs, f.afterInstrs, f.shrinkRuns,
                        f.path.c_str());
            failures.push_back(std::move(f));
        }

        if (global.merge(caseCov) > 0 && pool.size() < poolCap) {
            pool.push_back(spec);
            ++keptForCoverage;
        }
        if ((i + 1) % 50 == 0)
            std::printf("... %d/%d cases, %zu coverage keys, %zu "
                        "failures\n",
                        i + 1, cases, global.distinct(),
                        failures.size());
    }

    bench::Json coverage;
    coverage.field("total", global.distinct())
        .field("opcodes",
               global.distinctOfKind(fuzz::Coverage::kindExec))
        .field("mem_pairs",
               global.distinctOfKind(fuzz::Coverage::kindMem))
        .field("mmio_regs",
               global.distinctOfKind(fuzz::Coverage::kindMmio))
        .field("edges",
               global.distinctOfKind(fuzz::Coverage::kindEdge))
        .field("reboot_pcs",
               global.distinctOfKind(fuzz::Coverage::kindRebootPc));
    bench::Json perOracle;
    for (unsigned o = 0; o < fuzz::numOracles; ++o)
        perOracle.field(
            fuzz::oracleName(static_cast<fuzz::OracleId>(o)),
            perOracleFailures[o]);
    bench::Json shrunkSizes;
    for (std::size_t i = 0; i < failures.size(); ++i)
        shrunkSizes.field(std::to_string(i),
                          failures[i].afterInstrs);
    bench::Json summary;
    bench::runConfigFields(summary, cli);
    summary.field("cases", cases)
        .field("seed", static_cast<std::uint64_t>(seed))
        .field("oracle_runs", oracleRuns)
        .field("mutated", mutated)
        .field("pool", keptForCoverage)
        .field("inconclusive", inconclusive)
        .object("coverage", coverage)
        .field("failures",
               static_cast<std::uint64_t>(failures.size()))
        .object("failures_by_oracle", perOracle)
        .object("shrunk_instrs", shrunkSizes);
    summary.print();

    if (failures.empty()) {
        std::printf("\nFUZZ PASS\n");
        return 0;
    }
    std::printf("\nFUZZ FAIL (%zu oracle failures, artifacts in "
                "%s)\n",
                failures.size(), artifactDir.c_str());
    return 1;
}

/**
 * Hand-written analyzer-targeted etap cases: program shapes the
 * random generator rarely produces but the static analyzer must
 * price correctly — a tight ALU loop, an NV-write-heavy loop, a
 * checkpointed persist-window loop, and one *true* starvation case
 * (the LED load exceeds any harvestable inflow, so the bounded main
 * region can never be paid for in one boot). Each case is
 * seed-searched until its oracle run is a conclusive pass — and, for
 * the starvation case, until the analyzer's verdict really is
 * "starves" while the simulated world shows stalled boots — so the
 * artifact replays deterministically in test_fuzz_corpus.
 */
struct EtapHandmade
{
    const char *name;
    const char *note;
    const char *body; ///< Listing after the "main:" label.
    bool checkpointing;
    bool wantStarve;
};

constexpr EtapHandmade etapHandmade[] = {
    {"etap-tightloop", "handcrafted: tight ALU loop, exact trip count",
     "    li r1, 7\n"
     "    li r2, 3\n"
     "    li r10, 16\n"
     "loop_0:\n"
     "    addi r1, r1, 5\n"
     "    addi r2, r2, -1\n"
     "    addi r10, r10, -1\n"
     "    cmpi r10, 0\n"
     "    bne loop_0\n"
     "    la r8, SSCRATCH\n"
     "    stw r1, [r8 + 4]\n"
     "    halt\n",
     false, false},
    {"etap-nvwrites", "handcrafted: NV-write-heavy FRAM loop",
     "    li r10, 12\n"
     "loop_0:\n"
     "    la r6, FSCRATCH\n"
     "    ldw r2, [r6 + 16]\n"
     "    addi r2, r2, 1\n"
     "    stw r2, [r6 + 16]\n"
     "    stw r2, [r6 + 20]\n"
     "    stw r2, [r6 + 24]\n"
     "    stw r2, [r6 + 28]\n"
     "    addi r10, r10, -1\n"
     "    cmpi r10, 0\n"
     "    bne loop_0\n"
     "    halt\n",
     false, false},
    {"etap-chkpt", "handcrafted: checkpointed persist windows",
     "    li r10, 8\n"
     "loop_0:\n"
     "    la r6, FSCRATCH\n"
     "    ldw r2, [r6 + 32]\n"
     "    addi r2, r2, 1\n"
     "    stw r2, [r6 + 32]\n"
     "    chkpt\n"
     "    addi r10, r10, -1\n"
     "    cmpi r10, 0\n"
     "    bne loop_0\n"
     "    halt\n",
     true, false},
    {"etap-starve", "handcrafted: LED load exceeds harvest, starves",
     "    la r9, MMIO\n"
     "    li r1, 1\n"
     "    stw r1, [r9 + 128]\n"
     "    li r10, 30000\n"
     "loop_0:\n"
     "    addi r10, r10, -1\n"
     "    cmpi r10, 0\n"
     "    bne loop_0\n"
     "    li r2, 0\n"
     "    stw r2, [r9 + 128]\n"
     "    halt\n",
     false, true},
};

std::string
etapProgram(const char *body)
{
    std::string s;
    s += "; handcrafted etap analyzer case\n";
    s += ".entry main\n";
    s += ".equ FSCRATCH, " +
         std::to_string(fuzz::gen_layout::framScratchBase) + "\n";
    s += ".equ SSCRATCH, " +
         std::to_string(fuzz::gen_layout::sramScratchBase) + "\n";
    s += ".equ MMIO, " + std::to_string(mcu::mmio::base) + "\n";
    s += "main:\n";
    s += body;
    return s;
}

/** "stallBoots=N" parsed out of an etap outcome detail string. */
unsigned
stallBootsOf(const std::string &detail)
{
    auto at = detail.find("stallBoots=");
    if (at == std::string::npos)
        return 0;
    return static_cast<unsigned>(
        std::atoi(detail.c_str() + at + sizeof "stallBoots=" - 1));
}

int
emitEtapHandmade(const std::string &dir, int index)
{
    for (const EtapHandmade &h : etapHandmade) {
        bool saved = false;
        for (std::uint64_t seed = 5000; seed < 5600 && !saved;
             ++seed) {
            fuzz::OracleCase c;
            c.program = etapProgram(h.body);
            c.seed = seed;
            c.checkpointing = h.checkpointing;
            // Below the turn-on threshold, so the first boot is a
            // natural upward crossing (no forced schedule needed).
            c.initialVolts = 2.0;
            fuzz::OracleOutcome out =
                fuzz::runOracle(fuzz::OracleId::Etap, c);
            if (out.failed || out.inconclusive)
                continue;
            bool starves = out.detail.find("verdict=starves") !=
                           std::string::npos;
            if (starves != h.wantStarve)
                continue;
            if (h.wantStarve && stallBootsOf(out.detail) < 2)
                continue; // want the stall visible in ground truth

            char name[64];
            std::snprintf(name, sizeof name, "seed-%02d-%s.case",
                          index, h.name);
            fuzz::Artifact artifact;
            artifact.oracle = fuzz::OracleId::Etap;
            artifact.oracleCase = c;
            artifact.note = std::string(h.note) + ", world seed " +
                            std::to_string(seed);
            std::string path = dir + "/" + name;
            if (!fuzz::saveArtifact(artifact, path)) {
                std::printf("cannot write %s\n", path.c_str());
                return -1;
            }
            std::printf("emitted %s (%s)\n", path.c_str(),
                        out.detail.c_str());
            ++index;
            saved = true;
        }
        if (!saved) {
            std::printf("no world seed makes %s a conclusive %s\n",
                        h.name,
                        h.wantStarve ? "starvation case" : "pass");
            return -1;
        }
    }
    return index;
}

/**
 * Seed-corpus emission: small cases that pass their oracle, one
 * oracle per case round-robin, written as replayable artifacts.
 * Audit artifacts are required to be conclusive (a power loss after
 * the gadget) so the completeness half really replays; crash-anywhere
 * artifacts likewise (a tear must actually land inside a commit), so
 * those specs force checkpointing on and append checkpoint elements
 * to guarantee commit bursts for the tear to hit.
 */
int
emitCorpus(const bench::Cli &cli)
{
    const std::string dir = cli.strOption("emit-corpus");
    const int want =
        static_cast<int>(cli.intOption("corpus-count", 24));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.intOption("seed", 3));

    fuzz::GeneratorOptions small;
    small.minElements = 2;
    small.maxElements = 6;

    std::filesystem::create_directories(dir);
    int emitted = 0;
    std::uint64_t caseSeed = seed * 1000;
    int attempts = 0;
    while (emitted < want && attempts < want * 40) {
        ++attempts;
        ++caseSeed;
        auto id = static_cast<fuzz::OracleId>(
            emitted % fuzz::numOracles);
        fuzz::CaseSpec spec = fuzz::generateCase(caseSeed, small);
        if (id == fuzz::OracleId::CrashAnywhere) {
            spec.checkpointing = true;
            fuzz::Element ck;
            ck.kind = fuzz::Element::Kind::Chkpt;
            spec.elements.push_back(ck);
            spec.elements.push_back(ck);
        }
        fuzz::OracleCase c = fuzz::makeOracleCase(spec);
        fuzz::OracleOutcome out = fuzz::runOracle(id, c);
        if (out.failed)
            continue;
        if ((id == fuzz::OracleId::Audit ||
             id == fuzz::OracleId::CrashAnywhere ||
             id == fuzz::OracleId::Etap) &&
            out.inconclusive)
            continue;

        char name[64];
        std::snprintf(name, sizeof name, "seed-%02d-%s.case",
                      emitted, fuzz::oracleName(id));
        fuzz::Artifact artifact;
        artifact.oracle = id;
        artifact.oracleCase = c;
        artifact.note = "seed corpus, generator seed " +
                        std::to_string(caseSeed);
        std::string path = dir + "/" + name;
        if (!fuzz::saveArtifact(artifact, path)) {
            std::printf("cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("emitted %s (%zu instrs)\n", path.c_str(),
                    fuzz::instructionCountOf(c.program));
        ++emitted;
    }
    if (emitted < want) {
        std::printf("only emitted %d/%d corpus cases\n", emitted,
                    want);
        return 1;
    }
    if (emitEtapHandmade(dir, emitted) < 0)
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli(argc, argv);
    if (cli.has("emit-corpus"))
        return emitCorpus(cli);
    return runFuzz(cli);
}
