/**
 * @file
 * Regression-corpus replay and fuzz-infrastructure properties.
 *
 * Every `.case` artifact checked in under tests/corpus/ is replayed
 * against the oracle named in its header and must pass: the corpus
 * is the fuzzer's long-term memory, so a simulator change that
 * re-breaks an old minimized failure (or one of the seed cases)
 * fails here without having to re-run the fuzzer. The remaining
 * tests pin the properties the corpus workflow depends on: the
 * artifact text format round-trips losslessly, generation and
 * mutation are deterministic in their seeds, and the shrinker
 * reduces a synthetic injected failure to a handful of
 * instructions while preserving the failure predicate.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "byte_soup.hh"
#include "fuzz/corpus.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "fuzz/shrink.hh"
#include "isa/assembler.hh"

namespace {

using namespace edb;

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> paths;
    const std::filesystem::path dir = FUZZ_CORPUS_DIR;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".case")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    return paths;
}

// ---------------------------------------------------------------
// Corpus replay.
// ---------------------------------------------------------------

TEST(FuzzCorpus, HasSeedCasesForEveryOracle)
{
    auto paths = corpusFiles();
    EXPECT_GE(paths.size(), 20u);
    for (unsigned o = 0; o < fuzz::numOracles; ++o) {
        const std::string tag =
            fuzz::oracleName(static_cast<fuzz::OracleId>(o));
        EXPECT_TRUE(std::any_of(paths.begin(), paths.end(),
                                [&tag](const std::string &p) {
                                    return p.find(tag) !=
                                           std::string::npos;
                                }))
            << "no corpus case for oracle " << tag;
    }
}

TEST(FuzzCorpus, EveryArtifactReplaysClean)
{
    auto paths = corpusFiles();
    ASSERT_FALSE(paths.empty());
    for (const std::string &path : paths) {
        std::string error;
        auto artifact = fuzz::loadArtifact(path, &error);
        ASSERT_TRUE(artifact.has_value())
            << path << ": " << error;
        fuzz::OracleOutcome out =
            fuzz::runOracle(artifact->oracle, artifact->oracleCase);
        EXPECT_FALSE(out.failed)
            << path << " [" << fuzz::oracleName(artifact->oracle)
            << "]: " << out.detail;
    }
}

TEST(FuzzCorpus, ArtifactTextRoundTrips)
{
    auto paths = corpusFiles();
    ASSERT_FALSE(paths.empty());
    std::string error;
    auto artifact = fuzz::loadArtifact(paths.front(), &error);
    ASSERT_TRUE(artifact.has_value()) << error;
    std::string text = fuzz::artifactToText(*artifact);
    auto again = fuzz::artifactFromText(text, &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_EQ(again->oracle, artifact->oracle);
    EXPECT_EQ(again->oracleCase.program, artifact->oracleCase.program);
    EXPECT_EQ(again->oracleCase.mutant, artifact->oracleCase.mutant);
    EXPECT_EQ(again->oracleCase.seed, artifact->oracleCase.seed);
    EXPECT_EQ(again->oracleCase.checkpointing,
              artifact->oracleCase.checkpointing);
    EXPECT_EQ(again->oracleCase.horizon, artifact->oracleCase.horizon);
    ASSERT_EQ(again->oracleCase.schedule.size(),
              artifact->oracleCase.schedule.size());
    for (std::size_t i = 0; i < again->oracleCase.schedule.size(); ++i) {
        EXPECT_EQ(again->oracleCase.schedule[i].at,
                  artifact->oracleCase.schedule[i].at);
        EXPECT_EQ(again->oracleCase.schedule[i].volts,
                  artifact->oracleCase.schedule[i].volts);
    }
}

TEST(FuzzCorpus, LoaderRejectsOutOfRangeValues)
{
    auto artifact = [](const std::string &knobs) {
        return "oracle fastref\nseed 1\n" + knobs +
               "program 1\n    halt\nend\n";
    };
    std::string error;
    ASSERT_TRUE(fuzz::artifactFromText(
                    artifact("horizon 1000\ncapacitance 4.7e-06\n"
                             "brownout 0 0\nbrownout 5 1.5\n"),
                    &error)
                    .has_value())
        << error;
    // A non-positive capacitance would throw sim::FatalError out of
    // runOracle; the rest describe no run at all.
    for (const char *knobs :
         {"capacitance 0\n", "capacitance -4.7e-06\n",
          "horizon 0\n", "horizon -1000\n", "brownout -5 1.0\n",
          "brownout 5 -1.0\n"}) {
        error.clear();
        EXPECT_FALSE(fuzz::artifactFromText(artifact(knobs), &error)
                         .has_value())
            << knobs;
        EXPECT_FALSE(error.empty()) << knobs;
    }
}

TEST(FuzzCorpus, LoaderSurvivesMutatedCases)
{
    // `.case` files are a byte surface: every mutant of a checked-in
    // case must load or be refused with a reason, and a loaded case's
    // listings must assemble or throw AsmError, nothing else.
    std::vector<std::string> bases;
    for (const std::string &path : corpusFiles()) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        bases.push_back(text.str());
    }
    ASSERT_FALSE(bases.empty());
    constexpr int trials = 2000;
    std::uint64_t state = 35;
    int loaded = 0;
    for (int trial = 0; trial < trials; ++trial) {
        const std::string text =
            test::mutateText(bases[trial % bases.size()], state);
        std::string error;
        try {
            auto artifact = fuzz::artifactFromText(text, &error);
            if (!artifact) {
                EXPECT_FALSE(error.empty()) << "trial " << trial;
                continue;
            }
            ++loaded;
            for (const std::string *listing :
                 {&artifact->oracleCase.program,
                  &artifact->oracleCase.mutant}) {
                try {
                    if (!listing->empty())
                        isa::assemble(*listing);
                } catch (const isa::AsmError &) {
                }
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << "trial " << trial << ": " << e.what();
        }
    }
    // The mutants reach the loader's error paths, and not only them.
    EXPECT_GT(loaded, 0);
    EXPECT_LT(loaded, trials);
}

// ---------------------------------------------------------------
// Generator determinism (what makes artifacts and CI replayable).
// ---------------------------------------------------------------

TEST(FuzzGenerator, GenerationIsDeterministic)
{
    fuzz::CaseSpec a = fuzz::generateCase(42);
    fuzz::CaseSpec b = fuzz::generateCase(42);
    EXPECT_EQ(fuzz::renderProgram(a), fuzz::renderProgram(b));
    EXPECT_EQ(fuzz::renderWarMutant(a), fuzz::renderWarMutant(b));
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t i = 0; i < a.schedule.size(); ++i)
        EXPECT_EQ(a.schedule[i].at, b.schedule[i].at);

    fuzz::CaseSpec c = fuzz::generateCase(43);
    EXPECT_NE(fuzz::renderProgram(a), fuzz::renderProgram(c));
}

TEST(FuzzGenerator, MutationIsDeterministic)
{
    fuzz::CaseSpec base = fuzz::generateCase(7);
    fuzz::CaseSpec m1 = fuzz::mutateCase(base, 99);
    fuzz::CaseSpec m2 = fuzz::mutateCase(base, 99);
    EXPECT_EQ(fuzz::renderProgram(m1), fuzz::renderProgram(m2));
}

// ---------------------------------------------------------------
// Shrinker: a synthetic injected failure must minimize hard.
// ---------------------------------------------------------------

TEST(FuzzShrink, ReducesSyntheticFailureToFewInstructions)
{
    // Synthetic failure predicate: "the program still contains a
    // store". Any generated case with a store element triggers it,
    // and a perfect minimizer would land on a single one-line
    // snippet; the acceptance bar is <= 25 instructions.
    auto predicate = [](const fuzz::CaseSpec &s) {
        return fuzz::renderProgram(s).find("stw") !=
               std::string::npos;
    };

    fuzz::CaseSpec failing;
    bool found = false;
    for (std::uint64_t seed = 100; seed < 140; ++seed) {
        fuzz::CaseSpec candidate = fuzz::generateCase(seed);
        if (predicate(candidate) &&
            fuzz::instructionCount(candidate) > 40) {
            failing = candidate;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no seed produced a large store-bearing case";

    fuzz::ShrinkResult shrunk = fuzz::shrinkCase(failing, predicate);
    EXPECT_TRUE(predicate(shrunk.spec))
        << "shrinker lost the failure predicate";
    EXPECT_GT(shrunk.beforeInstrs, 40u);
    EXPECT_LE(shrunk.afterInstrs, 25u)
        << "shrunk case still has " << shrunk.afterInstrs
        << " instructions after " << shrunk.runs << " predicate runs";
    EXPECT_LT(shrunk.afterInstrs, shrunk.beforeInstrs);
}

TEST(FuzzShrink, ShrinksScheduleToo)
{
    // A predicate indifferent to the schedule should see its forced
    // brown-outs pruned away entirely.
    auto predicate = [](const fuzz::CaseSpec &s) {
        return !s.elements.empty();
    };
    fuzz::CaseSpec failing = fuzz::generateCase(11);
    ASSERT_FALSE(failing.schedule.empty());
    fuzz::ShrinkResult shrunk = fuzz::shrinkCase(failing, predicate);
    EXPECT_TRUE(shrunk.spec.schedule.empty());
}

} // namespace
