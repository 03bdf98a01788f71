/**
 * @file
 * Constrained EH32 program + power-schedule generator.
 *
 * The fuzzer does not throw arbitrary bytes at the interpreter: a
 * generated case is a structured `CaseSpec` — a list of atomic
 * program elements (straight-line snippets, bounded loops, forward
 * skips, checkpoint calls) plus a forced-brown-out schedule — that
 * renders to assembly accepted by the existing two-pass assembler
 * and, by construction, executes without faults and without
 * write-after-read hazards on non-volatile state:
 *
 *  - all memory traffic goes through pointer registers established
 *    with `la` (which clears auditor taint) into fixed FRAM / SRAM
 *    scratch windows, with offsets bounded inside the window and
 *    word accesses kept 4-aligned;
 *  - registers loaded from memory ("data class") are never used as a
 *    store base and never flow into pointer registers, so no store
 *    is ever guided by a stale non-volatile read — generated
 *    programs are checkpoint-correct and must audit clean;
 *  - branches exist only inside self-contained loop/skip elements
 *    whose labels are generated at render time, so any subset of
 *    elements still assembles — which is what makes shrinking a
 *    simple list-reduction problem.
 *
 * `renderWarMutant` re-renders the same spec with a seeded
 * write-after-read gadget at the entry point (a store through a
 * pointer *loaded from* FRAM, followed by a sentinel store and a
 * `war_done` label) and checkpoint elements stripped: the mutant is
 * the auditor-completeness half of the audit oracle.
 */

#ifndef EDB_FUZZ_GENERATOR_HH
#define EDB_FUZZ_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/time.hh"

namespace edb::fuzz {

/** Scratch layout shared by every generated program (FRAM data,
 *  SRAM data, and the WAR gadget cells, all word aligned). */
namespace gen_layout {
constexpr std::uint32_t framScratchBase = 0x6000;
constexpr std::uint32_t sramScratchBase = 0x1000;
constexpr std::uint32_t scratchBytes = 0x100;
constexpr std::uint32_t warGuideAddr = 0x6800;
constexpr std::uint32_t warTargetAddr = 0x6804;
constexpr std::uint32_t warSentinelAddr = 0x6808;
} // namespace gen_layout

/** One atomic program element. */
struct Element
{
    enum class Kind : std::uint8_t
    {
        Snippet, ///< Straight-line lines, self-contained.
        Loop,    ///< Bounded counted loop around `body`.
        Skip,    ///< Conditional forward branch over `body`.
        Chkpt,   ///< Hardware checkpoint request.
    };

    Kind kind = Kind::Snippet;
    /** Snippet: the assembly lines (no labels). */
    std::vector<std::string> lines;
    /** Loop: iteration count (>= 1). */
    unsigned iterations = 1;
    /** Loop / Skip: nested elements (Snippet / Chkpt only). */
    std::vector<Element> body;
    /** Skip: branch mnemonic (beq/bne/blt/bge/bltu/bgeu). */
    std::string branchOp = "beq";
    /** Skip: compared data register and immediate. */
    unsigned cmpReg = 1;
    std::int32_t cmpImm = 0;
};

/** A complete generated case: program, schedule, world knobs. */
struct CaseSpec
{
    /** Simulator seed (drives harvest noise). */
    std::uint64_t worldSeed = 1;
    /** Hardware checkpoint unit enabled (and chkpt elements allowed). */
    bool checkpointing = true;
    /** Run horizon. */
    sim::Tick horizon = 40 * sim::oneMs;
    /** Program body. */
    std::vector<Element> elements;
    /** Forced brown-out schedule. */
    std::vector<sim::BrownOut> schedule;
};

/** Generation knobs. */
struct GeneratorOptions
{
    unsigned minElements = 8;
    unsigned maxElements = 26;
};

/** Generate a fresh case from a seed (deterministic). */
CaseSpec generateCase(std::uint64_t seed,
                      const GeneratorOptions &options = {});

/** Mutate an existing case (deterministic in `seed`). */
CaseSpec mutateCase(const CaseSpec &base, std::uint64_t seed);

/** Render the spec to assembly source (the clean program). */
std::string renderProgram(const CaseSpec &spec);

/**
 * Render the seeded-WAR mutant: the same program with the gadget
 * prologue injected at `main` and checkpoint elements stripped.
 * Defines the `war_done` label the audit oracle's tracer watches.
 */
std::string renderWarMutant(const CaseSpec &spec);

/** Number of instruction lines in the rendered clean program. */
std::size_t instructionCount(const CaseSpec &spec);

/** Number of instruction lines in an arbitrary listing. */
std::size_t instructionCountOf(const std::string &listing);

} // namespace edb::fuzz

#endif // EDB_FUZZ_GENERATOR_HH
