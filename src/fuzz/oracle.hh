/**
 * @file
 * The six differential oracles the fuzzer checks every case against.
 *
 * An `OracleCase` is self-contained and textual — assembly listings
 * plus the world knobs and the forced-brown-out schedule — so a case
 * can be written to disk as a regression artifact and replayed
 * byte-for-byte later (see fuzz/corpus.hh). The oracles:
 *
 *  - FastRef: the fast engine vs the reference engine must agree on
 *    every architectural statistic, the final register file, both
 *    memory images (CRC) and the exact capacitor voltage (DESIGN.md
 *    §7's bit-identity contract). The fast leg runs un-instrumented,
 *    so its segment-amortized slice loop runs as in production (a
 *    tracer would make it resync with the event queue after every
 *    instruction); the reference leg carries the coverage tracer, so
 *    bit-identity must also hold across the instrumentation
 *    difference.
 *  - Snapshot: saving the world mid-run and resuming it in a fresh
 *    simulator must reach the same end state as the uninterrupted
 *    run (§8.1's resume-equivalence contract).
 *  - Replay: two from-scratch runs of the same case must be
 *    bit-identical — catches wall-clock, address-order or uninitialized
 *    state leaking into simulation results.
 *  - Audit: the NV auditor must stay silent on the (WAR-free by
 *    construction) clean program, and must flag the seeded-WAR
 *    mutant whenever a power loss actually exposed the hazard
 *    (soundness and completeness of §8.2's taint machine). When the
 *    power trace never lost power after the gadget ran, the
 *    completeness half is inconclusive, not a failure.
 *  - Etap: the static energy analyzer (src/analysis/, DESIGN.md §14)
 *    cross-checked against simulated ground truth. Soundness: the
 *    analyzer's worst-case boot-to-persist charge bound must never
 *    be exceeded by any observed power-on→first-persist drain.
 *    Starvation: a must-starve verdict with observed forward
 *    progress is a false positive; a completes verdict with a
 *    conclusive stall (no persist over many un-forced boots) is a
 *    false negative. Cases where neither half can be exercised
 *    (unbounded regions and no starvation claim) are inconclusive.
 *  - CrashAnywhere: the torn-write consistency oracle (§11). The
 *    case runs under the sealed commit discipline with interruptible
 *    commits, and a fault injector forces a brown-out at a
 *    seed-derived NV word inside a checkpoint commit burst
 *    (optionally corrupting the in-flight word). The auditor's seal
 *    check then asserts every restore replays a frame some completed
 *    commit actually sealed — the resumed world is the pre- or
 *    post-checkpoint state, never a hybrid. Cases whose schedule
 *    never lands a tear inside a commit are inconclusive, not
 *    failures.
 */

#ifndef EDB_FUZZ_ORACLE_HH
#define EDB_FUZZ_ORACLE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/coverage.hh"
#include "fuzz/generator.hh"
#include "sim/time.hh"

namespace edb::fuzz {

enum class OracleId : std::uint8_t
{
    FastRef = 0,
    Snapshot,
    Replay,
    Audit,
    CrashAnywhere,
    Etap,
};

constexpr unsigned numOracles = 6;

/** Stable artifact name ("fastref", "snapshot", "replay", "audit",
 *  "crashanywhere", "etap"). */
const char *oracleName(OracleId id);
std::optional<OracleId> oracleFromName(const std::string &name);

/** A self-contained, replayable case (see file header). */
struct OracleCase
{
    /** Clean program listing (assembled at origin 0x4000). */
    std::string program;
    /** Seeded-WAR mutant listing; empty when not generated. */
    std::string mutant;
    /** Simulator seed; also derives the harvester's Thevenin
     *  parameters (see oracle.cc). */
    std::uint64_t seed = 1;
    /** Hardware checkpoint unit enabled for the clean program. */
    bool checkpointing = true;
    sim::Tick horizon = 40 * sim::oneMs;
    /** Storage capacitor; small so brown-out/recharge cycles fit the
     *  short horizon. */
    double capacitanceF = 4.7e-6;
    /** Start charged so the first boot is immediate. */
    double initialVolts = 2.6;
    std::vector<sim::BrownOut> schedule;
};

/** Lower a generated spec to its replayable textual form. */
OracleCase makeOracleCase(const CaseSpec &spec);

struct OracleOutcome
{
    bool failed = false;
    /** Audit completeness could not be exercised (no power loss after
     *  the gadget ran); counts as a pass. */
    bool inconclusive = false;
    std::string detail;
};

/**
 * Run one oracle on one case. When `coverage` is non-null the run is
 * instrumented (tracer + lifecycle polling) and observed behaviours
 * are added to it.
 */
OracleOutcome runOracle(OracleId id, const OracleCase &c,
                        Coverage *coverage = nullptr);

/**
 * Auditor-soundness building block (shared with the false-positive
 * property test): run the clean program with the auditor attached
 * and return the violation count — zero for every checkpoint-correct
 * program.
 */
std::uint64_t auditViolations(const OracleCase &c);

} // namespace edb::fuzz

#endif // EDB_FUZZ_ORACLE_HH
