/**
 * @file
 * Non-volatile consistency auditor for intermittent executions.
 *
 * Checks the correctness condition from the formal foundation of
 * intermittent computing (Surbatovich et al.): non-volatile state
 * must not "time-travel" across reboots. Concretely, if a reboot
 * interval *reads* a non-volatile location and then *writes*
 * non-volatile state through the value it read, and power fails
 * before a checkpoint commits the interval, the next interval
 * re-executes against the half-updated image — the read observes
 * state from its own aborted future. The broken linked list of the
 * paper's Section 2 case study is exactly this shape: `list_remove`
 * writes `e->prev->next` through pointers loaded from FRAM, power
 * fails between the unlink stores, and the next boot walks a list
 * that is neither the old one nor the new one.
 *
 * The auditor is a register-taint machine driven by the interpreter
 * (DiCA-style, at checkpoint-commit granularity):
 *
 *  - a load from audited non-volatile data taints the destination
 *    register with the load address (its "guide");
 *  - Mov/Add/Addi/Sub propagate the guide (pointer arithmetic);
 *    every other register write clears it;
 *  - a store *through a tainted base register* whose target is also
 *    audited non-volatile data opens a WAR record
 *    (guide, store address, pc, interval);
 *  - any non-volatile write over the guide address closes its
 *    records — the read's source was itself updated this interval,
 *    so replaying the interval re-derives the pointer (the benign
 *    read-modify-write shape: `COUNTER = COUNTER + 1`);
 *  - a checkpoint commit closes all records (the interval's NV image
 *    is now the recovery point) and commits the shadow FRAM;
 *  - a power loss converts every record still open into a finding.
 *
 * The shadow FRAM — a byte copy of the audited range taken at each
 * checkpoint commit — is diagnostic state for replay divergence
 * checks (`shadowDiff`), not a findings source; programs that never
 * checkpoint simply keep shadowValid() false.
 *
 * Checkpoint slots themselves are excluded from auditing: the
 * checkpoint unit's own double-buffered writes are the recovery
 * protocol, not application data.
 */

#ifndef EDB_MEM_NV_AUDIT_HH
#define EDB_MEM_NV_AUDIT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory.hh"
#include "sim/time.hh"

namespace edb::sim {
class SnapshotWriter;
class SnapshotReader;
class StateIo;
} // namespace edb::sim

namespace edb::mem {

/** Which addresses the auditor watches. */
struct NvAuditConfig
{
    /** Audited non-volatile data range (typically all of FRAM). */
    Addr nvBase = 0;
    Addr nvSize = 0;
    /** Excluded sub-range: the checkpoint slots. */
    Addr checkpointBase = 0;
    Addr checkpointSpan = 0;
    /** Findings cap; further violations only bump the counters. */
    std::size_t maxFindings = 64;
};

/** One write-after-read violation, attributed for the report. */
struct NvFinding
{
    /** NV address the guiding value was loaded from. */
    Addr guideAddr = 0;
    /** NV address written through the stale value. */
    Addr storeAddr = 0;
    /** PC of the offending store. */
    Addr storePc = 0;
    /** Reboot interval (boot count) the store executed in. */
    std::uint64_t interval = 0;
    /** Power-loss tick that exposed the violation. */
    sim::Tick lossTick = 0;
};

/** Render a finding the way session reports do. */
std::string nvFindingText(const NvFinding &finding);

/**
 * The auditor. `target::Wisp::attachAuditor` wires it in: the MCU
 * drives the taint machine and lifecycle hooks via `Mcu::setAuditor`,
 * and the memory map reports every routed write through
 * `rawWriteHook` + `MemoryMap::setWriteHook`.
 */
class NvAuditor
{
  public:
    static constexpr unsigned numRegs = 16;

    NvAuditor(NvAuditConfig config, Ram &nv_region);

    /// @name Interpreter hooks (register-taint machine)
    /// @{
    /** `rd` was loaded from `ea`. Taints or clears. */
    void onLoad(unsigned rd, Addr ea, unsigned width);
    /** `rd` receives a value derived from `rs` (guide propagates). */
    void onRegDerive(unsigned rd, unsigned rs);
    /** `rd` receives a value derived from `rs` or `rt` (first
     *  tainted operand wins). */
    void onRegCombine(unsigned rd, unsigned rs, unsigned rt);
    /** `rd` was overwritten from scratch (guide cleared). */
    void onRegWrite(unsigned rd);
    /** A store through base register `base` targeting `ea`. */
    void onStore(unsigned base, Addr ea, Addr pc, unsigned width);
    /// @}

    /// @name Lifecycle hooks
    /// @{
    void onBoot(sim::Tick now);
    void onPowerLoss(sim::Tick now);
    /**
     * A checkpoint committed into `slot` with payload CRC
     * `frame_crc` (runtime::ckfmt::frameCrc). Slot/CRC are optional:
     * callers that don't track the frame format pass the defaults
     * and the seal audit simply stays inert for that slot.
     */
    void onCheckpointCommit(sim::Tick now, int slot = -1,
                            std::uint32_t frame_crc = 0);
    /**
     * A restore replayed the frame in `slot` whose payload now
     * hashes to `frame_crc`. If the slot has no recorded commit CRC,
     * or the CRCs disagree, the restored frame was never sealed by a
     * completed commit -- the restore resurrected a torn frame, and
     * `unsealedRestoreCount()` ticks. This is the crash-anywhere
     * oracle's hybrid-state detector.
     */
    void onCheckpointRestore(sim::Tick now, int slot = -1,
                             std::uint32_t frame_crc = 0);
    /** Program reload: drop all state. */
    void reset();
    /// @}

    /** MemoryMap write-hook trampoline (`ctx` is the NvAuditor). */
    static void rawWriteHook(void *ctx, Addr addr, unsigned width);

    /// @name Findings
    /// @{
    const std::vector<NvFinding> &findings() const { return findings_; }
    /** Total violations observed, including beyond the cap. */
    std::uint64_t violationCount() const { return violations; }
    /** Restores whose frame CRC did not match a recorded commit. */
    std::uint64_t unsealedRestoreCount() const
    {
        return unsealedRestores_;
    }
    /// @}

    /// @name Interval statistics / diagnostics
    /// @{
    /** Reboot interval index (increments at each boot). */
    std::uint64_t intervalIndex() const { return interval; }
    /** NV data reads observed in the current interval. */
    std::uint64_t intervalReads() const { return readsThisInterval; }
    /** NV data writes observed in the current interval. */
    std::uint64_t intervalWrites() const { return writesThisInterval; }
    /** Open (uncommitted) WAR records right now. */
    std::size_t openRecords() const { return records.size(); }
    /// @}

    /// @name Shadow FRAM (committed at checkpoint commits)
    /// @{
    bool shadowValid() const { return shadowValid_; }
    /** Tick of the last shadow commit. */
    sim::Tick shadowTick() const { return shadowTick_; }
    /**
     * Addresses (audited range, checkpoint slots excluded) where the
     * live NV image differs from the last committed shadow. Capped
     * at `limit` entries.
     */
    std::vector<Addr> shadowDiff(std::size_t limit = 16) const;
    /// @}

    const NvAuditConfig &config() const { return cfg; }

    /// @name Snapshot support (see sim/snapshot.hh)
    /// The auditor is passive (no pending events), so restore needs
    /// no rearmer. Soak supervisors snapshot it alongside the target
    /// so a rewind replays the taint machine bit-identically.
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r);
    /// @}

  private:
    /** Snapshot fields, both directions; the pair above wraps it. */
    void state(sim::StateIo &io);

    struct Record
    {
        Addr guideAddr;
        Addr storeAddr;
        Addr storePc;
        std::uint64_t interval;
    };

    /** In the audited NV data range (checkpoint slots excluded)? */
    bool
    audited(Addr addr) const
    {
        if (addr - cfg.nvBase >= cfg.nvSize)
            return false;
        return addr - cfg.checkpointBase >= cfg.checkpointSpan;
    }

    void onNvWrite(Addr addr, unsigned width);

    NvAuditConfig cfg;
    Ram &nv;

    /** Per-register guide addresses; guide is valid when set. */
    std::array<bool, numRegs> tainted{};
    std::array<Addr, numRegs> guide{};

    std::vector<Record> records;
    std::vector<NvFinding> findings_;
    std::uint64_t violations = 0;

    std::uint64_t interval = 0;
    std::uint64_t readsThisInterval = 0;
    std::uint64_t writesThisInterval = 0;

    std::vector<std::uint8_t> shadow;
    bool shadowValid_ = false;
    sim::Tick shadowTick_ = 0;

    /** Per-slot payload CRC recorded at commit (torn commits never
     *  record one). */
    std::array<bool, 2> commitCrcValid_{};
    std::array<std::uint32_t, 2> commitCrc_{};
    std::uint64_t unsealedRestores_ = 0;
};

} // namespace edb::mem

#endif // EDB_MEM_NV_AUDIT_HH
