/**
 * @file
 * The EH32 MCU core: interpreter, power behaviour, checkpoint unit.
 *
 * This is the execution substrate for the intermittent model of the
 * paper (Section 2): the core draws supply current per cycle while
 * running; when the power system browns out, the core stops wherever
 * it happens to be (losing the in-flight instruction), volatile state
 * is destroyed, and the next turn-on reboots from the entry point —
 * or from a hardware checkpoint when the Mementos/QuickRecall-style
 * checkpoint unit is enabled.
 */

#ifndef EDB_MCU_MCU_HH
#define EDB_MCU_MCU_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "energy/power_system.hh"
#include "isa/isa.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::mem {
class NvAuditor;
class NvRegion;
} // namespace edb::mem

namespace edb::sim {
class StateIo;
class FaultInjector;
} // namespace edb::sim

namespace edb::mcu {

/**
 * Checkpoint commit discipline of the hardware checkpoint unit
 * (DESIGN.md §11). All three double-buffer between the two slots;
 * they differ in *when* a slot becomes eligible for restore relative
 * to its payload writes — which is exactly what decides whether a
 * torn commit can surface as a hybrid state after reboot.
 */
enum class CommitDiscipline : std::uint8_t
{
    /** Payload first, sequence number last (the seed behaviour).
     *  A torn commit leaves the victim slot with its old sequence
     *  number, so restores fall through to the other slot — but
     *  nothing *verifies* the restored frame. */
    SeqLast,
    /** Claim the slot first (magic + sequence number), then write
     *  the payload. A torn commit leaves the newest sequence number
     *  on a half-written frame: the restore scan picks it and resumes
     *  a hybrid state. Exists to give the fault model teeth. */
    Naive,
    /** Payload, then a CRC seal binding payload to sequence number,
     *  then the sequence number. The boot-time recovery scan restores
     *  the newest frame whose seal verifies and falls back to the
     *  previous sealed frame when the newest is torn. */
    Sealed,
};

/** Static configuration of the MCU core. */
struct McuConfig
{
    /** Additional wait-state cycles for FRAM writes. */
    unsigned framWriteExtraCycles = 2;
    // The execution engine (fast or reference) is not configured
    // here: the core runs whatever energy::PowerSystemConfig::engine
    // selects for its power system.

    /** Hardware checkpoint unit enable (restore-on-boot). */
    bool checkpointingEnabled = false;
    /** Commit protocol of the checkpoint unit (DESIGN.md §11). */
    CommitDiscipline commitDiscipline = CommitDiscipline::SeqLast;
    /**
     * Interruptible commit: drain each commit word's write energy
     * individually, so a brown-out (natural or injected) can land
     * *inside* the FRAM write burst and tear it — prefix committed,
     * suffix old. Off by default: the seed model drains the whole
     * checkpoint cost atomically before the burst, which makes
     * mid-commit tears unrepresentable.
     */
    bool interruptibleCommit = false;
};

/** Lifecycle state of the core. */
enum class McuState : std::uint8_t
{
    Off,     ///< Below brown-out; no execution.
    Booting, ///< Powered, waiting out the reset delay.
    Running, ///< Executing instructions.
    Halted,  ///< HALT executed; low-power until reboot.
    Faulted, ///< Undefined behaviour hit; dead until reboot.
};

/** Cause of a fault. */
enum class McuFault : std::uint8_t
{
    None,
    IllegalInstr, ///< Undecodable opcode reached.
    BusError,     ///< Access to an unmapped address (wild pointer).
    Misaligned,   ///< Unaligned word access.
};

/** Human-readable state / fault names. */
const char *mcuStateName(McuState state);
const char *mcuFaultName(McuFault fault);

/**
 * EH32 interpreter bound to a memory map and a power system.
 */
class Mcu : public sim::Component
{
  public:
    /** Reset hook: invoked on every reboot (peripheral reset). */
    using ResetHook = std::function<void()>;
    /** Instruction tracer: (pc, decoded instruction). */
    using Tracer = std::function<void(mem::Addr, const isa::Instr &)>;

    /// @name Core timing, supply currents and checkpoint layout
    /// (WISP 5)
    /// @{
    /** Core clock (WISP 5 runs its MSP430 around 4 MHz). */
    static constexpr double clockHz = 4e6;
    /** Supply current while executing (paper: ~0.5 mA at 4 MHz). */
    static constexpr double activeAmps = 0.5e-3;
    /** Supply current when halted (deep sleep). */
    static constexpr double haltAmps = 50e-6;
    /** Supply current during a timed low-power wait (LPM sleep). */
    static constexpr double sleepAmps = 2e-6;
    /** Extra cycles for any data-memory access. */
    static constexpr unsigned memExtraCycles = 1;
    /** Cycles consumed entering the debug interrupt handler. */
    static constexpr unsigned irqEntryCycles = 6;
    /** Reset / power-management settle time after turn-on. */
    static constexpr sim::Tick bootDelay = 100 * sim::oneUs;
    /** Max instructions-slice length per event. */
    static constexpr sim::Tick sliceQuantum = 100 * sim::oneUs;
    /** FRAM base of the two checkpoint slots. */
    static constexpr mem::Addr checkpointBase = 0xE000;
    /** Bytes per checkpoint slot (two slots used). */
    static constexpr mem::Addr checkpointSlotSize = 0x800;
    /** Initial stack pointer / top bound of checkpointed stack. */
    static constexpr mem::Addr stackTop = 0x4000;
    /// @}

    Mcu(sim::Simulator &simulator, std::string component_name,
        sim::TimeCursor &cursor, mem::MemoryMap &memory,
        energy::PowerSystem &power, McuConfig config = {});

    ~Mcu() override;

    /// @name Program loading
    /// @{
    /** Flash a program image into memory and set vectors. */
    void loadProgram(const isa::Program &program);
    /// @}

    /// @name Core state
    /// @{
    McuState state() const { return state_; }
    McuFault fault() const { return fault_; }
    mem::Addr pc() const { return pc_; }
    std::uint32_t reg(unsigned index) const { return regs.at(index); }
    void setReg(unsigned index, std::uint32_t v) { regs.at(index) = v; }
    const isa::Flags &flags() const { return flags_; }
    /// @}

    /// @name Statistics
    /// @{
    std::uint64_t cycleCount() const { return cycles; }
    std::uint64_t instrCount() const { return instrs; }
    std::uint64_t rebootCount() const { return reboots; }
    std::uint64_t faultCount() const { return faults; }
    std::uint64_t checkpointCount() const { return checkpointsTaken; }
    std::uint64_t restoreCount() const { return checkpointsRestored; }
    /// @}

    /// @name Debug interrupt (EDB's "Interrupt" line, paper Fig 5)
    /// @{
    void raiseDebugIrq() { irqLine = true; }
    void clearDebugIrq() { irqLine = false; }
    bool inDebugIrq() const { return inIrq; }
    /// @}

    /** Peripheral/board reset hook called on each reboot. */
    void setResetHook(ResetHook hook) { resetHook = std::move(hook); }

    /** Optional instruction tracer (tests, debugging). */
    void setTracer(Tracer t) { tracer = std::move(t); }

    /** The currently installed tracer (empty when none). */
    const Tracer &tracerHook() const { return tracer; }

    /**
     * Attach the NV consistency auditor (nullptr detaches). The core
     * drives its register-taint machine and lifecycle hooks;
     * `target::Wisp::attachAuditor` also installs the memory map's
     * write hook so erasing writes are seen regardless of source.
     */
    void setAuditor(mem::NvAuditor *auditor) { audit_ = auditor; }
    mem::NvAuditor *auditor() const { return audit_; }

    /**
     * Attach the NV region hosting the checkpoint slots (nullptr
     * detaches). The commit unit drives its burst latch / commit-slot
     * selector.
     */
    void setNvRegion(mem::NvRegion *region) { nv_ = region; }

    /**
     * Attach the fault injector of the interruptible commit path
     * (nullptr detaches): `FaultInjector::onNvCommitWord` runs before
     * each commit word's energy drain, and `onTornWord` decides the
     * disposition of the in-flight word when the burst tears.
     * `target::Wisp::attachFaults` wires it.
     */
    void setFaultInjector(sim::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Commits that ended torn (power lost mid-burst). */
    std::uint64_t tornCommitCount() const { return tornCommits_; }

    /** Snapshot fields, both directions (see sim/snapshot.hh). */
    void state(sim::StateIo &io);

    /** Live checkpoint-unit enable (set via MMIO chkptCtl). */
    bool checkpointingEnabled() const { return chkptEnabled; }

    /** True while in a timed low-power wait (see mmio::sleep). */
    bool sleeping() const { return sleepCycles > 0; }

    /** Zero out both checkpoint slots (done at program load). */
    void invalidateCheckpoints();

    /** Install the cycle counter and checkpoint-control registers. */
    void installMmio(mem::MmioRegion &mmio);

    /// @name Instrument access (not the debugger protocol path)
    /// @{
    std::uint32_t debugRead32(mem::Addr addr) const;
    void debugWrite32(mem::Addr addr, std::uint32_t value);
    /// @}

    const McuConfig &config() const { return cfg; }

    /// @name Static-analysis cost quotes (analysis/cost_model.hh)
    /// The energy analyzer's per-instruction cost table is extracted
    /// through these instead of re-deriving the cost rules, so the
    /// table can never drift from what the interpreter charges: both
    /// paths share classifyCost / the checkpoint cost formula.
    /// @{
    struct CostQuote
    {
        /** Cycles charged when no dynamic surcharge applies (already
         *  includes memExtraCycles for memory-touching opcodes). */
        unsigned cycles = 0;
        /** Extra cycles when a store's effective address lands in
         *  FRAM; zero for every non-store opcode. */
        unsigned framExtraCycles = 0;
        /** CHKPT with the checkpoint unit enabled: the cost is a
         *  function of live stack depth — use
         *  checkpointCostCyclesFor, not `cycles`. */
        bool stackDependent = false;
    };
    /** Decode-time cost of `op`, exactly as step() would charge it. */
    CostQuote costQuote(isa::Opcode op) const;
    /**
     * Commit cost of an (atomic) CHKPT for a given stack depth, in
     * cycles: the same formula checkpointCostCycles() applies to the
     * live stack pointer. Under interruptible commit the interpreter
     * charges baseCycles(Chkpt) up front and the same per-word total
     * during the burst, so this is the commit-burst cost either way.
     */
    unsigned checkpointCostCyclesFor(std::uint32_t stack_bytes) const;
    /// @}

  private:
    /** Predecoded-instruction classes: how much of the cycle cost
     *  can be precomputed at decode time. */
    enum class InstrClass : std::uint8_t
    {
        Static, ///< Cost fully known at decode time.
        Store,  ///< STW/STB: +framWriteExtraCycles when EA is FRAM.
        Chkpt,  ///< CHKPT: cost depends on live stack depth.
    };

    /** One slot of the predecoded instruction cache. */
    struct CachedInstr
    {
        isa::Instr instr;
        /** Static cycle cost (includes memExtraCycles). */
        std::uint32_t cycles = 0;
        /** secondsFromTicks(cycles * cycleTicks), precomputed. */
        double dtSeconds = 0.0;
        InstrClass cls = InstrClass::Static;
    };

    void onPowerChange(bool on);
    void boot();
    void runSlice();
    /** Execute one instruction at local time `t`; advances `t`.
     *  @return false when the slice must end (power loss, halt,
     *  fault). */
    bool step(sim::Tick &t);
    /** Lazily size the predecode cache from the memory map and
     *  install the write watch that keeps it coherent. */
    void icacheEnsure();
    /** Drop every predecoded instruction (loadProgram, brown-out,
     *  snapshot restore). */
    void icacheInvalidateAll();
    /** Decode-time costing shared by step()'s fill path and the
     *  static-analysis cost quotes. */
    void classifyCost(isa::Opcode op, unsigned &cyc,
                      InstrClass &cls) const;
    void execute(const isa::Instr &instr, sim::Tick t);
    /** Feed the auditor's taint machine; runs on the pre-execute
     *  register file so effective addresses match the instruction
     *  about to commit. */
    void auditExec(const isa::Instr &instr);
    void raiseFault(McuFault cause);
    void enterIrq();
    void setFlagsFromCompare(std::uint32_t a, std::uint32_t b);

    bool doCheckpoint();
    /** Atomic commit: every word lands (pre-drained cost). */
    bool commitAtomic(mem::Addr base, std::uint32_t sp,
                      std::uint32_t stack_bytes,
                      std::uint32_t next_seq);
    /** Interruptible commit: per-word energy drain; can tear. */
    bool commitInterruptible(mem::Addr base, std::uint32_t sp,
                             std::uint32_t stack_bytes,
                             std::uint32_t next_seq);
    bool tryRestore();
    /** Does the frame in `slot` carry a valid seal? (Sealed scan.) */
    bool slotSealed(int slot, std::uint32_t &seq_out) const;
    /** CRC of the frame at `base` (runtime::ckfmt::frameCrc). */
    std::uint32_t frameCrcAt(mem::Addr base,
                             std::uint32_t stack_bytes,
                             std::uint32_t seq) const;
    unsigned checkpointCostCycles() const;

    /// Memory helpers that fault on error; return false on fault.
    bool memRead32(mem::Addr addr, std::uint32_t &value);
    bool memWrite32(mem::Addr addr, std::uint32_t value);
    bool memRead8(mem::Addr addr, std::uint8_t &value);
    bool memWrite8(mem::Addr addr, std::uint8_t value);

    sim::TimeCursor &cursor;
    mem::MemoryMap &mem_;
    energy::PowerSystem &power;
    McuConfig cfg;
    /** power.config().engine == Engine::Fast, resolved once. */
    bool fast_;
    /** Tick duration of one core clock cycle. */
    static constexpr sim::Tick cycleTicks =
        sim::ticksFromSeconds(1.0 / clockHz);

    energy::PowerSystem::LoadHandle coreLoad;

    std::array<std::uint32_t, isa::numRegs> regs{};
    mem::Addr pc_ = 0;
    isa::Flags flags_;
    McuState state_ = McuState::Off;
    McuFault fault_ = McuFault::None;
    mem::Addr entry = 0x4000;
    mem::Addr irqHandler = 0;

    bool irqLine = false;
    bool inIrq = false;
    bool chkptEnabled = false;
    /** Remaining cycles of a timed low-power wait (0 = awake). */
    std::uint64_t sleepCycles = 0;

    sim::EventId sliceEvent = sim::invalidEventId;
    sim::EventId bootEvent = sim::invalidEventId;

    mem::NvAuditor *audit_ = nullptr;
    mem::NvRegion *nv_ = nullptr;
    sim::FaultInjector *faults_ = nullptr;
    /** Ticks spent inside the current interruptible commit, folded
     *  back into the slice clock by step() after execute(). */
    sim::Tick commitExtraTicks_ = 0;
    std::uint64_t tornCommits_ = 0;

    /** Predecoded instruction cache, indexed by (pc - icacheBase)/4.
     *  Validity lives in a separate byte vector so wholesale
     *  invalidation is a cheap fill. */
    std::vector<CachedInstr> icache_;
    std::vector<std::uint8_t> icacheValid_;
    mem::Addr icacheBase_ = 0;
    bool icacheReady_ = false;
    /** (base, span) of each FRAM region, snapshotted with the icache
     *  so store costing can skip the memory-map lookup. */
    std::vector<std::pair<mem::Addr, mem::Addr>> framRanges_;

    ResetHook resetHook;
    Tracer tracer;

    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    std::uint64_t reboots = 0;
    std::uint64_t faults = 0;
    std::uint64_t checkpointsTaken = 0;
    std::uint64_t checkpointsRestored = 0;
};

} // namespace edb::mcu

#endif // EDB_MCU_MCU_HH
