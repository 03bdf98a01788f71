/**
 * @file
 * Virtual breakpoints: zero-energy conditional breakpoints evaluated
 * inside the simulator (DESIGN.md §13).
 *
 * The paper's target-side breakpoints (internal, external, combined)
 * each cost the target something — code bytes, a GPIO poll, or a
 * wake from the debugger. A *virtual* breakpoint costs the target
 * nothing at all: the host evaluates the location and an optional
 * trigger condition over registers, non-volatile words and the
 * capacitor voltage from outside the device, during the MCU tracer
 * callback. The target never executes an extra instruction and never
 * drains an extra nanojoule, so the architectural digest of a traced
 * run is bit-identical to an untraced one (the tracer only makes the
 * fast engine resync with the event queue after every instruction,
 * which the engine's bit-identity contract makes unobservable).
 *
 * A world's breakpoints live in one `WorldProbe`, installed as the
 * world's tracer when its first breakpoint is set and released when
 * the last one is gone. Fleet rebalancing only re-homes a world to
 * another pool shard and never rebuilds it, so an installed probe
 * stays valid across any number of shard moves.
 *
 * Conditions are parsed once into a small expression tree; evaluation
 * is strictly read-only — registers via `Mcu::reg`, NV/SRAM words via
 * the raw region arrays (never the memory map, which would trip MMIO
 * side effects), and the capacitor via `voltageNoAdvance()` (never
 * `voltage()`, which advances the analog integrator).
 *
 * Grammar (no precedence surprises, `&&` binds tighter than `||`):
 *
 *     expr    := and ('||' and)*
 *     and     := cmp ('&&' cmp)*
 *     cmp     := '(' expr ')' | operand relop operand
 *     relop   := '==' | '!=' | '<=' | '>=' | '<' | '>'
 *     operand := rN | pc | vcap | instrs | cycles
 *              | nv[ADDR] | sram[ADDR] | NUMBER
 *
 * `nv[a]` reads the 32-bit little-endian FRAM word at absolute
 * address `a`; `sram[a]` likewise for SRAM. `a` must be an unsigned
 * 32-bit integer; addresses outside the region evaluate to 0 (a
 * condition can never fault the host). Numbers may be decimal,
 * 0x-hex, or floating point (for `vcap` thresholds).
 *
 * Condition text arrives off the wire, so hostile input is bounded
 * at parse time: text over 4096 bytes and parenthesis nesting past
 * 32 levels are rejected (the parser recurses per '(').
 */

#ifndef EDB_EDB_VBREAK_HH
#define EDB_EDB_VBREAK_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory.hh"
#include "sim/time.hh"

namespace edb::target {
class Wisp;
}

namespace edb::isa {
struct Instr;
}

namespace edb::edbdbg {

/** A parsed, side-effect-free trigger condition. */
class VBreakCondition
{
  public:
    /** An empty condition is always true (unconditional break). */
    VBreakCondition() = default;

    /**
     * Parse `text` into a condition. On failure returns nullopt and,
     * when `error` is non-null, stores a human-readable reason.
     */
    static std::optional<VBreakCondition>
    parse(const std::string &text, std::string *error = nullptr);

    /**
     * Evaluate against a target. Strictly read-only: no memory-map
     * access, no analog advance, no RNG draw — the run with the
     * condition evaluated is bit-identical to the run without.
     */
    bool eval(const target::Wisp &wisp) const;

    /** Original source text ("" for the unconditional default). */
    const std::string &text() const { return text_; }

    /** True for the always-true default. */
    bool unconditional() const { return root == nullptr; }

    struct Node; // expression tree (internal)

  private:
    std::shared_ptr<const Node> root;
    std::string text_;
};

/** One virtual breakpoint owned by a session. */
struct VirtualBreakpoint
{
    std::uint32_t id = 0;        ///< Server-assigned, unique per world.
    std::uint32_t sessionId = 0; ///< Owning session.
    mem::Addr addr = 0;          ///< Instruction address to match.
    VBreakCondition cond;        ///< Trigger condition (may be empty).
    bool enabled = true;
    std::uint64_t hits = 0;      ///< Times the condition fired.
    std::uint64_t evals = 0;     ///< Times the address matched.
};

/** One recorded trigger, queued for delivery to the owning client. */
struct VBreakHit
{
    std::uint32_t bkptId = 0;
    std::uint32_t sessionId = 0;
    mem::Addr pc = 0;
    sim::Tick when = 0;
    std::uint64_t instrs = 0;
    double vcap = 0.0;
    std::uint32_t r0 = 0; ///< First argument register, for context.
};

/**
 * The per-world breakpoint set plus its bounded hit buffer, installed
 * as the world's MCU tracer (see the file header for when). Mutation
 * of the breakpoint map happens only in the fleet's sequential
 * barrier phases; during the parallel advance phase the tracer (run
 * by the single worker that owns the world) only reads the map and
 * appends to this probe's own buffer, so no locking is needed
 * anywhere.
 *
 * The hit buffer is bounded (`maxPendingHits`): a breakpoint in a
 * hot loop cannot take the server's memory down; overflow is counted
 * in `droppedHits` and surfaced to the owning session as a degraded
 * delivery.
 */
class WorldProbe
{
  public:
    explicit WorldProbe(std::size_t max_pending_hits = 256)
        : maxPendingHits(max_pending_hits)
    {}
    /** The installed tracer captures `this`: a probe never moves. */
    WorldProbe(const WorldProbe &) = delete;
    WorldProbe &operator=(const WorldProbe &) = delete;
    ~WorldProbe() { uninstall(); }

    /**
     * Install this probe's tracer on `wisp` (moving it off any other
     * device); installing on the same device twice is harmless (the
     * second call is a no-op). A tracer
     * the world already owns — e.g. the WAR-gadget watch on
     * auditor-completeness worlds — is chained under this probe's
     * hook, not clobbered, and keeps firing for every instruction.
     */
    void install(target::Wisp &wisp);

    /**
     * Remove the tracer (last breakpoint on the world gone),
     * restoring whatever tracer the world owned before install().
     * A no-op when the probe is not installed.
     */
    void uninstall();

    /** Add or replace a breakpoint. */
    void put(const VirtualBreakpoint &bp);
    /** Remove breakpoint `id`; returns false when unknown. */
    bool erase(std::uint32_t id);
    /** Remove every breakpoint owned by `session_id`. */
    std::size_t eraseSession(std::uint32_t session_id);
    /** Look up by id (nullptr when unknown). */
    const VirtualBreakpoint *find(std::uint32_t id) const;

    /** Drain the pending hit buffer (barrier phase only). */
    std::vector<VBreakHit> drainHits();

    bool empty() const { return byId.empty(); }
    std::size_t count() const { return byId.size(); }
    std::uint64_t droppedHits() const { return dropped; }
    std::uint64_t evals() const { return evals_; }

    /** All breakpoints, id-ordered (status reporting). */
    const std::map<std::uint32_t, VirtualBreakpoint> &
    breakpoints() const
    {
        return byId;
    }

  private:
    void onInstruction(const target::Wisp &wisp, mem::Addr pc);

    std::size_t maxPendingHits;
    /** The device the hook is installed on (nullptr = none). */
    target::Wisp *device = nullptr;
    /** The tracer the device owned before install() chained under
     *  it; invoked from our hook and restored by uninstall(). */
    std::function<void(mem::Addr, const isa::Instr &)> chained;
    std::map<std::uint32_t, VirtualBreakpoint> byId;
    /** addr -> breakpoint ids (the tracer's fast path). */
    std::multimap<mem::Addr, std::uint32_t> byAddr;
    std::vector<VBreakHit> hits;
    std::uint64_t dropped = 0;
    std::uint64_t evals_ = 0;
};

} // namespace edb::edbdbg

#endif // EDB_EDB_VBREAK_HH
