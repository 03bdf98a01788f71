/**
 * @file
 * Deterministic fault injection.
 *
 * A `FaultInjector` perturbs a running simulation according to a
 * `FaultPlan`: corrupting, dropping or duplicating debug-UART bytes,
 * glitching EDB's ADC samples, blanking the harvester during RF fade
 * windows, forcing target brown-outs at chosen ticks and tearing NV
 * commit bursts. Each plan carries its own seed and the injector
 * owns a private `Rng`, so fault sequences are reproducible and,
 * crucially, an injector that is disabled (or absent) perturbs
 * nothing — not even the simulator's shared random stream.
 *
 * The injector is deliberately generic: it knows nothing about
 * energy, UARTs or MCUs. Subsystems opt in by routing values through
 * its hooks (`EdbBoard::injectFaults`, `energy::FadedHarvester`,
 * `target::Wisp::attachFaults`).
 */

#ifndef EDB_SIM_FAULT_HH
#define EDB_SIM_FAULT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace edb::sim {

/** A window during which the ambient energy source is gone. */
struct FadeWindow
{
    Tick start = 0;
    Tick length = 0;
};

/** One forced brown-out: the storage capacitor is forced to `volts`
 *  at tick `at` (below the brown-out comparator = instant power
 *  loss). */
struct BrownOut
{
    Tick at = 0;
    double volts = 1.0;
};

/** Everything a fault scenario is allowed to do, plus its seed. */
struct FaultPlan
{
    /** Seeds the injector's private random stream. */
    std::uint64_t seed = 1;
    /** Master switch; a disabled plan injects nothing. */
    bool enabled = true;

    /// @name Debug-UART wire faults (per byte, either direction)
    /// @{
    double uartCorruptProb = 0.0; ///< Flip a random bit.
    double uartDropProb = 0.0;    ///< Byte never arrives.
    double uartDupProb = 0.0;     ///< Byte delivered twice.
    /// @}

    /// @name EDB ADC faults (per sample)
    /// @{
    double adcGlitchProb = 0.0;
    double adcGlitchMagnitudeVolts = 0.5; ///< Max |offset| injected.
    /// @}

    /** Harvester dropout windows (RF fades). */
    std::vector<FadeWindow> fades;

    /** Forced target brown-outs, armed by `armBrownOuts`. */
    std::vector<BrownOut> brownOuts;

    /// @name Torn NV writes (multi-word commit bursts)
    /// @{
    /**
     * Force a brown-out at the Nth NV commit-burst word (1-based,
     * counted cumulatively across commits via `onNvCommitWord`;
     * 0 = off). The power fails while that word's write is in flight,
     * so the burst tears: the prefix is committed, the suffix keeps
     * its old contents, and the in-flight word is either unwritten or
     * — with `nvTornCorruptProb` — lands with corrupted bits.
     */
    std::uint64_t nvTearAtCommitWord = 0;
    /** Probability the in-flight word of a torn burst is written
     *  with random bits flipped (a partial cell write). */
    double nvTornCorruptProb = 0.0;
    /// @}
};

/**
 * Client-side wire faults for the debug server (DESIGN.md §13): how
 * an adversarial or unlucky frontend mangles the frames it puts on
 * its connection. Applied per *frame* (the unit a JSON-RPC client
 * emits), unlike the per-byte UART model above, so one plan can
 * express whole-frame pathologies — truncation, replay, duplication,
 * byte-soup preambles, slowloris trickling and mid-command
 * disconnects — that a byte-wise model cannot.
 */
struct ClientFaultPlan
{
    /** Seeds the private random stream. */
    std::uint64_t seed = 1;
    /** Master switch; a disabled plan perturbs nothing. */
    bool enabled = true;

    double corruptProb = 0.0;  ///< Flip one random bit in the frame.
    double dropProb = 0.0;     ///< Whole frame never sent.
    double truncateProb = 0.0; ///< Frame cut short mid-payload.
    double dupProb = 0.0;      ///< Frame sent twice back to back.
    double replayProb = 0.0;   ///< A previously sent frame re-sent.
    double garbageProb = 0.0;  ///< 1..16 random bytes injected first.

    /** Deliver at most this many bytes per server poll (0 = no
     *  limit): the slowloris client, whose frames never finish
     *  inside the parser's inter-byte window. */
    unsigned slowlorisBytesPerPoll = 0;
    /** Hard-disconnect after this many frames (0 = never) — the
     *  mid-command vanishing client. */
    std::uint32_t disconnectAfterFrames = 0;
};

/** Applies a ClientFaultPlan to a client's outbound frames. */
class ClientWireFaults
{
  public:
    struct Stats
    {
        std::uint64_t frames = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t dropped = 0;
        std::uint64_t truncated = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t replayed = 0;
        std::uint64_t garbageBytes = 0;
        std::uint64_t disconnects = 0;
    };

    explicit ClientWireFaults(ClientFaultPlan plan)
        : plan_(plan), rng(plan.seed)
    {}

    /**
     * Mangle one outbound frame into the byte sequence actually put
     * on the wire (possibly empty). Deterministic per plan seed.
     */
    std::vector<std::uint8_t>
    onFrame(const std::vector<std::uint8_t> &frame);

    /** Slowloris byte budget per server poll (0 = unlimited). */
    unsigned
    byteBudgetPerPoll() const
    {
        return plan_.enabled ? plan_.slowlorisBytesPerPoll : 0;
    }

    /** True once `disconnectAfterFrames` frames have gone out (the
     *  trigger frame itself is still delivered). */
    bool
    wantsDisconnect() const
    {
        return plan_.enabled && plan_.disconnectAfterFrames != 0 &&
               stats_.frames >= plan_.disconnectAfterFrames;
    }

    const ClientFaultPlan &plan() const { return plan_; }
    const Stats &stats() const { return stats_; }

  private:
    ClientFaultPlan plan_;
    Rng rng;
    std::vector<std::uint8_t> lastFrame;
    Stats stats_;
};

/** Executes a FaultPlan against a simulation. */
class FaultInjector : public Component
{
  public:
    /** What became of one wire byte. */
    struct WireResult
    {
        std::uint8_t bytes[2] = {0, 0};
        int count = 1; ///< 0 dropped, 1 delivered, 2 duplicated.
    };

    struct Stats
    {
        std::uint64_t wireBytes = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t dropped = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t adcGlitches = 0;
        std::uint64_t brownOutsForced = 0;
        std::uint64_t nvCommitWords = 0;
        std::uint64_t nvTears = 0;
        /** Torn words written with a value other than the intended
         *  one. */
        std::uint64_t nvTornWordsCorrupted = 0;
    };

    FaultInjector(Simulator &simulator, std::string component_name,
                  FaultPlan fault_plan = {});

    bool enabled() const { return plan_.enabled; }
    const FaultPlan &plan() const { return plan_; }

    /**
     * Pass one debug-UART byte through the wire-fault model.
     * Returns the byte(s) to actually deliver (possibly corrupted,
     * dropped or duplicated).
     */
    WireResult onWire(std::uint8_t byte);

    /** Pass one EDB ADC sample (volts) through the glitch model. */
    double onAdc(double volts);

    /** True while `when` falls inside a fade window. */
    bool inFade(Tick when) const;
    /** Fade check in the seconds domain (harvester models). */
    bool inFadeSeconds(double seconds) const;

    /** Capacitor volts an NV tear forces: far below the brown-out
     *  comparator, so the in-flight commit word loses its supply. */
    static constexpr double nvTearVolts = 0.5;

    /** Receives every forced brown-out with the volts to force the
     *  storage capacitor to (`target::Wisp::attachFaults` installs
     *  one that sets the device's capacitor). */
    void
    setBrownOutHandler(std::function<void(double volts)> handler)
    {
        brownOutFn = std::move(handler);
    }

    /**
     * Schedule every `plan.brownOuts` entry with `at > after`, in plan
     * order, first cancelling whatever an earlier call armed that has
     * not fired yet. A fresh world arms with 0; a world restored from
     * a snapshot taken at tick T arms with T, since the entries at or
     * before T are already reflected in the restored state.
     */
    void armBrownOuts(Tick after);

    /**
     * Count one NV commit-burst word; forces a brown-out to
     * `nvTearVolts` when the cumulative count reaches
     * `plan.nvTearAtCommitWord`, producing a torn write. Called by
     * the MCU's interruptible checkpoint commit before each word's
     * energy is drained, so the forced voltage drop lands exactly on
     * that word's drain step — deterministic under the plan.
     */
    void onNvCommitWord();

    /**
     * Disposition of the in-flight word of a torn burst: with
     * `plan.nvTornCorruptProb`, flips 1..4 random bits in `word` and
     * returns true (the caller writes the word); otherwise returns
     * false (the word is simply never written). Flips of the same bit
     * can cancel, so a written word may still carry its intended
     * value; `Stats::nvTornWordsCorrupted` counts only changed ones.
     */
    bool onTornWord(std::uint32_t &word);

    const Stats &stats() const { return stats_; }

  private:
    void fireBrownOut(double volts);

    FaultPlan plan_;
    /** Private stream: never the simulator's shared RNG, so an
     *  enabled-but-idle injector cannot perturb other models. */
    Rng rng;
    std::function<void(double)> brownOutFn;
    std::uint64_t nvCommitWordCount = 0;
    /** Events of the last `armBrownOuts`; a re-arm cancels them
     *  (cancelling one that already fired is a no-op). */
    std::vector<EventId> armed_;
    Stats stats_;
};

} // namespace edb::sim

#endif // EDB_SIM_FAULT_HH
