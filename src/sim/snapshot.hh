/**
 * @file
 * Versioned, CRC-protected snapshots of complete simulator state.
 *
 * A snapshot captures everything a resumed run needs to be
 * bit-identical to the run it was taken from: the event clock, the
 * shared RNG engine (mid-block included), every component's
 * architectural and statistical state, and the *residue* of the event
 * queue — the set of pending events with their due times and original
 * scheduling order. Closures cannot be serialized, so each component
 * records (saved event id, due time) for its own pending events and
 * re-creates the callbacks on restore; the `EventRearmer` replays
 * them into the fresh queue sorted by saved id, which preserves the
 * queue's same-tick tie-break order exactly (rearmed events receive
 * the smallest new ids, in the saved relative order, and anything
 * scheduled after restore receives a larger id — just as anything
 * scheduled after the snapshot point did in the original run).
 *
 * Format (DESIGN.md section 8): an 8-byte magic "EDBSNAP1", a u32
 * format version, a u32 payload length and a u32 CRC-32 of the
 * payload, followed by the payload itself — typed little-endian
 * fields interleaved with length-tagged section markers that make
 * save/restore mismatches fail loudly instead of misparsing.
 */

#ifndef EDB_SIM_SNAPSHOT_HH
#define EDB_SIM_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace edb::sim {

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320) of a byte range. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

/**
 * Serializes typed fields into a snapshot payload and seals it with
 * the versioned, CRC-protected header.
 */
class SnapshotWriter
{
  public:
    /// @name Typed little-endian fields
    /// @{
    void u8(std::uint8_t v) { buf.push_back(v); }
    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void tick(Tick t) { i64(t); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** Doubles travel as their exact bit pattern. */
    void f64(double v);
    /// @}

    /** Raw byte range (fixed length known to both sides). */
    void bytes(const void *data, std::size_t len);

    /** Length-prefixed byte range. */
    void blob(const void *data, std::size_t len);

    /**
     * Section marker. Readers verify the tag before parsing the
     * fields that follow, so a save/restore schema mismatch fails at
     * the section boundary instead of silently misparsing.
     */
    void section(const char *tag);

    /** Full RNG engine state (twist state, output buffer, index). */
    void rng(const Rng &r);

    /**
     * One pending event: its id in the saved run (relative order at
     * equal ticks) and its absolute due time. `savedId` must be
     * `invalidEventId` when the event is not pending; the reader's
     * matching `pendingEvent` then produces nothing to rearm.
     */
    void pendingEvent(EventId savedId, Tick when);

    /** Seal: header (magic, version, length, CRC) + payload. */
    std::vector<std::uint8_t> finish() const;

    static constexpr char magic[9] = "EDBSNAP1";
    static constexpr std::uint32_t version = 1;

  private:
    std::vector<std::uint8_t> buf;
};

class EventRearmer;

/**
 * Parses a sealed snapshot. All accessors are total: a read past the
 * end, a CRC/magic/version mismatch or a section-tag mismatch sets a
 * sticky failure flag and returns zeroes, so restore code can run
 * straight through and check `ok()` once at the end.
 */
class SnapshotReader
{
  public:
    /** Adopt a sealed image; verifies magic, version and CRC. */
    bool load(std::vector<std::uint8_t> image);

    /// @name Typed fields (mirror SnapshotWriter)
    /// @{
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    Tick tick() { return i64(); }
    bool boolean() { return u8() != 0; }
    double f64();
    /// @}

    void bytes(void *out, std::size_t len);
    std::vector<std::uint8_t> blob();

    /** Verify a section marker; mismatch sets the failure flag. */
    bool section(const char *tag);

    /** Restore the full RNG engine state. */
    void rng(Rng &r);

    /**
     * Read a pending-event record and, when the event was pending at
     * save time, hand (savedId, when, cb, assign) to the rearmer.
     * `assign` receives the newly scheduled id and the due time (or
     * `invalidEventId`, 0 when nothing was pending — it is always
     * called, so components can clear stale handles).
     */
    void pendingEvent(EventRearmer &rearmer, EventQueue::Callback cb,
                      std::function<void(EventId, Tick)> assign);

    bool ok() const { return !fail_; }
    bool atEnd() const { return pos >= payload.size(); }

    /** Force the failure flag (restore-side consistency checks). */
    void invalidate() { fail_ = true; }

  private:
    bool need(std::size_t n);

    std::vector<std::uint8_t> payload;
    std::size_t pos = 0;
    bool fail_ = true;
};

/**
 * Replays the saved event-queue residue into a fresh simulator.
 *
 * Components register their pending events during restore in any
 * order; `flush()` sorts them by saved id and schedules them in that
 * order, reproducing the original queue's same-tick tie-break order
 * (see the file comment). Each component's `assign` closure receives
 * the new id so its cancellation handle stays valid.
 */
class EventRearmer
{
  public:
    explicit EventRearmer(Simulator &simulator) : sim_(simulator) {}

    void
    add(EventId savedId, Tick when, EventQueue::Callback cb,
        std::function<void(EventId, Tick)> assign)
    {
        pending.push_back(
            Pending{savedId, when, std::move(cb), std::move(assign)});
    }

    /** Schedule everything registered so far, in saved-id order. */
    void flush();

  private:
    struct Pending
    {
        EventId savedId;
        Tick when;
        EventQueue::Callback cb;
        std::function<void(EventId, Tick)> assign;
    };

    Simulator &sim_;
    std::vector<Pending> pending;
};

} // namespace edb::sim

#endif // EDB_SIM_SNAPSHOT_HH
