/**
 * @file
 * Versioned, CRC-protected snapshots of complete simulator state.
 *
 * A snapshot captures everything a resumed run needs to be
 * bit-identical to the run it was taken from: the event clock, the
 * shared RNG engine (mid-block included), every component's
 * architectural and statistical state, and the *residue* of the event
 * queue — the set of pending events with their due times and original
 * scheduling order. Each stateful component lists its fields once, in
 * a `state(StateIo &)` that both saves and restores. Closures cannot
 * be serialized, so for each of its pending events a component
 * records the event id and the due time the queue holds, and
 * re-creates the callback on restore; the `EventRearmer` replays them
 * into the fresh queue sorted by saved id, which preserves the
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
#include <type_traits>
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

    /**
     * Section marker. Readers verify the tag before parsing the
     * fields that follow, so a save/restore schema mismatch fails at
     * the section boundary instead of silently misparsing.
     */
    void section(const char *tag);

    /** Full RNG engine state (twist state, output buffer, index). */
    void rng(const Rng &r);

    /** Seal: header (magic, version, length, CRC) + payload. */
    std::vector<std::uint8_t> finish() const;

    static constexpr char magic[9] = "EDBSNAP1";
    static constexpr std::uint32_t version = 1;

  private:
    std::vector<std::uint8_t> buf;
};

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

    /** Verify a section marker; mismatch sets the failure flag. */
    bool section(const char *tag);

    /** Restore the full RNG engine state. */
    void rng(Rng &r);

    bool ok() const { return !fail_; }
    bool atEnd() const { return pos >= payload.size(); }
    /** Payload bytes not yet read. */
    std::size_t remaining() const { return payload.size() - pos; }

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
 * (see the file comment). Each event's new id lands in the
 * component's own id member, so its cancellation handle stays valid.
 */
class EventRearmer
{
  public:
    explicit EventRearmer(Simulator &simulator) : sim_(simulator) {}

    Simulator &simulator() { return sim_; }

    /** On flush(), schedule `cb` at `when` and store its id in `slot`. */
    void
    add(EventId savedId, Tick when, EventQueue::Callback cb,
        EventId &slot)
    {
        pending.push_back(Pending{savedId, when, std::move(cb), &slot});
    }

    /** Schedule everything registered so far, in saved-id order. */
    void flush();

  private:
    struct Pending
    {
        EventId savedId;
        Tick when;
        EventQueue::Callback cb;
        EventId *slot;
    };

    Simulator &sim_;
    std::vector<Pending> pending;
};

/**
 * One component's snapshot fields, in either direction. Each stateful
 * component lists its fields once, in image order, in a single
 * `state(StateIo &)`: saving copies them into a `SnapshotWriter`,
 * restoring assigns them from a `SnapshotReader`. Steps only a
 * restore takes (consistency checks, cache drops, setter calls) sit
 * under `restoring()`. Saving never assigns a field, so a const
 * `saveState` may run its own `state`.
 */
class StateIo
{
  public:
    /** Save into `w`; `sim` holds the events that `event` saves and
     *  may be omitted by components that keep none. */
    explicit StateIo(SnapshotWriter &w, const Simulator *sim = nullptr)
        : w_(&w), sim_(sim)
    {
    }

    /** Restore from `r`; `rearmer` takes the events that `event`
     *  restores and may be omitted by components that keep none. */
    explicit StateIo(SnapshotReader &r, EventRearmer *rearmer = nullptr)
        : r_(&r), rearmer_(rearmer)
    {
    }

    bool restoring() const { return r_ != nullptr; }

    /** Section marker; false when a restore finds another tag. */
    bool section(const char *tag);

    /// @name Fields, stored as the named little-endian wire type
    /// Any integral or enum field no wider than the wire type. A
    /// signed field travels as its unsigned counterpart, so an
    /// `int16_t` stored as u32 reads back exactly.
    /// @{
    template <typename T>
    void u8(T &v) { field(v, &SnapshotWriter::u8, &SnapshotReader::u8); }
    template <typename T>
    void u32(T &v) { field(v, &SnapshotWriter::u32, &SnapshotReader::u32); }
    template <typename T>
    void u64(T &v) { field(v, &SnapshotWriter::u64, &SnapshotReader::u64); }
    void boolean(bool &v);
    void f64(double &v);
    /// @}

    /** Raw byte range of a length both sides know. */
    void bytes(void *data, std::size_t len);

    /** Full RNG engine state. */
    void rng(Rng &r);

    /**
     * A sequence's element count, stored as the wire type `W`. Saving
     * stores `n` and returns it, so `seq.resize(io.count<W>(seq.size(),
     * k))` leaves `seq` alone. Restoring returns the stored count, or
     * fails and returns 0 when fewer than count * `minBytes` payload
     * bytes remain: a corrupt count never drives a huge allocation.
     */
    template <typename W>
    std::size_t
    count(std::size_t n, std::size_t minBytes = 1)
    {
        W stored = static_cast<W>(n);
        if constexpr (sizeof(W) == 4)
            u32(stored);
        else
            u64(stored);
        if (r_ && stored > r_->remaining() / minBytes) {
            r_->invalidate();
            return 0;
        }
        return static_cast<std::size_t>(stored);
    }

    /** Fail the restore unless `ok` (a save always passes); returns
     *  `ok`. */
    bool check(bool ok);

    /**
     * A component's pending event. Saving stores whether `id` is
     * pending and, if so, the id and the due time the queue holds.
     * Restoring cancels `id`'s event, and when one was saved the
     * rearmer schedules `cb` at its due time and stores the new id
     * in `id`.
     */
    void event(EventId &id, EventQueue::Callback cb);

  private:
    template <typename T, typename W>
    void
    field(T &v, void (SnapshotWriter::*put)(W), W (SnapshotReader::*get)())
    {
        static_assert(sizeof(T) <= sizeof(W), "field wider than its wire");
        using U = std::make_unsigned_t<T>;
        if (r_)
            v = static_cast<T>(static_cast<U>((r_->*get)()));
        else
            (w_->*put)(static_cast<W>(static_cast<U>(v)));
    }

    SnapshotWriter *w_ = nullptr;
    SnapshotReader *r_ = nullptr;
    const Simulator *sim_ = nullptr;
    EventRearmer *rearmer_ = nullptr;
};

} // namespace edb::sim

#endif // EDB_SIM_SNAPSHOT_HH
