/**
 * @file
 * RF channel between an RFID reader and a tag front end.
 *
 * Frames take real on-air time and may be corrupted in flight. The
 * channel exposes *wire taps*: listeners that see the demodulated
 * bitstream regardless of whether the tag was powered to receive it.
 * This is the electrical point where EDB attaches its external RFID
 * decoder (paper Section 4.1.2: "messages can be decoded even if the
 * target does not correctly decode them due to power failures").
 */

#ifndef EDB_RFID_CHANNEL_HH
#define EDB_RFID_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rfid/protocol.hh"
#include "sim/simulator.hh"

namespace edb::rfid {

class RfFrontend;
class RfidReader;

/** Channel configuration. */
struct ChannelConfig
{
    /** Probability a frame is corrupted in flight. */
    double corruptionProbability = 0.03;
};

/** Bidirectional message-level RF channel. */
class RfChannel : public sim::Component
{
  public:
    /** Wire tap: (direction, frame, completion time). */
    using Tap =
        std::function<void(Direction, const Frame &, sim::Tick)>;

    /** Reader-to-tag (forward link) bitrate. */
    static constexpr double downlinkBps = 40e3;
    /** Tag-to-reader (backscatter) bitrate. */
    static constexpr double uplinkBps = 160e3;

    RfChannel(sim::Simulator &simulator, std::string component_name,
              ChannelConfig config = {});

    /** Attach the tag-side front end (non-owning). */
    void attachTag(RfFrontend *tag_frontend) { tag = tag_frontend; }

    /** Attach the reader (non-owning). */
    void attachReader(RfidReader *rfid_reader) { reader = rfid_reader; }

    /** Attach a wire tap (EDB's RFID monitor). */
    void addTap(Tap tap);

    /**
     * Transmit a frame. Delivery is scheduled after the on-air time;
     * wire taps always fire, endpoint delivery depends on the
     * receiver's state at completion.
     * @param when Transmit start time (supports MCU local time).
     */
    void send(Direction direction, Frame frame, sim::Tick when);

    /** On-air duration of a frame in the given direction. */
    sim::Tick airTime(Direction direction, const Frame &frame) const;

    const ChannelConfig &config() const { return cfg; }

    /// @name Statistics
    /// @{
    std::uint64_t framesCorrupted() const { return corrupted; }
    /// @}

  private:
    void deliver(Direction direction, Frame frame, sim::Tick when);

    ChannelConfig cfg;
    RfFrontend *tag = nullptr;
    RfidReader *reader = nullptr;
    std::vector<Tap> taps;
    std::uint64_t corrupted = 0;
};

/**
 * Reader-side arbitration parameters (DESIGN.md §12). The rest of the
 * shared RF environment of a fleet — reader power, tag placement,
 * carrier duty cycle, collision backoff — is fixed in fleet::Fleet and
 * fleet::World.
 */
struct RfEnvConfig
{
    /** Initial Q: an inventory round offers 2^Q reply slots. */
    unsigned initialQ = 4;
};

/** Outcome of one tag's reply attempt in an arbitration round. */
enum class SlotOutcome : std::uint8_t
{
    Won,      ///< Sole occupant of its slot; reply decoded.
    Collided, ///< Shared a slot; all occupants lost.
};

/**
 * Slotted collision/arbitration model (EPC Gen2 flavoured): each
 * attempting tag hashes into one of 2^Q slots; a slot with exactly
 * one occupant is a decoded reply, a slot with more is a collision
 * that destroys every occupant's reply. Q adapts per round the way
 * the reader's Q-algorithm does — more collisions than singles grows
 * the frame, a mostly-idle frame shrinks it.
 *
 * Determinism contract (the fleet's epoch barrier depends on it):
 * `resolve` is a pure function of (constructor seed, round index,
 * attempt list) — slot choice is a splitmix64 hash, not an RNG draw,
 * so outcomes are independent of call interleaving and bit-identical
 * across shard counts. Callers must present attempts in a canonical
 * order (the fleet uses world-index order).
 */
class SlottedArbiter
{
  public:
    /** Bounds of the adaptive Q. */
    static constexpr unsigned minQ = 1;
    static constexpr unsigned maxQ = 12;

    explicit SlottedArbiter(RfEnvConfig config = {},
                            std::uint64_t seed = 1);

    /**
     * Resolve one arbitration round.
     * @param round Monotone round (epoch) index.
     * @param tags Attempting tag ids, canonical order.
     * @return Per-attempt outcomes, same order as `tags`.
     */
    std::vector<SlotOutcome> resolve(std::uint64_t round,
                                     const std::vector<std::uint32_t> &tags);

    /** Current frame-size exponent (slots = 2^q). */
    unsigned q() const { return q_; }

    /// @name Statistics
    /// @{
    std::uint64_t roundsResolved() const { return rounds; }
    std::uint64_t singlesTotal() const { return singles; }
    std::uint64_t collisionsTotal() const { return collisions; }
    /// @}

  private:
    std::uint64_t seed_;
    unsigned q_;
    std::uint64_t rounds = 0;
    std::uint64_t singles = 0;
    std::uint64_t collisions = 0;
};

} // namespace edb::rfid

#endif // EDB_RFID_CHANNEL_HH
