/**
 * @file
 * Debugger-side parser for the target<->EDB wire protocol.
 *
 * Consumes the byte stream arriving on the debug UART, deframes it
 * (sync byte + length + CRC-8, see runtime/protocol_defs.hh) and
 * raises typed events (assert, breakpoint, energy-guard begin/end,
 * printf, read replies, write acks). The printf formatter lives here
 * too: the target ships the format string and raw argument words;
 * the host renders the text, keeping the target-side cost to a byte
 * loop.
 *
 * Robustness: a corrupted byte fails the CRC and the parser re-hunts
 * for the next sync byte; a dropped byte leaves a partial frame that
 * the inter-byte timeout expires, so the engine always returns to
 * hunting — it can never desync permanently or emit an event from a
 * damaged frame.
 */

#ifndef EDB_EDB_PROTOCOL_HH
#define EDB_EDB_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace edb::edbdbg {

/** Build one wire frame (sync + len + payload + CRC) around a
 *  payload. Payloads longer than proto::maxPayload are truncated
 *  (callers never send any that long). */
std::vector<std::uint8_t>
buildFrame(const std::vector<std::uint8_t> &payload);

/** Framed byte-stream parser for target->debugger messages. */
class ProtocolEngine
{
  public:
    struct Handlers
    {
        /**
         * First-shot hook for CRC-valid frames: higher protocols
         * (the debug server's JSON-RPC layer) see the raw payload
         * before the target-protocol decoder. Return true to consume
         * the frame; false falls through to the typed handlers.
         */
        std::function<bool(const std::vector<std::uint8_t> &)>
            rawFrame;
        std::function<void(std::uint16_t)> assertFail;
        std::function<void(std::uint16_t)> bkptHit;
        std::function<void()> guardBegin;
        std::function<void()> guardEnd;
        std::function<void(const std::string &)> printfText;
        /** Memory-read reply chunk (session reads). */
        std::function<void(const std::vector<std::uint8_t> &)>
            readReply;
        /** Memory-write acknowledgement. */
        std::function<void()> writeAck;
        /** Target is stuck waiting for ackRestored (its event frame
         *  was lost); the host should restore and release it. */
        std::function<void()> waitRestore;
    };

    /** Link-health counters. */
    struct Stats
    {
        std::uint64_t framesOk = 0;   ///< CRC-valid frames dispatched.
        std::uint64_t crcErrors = 0;  ///< Frames dropped on bad CRC.
        std::uint64_t resyncs = 0;    ///< Partial frames expired.
        std::uint64_t strayBytes = 0; ///< Non-sync bytes while hunting.
        std::uint64_t malformed = 0;  ///< Valid CRC, bogus payload.
    };

    Handlers handlers;

    /** Drop any partial frame (new active-mode episode). */
    void reset();

    /**
     * Feed one byte from the debug UART.
     * @param when Arrival time; a gap longer than the inter-byte
     *        timeout while mid-frame drops the stale partial frame
     *        before this byte is processed.
     */
    void onByte(std::uint8_t byte, sim::Tick when);

    /** Feed a byte without timestamp bookkeeping (tests). */
    void onByte(std::uint8_t byte) { onByte(byte, lastByteAt); }

    /** True while mid-frame. */
    bool midFrame() const { return state != State::Hunt; }

    /** Inter-byte resync timeout (0 disables). */
    void setInterByteTimeout(sim::Tick t) { interByteTimeout = t; }

    const Stats &stats() const { return stats_; }

  private:
    enum class State
    {
        Hunt,    ///< Searching for the sync byte.
        Len,     ///< Expecting the length byte.
        Payload, ///< Accumulating payload bytes.
        Crc,     ///< Expecting the CRC byte.
    };

    void dispatch();

    State state = State::Hunt;
    std::vector<std::uint8_t> payload;
    std::size_t expected = 0;
    std::uint8_t runningCrc = 0;
    sim::Tick lastByteAt = 0;
    /** The EDB board's host parser and each debug-server client
     *  parser keep this default (on the server it is the slowloris
     *  defense, so it must stay shorter than the fleet epoch). */
    sim::Tick interByteTimeout = 2 * sim::oneMs;
    Stats stats_;
};

/**
 * Render a printf format string against argument words. Supports
 * %d, %u, %x, %c and %%; unknown specifiers are copied through.
 */
std::string formatPrintf(const std::string &fmt,
                         const std::vector<std::uint32_t> &args);

} // namespace edb::edbdbg

#endif // EDB_EDB_PROTOCOL_HH
