/**
 * @file
 * RFID reader model (the Impinj Speedway stand-in).
 *
 * Continuously inventories tags: each round opens with CMD_QUERY
 * followed by CMD_QUERYREP slots, matching the paper's setup
 * ("the reader is configured to continuously inventory tags",
 * Section 5.1). Counts queries and tag replies so the benches can
 * report the Fig 12 response rate (paper: 86%, ~13 replies/s).
 */

#ifndef EDB_RFID_READER_HH
#define EDB_RFID_READER_HH

#include <cstdint>
#include <string>

#include "rfid/protocol.hh"
#include "sim/simulator.hh"

namespace edb::rfid {

class RfChannel;

/** Reader configuration. */
struct ReaderConfig
{
    /** Slot period between consecutive commands. */
    sim::Tick slotPeriod = 65 * sim::oneMs;
    /** Slots per inventory round (first slot is CMD_QUERY). */
    unsigned slotsPerRound = 8;
};

/** Inventorying RFID reader. */
class RfidReader : public sim::Component
{
  public:
    RfidReader(sim::Simulator &simulator, std::string component_name,
               RfChannel &channel, ReaderConfig config = {});

    /** Begin the continuous inventory loop. */
    void start();

    /** Stop issuing queries. */
    void stop();

    /** Channel-side delivery of a tag reply. */
    void frameArrived(const Frame &frame, sim::Tick when);

    /// @name Statistics
    /// @{
    std::uint64_t queriesSent() const { return queries; }
    std::uint64_t repliesReceived() const { return replies; }
    /** Replies / queries, the Fig 12 response-rate metric. */
    double responseRate() const;
    /// @}

  private:
    void slot();

    RfChannel &channel;
    ReaderConfig cfg;
    bool active = false;
    unsigned slotIndex = 0;
    sim::EventId slotEvent = sim::invalidEventId;
    std::uint64_t queries = 0;
    std::uint64_t replies = 0;
};

} // namespace edb::rfid

#endif // EDB_RFID_READER_HH
