/**
 * @file
 * Trace record types and sinks.
 *
 * EDB's passive mode produces concurrent streams of energy samples,
 * program (watchpoint) events, I/O bus bytes and RFID messages. A
 * `TraceBuffer` collects them with timestamps so benches and tests can
 * correlate "changes in system behavior with changes in energy state"
 * exactly as the paper describes (Section 3.1).
 */

#ifndef EDB_TRACE_TRACE_HH
#define EDB_TRACE_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace edb::trace {

/** Kind of a trace record. */
enum class Kind : std::uint8_t
{
    EnergySample,   ///< Vcap / Vreg ADC sample.
    Watchpoint,     ///< Program event (code-marker pulse).
    IoByte,         ///< Byte observed on a wired bus.
    RfidMessage,    ///< Decoded RFID protocol message.
    Printf,         ///< Target printf output.
    AssertFail,     ///< Keep-alive assertion fired.
    Breakpoint,     ///< Breakpoint hit (code / energy / combined).
    EnergyGuard,    ///< Energy guard entered / exited.
    PowerEvent,     ///< Target turn-on / brown-out / tether change.
    Generic,        ///< Free-form annotation.
};

/** Human-readable name of a record kind. */
const char *kindName(Kind kind);

/**
 * One timestamped trace record. Numeric payloads live in `a`/`b`
 * (meaning depends on kind, documented per producer); `text` carries
 * printf output, message names and annotations.
 */
struct Record
{
    sim::Tick when = 0;
    Kind kind = Kind::Generic;
    double a = 0.0;
    double b = 0.0;
    std::uint32_t id = 0;
    std::string text;
};

/** In-memory trace sink with filtering helpers. */
class TraceBuffer
{
  public:
    /** Append a record (dropped while retention is disabled). */
    void
    push(Record record)
    {
        if (enabled)
            records.push_back(std::move(record));
    }

    /** Convenience: append with fields. */
    void
    push(sim::Tick when, Kind kind, double a = 0.0, double b = 0.0,
         std::uint32_t id = 0, std::string text = {})
    {
        push(Record{when, kind, a, b, id, std::move(text)});
    }

    /** All records in arrival order. */
    const std::vector<Record> &all() const { return records; }

    /** Records of one kind, in order. */
    std::vector<Record> ofKind(Kind kind) const;

    /** Number of records of one kind. */
    std::size_t countOf(Kind kind) const;

    /** Drop all records. */
    void clear() { records.clear(); }

    /** Enable/disable retention. */
    void setEnabled(bool on) { enabled = on; }

    /** Write all records as CSV: time_ms,kind,id,a,b,text. */
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<Record> records;
    bool enabled = true;
};

} // namespace edb::trace

#endif // EDB_TRACE_TRACE_HH
