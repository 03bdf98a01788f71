/**
 * @file
 * Mixed-signal oscilloscope model.
 *
 * Stands in for the Tektronix MDO4104 of the paper's setup: samples
 * analog channels (function probes) and digital channels at a fixed
 * rate into a waveform buffer. It is the "mostly energy-interference
 * -free tool" of Section 2.2 — it sees the power system but "provides
 * no insight into the internal state of the software". Used by the
 * benches to regenerate the Fig 7 / Fig 9 traces and to provide the
 * independent measurement column of Table 3.
 */

#ifndef EDB_BASELINE_OSCILLOSCOPE_HH
#define EDB_BASELINE_OSCILLOSCOPE_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace edb::baseline {

/** One captured sample across all channels. */
struct ScopeSample
{
    sim::Tick when = 0;
    std::vector<double> values;
};

/** Multi-channel sampling oscilloscope. */
class Oscilloscope : public sim::Component
{
  public:
    /** Analog probe: returns volts at sample time. */
    using Probe = std::function<double()>;

    Oscilloscope(sim::Simulator &simulator, std::string component_name,
                 sim::Tick sample_period = 100 * sim::oneUs);

    /** Add a channel; returns its index. */
    std::size_t addChannel(std::string channel_name, Probe probe);

    /** Start capturing. */
    void start();

    /** Stop capturing (waveform retained). */
    void stop();

    /** Clear the waveform buffer. */
    void clear() { waveform.clear(); }

    /** Captured samples. */
    const std::vector<ScopeSample> &capture() const { return waveform; }

    /** Channel names. */
    const std::vector<std::string> &channels() const { return names; }

    /** Value of channel `ch` at the sample closest to `when`. */
    double valueAt(std::size_t ch, sim::Tick when) const;

    /** Write the waveform as CSV (time_ms, ch0, ch1, ...). */
    void writeCsv(std::ostream &os) const;

    /**
     * Count rising edges of a digital-ish channel within a window
     * (edge = crossing 0.5 upward). Used to detect "the main loop
     * stopped toggling".
     */
    std::size_t risingEdges(std::size_t ch, sim::Tick from,
                            sim::Tick to) const;

  private:
    void sample();

    sim::Tick period;
    bool running = false;
    std::vector<std::string> names;
    std::vector<Probe> probes;
    std::vector<ScopeSample> waveform;
    sim::EventId sampleEvent = sim::invalidEventId;
};

} // namespace edb::baseline

#endif // EDB_BASELINE_OSCILLOSCOPE_HH
