/**
 * @file
 * Ekho-style energy-environment recording and replay.
 *
 * The paper's related work (Section 6.1) describes Ekho [9]: "a
 * device that records the amount of energy harvested by a harvesting
 * circuit and reproduces the trace as power input into an
 * application device. Ekho can reproduce problematic program
 * behavior, but it cannot offer insight into this behavior" — which
 * is why it composes with EDB rather than replacing it.
 *
 * `HarvestRecorder` samples the surface current actually delivered
 * by a live harvester into a time-indexed I-V trace;
 * `RecordedHarvester` replays such a trace (optionally looped) as a
 * drop-in `Harvester`, so a problematic energy environment can be
 * captured once and replayed deterministically while debugging with
 * EDB.
 */

#ifndef EDB_ENERGY_EKHO_HH
#define EDB_ENERGY_EKHO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "energy/harvester.hh"
#include "sim/simulator.hh"

namespace edb::energy {

/**
 * One I-V surface sample: at time `seconds`, the source behaves as
 * a Thevenin equivalent (voc, rsrc). Recording the pair rather than
 * a bare current value preserves the load-dependence of the source,
 * which is Ekho's key fidelity argument.
 */
struct HarvestSample
{
    double seconds = 0.0;
    double voc = 0.0;
    double rsrc = 1.0;
};

/** A recorded harvesting trace. */
class HarvestTrace
{
  public:
    /** Append a sample (times must be non-decreasing). */
    void add(HarvestSample sample);

    /** Number of samples. */
    std::size_t size() const { return samples.size(); }
    bool empty() const { return samples.empty(); }

    /** Duration covered by the trace. */
    double durationSeconds() const;

    /** Interpolated Thevenin parameters at `seconds`. */
    HarvestSample at(double seconds) const;

    /** Serialize as CSV: seconds,voc,rsrc. */
    void writeCsv(std::ostream &os) const;

    /**
     * Parse the CSV produced by writeCsv: the header, then rows of
     * exactly three comma-separated finite numbers (blank lines are
     * skipped). Throws sim::FatalError naming the first bad line.
     */
    static HarvestTrace readCsv(std::istream &is);

    const std::vector<HarvestSample> &all() const { return samples; }

  private:
    std::vector<HarvestSample> samples;
};

/**
 * Samples the Thevenin surface presented by a live harvester into a
 * trace at a fixed period (Ekho's "record" mode).
 */
class HarvestRecorder : public sim::Component
{
  public:
    HarvestRecorder(sim::Simulator &simulator,
                    std::string component_name,
                    const Harvester &source,
                    sim::Tick sample_period = 5 * sim::oneMs);

    /** Begin recording. */
    void start();

    /** Stop recording (trace retained). */
    void stop();

    /** The recorded trace so far. */
    const HarvestTrace &trace() const { return recorded; }

  private:
    void sample();

    const Harvester &source;
    sim::Tick period;
    bool running = false;
    HarvestTrace recorded;
    sim::EventId sampleEvent = sim::invalidEventId;
};

/**
 * Replays a recorded trace as a harvester (Ekho's "replay" mode).
 */
class RecordedHarvester : public Harvester
{
  public:
    /**
     * @param trace The trace to replay (copied).
     * @param loop Wrap around at the end (otherwise hold the last
     *        sample).
     */
    explicit RecordedHarvester(HarvestTrace trace, bool loop = false);

    double currentInto(double cap_volts, double seconds) const override;
    double openCircuitVoltage(double seconds) const override;

  private:
    double mapTime(double seconds) const;

    HarvestTrace trace_;
    bool loop_;
};

} // namespace edb::energy

#endif // EDB_ENERGY_EKHO_HH
