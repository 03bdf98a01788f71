#include "energy/ekho.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>

#include "sim/logging.hh"

namespace edb::energy {

void
HarvestTrace::add(HarvestSample sample)
{
    if (!samples.empty() && sample.seconds < samples.back().seconds)
        sim::fatal("HarvestTrace: samples must be time-ordered");
    if (sample.rsrc <= 0.0)
        sim::fatal("HarvestTrace: rsrc must be > 0");
    samples.push_back(sample);
}

double
HarvestTrace::durationSeconds() const
{
    if (samples.empty())
        return 0.0;
    return samples.back().seconds - samples.front().seconds;
}

HarvestSample
HarvestTrace::at(double seconds) const
{
    if (samples.empty())
        sim::fatal("HarvestTrace: empty trace");
    if (seconds <= samples.front().seconds)
        return samples.front();
    if (seconds >= samples.back().seconds)
        return samples.back();
    auto hi = std::lower_bound(
        samples.begin(), samples.end(), seconds,
        [](const HarvestSample &s, double t) {
            return s.seconds < t;
        });
    auto lo = hi - 1;
    double span = hi->seconds - lo->seconds;
    double frac = span > 0.0 ? (seconds - lo->seconds) / span : 0.0;
    HarvestSample out;
    out.seconds = seconds;
    out.voc = lo->voc + frac * (hi->voc - lo->voc);
    out.rsrc = lo->rsrc + frac * (hi->rsrc - lo->rsrc);
    return out;
}

void
HarvestTrace::writeCsv(std::ostream &os) const
{
    os << "seconds,voc,rsrc\n";
    for (const auto &s : samples)
        os << s.seconds << ',' << s.voc << ',' << s.rsrc << '\n';
}

HarvestTrace
HarvestTrace::readCsv(std::istream &is)
{
    static constexpr const char *header = "seconds,voc,rsrc";
    std::string line;
    if (!std::getline(is, line) || line != header)
        sim::fatal("HarvestTrace: line 1: expected the header '", header,
                   "', got '", line, "'");
    HarvestTrace trace;
    for (std::size_t lineNo = 2; std::getline(is, line); ++lineNo) {
        if (line.empty())
            continue;
        // Exactly three comma-separated finite numbers, nothing else.
        const char *p = line.data();
        const char *const end = p + line.size();
        double v[3] = {};
        bool ok = true;
        for (int i = 0; ok && i < 3; ++i) {
            if (i > 0)
                ok = p != end && *p++ == ',';
            auto [stop, ec] = std::from_chars(p, end, v[i]);
            ok = ok && ec == std::errc() && std::isfinite(v[i]);
            p = stop;
        }
        if (!ok || p != end)
            sim::fatal("HarvestTrace: line ", lineNo,
                       ": expected seconds,voc,rsrc as three finite "
                       "numbers, got '",
                       line, "'");
        trace.add({v[0], v[1], v[2]});
    }
    return trace;
}

HarvestRecorder::HarvestRecorder(sim::Simulator &simulator,
                                 std::string component_name,
                                 const Harvester &source_in,
                                 sim::Tick sample_period)
    : sim::Component(simulator, std::move(component_name)),
      source(source_in),
      period(sample_period)
{}

void
HarvestRecorder::start()
{
    if (running)
        return;
    running = true;
    sample();
}

void
HarvestRecorder::stop()
{
    running = false;
    if (sampleEvent != sim::invalidEventId) {
        sim().cancel(sampleEvent);
        sampleEvent = sim::invalidEventId;
    }
}

void
HarvestRecorder::sample()
{
    sampleEvent = sim::invalidEventId;
    if (!running)
        return;
    double t = sim::secondsFromTicks(now());
    // Characterize the Thevenin surface by two operating points:
    // open-circuit (0 A) and a probe point. voc is directly
    // observable; rsrc follows from the probe current.
    double voc = source.openCircuitVoltage(t);
    HarvestSample sample_out;
    sample_out.seconds = t;
    sample_out.voc = voc;
    double probe_v = voc * 0.5;
    double probe_i = source.currentInto(probe_v, t);
    sample_out.rsrc = probe_i > 1e-12 ? (voc - probe_v) / probe_i
                                      : 1e12; // effectively dead
    recorded.add(sample_out);
    sampleEvent = sim().scheduleIn(period, [this] { sample(); });
}

RecordedHarvester::RecordedHarvester(HarvestTrace trace, bool loop)
    : trace_(std::move(trace)), loop_(loop)
{
    if (trace_.empty())
        sim::fatal("RecordedHarvester: empty trace");
}

double
RecordedHarvester::mapTime(double seconds) const
{
    if (!loop_)
        return seconds;
    double t0 = trace_.all().front().seconds;
    double duration = trace_.durationSeconds();
    if (duration <= 0.0)
        return t0;
    return t0 + std::fmod(seconds - t0, duration);
}

double
RecordedHarvester::currentInto(double cap_volts, double seconds) const
{
    HarvestSample s = trace_.at(mapTime(seconds));
    double i = (s.voc - cap_volts) / s.rsrc;
    return i > 0.0 ? i : 0.0;
}

double
RecordedHarvester::openCircuitVoltage(double seconds) const
{
    return trace_.at(mapTime(seconds)).voc;
}

} // namespace edb::energy
