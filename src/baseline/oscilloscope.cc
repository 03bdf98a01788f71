#include "baseline/oscilloscope.hh"

#include <algorithm>
#include <cmath>


namespace edb::baseline {

Oscilloscope::Oscilloscope(sim::Simulator &simulator,
                           std::string component_name,
                           sim::Tick sample_period)
    : sim::Component(simulator, std::move(component_name)),
      period(sample_period)
{}

std::size_t
Oscilloscope::addChannel(std::string channel_name, Probe probe)
{
    names.push_back(std::move(channel_name));
    probes.push_back(std::move(probe));
    return probes.size() - 1;
}

void
Oscilloscope::start()
{
    if (running)
        return;
    running = true;
    sample();
}

void
Oscilloscope::stop()
{
    running = false;
    if (sampleEvent != sim::invalidEventId) {
        sim().cancel(sampleEvent);
        sampleEvent = sim::invalidEventId;
    }
}

void
Oscilloscope::sample()
{
    sampleEvent = sim::invalidEventId;
    if (!running)
        return;
    ScopeSample s;
    s.when = now();
    s.values.reserve(probes.size());
    for (const auto &probe : probes)
        s.values.push_back(probe());
    waveform.push_back(std::move(s));
    sampleEvent = sim().scheduleIn(period, [this] { sample(); });
}

double
Oscilloscope::valueAt(std::size_t ch, sim::Tick when) const
{
    if (waveform.empty())
        return 0.0;
    auto it = std::lower_bound(
        waveform.begin(), waveform.end(), when,
        [](const ScopeSample &s, sim::Tick t) { return s.when < t; });
    if (it == waveform.end())
        return waveform.back().values.at(ch);
    if (it != waveform.begin()) {
        auto prev = it - 1;
        if (when - prev->when < it->when - when)
            it = prev;
    }
    return it->values.at(ch);
}

void
Oscilloscope::writeCsv(std::ostream &os) const
{
    os << "time_ms";
    for (const auto &n : names)
        os << ',' << n;
    os << '\n';
    for (const auto &s : waveform) {
        os << sim::millisFromTicks(s.when);
        for (double v : s.values)
            os << ',' << v;
        os << '\n';
    }
}

std::size_t
Oscilloscope::risingEdges(std::size_t ch, sim::Tick from,
                          sim::Tick to) const
{
    std::size_t edges = 0;
    bool prev_high = false;
    bool first = true;
    for (const auto &s : waveform) {
        if (s.when < from || s.when > to)
            continue;
        bool high = s.values.at(ch) > 0.5;
        if (!first && high && !prev_high)
            ++edges;
        prev_high = high;
        first = false;
    }
    return edges;
}

} // namespace edb::baseline
