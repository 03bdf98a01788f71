#include "sim/fault.hh"

namespace edb::sim {

std::vector<std::uint8_t>
ClientWireFaults::onFrame(const std::vector<std::uint8_t> &frame)
{
    if (!plan_.enabled)
        return frame;
    // Trigger check precedes the count so disconnectAfterFrames=N
    // lets exactly N frames through: the plan promises a disconnect
    // *after* N frames, not in place of the Nth.
    if (wantsDisconnect()) {
        // Past the disconnect trigger nothing else goes out.
        ++stats_.disconnects;
        return {};
    }
    ++stats_.frames;
    std::vector<std::uint8_t> out;
    if (rng.chance(plan_.garbageProb)) {
        const int n = static_cast<int>(rng.uniformInt(1, 16));
        for (int i = 0; i < n; ++i) {
            out.push_back(static_cast<std::uint8_t>(
                rng.uniformInt(0, 255)));
        }
        stats_.garbageBytes += static_cast<std::uint64_t>(n);
    }
    if (rng.chance(plan_.replayProb) && !lastFrame.empty()) {
        ++stats_.replayed;
        out.insert(out.end(), lastFrame.begin(), lastFrame.end());
    }
    if (rng.chance(plan_.dropProb)) {
        ++stats_.dropped;
        return out;
    }
    std::vector<std::uint8_t> body = frame;
    if (rng.chance(plan_.corruptProb) && !body.empty()) {
        ++stats_.corrupted;
        const std::size_t at = rng.uniformInt(
            0, static_cast<std::uint32_t>(body.size() - 1));
        body[at] ^=
            static_cast<std::uint8_t>(1u << rng.uniformInt(0, 7));
    }
    if (rng.chance(plan_.truncateProb) && body.size() > 1) {
        ++stats_.truncated;
        body.resize(rng.uniformInt(
            1, static_cast<std::uint32_t>(body.size() - 1)));
    }
    out.insert(out.end(), body.begin(), body.end());
    if (rng.chance(plan_.dupProb)) {
        ++stats_.duplicated;
        out.insert(out.end(), body.begin(), body.end());
    }
    lastFrame = std::move(body);
    return out;
}

FaultInjector::FaultInjector(Simulator &simulator,
                             std::string component_name,
                             FaultPlan fault_plan)
    : Component(simulator, std::move(component_name)),
      plan_(std::move(fault_plan)),
      rng(plan_.seed)
{
}

FaultInjector::WireResult
FaultInjector::onWire(std::uint8_t byte)
{
    WireResult r;
    r.bytes[0] = byte;
    if (!plan_.enabled)
        return r;
    ++stats_.wireBytes;
    if (rng.chance(plan_.uartDropProb)) {
        ++stats_.dropped;
        r.count = 0;
        return r;
    }
    if (rng.chance(plan_.uartCorruptProb)) {
        ++stats_.corrupted;
        r.bytes[0] =
            byte ^ static_cast<std::uint8_t>(
                       1u << rng.uniformInt(0, 7));
    }
    if (rng.chance(plan_.uartDupProb)) {
        ++stats_.duplicated;
        r.bytes[1] = r.bytes[0];
        r.count = 2;
    }
    return r;
}

double
FaultInjector::onAdc(double volts)
{
    if (!plan_.enabled || !rng.chance(plan_.adcGlitchProb))
        return volts;
    ++stats_.adcGlitches;
    return volts + rng.uniform(-plan_.adcGlitchMagnitudeVolts,
                               plan_.adcGlitchMagnitudeVolts);
}

bool
FaultInjector::inFade(Tick when) const
{
    if (!plan_.enabled)
        return false;
    for (const auto &w : plan_.fades) {
        if (when >= w.start && when < w.start + w.length)
            return true;
    }
    return false;
}

bool
FaultInjector::inFadeSeconds(double seconds) const
{
    return inFade(ticksFromSeconds(seconds));
}

void
FaultInjector::fireBrownOut(double volts)
{
    ++stats_.brownOutsForced;
    if (brownOutFn)
        brownOutFn(volts);
}

void
FaultInjector::armBrownOuts(Tick after)
{
    for (EventId id : armed_)
        sim().cancel(id);
    armed_.clear();
    if (!plan_.enabled)
        return;
    for (const BrownOut &b : plan_.brownOuts) {
        if (b.at <= after)
            continue;
        armed_.push_back(sim().schedule(
            b.at, [this, volts = b.volts] { fireBrownOut(volts); }));
    }
}

void
FaultInjector::onNvCommitWord()
{
    if (!plan_.enabled)
        return;
    ++stats_.nvCommitWords;
    if (plan_.nvTearAtCommitWord != 0 &&
        ++nvCommitWordCount == plan_.nvTearAtCommitWord) {
        ++stats_.nvTears;
        fireBrownOut(nvTearVolts);
    }
}

bool
FaultInjector::onTornWord(std::uint32_t &word)
{
    if (!plan_.enabled || !rng.chance(plan_.nvTornCorruptProb))
        return false;
    const std::uint32_t intended = word;
    const int flips = static_cast<int>(rng.uniformInt(1, 4));
    for (int i = 0; i < flips; ++i)
        word ^= 1u << rng.uniformInt(0, 31);
    // An even number of flips can hit the same bit twice and cancel.
    if (word != intended)
        ++stats_.nvTornWordsCorrupted;
    return true;
}

} // namespace edb::sim
