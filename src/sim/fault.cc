#include "sim/fault.hh"

#include "sim/snapshot.hh"

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
FaultInjector::fireBrownOut()
{
    ++stats_.brownOutsForced;
    if (brownOutFn)
        brownOutFn();
}

void
FaultInjector::armBrownOuts(std::function<void()> fire)
{
    brownOutFn = std::move(fire);
    if (!plan_.enabled)
        return;
    for (Tick at : plan_.brownOutAtTick) {
        if (at < now())
            continue;
        EventId id = sim().schedule(at, [this] { fireBrownOut(); });
        armed_.emplace_back(id, at);
    }
}

void
FaultInjector::onInstruction()
{
    if (!plan_.enabled || plan_.brownOutAtInstr == 0)
        return;
    if (++instrCount == plan_.brownOutAtInstr) {
        ++stats_.brownOutsForced;
        if (brownOutFn)
            brownOutFn();
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
        ++stats_.brownOutsForced;
        if (brownOutFn)
            brownOutFn();
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

void
FaultInjector::saveState(SnapshotWriter &w) const
{
    w.section("fault");
    w.rng(rng);
    w.u64(instrCount);
    w.u64(nvCommitWordCount);
    w.u64(stats_.wireBytes);
    w.u64(stats_.corrupted);
    w.u64(stats_.dropped);
    w.u64(stats_.duplicated);
    w.u64(stats_.adcGlitches);
    w.u64(stats_.brownOutsForced);
    w.u64(stats_.nvCommitWords);
    w.u64(stats_.nvTears);
    w.u64(stats_.nvTornWordsCorrupted);
    // Only brown-outs still in the future are queue residue; fired
    // ones linger in armed_ but are history, not pending state.
    std::uint32_t live = 0;
    for (const auto &[id, when] : armed_) {
        if (when > now())
            ++live;
    }
    w.u32(live);
    for (const auto &[id, when] : armed_) {
        if (when > now())
            w.pendingEvent(id, when);
    }
}

void
FaultInjector::restoreState(SnapshotReader &r, EventRearmer &rearmer)
{
    r.section("fault");
    r.rng(rng);
    instrCount = r.u64();
    nvCommitWordCount = r.u64();
    stats_.wireBytes = r.u64();
    stats_.corrupted = r.u64();
    stats_.dropped = r.u64();
    stats_.duplicated = r.u64();
    stats_.adcGlitches = r.u64();
    stats_.brownOutsForced = r.u64();
    stats_.nvCommitWords = r.u64();
    stats_.nvTears = r.u64();
    stats_.nvTornWordsCorrupted = r.u64();
    for (const auto &[id, when] : armed_) {
        if (when > now())
            sim().cancel(id);
    }
    armed_.clear();
    std::uint32_t live = r.u32();
    for (std::uint32_t i = 0; i < live && r.ok(); ++i) {
        r.pendingEvent(
            rearmer, [this] { fireBrownOut(); },
            [this](EventId id, Tick due) {
                if (id != invalidEventId)
                    armed_.emplace_back(id, due);
            });
    }
}

} // namespace edb::sim
