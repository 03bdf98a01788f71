#include "rfid/channel.hh"

#include "rfid/frontend.hh"
#include "rfid/reader.hh"

namespace edb::rfid {

RfChannel::RfChannel(sim::Simulator &simulator,
                     std::string component_name, ChannelConfig config)
    : sim::Component(simulator, std::move(component_name)), cfg(config)
{}

void
RfChannel::addTap(Tap tap)
{
    taps.push_back(std::move(tap));
}

sim::Tick
RfChannel::airTime(Direction direction, const Frame &frame) const
{
    double bps =
        direction == Direction::ReaderToTag ? downlinkBps : uplinkBps;
    double seconds = static_cast<double>(frame.wireBytes()) * 8.0 / bps;
    return sim::ticksFromSeconds(seconds);
}

void
RfChannel::send(Direction direction, Frame frame, sim::Tick when)
{
    if (sim().rng().chance(cfg.corruptionProbability)) {
        frame.corrupted = true;
        ++corrupted;
    }
    sim::Tick done = when + airTime(direction, frame);
    sim().schedule(done, [this, direction, frame = std::move(frame),
                          done]() mutable {
        deliver(direction, std::move(frame), done);
    });
}

void
RfChannel::deliver(Direction direction, Frame frame, sim::Tick when)
{
    // Wire taps see everything, including corrupted frames and
    // frames the endpoint misses — EDB's external decoder hangs here.
    for (const auto &tap : taps)
        tap(direction, frame, when);
    if (direction == Direction::ReaderToTag) {
        // The tag's front end CRC-drops corrupted frames in hardware.
        if (tag && !frame.corrupted)
            tag->frameArrived(frame);
    } else if (reader) {
        // The reader sees corrupted replies as undecodable noise and
        // drops them.
        reader->frameArrived(frame, when);
    }
}

SlottedArbiter::SlottedArbiter(RfEnvConfig config, std::uint64_t seed)
    : seed_(seed), q_(config.initialQ)
{
    if (q_ < minQ)
        q_ = minQ;
    if (q_ > maxQ)
        q_ = maxQ;
}

std::vector<SlotOutcome>
SlottedArbiter::resolve(std::uint64_t round,
                        const std::vector<std::uint32_t> &tags)
{
    const std::uint64_t slots = std::uint64_t{1} << q_;
    // Occupancy by hashed slot choice. Slot choice is a pure hash of
    // (seed, round, tag) so the outcome cannot depend on resolution
    // order or thread schedule.
    std::vector<std::uint64_t> chosen(tags.size());
    std::vector<std::uint32_t> occupancy(slots, 0);
    for (std::size_t i = 0; i < tags.size(); ++i) {
        std::uint64_t h = sim::splitmix64(
            seed_ ^ sim::splitmix64(round * 0x9E3779B97F4A7C15ULL ^
                                    tags[i]));
        chosen[i] = h & (slots - 1);
        ++occupancy[chosen[i]];
    }
    std::vector<SlotOutcome> out(tags.size());
    std::uint64_t roundSingles = 0, roundCollided = 0;
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (occupancy[chosen[i]] == 1) {
            out[i] = SlotOutcome::Won;
            ++roundSingles;
        } else {
            out[i] = SlotOutcome::Collided;
            ++roundCollided;
        }
    }
    std::uint64_t occupied = 0;
    for (std::uint32_t c : occupancy)
        occupied += c != 0;
    ++rounds;
    singles += roundSingles;
    collisions += roundCollided;
    // Gen2-style Q adaptation, on round totals (deterministic).
    if (roundCollided > roundSingles && q_ < maxQ)
        ++q_;
    else if (roundCollided == 0 && occupied * 2 < slots &&
             q_ > minQ)
        --q_;
    return out;
}

} // namespace edb::rfid
