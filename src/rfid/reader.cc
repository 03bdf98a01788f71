#include "rfid/reader.hh"

#include "rfid/channel.hh"

namespace edb::rfid {

RfidReader::RfidReader(sim::Simulator &simulator,
                       std::string component_name, RfChannel &rf_channel,
                       ReaderConfig config)
    : sim::Component(simulator, std::move(component_name)),
      channel(rf_channel),
      cfg(config)
{
    channel.attachReader(this);
}

void
RfidReader::start()
{
    if (active)
        return;
    active = true;
    slotIndex = 0;
    slotEvent = sim().scheduleIn(0, [this] { slot(); });
}

void
RfidReader::stop()
{
    active = false;
    if (slotEvent != sim::invalidEventId) {
        sim().cancel(slotEvent);
        slotEvent = sim::invalidEventId;
    }
}

void
RfidReader::slot()
{
    slotEvent = sim::invalidEventId;
    if (!active)
        return;
    Frame frame;
    frame.type = slotIndex == 0 ? MsgType::CmdQuery
                                : MsgType::CmdQueryRep;
    // Session / slot-count parameters as a 2-byte payload.
    frame.payload = {static_cast<std::uint8_t>(slotIndex), 0x20};
    channel.send(Direction::ReaderToTag, frame, now());
    ++queries;
    slotIndex = (slotIndex + 1) % cfg.slotsPerRound;
    slotEvent = sim().scheduleIn(cfg.slotPeriod, [this] { slot(); });
}

void
RfidReader::frameArrived(const Frame &frame, sim::Tick)
{
    if (frame.corrupted)
        return;
    if (frame.type == MsgType::RspGeneric)
        ++replies;
}

double
RfidReader::responseRate() const
{
    if (queries == 0)
        return 0.0;
    return static_cast<double>(replies) / static_cast<double>(queries);
}

} // namespace edb::rfid
