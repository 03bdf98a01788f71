#include "rfid/frontend.hh"

#include "mcu/mmio_map.hh"
#include "rfid/channel.hh"
#include "sim/snapshot.hh"

namespace edb::rfid {

RfFrontend::RfFrontend(sim::Simulator &simulator,
                       std::string component_name,
                       sim::TimeCursor &time_cursor,
                       energy::PowerSystem &power_sys,
                       RfChannel &rf_channel)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      power(power_sys),
      channel(rf_channel)
{
    txLoad = power.addLoad(name() + ".tx", txActiveAmps, false);
    channel.attachTag(this);
}

void
RfFrontend::installMmio(mem::MmioRegion &mmio)
{
    namespace m = mcu::mmio;
    mmio.addRegister(
        m::rfRxStatus, name() + ".rxStatus",
        [this] { return rxFifo.empty() ? 0u : 1u; }, nullptr);
    mmio.addRegister(
        m::rfRxLen, name() + ".rxLen",
        [this] {
            return rxFifo.empty()
                       ? 0u
                       : static_cast<std::uint32_t>(
                             rxFifo.front().size());
        },
        nullptr);
    mmio.addRegister(
        m::rfRxByte, name() + ".rxByte",
        [this]() -> std::uint32_t {
            if (rxFifo.empty())
                return 0;
            auto &frame = rxFifo.front();
            if (frame.empty()) {
                rxFifo.pop_front();
                return 0;
            }
            std::uint8_t b = frame.front();
            frame.pop_front();
            if (frame.empty())
                rxFifo.pop_front();
            return b;
        },
        nullptr);
    mmio.addRegister(
        m::rfTxByte, name() + ".txByte", nullptr,
        [this](std::uint32_t v) {
            txFrame.push_back(static_cast<std::uint8_t>(v));
        });
    mmio.addRegister(
        m::rfTxCtrl, name() + ".txCtrl", nullptr,
        [this](std::uint32_t v) {
            if (v == 1)
                startTx();
        });
    mmio.addRegister(
        m::rfTxStatus, name() + ".txStatus",
        [this] { return txActive ? 1u : 0u; }, nullptr);
}

void
RfFrontend::frameArrived(const Frame &frame)
{
    // An unpowered demodulator latches nothing: the defining reason
    // tag response rate tracks the energy state (paper Fig 12).
    if (!power.poweredOn()) {
        ++rxDropped;
        return;
    }
    if (rxFifo.size() >= rxFifoDepth) {
        ++rxDropped;
        return;
    }
    std::deque<std::uint8_t> bytes;
    bytes.push_back(static_cast<std::uint8_t>(frame.type));
    for (std::uint8_t b : frame.payload)
        bytes.push_back(b);
    rxFifo.push_back(std::move(bytes));
    ++rxCount;
}

void
RfFrontend::startTx()
{
    if (txActive || txFrame.empty())
        return;
    txActive = true;
    power.setLoadEnabled(txLoad, true);
    Frame frame;
    frame.type = static_cast<MsgType>(txFrame.front());
    frame.payload.assign(txFrame.begin() + 1, txFrame.end());
    txFrame.clear();
    sim::Tick when = cursor.now();
    channel.send(Direction::TagToReader, frame, when);
    txDueAt = when + channel.airTime(Direction::TagToReader, frame);
    txEvent = sim().schedule(txDueAt, [this] { finishTx(); });
}

void
RfFrontend::finishTx()
{
    txEvent = sim::invalidEventId;
    if (!txActive)
        return;
    txActive = false;
    power.setLoadEnabled(txLoad, false);
    ++txCount;
}

void
RfFrontend::powerLost()
{
    if (txEvent != sim::invalidEventId) {
        sim().cancel(txEvent);
        txEvent = sim::invalidEventId;
    }
    txActive = false;
    power.setLoadEnabled(txLoad, false);
    rxFifo.clear();
    txFrame.clear();
}

void
RfFrontend::saveState(sim::SnapshotWriter &w) const
{
    w.section("rf");
    w.u32(static_cast<std::uint32_t>(rxFifo.size()));
    for (const auto &frame : rxFifo) {
        w.u32(static_cast<std::uint32_t>(frame.size()));
        for (std::uint8_t b : frame)
            w.u8(b);
    }
    w.u32(static_cast<std::uint32_t>(txFrame.size()));
    for (std::uint8_t b : txFrame)
        w.u8(b);
    w.boolean(txActive);
    w.u64(rxCount);
    w.u64(txCount);
    w.u64(rxDropped);
    w.pendingEvent(txEvent, txDueAt);
}

void
RfFrontend::restoreState(sim::SnapshotReader &r,
                         sim::EventRearmer &rearmer)
{
    r.section("rf");
    rxFifo.clear();
    std::uint32_t nframes = r.u32();
    for (std::uint32_t i = 0; i < nframes && r.ok(); ++i) {
        std::deque<std::uint8_t> frame;
        std::uint32_t len = r.u32();
        for (std::uint32_t j = 0; j < len && r.ok(); ++j)
            frame.push_back(r.u8());
        rxFifo.push_back(std::move(frame));
    }
    txFrame.clear();
    std::uint32_t txlen = r.u32();
    for (std::uint32_t i = 0; i < txlen && r.ok(); ++i)
        txFrame.push_back(r.u8());
    txActive = r.boolean();
    rxCount = r.u64();
    txCount = r.u64();
    rxDropped = r.u64();
    if (txEvent != sim::invalidEventId) {
        sim().cancel(txEvent);
        txEvent = sim::invalidEventId;
    }
    r.pendingEvent(
        rearmer, [this] { finishTx(); },
        [this](sim::EventId id, sim::Tick due) {
            txEvent = id;
            txDueAt = due;
        });
}

} // namespace edb::rfid
