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
    txEvent = sim().schedule(
        when + channel.airTime(Direction::TagToReader, frame),
        [this] { finishTx(); });
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
RfFrontend::state(sim::StateIo &io)
{
    io.section("rf");
    // A frame takes at least its u32 length on the wire.
    rxFifo.resize(io.count<std::uint32_t>(rxFifo.size(), 4));
    for (auto &frame : rxFifo) {
        frame.resize(io.count<std::uint32_t>(frame.size()));
        for (std::uint8_t &b : frame)
            io.u8(b);
    }
    txFrame.resize(io.count<std::uint32_t>(txFrame.size()));
    for (std::uint8_t &b : txFrame)
        io.u8(b);
    io.boolean(txActive);
    io.u64(rxCount);
    io.u64(txCount);
    io.u64(rxDropped);
    io.event(txEvent, [this] { finishTx(); });
}

} // namespace edb::rfid
