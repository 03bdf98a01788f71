#include "mcu/uart.hh"

#include "sim/snapshot.hh"

namespace edb::mcu {

Uart::Uart(sim::Simulator &simulator, std::string component_name,
           sim::TimeCursor &time_cursor, energy::PowerSystem &power_sys,
           double tx_active_amps)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      power(power_sys)
{
    txLoad = power.addLoad(name() + ".tx", tx_active_amps, false);
}

sim::Tick
Uart::byteTime() const
{
    return sim::ticksFromSeconds(bitsPerByte / baud);
}

void
Uart::installMmio(mem::MmioRegion &mmio, mem::Addr tx_addr,
                  mem::Addr status_addr, mem::Addr rx_addr)
{
    mmio.addRegister(
        tx_addr, name() + ".tx", nullptr,
        [this](std::uint32_t v) {
            startTx(static_cast<std::uint8_t>(v));
        });
    mmio.addRegister(
        status_addr, name() + ".status",
        [this] {
            std::uint32_t s = 0;
            if (busy)
                s |= 1u;
            if (!rxFifo.empty())
                s |= 2u;
            return s;
        },
        nullptr);
    mmio.addRegister(
        rx_addr, name() + ".rx",
        [this]() -> std::uint32_t {
            if (rxFifo.empty())
                return 0;
            std::uint8_t b = rxFifo.front();
            rxFifo.pop_front();
            return b;
        },
        nullptr);
}

void
Uart::addTxListener(TxListener listener)
{
    txListeners.push_back(std::move(listener));
}

void
Uart::startTx(std::uint8_t byte)
{
    if (busy) {
        // Software is expected to poll the busy bit; a write while
        // busy is dropped, as on real hardware without a TX FIFO.
        ++txDropped;
        return;
    }
    busy = true;
    shifting = byte;
    power.setLoadEnabled(txLoad, true);
    txEvent = cursor.scheduleIn(byteTime(), [this] { finishTx(); });
}

void
Uart::finishTx()
{
    txEvent = sim::invalidEventId;
    if (!busy)
        return;
    busy = false;
    power.setLoadEnabled(txLoad, false);
    ++txCount;
    std::uint8_t byte = shifting;
    sim::Tick when = cursor.now();
    for (const auto &listener : txListeners)
        listener(byte, when);
}

void
Uart::receiveByte(std::uint8_t byte)
{
    rxFifo.push_back(byte);
    while (rxFifo.size() > rxFifoDepth)
        rxFifo.pop_front();
}

void
Uart::powerLost()
{
    if (txEvent != sim::invalidEventId) {
        sim().cancel(txEvent);
        txEvent = sim::invalidEventId;
    }
    busy = false;
    power.setLoadEnabled(txLoad, false);
    rxFifo.clear();
}

void
Uart::state(sim::StateIo &io)
{
    io.section("uart");
    io.boolean(busy);
    io.u8(shifting);
    io.u64(txCount);
    io.u64(txDropped);
    rxFifo.resize(io.count<std::uint32_t>(rxFifo.size()));
    for (std::uint8_t &b : rxFifo)
        io.u8(b);
    // The txLoad enable is restored positionally by PowerSystem.
    io.event(txEvent, [this] { finishTx(); });
}

} // namespace edb::mcu
