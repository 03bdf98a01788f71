/**
 * @file
 * UART peripheral with bit timing and transmit energy cost.
 *
 * Powering and clocking a UART to stream a log is one of the
 * energy-interfering instrumentation strategies the paper quantifies
 * (Table 4: "UART printf" lowers the iteration success rate from 87%
 * to 74%). The model charges an extra supply current while the
 * shifter is active and makes the transmit take real bus time.
 */

#ifndef EDB_MCU_UART_HH
#define EDB_MCU_UART_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "energy/power_system.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::sim {
class StateIo;
} // namespace edb::sim

namespace edb::mcu {

/**
 * Target-side UART. The "wire" is exposed through listeners (for the
 * host / EDB's I/O sniffer) and `receiveByte` (for inbound traffic).
 */
class Uart : public sim::Component
{
  public:
    /** Byte completed on the TX wire at `when`. */
    using TxListener = std::function<void(std::uint8_t, sim::Tick)>;

    /** Line rate of both target UARTs. */
    static constexpr double baud = 115200.0;
    /** Bits per byte on the wire (start + 8 data + stop). */
    static constexpr double bitsPerByte = 10.0;
    /** Receive FIFO depth; overflow drops the oldest byte. */
    static constexpr std::size_t rxFifoDepth = 16;

    /**
     * @param tx_active_amps Extra supply current while the
     *        transmitter is shifting: the one parameter the console
     *        UART (target::Wisp::consoleUartTxAmps) and the debug
     *        link (DebugPort::uartTxAmps) differ in.
     */
    Uart(sim::Simulator &simulator, std::string component_name,
         sim::TimeCursor &cursor, energy::PowerSystem &power,
         double tx_active_amps);

    /**
     * Install TX / STATUS / RX registers.
     * @param tx_addr Transmit register address.
     * @param status_addr Status register (bit0 txBusy, bit1 rxAvail).
     * @param rx_addr Receive register address.
     */
    void installMmio(mem::MmioRegion &mmio, mem::Addr tx_addr,
                     mem::Addr status_addr, mem::Addr rx_addr);

    /** Observe completed TX bytes on the wire. */
    void addTxListener(TxListener listener);

    /** Deliver a byte from the wire into the RX FIFO. */
    void receiveByte(std::uint8_t byte);

    /** True while a byte is shifting out. */
    bool txBusy() const { return busy; }

    /** Bytes waiting in the RX FIFO. */
    std::size_t rxAvailable() const { return rxFifo.size(); }

    /** Wire time of one byte. */
    sim::Tick byteTime() const;

    /** Abort any in-flight byte and clear FIFOs (reboot). */
    void powerLost();

    /** Snapshot fields, both directions (see sim/snapshot.hh). */
    void state(sim::StateIo &io);

  private:
    void startTx(std::uint8_t byte);
    void finishTx();

    sim::TimeCursor &cursor;
    energy::PowerSystem &power;
    energy::PowerSystem::LoadHandle txLoad;
    std::deque<std::uint8_t> rxFifo;
    std::vector<TxListener> txListeners;
    bool busy = false;
    std::uint8_t shifting = 0;
    sim::EventId txEvent = sim::invalidEventId;
    std::uint64_t txCount = 0;
    std::uint64_t txDropped = 0;

  public:
    /** Bytes successfully transmitted. */
    std::uint64_t transmittedBytes() const { return txCount; }
    /** Bytes written while busy (dropped). */
    std::uint64_t droppedBytes() const { return txDropped; }
};

} // namespace edb::mcu

#endif // EDB_MCU_UART_HH
