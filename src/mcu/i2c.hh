/**
 * @file
 * I2C master controller and device interface.
 *
 * The activity-recognition case study (paper Section 5.3.3) samples
 * an accelerometer over I2C; EDB passively monitors the bus
 * (Section 4.1.2 lists I2C SCL/SDA among the monitored lines).
 * Transactions take real bus time and draw extra supply current.
 */

#ifndef EDB_MCU_I2C_HH
#define EDB_MCU_I2C_HH

#include <cstdint>
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

/** A slave device on the I2C bus. */
class I2cDevice
{
  public:
    virtual ~I2cDevice() = default;

    /** 7-bit bus address. */
    virtual std::uint8_t address() const = 0;

    /** Register read. */
    virtual std::uint8_t readReg(std::uint8_t reg) = 0;

    /** Register write. */
    virtual void writeReg(std::uint8_t reg, std::uint8_t value) = 0;
};

/**
 * Register-transaction I2C master with a passive sniffer interface.
 */
class I2cController : public sim::Component
{
  public:
    /** Sniffer: (device address, register, value, is_read, when). */
    using Sniffer = std::function<void(std::uint8_t, std::uint8_t,
                                       std::uint8_t, bool, sim::Tick)>;

    /** Bus clock. */
    static constexpr double clockHz = 400e3;
    /** Wire bytes per register transaction (addr, reg, data + acks). */
    static constexpr double bytesPerTransaction = 4.0;
    /** Extra supply current while a transaction is on the bus. */
    static constexpr double busActiveAmps = 0.5e-3;

    I2cController(sim::Simulator &simulator, std::string component_name,
                  sim::TimeCursor &cursor, energy::PowerSystem &power);

    /** Install ADDR/REG/DATA/CTRL/STATUS registers. */
    void installMmio(mem::MmioRegion &mmio);

    /** Attach a slave device (non-owning). */
    void attach(I2cDevice *device);

    /** Observe transactions on the wire (EDB's I/O monitor). */
    void addSniffer(Sniffer sniffer);

    /** True while a transaction is in flight. */
    bool busy() const { return inFlight; }

    /** Abort any transaction (reboot). */
    void powerLost();

    /** Duration of one register transaction on the wire. */
    sim::Tick transactionTime() const;

    /** Snapshot fields, both directions (see sim/snapshot.hh). */
    void state(sim::StateIo &io);

  private:
    void start(bool is_read);
    void finish();
    I2cDevice *findDevice(std::uint8_t addr) const;

    sim::TimeCursor &cursor;
    energy::PowerSystem &power;
    energy::PowerSystem::LoadHandle busLoad;
    std::vector<I2cDevice *> devices;
    std::vector<Sniffer> sniffers;

    std::uint8_t curAddr = 0;
    std::uint8_t curReg = 0;
    std::uint8_t curData = 0;
    bool curIsRead = false;
    bool inFlight = false;
    bool done = false;
    sim::EventId busEvent = sim::invalidEventId;
};

} // namespace edb::mcu

#endif // EDB_MCU_I2C_HH
