/**
 * @file
 * Target-side debug port: code-marker lines, debug-request line,
 * debug UART and the passive breakpoint mask.
 *
 * These are the target's halves of the physical connections in paper
 * Fig 5 ("Code Marker", "Interrupt", target<->debugger comm). The
 * target-side libEDB runtime drives them from guest assembly; the
 * EDB board attaches listeners on the other side.
 *
 * With n marker lines, 2^n - 1 distinct watchpoint ids can be
 * signalled (id 0 would be indistinguishable from no pulse), exactly
 * the paper's Section 4.1.3 capacity statement.
 */

#ifndef EDB_MCU_DEBUG_PORT_HH
#define EDB_MCU_DEBUG_PORT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mcu/uart.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::mcu {

/** Configuration of the debug port. */
struct DebugPortConfig
{
    /** Number of GPIO lines allocated to code markers. */
    unsigned markerLines = 4;
};

/** Target-side half of the EDB wiring. */
class DebugPort : public sim::Component
{
  public:
    /** Marker pulse: (watchpoint id, when). */
    using MarkerListener = std::function<void(std::uint32_t, sim::Tick)>;
    /** Debug-request line change: (level, when). */
    using ReqListener = std::function<void(bool, sim::Tick)>;

    /** Debug UART transmit current (shared link with the EDB board;
     *  the level-shifted buffer on this link is low-drive). */
    static constexpr double uartTxAmps = 0.8e-3;

    DebugPort(sim::Simulator &simulator, std::string component_name,
              sim::TimeCursor &cursor, energy::PowerSystem &power,
              DebugPortConfig config = {});

    /** Install MARKER/DBGREQ/DBGUART/BKPTMASK registers. */
    void installMmio(mem::MmioRegion &mmio);

    /** Observe code-marker pulses (EDB's program-event monitor). */
    void addMarkerListener(MarkerListener listener);

    /** Observe the debug-request line (EDB's firmware). */
    void addReqListener(ReqListener listener);

    /** The debug UART (EDB reads TX via listener, feeds RX). */
    Uart &uart() { return dbgUart; }

    /** Maximum representable watchpoint id (2^n - 1). */
    std::uint32_t maxMarkerId() const;

    /** Debug-request line level. */
    bool reqLevel() const { return req; }

    /**
     * EDB-side write of the passive breakpoint bitmap (models EDB
     * configuring the target through the debug interface).
     */
    void setBreakpointMask(std::uint32_t mask) { bkptMask = mask; }
    std::uint32_t breakpointMask() const { return bkptMask; }

    /** Number of marker pulses emitted. */
    std::uint64_t markerCount() const { return markers; }

    /** Reset on power loss. */
    void powerLost();

    /** Snapshot fields, both directions (see sim/snapshot.hh),
     *  the nested debug UART included. */
    void state(sim::StateIo &io);

  private:
    void pulseMarker(std::uint32_t id);
    void setReq(bool level);

    sim::TimeCursor &cursor;
    DebugPortConfig cfg;
    Uart dbgUart;
    std::vector<MarkerListener> markerListeners;
    std::vector<ReqListener> reqListeners;
    bool req = false;
    std::uint32_t bkptMask = 0;
    std::uint64_t markers = 0;
};

} // namespace edb::mcu

#endif // EDB_MCU_DEBUG_PORT_HH
