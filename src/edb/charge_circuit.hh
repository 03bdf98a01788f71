/**
 * @file
 * EDB's charge/discharge circuit and its software control loop.
 *
 * Paper Section 4.1.1: "a custom circuit consisting of a low pass
 * filter, keeper diode, and GPIO pins that can charge and discharge
 * the target's energy storage capacitor... A basic iterative control
 * loop in EDB's software ensures that the voltage converges to the
 * desired level."
 *
 * The finite loop period, the ADC's quantization/noise and the
 * conservative stop margin are what give the save-restore operation
 * its measurable discrepancy (Table 3) — the paper attributes its
 * 54 mV mean to exactly this software, expecting "further software
 * optimization will leave a discrepancy closer to the accuracy limit
 * imposed by EDB's ADC".
 */

#ifndef EDB_EDB_CHARGE_CIRCUIT_HH
#define EDB_EDB_CHARGE_CIRCUIT_HH

#include <functional>
#include <string>

#include "edb/edb_adc.hh"
#include "energy/power_system.hh"
#include "sim/simulator.hh"

namespace edb::edbdbg {

/** Circuit and control-loop parameters. */
struct ChargeCircuitConfig
{
    /** Software control-loop iteration period. */
    sim::Tick loopPeriod = 200 * sim::oneUs;
    /**
     * Restore stop margin: the control loop stops discharging once
     * the reading is within this much *above* the saved level
     * (conservative: never under-restore). This is the dominant term
     * of the Table 3 discrepancy.
     */
    double restoreStopMargin = 0.062;
};

/** How a ramp ended. */
enum class RampResult
{
    Converged,        ///< Reached the requested level.
    DeadlineExceeded, ///< Gave up (deadline or iteration cap).
};

/** GPIO-driven charge/discharge circuit with iterative control. */
class ChargeCircuit : public sim::Component
{
  public:
    using DoneFn = std::function<void(RampResult)>;

    /** Rail driven through the low-pass filter when charging. */
    static constexpr double chargeVolts = 3.4;
    /** Series resistance of the charge path. */
    static constexpr double chargeOhms = 1.0e3;
    /** Resistive load used to discharge. */
    static constexpr double dischargeOhms = 680.0;
    /**
     * Give up on a ramp after this long. With a faulted supply (RF
     * fade, leak) the target level can be unreachable; an unbounded
     * loop would spin the debugger forever (the hang this replaces).
     */
    static constexpr sim::Tick rampDeadline = 1 * sim::oneSec;
    /** Secondary bound on control-loop iterations. */
    static constexpr std::uint64_t maxIterations = 20'000;

    ChargeCircuit(sim::Simulator &simulator, std::string component_name,
                  energy::PowerSystem &target_power, EdbAdc &adc,
                  ChargeCircuitConfig config = {});

    /**
     * Drive the capacitor to `volts` and invoke `done`.
     * @param volts Target level.
     * @param stop_margin Accept readings within [volts, volts +
     *        margin] when approaching from above (0 for symmetric
     *        convergence).
     */
    void rampTo(double volts, double stop_margin, DoneFn done);

    /** Restore semantics: ramp with the configured stop margin. */
    void
    restoreTo(double volts, DoneFn done)
    {
        rampTo(volts, cfg.restoreStopMargin, std::move(done));
    }

    /** True while the control loop is running. */
    bool active() const { return mode != Mode::Off; }

    /** Abort any ramp without invoking the callback. */
    void abort();

    const ChargeCircuitConfig &config() const { return cfg; }

  private:
    enum class Mode { Off, Charging, Discharging };

    void controlStep();
    void finish(RampResult result);

    energy::PowerSystem &power;
    EdbAdc &adc;
    ChargeCircuitConfig cfg;
    Mode mode = Mode::Off;
    double target = 0.0;
    double margin = 0.0;
    DoneFn doneFn;
    sim::EventId loopEvent = sim::invalidEventId;
    sim::Tick rampStart = 0;
    std::uint64_t iterations = 0;
};

} // namespace edb::edbdbg

#endif // EDB_EDB_CHARGE_CIRCUIT_HH
