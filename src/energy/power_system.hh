/**
 * @file
 * Target power system: storage capacitor + harvester + loads +
 * comparators.
 *
 * This is the analog core of the intermittent execution model
 * (paper Fig 2): the harvester charges the capacitor through its
 * source resistance; when the voltage reaches the turn-on threshold
 * the device boots and its load discharges the capacitor; when the
 * voltage falls below the brown-out threshold the device powers off
 * and the cycle repeats.
 *
 * Loads are piecewise-constant current sinks owned by device
 * components (MCU core, peripherals, LEDs). Sources are signed
 * current functions of (voltage, time) — the harvester, EDB's
 * charge/discharge circuit, tethered supplies and per-pin leakage all
 * inject through this interface, which is what makes
 * energy-interference a *measured* quantity in this reproduction.
 */

#ifndef EDB_ENERGY_POWER_SYSTEM_HH
#define EDB_ENERGY_POWER_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "energy/capacitor.hh"
#include "energy/harvester.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace edb::sim {
class StateIo;
} // namespace edb::sim

namespace edb::energy {

/**
 * Simulation engine (DESIGN.md §7). Both engines are bit-identical:
 * same instruction stream, same integration sub-steps, same RNG
 * draws. `Fast` adds the predecode cache, flat memory dispatch, the
 * single-sub-step instruction drain, segment-amortized slices and
 * amortized integration; `Reference` is the plain interpreter and
 * integrator every fast mechanism is diffed against.
 */
enum class Engine : std::uint8_t
{
    Fast,
    Reference,
};

/** Static electrical parameters of a target power system. */
struct PowerSystemConfig
{
    /** Storage capacitance (WISP 5: 47 uF). */
    double capacitanceF = 47e-6;
    /** Comparator turn-on threshold (WISP 5: 2.4 V). */
    double turnOnVolts = 2.4;
    /** Comparator brown-out threshold (WISP 5: 1.8 V). */
    double brownOutVolts = 1.8;
    /** Board leakage while powered off. */
    double offLeakageAmps = 1.0e-6;
    /** Regulator nominal output. */
    double regulatorVolts = 2.0;
    /** Protection clamp on the capacitor voltage. */
    double maxVolts = 5.0;
    /** Initial capacitor voltage. */
    double initialVolts = 0.0;
    /**
     * Fire the power-on transition from `start()` when the initial
     * voltage is already above turn-on. Historically the comparator
     * only reports *crossings*, so a pre-charged device stayed
     * dormant until its first brown-out/recharge cycle; fleet worlds
     * opt in so a charged tag executes from tick zero. Off by
     * default to preserve existing single-world trajectories.
     */
    bool bootOnStart = false;
    /**
     * Relative sigma of multiplicative harvester noise, resampled
     * each integration step. Ambient RF power fluctuates with
     * fading, reader frequency hopping and antenna motion; this
     * keeps charge-discharge cycles from phase-locking to the
     * program loop the way an ideal constant source would.
     */
    double harvestNoiseSigma = 0.05;
    /**
     * Simulation engine of the world this power system belongs to.
     * The MCU reads it from here (see Mcu's constructor), so the
     * analog model and the interpreter always run the same engine.
     */
    Engine engine = Engine::Fast;
};

/**
 * Integrates the capacitor voltage under harvester + load currents
 * and drives the power-good comparator with hysteresis.
 */
class PowerSystem : public sim::Component
{
  public:
    using LoadHandle = std::size_t;
    using SourceHandle = std::size_t;
    /** Signed current into the capacitor, amps, as f(volts, seconds). */
    using SourceFn = std::function<double(double, double)>;
    /** Power-state listener: called with true on turn-on, false on
     *  brown-out. */
    using PowerListener = std::function<void(bool)>;

    /** Integration sub-step ceiling. */
    static constexpr sim::Tick maxStep = 5 * sim::oneUs;
    /** Self-tick period that keeps the model advancing while idle. */
    static constexpr sim::Tick idleTickPeriod = 20 * sim::oneUs;

    PowerSystem(sim::Simulator &simulator, std::string component_name,
                PowerSystemConfig config, const Harvester *harvester);

    /** Begin self-ticking; call once after wiring up the device. */
    void start();

    /// @name Loads (piecewise-constant current sinks)
    /// @{
    LoadHandle addLoad(std::string load_name, double amps = 0.0,
                       bool enabled = true);
    void setLoadCurrent(LoadHandle handle, double amps);
    void setLoadEnabled(LoadHandle handle, bool enabled);
    double loadCurrent(LoadHandle handle) const;
    bool loadEnabled(LoadHandle handle) const;
    /** Sum of all enabled load currents right now. */
    double
    totalLoadAmps() const
    {
        if (loadSumValid)
            return loadSum;
        double total = 0.0;
        for (const auto &load : loads) {
            if (load.enabled)
                total += load.amps;
        }
        // Same summation order as always, so the cached value is
        // bit-identical to a fresh recomputation.
        if (cfg.engine == Engine::Fast) {
            loadSum = total;
            loadSumValid = true;
        }
        return total;
    }
    /// @}

    /// @name Sources (signed current injections, f(volts, seconds))
    /// @{
    SourceHandle addSource(std::string source_name, SourceFn fn);
    void setSourceEnabled(SourceHandle handle, bool enabled);
    /// @}

    /** Integrate the analog state up to `when` (idempotent). */
    void advanceTo(sim::Tick when);

    /**
     * Single-sub-step drain used by the MCU's per-instruction fast
     * path: exactly equivalent to `advanceTo(lastUpdateTick() + dt)`
     * for `0 < dt <= maxStep` (one integration sub-step, then the
     * comparator), but the caller supplies the precomputed
     * ticks->seconds conversion of `dt`, which the MCU caches per
     * decoded instruction. `dtSeconds` must equal
     * `sim::secondsFromTicks(dt)`. Falls back to advanceTo when
     * `dt > maxStep`. Defined inline below so the interpreter's
     * per-instruction call flattens into one leaf.
     */
    void
    drainStep(sim::Tick dt, double dtSeconds)
    {
        if (integrating || dt <= 0)
            return;
        if (dt > maxStep) {
            advanceTo(lastUpdate + dt);
            return;
        }
        // One sub-step, exactly as advanceTo(lastUpdate + dt) would.
        integrating = true;
        integrateStep(dtSeconds, sim::secondsFromTicks(lastUpdate));
        lastUpdate += dt;
        updateComparator();
        integrating = false;
    }

    /**
     * Instantaneous charge withdrawal (coulombs), used by the NV
     * memory backend to bill energy-per-write against the storage
     * capacitor. Applied at the capacitor directly — no integration
     * step — then the comparator re-evaluates, so a write burst can
     * brown the device out mid-burst exactly like any other load.
     * No-op while an integration is in flight.
     */
    void
    drawCharge(double coulombs)
    {
        if (coulombs <= 0.0 || integrating)
            return;
        chargeOut += coulombs;
        cap.addCharge(-coulombs);
        updateComparator();
    }

    /** Time the analog state has been integrated up to. */
    sim::Tick lastUpdateTick() const { return lastUpdate; }

    /** Capacitor voltage after advancing to the present time. */
    double voltage();

    /** Capacitor voltage without advancing (for use in listeners). */
    double voltageNoAdvance() const { return cap.voltage(); }

    /** Regulated rail: min(Vcap, regulator nominal). Drops with Vcap
     *  during power failure, as the paper notes in Section 4.1.2. */
    double regulatedVoltage();

    /** Comparator output: true between turn-on and brown-out. */
    bool poweredOn() const { return powered; }

    /** Register a power-state listener. */
    void addPowerListener(PowerListener listener);

    /** Max storable energy (at turn-on voltage), the paper's "%* of
     *  storage capacity" denominator. */
    double
    maxEnergy() const
    {
        return cap.energyAt(cfg.turnOnVolts);
    }

    /** Direct capacitor access for instruments and tests. */
    Capacitor &capacitor() { return cap; }
    const PowerSystemConfig &config() const { return cfg; }

    /// @name Charge accounting (for conservation checks)
    /// @{
    double cumulativeChargeIn() const { return chargeIn; }
    double cumulativeChargeOut() const { return chargeOut; }
    /// @}

    /** Number of turn-on events since construction. */
    std::uint64_t bootCount() const { return boots; }
    /** Number of brown-out events since construction. */
    std::uint64_t brownOutCount() const { return brownOuts; }

    /**
     * Snapshot fields, both directions (see sim/snapshot.hh): the
     * full analog + comparator state: capacitor voltage, integrator
     * bookkeeping, charge accounting, comparator counters,
     * per-load/per-source switch state and the pending self-tick
     * event. Loads and sources are saved positionally, so save and
     * restore sides must be wired identically (same device assembly,
     * same construction order).
     */
    void state(sim::StateIo &io);

  private:
    struct Load
    {
        std::string name;
        double amps;
        bool enabled;
    };

    struct Source
    {
        std::string name;
        SourceFn fn;
        bool enabled;
    };

    /** One forward-Euler sub-step (defined inline, it is the single
     *  hottest function in the simulator). */
    void
    integrateStep(double dt_seconds, double t_seconds)
    {
        double v = cap.voltage();
        double in_amps;
        if (flatSource) {
            // Inlined TheveninHarvester::currentInto — identical
            // expression, including the ternary's signed-zero
            // behaviour.
            double i = (flatVoc - v) / flatRsrc;
            in_amps = i > 0.0 ? i : 0.0;
        } else {
            in_amps = harvester->currentInto(v, t_seconds);
        }
        if (noiseEnabled && in_amps > 0.0) {
            double n = 1.0 + sim().rng().gaussian(cfg.harvestNoiseSigma);
            in_amps *= n < 0.0 ? 0.0 : n;
        }
        for (const auto &src : sources) {
            if (src.enabled)
                in_amps += src.fn(v, t_seconds);
        }
        double out_amps = powered ? totalLoadAmps() : cfg.offLeakageAmps;
        double dq_in = in_amps * dt_seconds;
        double dq_out = out_amps * dt_seconds;
        chargeIn += dq_in;
        chargeOut += dq_out;
        cap.addCharge(dq_in - dq_out);
        if (cap.voltage() > cfg.maxVolts)
            cap.setVoltage(cfg.maxVolts);
    }

    void
    updateComparator()
    {
        bool next = powered;
        if (powered && cap.voltage() < cfg.brownOutVolts) {
            next = false;
            ++brownOuts;
        } else if (!powered && cap.voltage() >= cfg.turnOnVolts) {
            next = true;
            ++boots;
        }
        if (next == powered)
            return;
        powered = next;
        for (const auto &listener : listeners)
            listener(powered);
    }

    void tick();
    void invalidateLoadSum() { loadSumValid = false; }

    PowerSystemConfig cfg;
    const Harvester *harvester;
    Capacitor cap;
    std::vector<Load> loads;
    std::vector<Source> sources;
    std::vector<PowerListener> listeners;
    sim::Tick lastUpdate = 0;
    bool powered = false;
    bool integrating = false;
    bool started = false;
    /** Cached sum of enabled load currents (fast engine). */
    mutable double loadSum = 0.0;
    mutable bool loadSumValid = false;
    /** secondsFromTicks(maxStep), hoisted out of advanceTo. */
    static constexpr double maxStepSeconds =
        sim::secondsFromTicks(maxStep);
    bool noiseEnabled = false;
    /** The harvester's inlineable constant-Thevenin form, probed once
     *  at construction (fast engine only; the arithmetic is
     *  identical). */
    bool flatSource = false;
    double flatVoc = 0.0;
    double flatRsrc = 1.0;
    double chargeIn = 0.0;
    double chargeOut = 0.0;
    std::uint64_t boots = 0;
    std::uint64_t brownOuts = 0;
    /** Pending self-tick. */
    sim::EventId tickEvent = sim::invalidEventId;
};

} // namespace edb::energy

#endif // EDB_ENERGY_POWER_SYSTEM_HH
