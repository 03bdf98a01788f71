/**
 * @file
 * Ambient energy harvester models.
 *
 * The paper's target (WISP 5) harvests RF energy from an RFID reader;
 * the defining property (Section 2.1) is the *high source resistance*
 * of ambient sources, which produces the characteristic sawtooth RC
 * charge behaviour. We model harvesters as a Thevenin equivalent:
 * open-circuit voltage behind a source resistance, with a keeper diode
 * preventing back-flow into the harvester.
 */

#ifndef EDB_ENERGY_HARVESTER_HH
#define EDB_ENERGY_HARVESTER_HH

#include <memory>

#include "sim/fault.hh"

namespace edb::energy {

/**
 * Abstract energy harvester: supplies current into the storage
 * capacitor as a function of the capacitor voltage and time.
 */
class Harvester
{
  public:
    virtual ~Harvester() = default;

    /**
     * Instantaneous current delivered into the storage element.
     * @param cap_volts Present capacitor voltage.
     * @param seconds Simulated time (for time-varying sources).
     * @return Current in amps, never negative (keeper diode).
     */
    virtual double currentInto(double cap_volts, double seconds) const = 0;

    /** Open-circuit voltage: the asymptotic charge level. */
    virtual double openCircuitVoltage(double seconds) const = 0;

    /**
     * Constant-Thevenin snapshot: harvesters whose currentInto is
     * `max(0, (voc - v) / rsrc)` with *time-invariant* parameters may
     * report them here, letting the integrator inline the arithmetic
     * instead of making a virtual call per sub-step. Harvesters with
     * any time-varying behaviour (fades, carrier gating, profiles)
     * must return false. Default: false.
     */
    virtual bool
    theveninParams(double &voc, double &rsrc) const
    {
        (void)voc;
        (void)rsrc;
        return false;
    }
};

/** Fixed Thevenin source: Voc behind Rsrc. */
class TheveninHarvester : public Harvester
{
  public:
    TheveninHarvester(double voc_volts, double rsrc_ohms);

    double currentInto(double cap_volts, double seconds) const override;
    double openCircuitVoltage(double seconds) const override;

    bool
    theveninParams(double &voc, double &rsrc) const override
    {
        voc = voc_;
        rsrc = rsrc_;
        return true;
    }

    double voc() const { return voc_; }
    double rsrc() const { return rsrc_; }

  private:
    double voc_;
    double rsrc_;
};

/**
 * RF harvester fed by an RFID reader.
 *
 * Received power falls off with the square of the reader distance;
 * the model maps (transmit power, distance) to a Thevenin source
 * calibrated so that a 30 dBm reader at 1 m yields the WISP-like
 * charge dynamics used in the paper's evaluation setup (Section 5.1:
 * "the amount of harvestable energy is inversely proportional to this
 * distance").
 */
class RfHarvester : public Harvester
{
  public:
    /**
     * @param tx_power_dbm Reader transmit power (paper: up to 30 dBm).
     * @param distance_m Reader antenna to tag distance (paper: 1 m).
     */
    RfHarvester(double tx_power_dbm, double distance_m);

    double currentInto(double cap_volts, double seconds) const override;
    double openCircuitVoltage(double seconds) const override;

    /** Move the tag; takes effect immediately. */
    void setDistance(double distance_m);

    /** Gate the carrier on/off (reader duty cycling). */
    void setCarrierOn(bool on) { carrierOn = on; }
    bool carrierOn_() const { return carrierOn; }

    double distance() const { return distanceM; }
    double sourceResistance() const { return rsrc; }

    /** Rectifier open-circuit voltage used by the model. */
    static constexpr double rectifierVoc = 3.2;

  private:
    void recompute();

    double txPowerDbm;
    double distanceM;
    double rsrc = 1.0;
    bool carrierOn = true;
};

/** A harvester that supplies nothing (bench operation on a supply). */
class NullHarvester : public Harvester
{
  public:
    double currentInto(double, double) const override { return 0.0; }
    double openCircuitVoltage(double) const override { return 0.0; }
};

/**
 * Decorator that blanks an underlying harvester during the fade
 * windows of a `sim::FaultPlan` (RF fades: reader duty cycling,
 * antenna occlusion). Outside fades — or with injection disabled —
 * it is transparent.
 */
class FadedHarvester : public Harvester
{
  public:
    FadedHarvester(const Harvester &base_harvester,
                   const sim::FaultInjector &fault_injector)
        : base(base_harvester), injector(fault_injector)
    {
    }

    double
    currentInto(double cap_volts, double seconds) const override
    {
        if (injector.inFadeSeconds(seconds))
            return 0.0;
        return base.currentInto(cap_volts, seconds);
    }

    double
    openCircuitVoltage(double seconds) const override
    {
        if (injector.inFadeSeconds(seconds))
            return 0.0;
        return base.openCircuitVoltage(seconds);
    }

  private:
    const Harvester &base;
    const sim::FaultInjector &injector;
};

} // namespace edb::energy

#endif // EDB_ENERGY_HARVESTER_HH
