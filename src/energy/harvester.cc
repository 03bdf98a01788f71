#include "energy/harvester.hh"

#include <cmath>

#include "sim/logging.hh"

namespace edb::energy {

TheveninHarvester::TheveninHarvester(double voc_volts, double rsrc_ohms)
    : voc_(voc_volts), rsrc_(rsrc_ohms)
{
    if (rsrc_ohms <= 0.0)
        sim::fatal("TheveninHarvester: source resistance must be > 0");
}

double
TheveninHarvester::currentInto(double cap_volts, double) const
{
    double i = (voc_ - cap_volts) / rsrc_;
    return i > 0.0 ? i : 0.0;
}

double
TheveninHarvester::openCircuitVoltage(double) const
{
    return voc_;
}

RfHarvester::RfHarvester(double tx_power_dbm, double distance_m)
    : txPowerDbm(tx_power_dbm), distanceM(distance_m)
{
    if (distance_m <= 0.0)
        sim::fatal("RfHarvester: distance must be > 0");
    recompute();
}

void
RfHarvester::recompute()
{
    // Short-circuit current scales with received power, which falls
    // off as 1/d^2. Calibration: a 30 dBm (1 W) reader at 1 m drives
    // roughly 0.8 mA short-circuit into the rectifier -- this yields
    // WISP-like charge/discharge periods with the 47 uF capacitor.
    constexpr double isc_per_watt_at_1m = 0.8e-3;
    double tx_watts = std::pow(10.0, txPowerDbm / 10.0) * 1e-3;
    double isc = isc_per_watt_at_1m * tx_watts / (distanceM * distanceM);
    rsrc = rectifierVoc / isc;
}

void
RfHarvester::setDistance(double distance_m)
{
    if (distance_m <= 0.0)
        sim::fatal("RfHarvester: distance must be > 0");
    distanceM = distance_m;
    recompute();
}

double
RfHarvester::currentInto(double cap_volts, double) const
{
    if (!carrierOn)
        return 0.0;
    double i = (rectifierVoc - cap_volts) / rsrc;
    return i > 0.0 ? i : 0.0;
}

double
RfHarvester::openCircuitVoltage(double) const
{
    return carrierOn ? rectifierVoc : 0.0;
}

} // namespace edb::energy
