#include "edb/charge_circuit.hh"

namespace edb::edbdbg {

ChargeCircuit::ChargeCircuit(sim::Simulator &simulator,
                             std::string component_name,
                             energy::PowerSystem &target_power,
                             EdbAdc &adc_in, ChargeCircuitConfig config)
    : sim::Component(simulator, std::move(component_name)),
      power(target_power),
      adc(adc_in),
      cfg(config)
{
    // The circuit is high-impedance while inactive: it neither loads
    // nor trickle-charges the target (paper Section 4.1.1).
    power.addSource(
        name(),
        [this](double v, double) {
            switch (mode) {
              case Mode::Off:
                return 0.0;
              case Mode::Charging: {
                double i = (chargeVolts - v) / chargeOhms;
                return i > 0.0 ? i : 0.0;
              }
              case Mode::Discharging:
                return -(v / dischargeOhms);
            }
            return 0.0;
        });
}

void
ChargeCircuit::rampTo(double volts, double stop_margin, DoneFn done)
{
    abort();
    target = volts;
    margin = stop_margin;
    doneFn = std::move(done);
    rampStart = now();
    iterations = 0;
    double reading = adc.sampleVolts(power.voltage());
    if (reading > target + margin) {
        mode = Mode::Discharging;
    } else if (reading < target) {
        mode = Mode::Charging;
    } else {
        finish(RampResult::Converged);
        return;
    }
    loopEvent =
        sim().scheduleIn(cfg.loopPeriod, [this] { controlStep(); });
}

void
ChargeCircuit::controlStep()
{
    loopEvent = sim::invalidEventId;
    if (mode == Mode::Off)
        return;
    double reading = adc.sampleVolts(power.voltage());
    bool converged = mode == Mode::Discharging
                         ? reading <= target + margin
                         : reading >= target;
    if (converged) {
        finish(RampResult::Converged);
        return;
    }
    // With a faulted supply the level may be unreachable; give up
    // rather than spin the control loop forever.
    ++iterations;
    if (now() - rampStart >= rampDeadline ||
        iterations >= maxIterations) {
        finish(RampResult::DeadlineExceeded);
        return;
    }
    loopEvent =
        sim().scheduleIn(cfg.loopPeriod, [this] { controlStep(); });
}

void
ChargeCircuit::finish(RampResult result)
{
    mode = Mode::Off;
    if (doneFn) {
        DoneFn fn = std::move(doneFn);
        doneFn = nullptr;
        fn(result);
    }
}

void
ChargeCircuit::abort()
{
    if (loopEvent != sim::invalidEventId) {
        sim().cancel(loopEvent);
        loopEvent = sim::invalidEventId;
    }
    mode = Mode::Off;
    doneFn = nullptr;
}

} // namespace edb::edbdbg
