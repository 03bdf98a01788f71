#include "energy/power_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace edb::energy {

PowerSystem::PowerSystem(sim::Simulator &simulator,
                         std::string component_name,
                         PowerSystemConfig config,
                         const Harvester *harvester_model)
    : sim::Component(simulator, std::move(component_name)),
      cfg(config),
      harvester(harvester_model),
      cap(config.capacitanceF, config.initialVolts)
{
    if (cfg.capacitanceF <= 0.0)
        sim::fatal("PowerSystem: capacitance must be > 0");
    if (cfg.brownOutVolts >= cfg.turnOnVolts)
        sim::fatal("PowerSystem: brown-out must be below turn-on");
    if (!harvester)
        sim::fatal("PowerSystem: harvester must not be null");
    powered = cap.voltage() >= cfg.turnOnVolts;
    lastUpdate = simulator.now();
    noiseEnabled = cfg.harvestNoiseSigma > 0.0;
    flatSource = cfg.engine == Engine::Fast &&
                 harvester->theveninParams(flatVoc, flatRsrc);
}

void
PowerSystem::start()
{
    if (started)
        return;
    started = true;
    if (cfg.bootOnStart && powered) {
        // A pre-charged device's comparator is already high at
        // power-up: report the boot the crossing detector can't see.
        ++boots;
        for (const auto &listener : listeners)
            listener(true);
    }
    tick();
}

void
PowerSystem::tick()
{
    advanceTo(now());
    tickEvent = sim().schedule(now() + idleTickPeriod, [this] { tick(); });
}

PowerSystem::LoadHandle
PowerSystem::addLoad(std::string load_name, double amps, bool enabled)
{
    advanceTo(now());
    loads.push_back(Load{std::move(load_name), amps, enabled});
    invalidateLoadSum();
    return loads.size() - 1;
}

void
PowerSystem::setLoadCurrent(LoadHandle handle, double amps)
{
    advanceTo(now());
    loads.at(handle).amps = amps;
    invalidateLoadSum();
}

void
PowerSystem::setLoadEnabled(LoadHandle handle, bool enabled)
{
    advanceTo(now());
    loads.at(handle).enabled = enabled;
    invalidateLoadSum();
}

double
PowerSystem::loadCurrent(LoadHandle handle) const
{
    return loads.at(handle).amps;
}

bool
PowerSystem::loadEnabled(LoadHandle handle) const
{
    return loads.at(handle).enabled;
}

PowerSystem::SourceHandle
PowerSystem::addSource(std::string source_name, SourceFn fn)
{
    advanceTo(now());
    sources.push_back(Source{std::move(source_name), std::move(fn), true});
    return sources.size() - 1;
}

void
PowerSystem::setSourceEnabled(SourceHandle handle, bool enabled)
{
    advanceTo(now());
    sources.at(handle).enabled = enabled;
}

void
PowerSystem::addPowerListener(PowerListener listener)
{
    listeners.push_back(std::move(listener));
}

void
PowerSystem::advanceTo(sim::Tick when)
{
    if (integrating || when <= lastUpdate)
        return;
    integrating = true;
    sim::Tick t = lastUpdate;
    const bool fast = cfg.engine == Engine::Fast;
    while (t < when) {
        sim::Tick step = std::min<sim::Tick>(maxStep, when - t);
        // Full-size sub-steps reuse the hoisted conversion; only the
        // final partial step pays the divide. Identical value either
        // way.
        double step_sec = fast && step == maxStep
                              ? maxStepSeconds
                              : sim::secondsFromTicks(step);
        integrateStep(step_sec, sim::secondsFromTicks(t));
        t += step;
        lastUpdate = t;
        updateComparator();
    }
    integrating = false;
}

double
PowerSystem::voltage()
{
    advanceTo(now());
    return cap.voltage();
}

double
PowerSystem::regulatedVoltage()
{
    return std::min(voltage(), cfg.regulatorVolts);
}

void
PowerSystem::state(sim::StateIo &io)
{
    io.section("power");
    // Raw member writes only: going through setVoltage/setLoad*
    // would advanceTo(now()) and insert integration sub-steps the
    // original run never took, breaking resume equivalence.
    double volts = cap.voltage();
    io.f64(volts);
    if (io.restoring())
        cap.setVoltage(volts);
    io.u64(lastUpdate);
    io.boolean(powered);
    io.boolean(started);
    io.f64(chargeIn);
    io.f64(chargeOut);
    io.u64(boots);
    io.u64(brownOuts);
    // A different load or source count means a differently wired
    // device: reject, as Ram::state rejects a size mismatch.
    if (!io.check(io.count<std::uint32_t>(loads.size()) == loads.size()))
        return;
    for (auto &load : loads) {
        io.f64(load.amps);
        io.boolean(load.enabled);
    }
    if (!io.check(io.count<std::uint32_t>(sources.size()) == sources.size()))
        return;
    for (auto &src : sources)
        io.boolean(src.enabled);
    if (io.restoring()) {
        invalidateLoadSum();
        integrating = false;
    }
    io.event(tickEvent, [this] { tick(); });
}

} // namespace edb::energy
