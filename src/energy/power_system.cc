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
    refreshFlatSource();
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
    tickDueAt = now() + idleTickPeriod;
    tickEvent = sim().schedule(tickDueAt, [this] { tick(); });
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
PowerSystem::saveState(sim::SnapshotWriter &w) const
{
    w.section("power");
    w.f64(cap.voltage());
    w.tick(lastUpdate);
    w.boolean(powered);
    w.boolean(started);
    w.f64(chargeIn);
    w.f64(chargeOut);
    w.u64(boots);
    w.u64(brownOuts);
    w.u32(static_cast<std::uint32_t>(loads.size()));
    for (const auto &load : loads) {
        w.f64(load.amps);
        w.boolean(load.enabled);
    }
    w.u32(static_cast<std::uint32_t>(sources.size()));
    for (const auto &src : sources)
        w.boolean(src.enabled);
    w.pendingEvent(started ? tickEvent : sim::invalidEventId,
                   tickDueAt);
}

void
PowerSystem::restoreState(sim::SnapshotReader &r,
                          sim::EventRearmer &rearmer)
{
    r.section("power");
    // Raw member writes only: going through setVoltage/setLoad*
    // would advanceTo(now()) and insert integration sub-steps the
    // original run never took, breaking resume equivalence.
    cap.setVoltage(r.f64());
    lastUpdate = r.tick();
    powered = r.boolean();
    started = r.boolean();
    chargeIn = r.f64();
    chargeOut = r.f64();
    boots = r.u64();
    brownOuts = r.u64();
    // A different load or source count means a differently wired
    // device: reject, as Ram::restoreState rejects a size mismatch.
    if (r.u32() != loads.size()) {
        r.invalidate();
        return;
    }
    for (auto &load : loads) {
        load.amps = r.f64();
        load.enabled = r.boolean();
    }
    if (r.u32() != sources.size()) {
        r.invalidate();
        return;
    }
    for (auto &src : sources)
        src.enabled = r.boolean();
    invalidateLoadSum();
    integrating = false;
    if (tickEvent != sim::invalidEventId) {
        sim().cancel(tickEvent);
        tickEvent = sim::invalidEventId;
    }
    r.pendingEvent(
        rearmer, [this] { tick(); },
        [this](sim::EventId id, sim::Tick due) {
            tickEvent = id;
            tickDueAt = due;
        });
}

} // namespace edb::energy
