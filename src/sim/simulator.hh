/**
 * @file
 * Top-level simulation driver.
 *
 * A `Simulator` owns the event queue, the global clock and the
 * deterministic RNG. Components keep a reference to it; ownership of
 * components stays with the caller (typically a device assembly such
 * as `target::Wisp` or `edbdbg::EdbBoard`).
 */

#ifndef EDB_SIM_SIMULATOR_HH
#define EDB_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>

#include "sim/event.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace edb::sim {

/**
 * Event-driven simulation kernel.
 *
 * Time only advances inside `run*` calls, driven by the event queue.
 * Long-running components (the MCU interpreter) run in bounded slices
 * and re-schedule themselves, so other events interleave correctly.
 */
class Simulator
{
  public:
    explicit Simulator(std::uint64_t seed = 1) : rngState(seed) {}

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /** Deterministic RNG shared by all stochastic models. */
    Rng &rng() { return rngState; }
    const Rng &rng() const { return rngState; }

    /** Schedule a callback at an absolute time (must be >= now). */
    EventId
    schedule(Tick when, EventQueue::Callback cb)
    {
        return events.schedule(when < currentTick ? currentTick : when,
                               std::move(cb));
    }

    /** Schedule a callback `delay` ticks in the future. */
    EventId
    scheduleIn(Tick delay, EventQueue::Callback cb)
    {
        return schedule(currentTick + (delay < 0 ? 0 : delay),
                        std::move(cb));
    }

    /** Cancel a scheduled event. */
    bool cancel(EventId id) { return events.cancel(id); }

    /** Due time of a pending event (nullopt when not pending). */
    std::optional<Tick> dueTime(EventId id) const
    {
        return events.dueTime(id);
    }

    /** Time of the next pending event (maxTick when idle). */
    Tick nextEventTime() { return events.nextTime(); }

    /**
     * Run until the event queue drains or `until` is reached,
     * whichever comes first. Events exactly at `until` do fire.
     * @return the simulated time after the run.
     */
    Tick
    runUntil(Tick until)
    {
        while (events.nextTime() <= until) {
            EventQueue::Callback cb;
            Tick when = currentTick;
            if (!events.popNext(when, cb))
                break;
            // The clock advances before the callback runs, so
            // now() is exact inside event handlers.
            currentTick = when;
            cb();
        }
        if (until > currentTick)
            currentTick = until;
        return currentTick;
    }

    /** Run for a relative duration. */
    Tick runFor(Tick duration) { return runUntil(currentTick + duration); }

    /** Run until the event queue is exhausted. */
    Tick
    runToCompletion()
    {
        while (!events.empty()) {
            EventQueue::Callback cb;
            Tick when = currentTick;
            if (!events.popNext(when, cb))
                break;
            currentTick = when;
            cb();
        }
        return currentTick;
    }

    /**
     * Force the event clock (snapshot restore only). Must not be
     * called while a `run*` call is in progress, and the caller is
     * responsible for rescheduling any pending events consistently.
     */
    void restoreClock(Tick t) { currentTick = t; }

  private:
    EventQueue events;
    Tick currentTick = 0;
    Rng rngState;
};

/**
 * Base class for named simulation components.
 *
 * Provides the back-pointer to the owning simulator and an
 * instance name.
 */
class Component
{
  public:
    Component(Simulator &simulator, std::string component_name)
        : sim_(simulator), name_(std::move(component_name))
    {}

    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Component instance name. */
    const std::string &name() const { return name_; }

    /** Owning simulator. */
    Simulator &sim() { return sim_; }
    const Simulator &sim() const { return sim_; }

    /** Current simulated time (convenience). */
    Tick now() const { return sim_.now(); }

  private:
    Simulator &sim_;
    std::string name_;
};

} // namespace edb::sim

#endif // EDB_SIM_SIMULATOR_HH
