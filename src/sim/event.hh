/**
 * @file
 * Discrete-event queue for the simulator.
 *
 * Events are closures scheduled at an absolute tick. Ties are broken by
 * insertion order so a run is deterministic. Scheduling returns an
 * `EventId` which may be used to cancel the event while it is pending.
 */

#ifndef EDB_SIM_EVENT_HH
#define EDB_SIM_EVENT_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/time.hh"

namespace edb::sim {

/** Handle identifying a scheduled event for cancellation. */
using EventId = std::uint64_t;

/** Reserved id meaning "no event". */
constexpr EventId invalidEventId = 0;

/**
 * Min-heap of timestamped closures. Deterministic: equal-tick events
 * fire in the order they were scheduled.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule `cb` to fire at absolute time `when`. */
    EventId
    schedule(Tick when, Callback cb)
    {
        EventId id = ++nextId;
        heap.push_back(Entry{when, id, std::move(cb)});
        std::push_heap(heap.begin(), heap.end(), later);
        return id;
    }

    /**
     * Cancel a pending event. Returns false, and changes nothing,
     * for an id that already fired, was already cancelled or was
     * never issued. Scans the pending events: cancels are rare
     * (brown-outs, restores, peripheral aborts) and the queue holds
     * a handful of entries.
     */
    bool
    cancel(EventId id)
    {
        auto it = std::find_if(heap.begin(), heap.end(),
                               [id](const Entry &e) { return e.id == id; });
        if (it == heap.end())
            return false;
        heap.erase(it);
        std::make_heap(heap.begin(), heap.end(), later);
        return true;
    }

    /** Due time of a pending event; nullopt for an id that is not
     *  pending. Scans the pending events, as `cancel` does. */
    std::optional<Tick>
    dueTime(EventId id) const
    {
        auto it = std::find_if(heap.begin(), heap.end(),
                               [id](const Entry &e) { return e.id == id; });
        if (it == heap.end())
            return std::nullopt;
        return it->when;
    }

    /** True when no events are pending. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    /** Time of the earliest pending event, or `maxTick` when empty. */
    Tick
    nextTime() const
    {
        return heap.empty() ? maxTick : heap.front().when;
    }

    /**
     * Pop the earliest pending event without running it, so the
     * caller can update its clock before invoking the callback.
     * @return false when the queue was empty.
     */
    bool
    popNext(Tick &when, Callback &cb)
    {
        if (heap.empty())
            return false;
        // Move the callback out before any invocation: callbacks may
        // schedule events, mutating the heap.
        std::pop_heap(heap.begin(), heap.end(), later);
        when = heap.back().when;
        cb = std::move(heap.back().cb);
        heap.pop_back();
        return true;
    }

    /**
     * Pop and run the earliest pending event.
     * @param now Receives the event's timestamp (set before the
     *        callback runs).
     * @return false when the queue was empty.
     */
    bool
    runOne(Tick &now)
    {
        Callback cb;
        if (!popNext(now, cb))
            return false;
        cb();
        return true;
    }

  private:
    struct Entry
    {
        Tick when;
        EventId id;
        Callback cb;
    };

    /** Heap order: the earliest (when, id) sits at the front. Ids are
     *  unique, so the pop order is fixed whatever the heap layout. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.id > b.id;
    }

    std::vector<Entry> heap;
    EventId nextId = invalidEventId;
};

} // namespace edb::sim

#endif // EDB_SIM_EVENT_HH
