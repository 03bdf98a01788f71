/**
 * @file
 * Forward-progress watchdog. The `sim` module knows nothing about an
 * Mcu, so the monitor consumes raw cumulative counters (reboots,
 * checkpoint commits).
 */

#ifndef EDB_SIM_PROGRESS_HH
#define EDB_SIM_PROGRESS_HH

#include <cstdint>

namespace edb::sim {

class SnapshotWriter;
class SnapshotReader;
class StateIo;

/**
 * No-forward-progress detector for intermittent executions.
 *
 * Fed cumulative (reboot, checkpoint-commit) counters, it trips when
 * the target reboots `maxReboots` times without a single checkpoint
 * commit in between — the signature of a non-terminating reboot loop
 * (a task too energy-expensive to ever complete, or NV state
 * corrupted into a crash loop).
 */
class ProgressMonitor
{
  public:
    explicit ProgressMonitor(std::uint64_t max_reboots_without_commit)
        : maxReboots(max_reboots_without_commit)
    {
    }

    /**
     * Update with the target's cumulative counters.
     * @return true when the monitor is (now) tripped.
     */
    bool update(std::uint64_t reboots, std::uint64_t commits);

    bool tripped() const { return tripped_; }
    std::uint64_t rebootsSinceCommit() const { return sinceCommit; }
    std::uint64_t threshold() const { return maxReboots; }

    /** Re-baseline after a rewind (counters jump backwards). */
    void rebase(std::uint64_t reboots, std::uint64_t commits);

    /// @name Snapshot support
    /// Alternative to rebase(): restoring the monitor with the target
    /// keeps the partial reboots-since-commit window, so a replayed
    /// stall trips at exactly the recorded tick.
    /// @{
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);
    /// @}

  private:
    /** Snapshot fields, both directions; the pair above wraps it. */
    void state(StateIo &io);

    std::uint64_t maxReboots;
    std::uint64_t lastReboots = 0;
    std::uint64_t lastCommits = 0;
    std::uint64_t sinceCommit = 0;
    bool primed = false;
    bool tripped_ = false;
};

} // namespace edb::sim

#endif // EDB_SIM_PROGRESS_HH
