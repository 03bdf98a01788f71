#include "sim/progress.hh"

#include "sim/snapshot.hh"

namespace edb::sim {

bool
ProgressMonitor::update(std::uint64_t reboots, std::uint64_t commits)
{
    if (!primed) {
        rebase(reboots, commits);
        return tripped_;
    }
    if (commits > lastCommits) {
        lastCommits = commits;
        lastReboots = reboots;
        sinceCommit = 0;
        tripped_ = false;
    } else if (reboots >= lastReboots) {
        sinceCommit = reboots - lastReboots;
    } else {
        // Counters went backwards without a rebase: treat as one.
        rebase(reboots, commits);
        return tripped_;
    }
    if (sinceCommit >= maxReboots)
        tripped_ = true;
    return tripped_;
}

void
ProgressMonitor::rebase(std::uint64_t reboots, std::uint64_t commits)
{
    lastReboots = reboots;
    lastCommits = commits;
    sinceCommit = 0;
    primed = true;
    tripped_ = false;
}

void
ProgressMonitor::saveState(SnapshotWriter &w) const
{
    w.section("pmon");
    w.u64(maxReboots);
    w.u64(lastReboots);
    w.u64(lastCommits);
    w.u64(sinceCommit);
    w.boolean(primed);
    w.boolean(tripped_);
}

void
ProgressMonitor::restoreState(SnapshotReader &r)
{
    if (!r.section("pmon"))
        return;
    maxReboots = r.u64();
    lastReboots = r.u64();
    lastCommits = r.u64();
    sinceCommit = r.u64();
    primed = r.boolean();
    tripped_ = r.boolean();
}

} // namespace edb::sim
