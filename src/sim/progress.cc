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
    StateIo io(w);
    const_cast<ProgressMonitor &>(*this).state(io); // saving only reads
}

void
ProgressMonitor::restoreState(SnapshotReader &r)
{
    StateIo io(r);
    state(io);
}

void
ProgressMonitor::state(StateIo &io)
{
    if (!io.section("pmon"))
        return;
    io.u64(maxReboots);
    io.u64(lastReboots);
    io.u64(lastCommits);
    io.u64(sinceCommit);
    io.boolean(primed);
    io.boolean(tripped_);
}

} // namespace edb::sim
