/**
 * @file
 * The three workloads. Each is a closed loop in one process; each op
 * is a fixed unit of simulated work and is checked when it ends.
 *
 * Construction is the set-up: building the objects, assembling,
 * flashing, booting and warm-up. The simulator's code caches are
 * warm when the constructor returns.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hh"

namespace perfbench {

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Run one op. @return true when the op's check passed. */
    virtual bool op(Tracer &tracer) = 0;

    /** Fold the exact simulated state after an op into `d`. */
    virtual void fold(Digest &d) = 0;

    /** Work counts accumulated since set-up ended, each a per-op
     *  mean over `ops` ops. Exact for a seed. */
    virtual void counts(unsigned ops, Metrics &out) = 0;

    /** Tag worlds the set-up built (fleet-debug only). */
    virtual unsigned worlds() const { return 0; }
};

struct WorkloadDef
{
    const char *name;
    /** Op latency on the wall clock (the op ends at a thread-pool
     *  barrier) instead of the driving thread's CPU clock. */
    bool wallClockOps;
    std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

std::unique_ptr<Workload> makeDeviceSteady(std::uint64_t seed);
std::unique_ptr<Workload> makeEdbEpisode(std::uint64_t seed);
std::unique_ptr<Workload> makeFleetDebug(std::uint64_t seed);

/** Every workload, in documentation order. */
inline constexpr WorkloadDef workloads[] = {
    {"device-steady", false, makeDeviceSteady},
    {"edb-episode", false, makeEdbEpisode},
    {"fleet-debug", true, makeFleetDebug},
};

/** Time each single-call probe and add its figures to `out`.
 *  @return false when a probed call reported an error. */
bool runProbes(Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
