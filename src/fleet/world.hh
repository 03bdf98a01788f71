/**
 * @file
 * One world of a fleet: an isolated, deterministic simulation of a
 * single tag (Simulator + harvester + Wisp, optionally an NV
 * auditor), advanced in bounded epochs by the fleet's thread pool.
 *
 * Isolation contract: between `planEpoch` (sequential, at the epoch
 * barrier) and the barrier's completion, a world is touched by
 * exactly one pool worker, and nothing a world owns is reachable
 * from any other world — its Simulator, RNG, memories and
 * peripherals are all instance state. Worlds share no mutable
 * object.
 *
 * A world lives at one address for the fleet's whole life. The
 * shard rebalancer only changes which pool shard the world's task is
 * queued on, so a migration moves no state and cannot perturb the
 * world's trajectory (the determinism suite pins this).
 */

#ifndef EDB_FLEET_WORLD_HH
#define EDB_FLEET_WORLD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/harvester.hh"
#include "mem/nv_audit.hh"
#include "rfid/channel.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

namespace edb::fleet {

/** Per-world construction parameters (derived by the Fleet). */
struct WorldConfig
{
    /** Fleet-wide tag id (also the arbiter's identity). */
    std::uint32_t id = 0;
    /** Derived world seed (sim::deriveSeed(fleetSeed, id)). */
    std::uint64_t seed = 1;
    /** This tag's distance to the reader. */
    double distanceM = 1.0;
    /** Target device configuration. */
    target::WispConfig wisp = {};
    /** Attach the WAR consistency auditor. */
    bool withAuditor = false;
    /** Forced brown-out schedule (auditor sweeps). */
    std::vector<sim::BrownOut> schedule;
    /** PC of the WAR gadget's completion label (0 = no watch).
     *  Installs a tracer, which the world's slices call after every
     *  instruction. */
    mem::Addr warDoneWatch = 0;
};

/** Architectural end-state digest, schedule- and shard-invariant
 *  (raw event-queue ids are deliberately excluded). */
struct WorldDigest
{
    std::uint32_t crc = 0;
    std::uint64_t instrs = 0;
    std::uint64_t reboots = 0;

    bool operator==(const WorldDigest &) const = default;
};

/** See file header. */
class World
{
  public:
    /** Reader transmit power seen by every tag (paper setup:
     *  30 dBm). */
    static constexpr double txPowerDbm = 30.0;
    /**
     * Post-collision backoff: a collided tag loses this fraction of
     * the next epoch's carrier (the reader spends it re-arbitrating
     * with others), coupling channel contention back into the energy
     * model.
     */
    static constexpr double collisionBackoff = 0.5;

    World(const isa::Program &program, const WorldConfig &config);

    /** Begin execution; call once. */
    void start();

    /**
     * Sequential barrier phase: stage the next epoch. Sets the
     * carrier window for [epoch_start, epoch_end) — the fraction of
     * the epoch the reader illuminates this tag (duty cycle minus
     * any post-collision backoff).
     */
    void planEpoch(sim::Tick epoch_start, sim::Tick epoch_end,
                   double carrier_fraction);

    /** Worker-thread phase: run the local event loop to the barrier. */
    void advanceTo(sim::Tick epoch_end);

    /** Did the tag retire instructions this epoch (reply attempt)? */
    bool attemptedUplink() const;

    /** Barrier feedback from the arbiter. */
    void noteOutcome(rfid::SlotOutcome outcome);

    /** Architectural end-state digest. */
    WorldDigest digest() const;

    /// @name Accessors
    /// @{
    const WorldConfig &config() const { return cfg; }
    target::Wisp &wisp() { return *wisp_; }
    const target::Wisp &wisp() const { return *wisp_; }
    mem::NvAuditor *auditor() { return aud.get(); }
    const mem::NvAuditor *auditor() const { return aud.get(); }
    /// @}

    /// @name Fleet-visible statistics
    /// @{
    std::uint64_t instrCount() const;
    std::uint64_t instrsThisEpoch() const;
    /** Power losses observed after the WAR gadget completed. */
    std::uint64_t lossesAfterGadget() const { return lossAfterGadget; }
    /// @}

  private:
    void installHooks();

    WorldConfig cfg;
    sim::Simulator sim;
    energy::RfHarvester harvester;
    std::unique_ptr<target::Wisp> wisp_;
    std::unique_ptr<mem::NvAuditor> aud;
    /** Forces `cfg.schedule`; absent when the schedule is empty. */
    std::unique_ptr<sim::FaultInjector> faults;

    std::uint64_t instrsAtEpochStart = 0;
    bool backoff = false;

    std::uint64_t replies = 0;
    std::uint64_t collided = 0;
    std::uint64_t attempts = 0;

    bool gadgetLive = false;
    std::uint64_t lossAfterGadget = 0;
};

} // namespace edb::fleet

#endif // EDB_FLEET_WORLD_HH
