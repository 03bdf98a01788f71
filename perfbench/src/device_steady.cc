/**
 * @file
 * device-steady: one WISP on a stiff bench supply that never browns
 * out, running the linked-list app with harvest noise on. One op is
 * 1 ms of simulated time (about 1,930 instructions), so nearly all
 * the work is the per-instruction path: mcu dispatch, the energy
 * model's Euler sub-step with its gaussian draw, and mem. Events,
 * boots, EDB and the fleet do none.
 */

#include "apps/linked_list.hh"
#include "energy/harvester.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace edb;

class DeviceSteady : public Workload
{
  public:
    explicit DeviceSteady(std::uint64_t seed)
        : sim(seed), supply(3.0, 200.0),
          wisp(sim, "wisp", &supply, nullptr)
    {
        wisp.flash(apps::buildLinkedListApp());
        wisp.start();
        // Charge to turn-on (~15 ms), boot, then run long enough to
        // touch every code word the app executes.
        sim.runFor(50 * sim::oneMs);
        instrs0 = wisp.mcu().instrCount();
        cycles0 = wisp.mcu().cycleCount();
        boots0 = wisp.power().bootCount();
        brownOuts0 = wisp.power().brownOutCount();
    }

    bool
    op(Tracer &) override
    {
        const std::uint64_t before = wisp.mcu().instrCount();
        sim.runFor(sim::oneMs);
        return wisp.state() == mcu::McuState::Running &&
               wisp.mcu().fault() == mcu::McuFault::None &&
               wisp.mcu().instrCount() > before;
    }

    void
    fold(Digest &d) override
    {
        d.add(wisp.mcu().instrCount());
        d.add(wisp.mcu().cycleCount());
        d.add(std::uint64_t{wisp.mcu().pc()});
        d.add(wisp.mcu().rebootCount());
        d.add(wisp.power().brownOutCount());
        d.addDouble(wisp.power().voltageNoAdvance());
        d.addDouble(wisp.power().cumulativeChargeIn());
    }

    void
    counts(unsigned ops, Metrics &out) override
    {
        const double n = ops;
        out.set("mcu.instrs_per_op",
                static_cast<double>(wisp.mcu().instrCount() - instrs0) / n,
                "instr");
        out.set("mcu.cycles_per_op",
                static_cast<double>(wisp.mcu().cycleCount() - cycles0) / n,
                "cycle");
        out.set("energy.boots",
                static_cast<double>(wisp.power().bootCount() - boots0) / n,
                "count");
        out.set("energy.brown_outs",
                static_cast<double>(wisp.power().brownOutCount() -
                                    brownOuts0) /
                    n,
                "count");
    }

  private:
    sim::Simulator sim;
    energy::TheveninHarvester supply;
    target::Wisp wisp;
    std::uint64_t instrs0 = 0;
    std::uint64_t cycles0 = 0;
    std::uint64_t boots0 = 0;
    std::uint64_t brownOuts0 = 0;
};

} // namespace

std::unique_ptr<Workload>
makeDeviceSteady(std::uint64_t seed)
{
    return std::make_unique<DeviceSteady>(seed);
}

} // namespace perfbench
