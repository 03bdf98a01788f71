/**
 * @file
 * edb-episode: the paper's rig. One WISP on RF power (30 dBm, 1 m)
 * with an EDB board attached, running the activity app built with
 * libEDB printf. One op is one Table 3 episode: charge to 2.4 V, let
 * the target run on its own charge until the 2.3 V energy breakpoint
 * opens a session, read the app's FRAM counters over the debug link,
 * then resume and wait until the saved energy is restored. Every
 * episode is the same unit of work (about 46 ms simulated). This is
 * the only workload where the board's charge loop, protocol and
 * session, the MMIO peripherals and the RF harvester do work.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "apps/activity.hh"
#include "edb/board.hh"
#include "energy/harvester.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace edb;

constexpr double chargeVolts = 2.4;
constexpr double breakVolts = 2.3;
/** Largest |Vrestored - Vsaved| a correct resume may leave. Paper
 *  Table 3 measures 54 mV mean with a 16 mV deviation; this is about
 *  six deviations above the mean. */
constexpr double restoreToleranceVolts = 0.15;
/** Bytes of the app's FRAM record read per episode: the magic word
 *  and the total/moving/still/started counters. */
constexpr std::uint16_t recordBytes = 20;

std::uint32_t
le32(const std::vector<std::uint8_t> &b, std::size_t at)
{
    return b[at] | (b[at + 1] << 8) | (b[at + 2] << 16) |
           (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

class EdbEpisode : public Workload
{
  public:
    explicit EdbEpisode(std::uint64_t seed)
        : sim(seed), rf(30.0, 1.0), wisp(sim, "wisp", &rf, nullptr),
          board(sim, "edb", wisp, nullptr)
    {
        apps::ActivityOptions app;
        app.output = apps::ActivityOutput::EdbPrintf;
        wisp.flash(apps::buildActivityApp(app));
        wisp.start();
        board.enableEnergyBreakpoint(breakVolts);
        // The passive trace buffer keeps every record it is given;
        // retained, it would grow with the op count and tie peak RSS
        // to the run's length rather than to the episode's footprint.
        board.traceBuffer().setEnabled(false);
        // Warm-up: two full episodes fill the predecode cache with
        // the app, libEDB's printf and its session service loop.
        Tracer off(false);
        for (int i = 0; i < 2; ++i) {
            if (!op(off)) {
                std::fprintf(stderr, "edb-episode: warm-up episode "
                                     "failed\n");
                std::exit(1);
            }
        }
        instrs0 = wisp.mcu().instrCount();
        printfs0 = board.printfCount();
        retries0 = linkRetries();
        boots0 = wisp.power().bootCount();
        brownOuts0 = wisp.power().brownOutCount();
        dvSumMv = 0.0;
    }

    bool
    op(Tracer &t) override
    {
        bool ok = true;
        step(t, "edb.charge", "edb.charge_sim_ms",
             [&] { ok &= board.chargeTo(chargeVolts, sim::oneSec); });
        step(t, "edb.wait_break", "edb.wait_break_sim_ms",
             [&] { ok &= board.waitForSession(sim::oneSec); });
        edbdbg::DebugSession *session = board.session();
        if (!ok || !session ||
            session->reason() != edbdbg::SessionReason::EnergyBreakpoint)
            return false;

        std::optional<std::vector<std::uint8_t>> record;
        step(t, "edb.read", "edb.read_sim_ms", [&] {
            record = session->readBytes(apps::activity_layout::magicAddr,
                                        recordBytes);
        });
        ok &= record && record->size() == recordBytes &&
              le32(*record, 0) == apps::activity_layout::magicValue;
        if (ok)
            lastRecord = *record;

        step(t, "edb.resume", "edb.resume_sim_ms", [&] {
            session->resume();
            ok &= board.waitPassive(sim::oneSec);
        });
        const double dv =
            board.trueRestoredVolts() - board.trueSavedVolts();
        dvSumMv += dv * 1e3;
        return ok && board.passive() &&
               std::fabs(dv) <= restoreToleranceVolts;
    }

    void
    fold(Digest &d) override
    {
        d.add(static_cast<std::uint64_t>(sim.now()));
        d.add(wisp.mcu().instrCount());
        for (std::size_t at = 0; at + 4 <= lastRecord.size(); at += 4)
            d.add(std::uint64_t{le32(lastRecord, at)});
        d.addDouble(board.trueSavedVolts());
        d.addDouble(board.trueRestoredVolts());
        d.add(board.printfCount());
    }

    void
    counts(unsigned ops, Metrics &out) override
    {
        const double n = ops;
        out.set("mcu.instrs_per_op",
                static_cast<double>(wisp.mcu().instrCount() - instrs0) / n,
                "instr");
        out.set("edb.printfs",
                static_cast<double>(board.printfCount() - printfs0) / n,
                "count");
        out.set("edb.link_retries",
                static_cast<double>(linkRetries() - retries0) / n,
                "count");
        out.set("edb.restore_dv_mv", dvSumMv / n, "mV");
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
    /** Run one board call inside span `span` and record the simulated
     *  milliseconds it consumed as sample `sim_ms`. */
    template <class Call>
    void
    step(Tracer &t, const char *span, const char *sim_ms, Call &&call)
    {
        const sim::Tick at = sim.now();
        {
            Span s(t, span);
            call();
        }
        t.sample(sim_ms, sim::millisFromTicks(sim.now() - at), "sim_ms");
    }

    std::uint64_t
    linkRetries() const
    {
        const edbdbg::LinkStats &l = board.linkStats();
        return l.probes + l.ackRetransmits + l.readRetries +
               l.writeRetries + l.resumeRetries;
    }

    sim::Simulator sim;
    energy::RfHarvester rf;
    target::Wisp wisp;
    edbdbg::EdbBoard board;
    std::vector<std::uint8_t> lastRecord;
    std::uint64_t instrs0 = 0;
    std::uint64_t printfs0 = 0;
    std::uint64_t retries0 = 0;
    std::uint64_t boots0 = 0;
    std::uint64_t brownOuts0 = 0;
    double dvSumMv = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeEdbEpisode(std::uint64_t seed)
{
    return std::make_unique<EdbEpisode>(seed);
}

} // namespace perfbench
