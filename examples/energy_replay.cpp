/**
 * @file
 * Record-and-replay debugging: capture a problematic energy
 * environment with the Ekho-style recorder, then replay it
 * deterministically while debugging with EDB.
 *
 * The paper's related work (Section 6.1) positions Ekho as
 * complementary: "Ekho can reproduce problematic program behavior,
 * but it cannot offer insight into this behavior. Complementary to
 * Ekho's features, EDB offers debugging mechanisms for inspecting
 * the program state." This example does exactly that composition:
 * the field environment is recorded once, the bug reproduces under
 * replay, and EDB diagnoses it.
 */

#include <cstdio>
#include <sstream>

#include "apps/linked_list.hh"
#include "edb/board.hh"
#include "energy/ekho.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

int
main()
{
    // ---- Phase 1: in the "field": record the energy environment
    // while the bug manifests.
    energy::HarvestTrace trace;
    {
        sim::Simulator simulator(501);
        // A harsh, time-varying environment: the reader-to-tag
        // distance drifts as the tag moves. The source resistance is
        // interpolated between these points and held after the last.
        const energy::HarvestSample points[] = {
            {0.0, 3.2, 3000.0}, {2.0, 3.2, 5200.0}, {4.0, 3.2, 3600.0},
            {6.0, 3.2, 6500.0}, {8.0, 3.2, 4000.0},
        };
        energy::HarvestTrace profile;
        for (const auto &point : points)
            profile.add(point);
        energy::RecordedHarvester field(profile, /*loop=*/false);
        target::Wisp wisp(simulator, "wisp", &field, nullptr);
        wisp.flash(apps::buildLinkedListApp());
        energy::HarvestRecorder recorder(simulator, "ekho", field,
                                         20 * sim::oneMs);
        recorder.start();
        wisp.start();
        simulator.runFor(8 * sim::oneSec);
        trace = recorder.trace();
        std::printf("field run: %llu reboots, %llu faults -- the bug "
                    "showed up; recorded %zu energy samples "
                    "(%.1f s)\n",
                    (unsigned long long)wisp.power().bootCount(),
                    (unsigned long long)wisp.mcu().faultCount(),
                    trace.size(), trace.durationSeconds());
    }

    // The trace round-trips through CSV, as a file would.
    std::stringstream csv;
    trace.writeCsv(csv);
    auto loaded = energy::HarvestTrace::readCsv(csv);
    std::printf("trace serialized and reloaded: %zu samples\n\n",
                loaded.size());

    // ---- Phase 2: on the bench: replay the recorded environment
    // with EDB attached and the assert compiled in.
    {
        sim::Simulator simulator(502);
        energy::RecordedHarvester replay(loaded, /*loop=*/true);
        target::Wisp wisp(simulator, "wisp", &replay, nullptr);
        edbdbg::EdbBoard edb(simulator, "edb", wisp);
        apps::LinkedListOptions options;
        options.withAssert = true;
        wisp.flash(apps::buildLinkedListApp(options));
        wisp.start();
        if (!edb.waitForSession(60 * sim::oneSec)) {
            std::printf("bug did not reproduce under replay\n");
            return 1;
        }
        std::printf("replay run: assert id %u fired at t=%.1f ms "
                    "under the *recorded* environment\n",
                    edb.session()->id(),
                    sim::millisFromTicks(simulator.now()));
        auto tail = edb.session()->read32(
            apps::linked_list_layout::tailPtrAddr);
        auto tail_next = tail ? edb.session()->read32(*tail)
                              : std::nullopt;
        std::printf("diagnosis over the live session: tailptr=0x%04x "
                    "tail->next=0x%04x (stale tail after an "
                    "interrupted append)\n",
                    tail.value_or(0), tail_next.value_or(0));
        edb.session()->resume();
        edb.waitPassive(sim::oneSec);
        std::printf("\nEkho reproduces the behaviour; EDB explains "
                    "it. (Paper Section 6.1.)\n");
    }
    return 0;
}
