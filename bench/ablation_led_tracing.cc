/**
 * @file
 * Ablation for paper Section 2.2's LED-tracing claim: "Powering an
 * LED increases the WISP's current draw by five times, from around
 * 1 mA to over 5 mA... LED-based tracing does not work in
 * energy-harvesting devices, because LEDs are power-hungry and
 * their energy use changes the execution's behavior."
 *
 * Runs the linked-list app with GPIO progress signalling vs LED
 * progress signalling and compares current draw, throughput and
 * intermittent behaviour.
 */

#include <cstdio>

#include "apps/linked_list.hh"
#include "bench/common.hh"

using namespace edb;

namespace {

struct RunStats
{
    std::uint32_t iters;
    std::uint64_t boots;
    std::uint64_t blinks;
    double dutyOn;
};

RunStats
run(bool led_tracing, std::uint64_t seed)
{
    apps::LinkedListOptions options;
    options.ledTracing = led_tracing;
    bench::Rig rig(seed);
    rig.wisp.flash(apps::buildLinkedListApp(options));
    rig.wisp.start();

    sim::Tick on_time = 0;
    constexpr sim::Tick step = sim::oneMs;
    constexpr sim::Tick total = 10 * sim::oneSec;
    for (sim::Tick t = 0; t < total; t += step) {
        rig.sim.runFor(step);
        if (rig.wisp.state() == mcu::McuState::Running)
            on_time += step;
    }
    return {rig.wisp.mcu().debugRead32(
                apps::linked_list_layout::iterCountAddr),
            rig.wisp.power().bootCount(),
            rig.wisp.led().blinkCount(),
            double(on_time) / double(total)};
}

} // namespace

int
main()
{
    bench::banner("Ablation: LED-based tracing vs GPIO signalling "
                  "(linked-list app, 10 s harvested)");

    const double base = mcu::Mcu::activeAmps;
    const double led_amps = target::Wisp::ledAmps;
    std::printf("current draw: active %.1f mA; with LED lit %.1f mA "
                "(%.1fx)\n",
                base * 1e3, (base + led_amps) * 1e3,
                (base + led_amps) / base);
    std::printf("(paper: ~1 mA -> over 5 mA, five times)\n\n");

    auto gpio = run(false, 4001);
    auto led = run(true, 4002);
    std::printf("%-16s %12s %8s %10s %10s\n", "", "iterations",
                "boots", "blinks", "on-duty");
    std::printf("%-16s %12u %8llu %10llu %9.0f%%\n", "GPIO tracing",
                gpio.iters, (unsigned long long)gpio.boots,
                (unsigned long long)gpio.blinks,
                gpio.dutyOn * 100.0);
    std::printf("%-16s %12u %8llu %10llu %9.0f%%\n", "LED tracing",
                led.iters, (unsigned long long)led.boots,
                (unsigned long long)led.blinks, led.dutyOn * 100.0);
    if (gpio.iters > 0) {
        std::printf("\nLED tracing completes %.0f%% of the GPIO "
                    "variant's iterations: the act of\nobserving "
                    "changes the intermittent execution (shorter "
                    "discharge phases,\nmore reboots per unit of "
                    "work).\n",
                    100.0 * double(led.iters) / double(gpio.iters));
    }
    return 0;
}
