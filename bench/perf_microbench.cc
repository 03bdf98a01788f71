/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself:
 * interpreter throughput, analog integration cost, event-queue
 * overhead and assembler speed. These characterize the substrate,
 * not the paper's results.
 */

#include <benchmark/benchmark.h>

#include "apps/linked_list.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "runtime/libedb.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

target::WispConfig
engineConfig(energy::Engine engine, bool noise_free)
{
    target::WispConfig config;
    config.power.engine = engine;
    // The noise-free pair isolates the interpreter from the analog
    // model's per-sub-step gaussian draw, which bounds both engines'
    // throughput once the instruction dispatch itself is cheap.
    if (noise_free)
        config.power.harvestNoiseSigma = 0.0;
    return config;
}

/** Instruction throughput of one engine on bench power. */
void
throughputBench(benchmark::State &state, energy::Engine engine,
                bool noise_free)
{
    sim::Simulator simulator(1);
    energy::TheveninHarvester supply(3.0, 200.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr,
                      engineConfig(engine, noise_free));
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();
    simulator.runFor(10 * sim::oneMs); // boot
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        std::uint64_t before = wisp.mcu().instrCount();
        simulator.runFor(10 * sim::oneMs);
        instrs += wisp.mcu().instrCount() - before;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}

/** The engine matrix: each engine with harvest noise on and off.
 *  BM_Throughput_Fast is the default configuration, which earlier
 *  reports list as BM_InterpreterThroughput. */
void
BM_Throughput_Reference(benchmark::State &state)
{
    throughputBench(state, energy::Engine::Reference, false);
}
BENCHMARK(BM_Throughput_Reference)->Unit(benchmark::kMillisecond);

void
BM_Throughput_Fast(benchmark::State &state)
{
    throughputBench(state, energy::Engine::Fast, false);
}
BENCHMARK(BM_Throughput_Fast)->Unit(benchmark::kMillisecond);

void
BM_Throughput_ReferenceNoiseFree(benchmark::State &state)
{
    throughputBench(state, energy::Engine::Reference, true);
}
BENCHMARK(BM_Throughput_ReferenceNoiseFree)
    ->Unit(benchmark::kMillisecond);

void
BM_Throughput_FastNoiseFree(benchmark::State &state)
{
    throughputBench(state, energy::Engine::Fast, true);
}
BENCHMARK(BM_Throughput_FastNoiseFree)->Unit(benchmark::kMillisecond);

/** Full intermittent-system simulation (analog + MCU + reboots). */
void
BM_IntermittentSimulation(benchmark::State &state)
{
    sim::Simulator simulator(2);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf, nullptr);
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();
    for (auto _ : state)
        simulator.runFor(10 * sim::oneMs);
    state.counters["sim_ms/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 10.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IntermittentSimulation)->Unit(benchmark::kMillisecond);

/** Event queue schedule/run cost. */
void
BM_EventQueue(benchmark::State &state)
{
    sim::EventQueue queue;
    sim::Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            queue.schedule(now + 1 + i, [&fired] { ++fired; });
        while (queue.runOne(now)) {
        }
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueue);

/** Assembler speed on the largest guest program. */
void
BM_AssembleLinkedList(benchmark::State &state)
{
    std::string source = apps::linkedListSource();
    for (auto _ : state) {
        auto program = isa::assemble(source);
        benchmark::DoNotOptimize(program.totalBytes());
    }
}
BENCHMARK(BM_AssembleLinkedList)->Unit(benchmark::kMicrosecond);

/** Analog power-system integration step cost. */
void
BM_PowerIntegration(benchmark::State &state)
{
    sim::Simulator simulator(3);
    energy::RfHarvester rf(30.0, 1.0);
    energy::PowerSystem power(simulator, "power", {}, &rf);
    power.addLoad("load", 0.5e-3, true);
    sim::Tick t = 0;
    for (auto _ : state) {
        t += 100 * sim::oneUs;
        power.advanceTo(t);
    }
    benchmark::DoNotOptimize(power.voltageNoAdvance());
}
BENCHMARK(BM_PowerIntegration);

} // namespace

BENCHMARK_MAIN();
