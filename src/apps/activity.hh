/**
 * @file
 * Activity-recognition application (paper Fig 10, Section 5.3.3,
 * Table 4, Fig 11).
 *
 * Each iteration samples a window of accelerometer readings over
 * I2C, classifies the window as "stationary" or "moving" with a
 * nearest-centroid-style magnitude-deviation test, and records the
 * statistics in non-volatile memory. Instrumentation variants: no
 * output, UART printf (on-target formatting, real wire time and
 * energy) or EDB printf (energy-interference-free).
 *
 * Watchpoints: id 1 at iteration start, id 2 on "stationary", id 3
 * on "moving" — the pairs (1,2) and (1,3) give the per-iteration
 * time and energy profile of Fig 11.
 */

#ifndef EDB_APPS_ACTIVITY_HH
#define EDB_APPS_ACTIVITY_HH

#include "isa/program.hh"

namespace edb::apps {

/** Debug-output variant. */
enum class ActivityOutput
{
    None,       ///< Release build: no output.
    UartPrintf, ///< Formats + transmits over the console UART.
    EdbPrintf,  ///< libEDB printf (implicit energy guard).
};

/** Build options. */
struct ActivityOptions
{
    ActivityOutput output = ActivityOutput::None;
    /** Insert watchpoints 1/2/3 (EDB program-event tracing). */
    bool withWatchpoints = true;
};

/** Watchpoint ids. */
namespace activity_ids {
constexpr unsigned wpIterStart = 1;
constexpr unsigned wpStationary = 2;
constexpr unsigned wpMoving = 3;
} // namespace activity_ids

/** FRAM data addresses. */
namespace activity_layout {
constexpr std::uint32_t magicAddr = 0x5000;
constexpr std::uint32_t totalAddr = 0x5004;   ///< Completed iterations.
constexpr std::uint32_t movingAddr = 0x5008;  ///< "Moving" windows.
constexpr std::uint32_t stillAddr = 0x500C;   ///< "Stationary" windows.
constexpr std::uint32_t startedAddr = 0x5010; ///< Attempted iterations.
constexpr std::uint32_t argvAddr = 0x5020;    ///< printf argv buffer.
constexpr std::uint32_t magicValue = 0xAC71F17E;
} // namespace activity_layout

/** Assemble the application. */
isa::Program buildActivityApp(const ActivityOptions &options = {});

/** The raw assembly text. */
std::string activitySource(const ActivityOptions &options = {});

} // namespace edb::apps

#endif // EDB_APPS_ACTIVITY_HH
