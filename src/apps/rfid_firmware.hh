/**
 * @file
 * WISP RFID firmware (paper Section 5.3.4, Fig 12).
 *
 * Decodes RFID query commands from the reader in software and
 * replies with a unique identifier (EPC). Each successful reply
 * toggles GPIO pin 0 and optionally emits a watchpoint, so EDB can
 * correlate protocol activity with the energy trace.
 */

#ifndef EDB_APPS_RFID_FIRMWARE_HH
#define EDB_APPS_RFID_FIRMWARE_HH

#include <array>
#include <cstdint>

#include "isa/program.hh"

namespace edb::apps {

/** Build options. */
struct RfidFirmwareOptions
{
    /** Emit watchpoint 1 after each successful reply. */
    bool withWatchpoints = false;
};

/** Watchpoint ids. */
namespace rfid_ids {
constexpr unsigned wpReplied = 1;
}

/** FRAM counters. */
namespace rfid_layout {
constexpr std::uint32_t magicAddr = 0x5000;
constexpr std::uint32_t decodedAddr = 0x5004; ///< Valid cmds decoded.
constexpr std::uint32_t repliedAddr = 0x5008; ///< Replies sent.
constexpr std::uint32_t magicValue = 0x4F1D0001;
} // namespace rfid_layout

/** The 12-byte EPC identifier the firmware replies with. */
constexpr std::array<std::uint8_t, 12> wispEpc = {
    0xE2, 0x00, 0x10, 0x64, 0x0B, 0x01,
    0x57, 0x15, 0x90, 0x20, 0x00, 0x5A,
};

/** Assemble the firmware. */
isa::Program buildRfidFirmware(const RfidFirmwareOptions &options = {});

/** The raw assembly text. */
std::string rfidFirmwareSource(const RfidFirmwareOptions &options = {});

} // namespace edb::apps

#endif // EDB_APPS_RFID_FIRMWARE_HH
