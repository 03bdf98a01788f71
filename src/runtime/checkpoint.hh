/**
 * @file
 * Mementos/QuickRecall-style checkpointing runtime (target side).
 *
 * The paper assumes "a checkpointing mechanism that periodically
 * collects a checkpoint of volatile execution context (i.e., register
 * file and stack) like prior work [11, 20, 24]" (Section 2). This
 * runtime provides the target-side assembly: a voltage-conditional
 * checkpoint (Mementos-style: measure Vcap with the on-chip ADC and
 * checkpoint when it falls below a threshold) and an unconditional
 * checkpoint, both built on the hardware checkpoint unit (QuickRecall
 * style).
 *
 * Routines (same convention as libEDB: args r1.., r0-r4 scratch):
 *
 *   rt_checkpoint            unconditional checkpoint; r0 = success
 *   rt_checkpoint_if_low     r1 = ADC threshold code; checkpoints
 *                            only when Vcap reads strictly below it
 *                            (a reading equal to the threshold does
 *                            not checkpoint). r0 = 1 if a checkpoint
 *                            was taken.
 */

#ifndef EDB_RUNTIME_CHECKPOINT_HH
#define EDB_RUNTIME_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "mcu/adc.hh"
#include "sim/snapshot.hh"

namespace edb::runtime {

/**
 * Checkpoint frame format shared by the hardware checkpoint unit
 * (mcu/mcu.cc), the NV consistency auditor and the tests. Two frames
 * (slots) live back to back at `McuConfig::checkpointBase`; commits
 * double-buffer between them and a restore picks the winner by
 * sequence number (DESIGN.md §11 has the full commit state machine).
 *
 * Frame layout, word offsets from the slot base:
 *
 *   +0   magic       "CHKP"
 *   +4   seq         commit sequence number (written last)
 *   +8   pc          resume address
 *   +12  flags
 *   +16  sp
 *   +20  stackLen    bytes of stack image
 *   +24  r0..r15
 *   +88  stack image (stackLen bytes)
 *   +align4          seal (Sealed discipline only): CRC-32 of the
 *                    payload, seeded with seq
 *
 * The seal binds payload and sequence number together: a torn commit
 * can never produce a frame whose stored seal matches a CRC computed
 * with its stored seq, so the boot-time recovery scan detects it and
 * falls back to the previous sealed frame.
 */
namespace ckfmt {

constexpr std::uint32_t magic = 0x43484B50; // "CHKP"
constexpr std::uint32_t magicOff = 0;
constexpr std::uint32_t seqOff = 4;
constexpr std::uint32_t pcOff = 8;
constexpr std::uint32_t flagsOff = 12;
constexpr std::uint32_t spOff = 16;
constexpr std::uint32_t stackLenOff = 20;
constexpr std::uint32_t regsOff = 24;
constexpr std::uint32_t stackOff = regsOff + 16 * 4;

constexpr std::uint32_t
align4(std::uint32_t n)
{
    return (n + 3u) & ~3u;
}

/** Offset of the Sealed discipline's seal word. */
constexpr std::uint32_t
sealOff(std::uint32_t stack_bytes)
{
    return stackOff + align4(stack_bytes);
}

/**
 * The seal: CRC-32 of the frame payload ([pc, end-of-stack)), seeded
 * with the commit sequence number. `frame` points at the slot base.
 */
inline std::uint32_t
frameCrc(const std::uint8_t *frame, std::uint32_t stack_bytes,
         std::uint32_t seq)
{
    return sim::crc32(frame + pcOff, stackOff - pcOff + stack_bytes,
                      seq);
}

} // namespace ckfmt

/** Assembly source of the checkpointing runtime. */
std::string checkpointSource();

/**
 * ADC code corresponding to a capacitor voltage; the defaults are the
 * target's on-chip ADC (mcu::Adc).
 */
unsigned adcCodeForVolts(double volts, unsigned bits = mcu::Adc::bits,
                         double vref_volts = mcu::Adc::vrefVolts);

} // namespace edb::runtime

#endif // EDB_RUNTIME_CHECKPOINT_HH
