#include "apps/rfid_firmware.hh"

#include <sstream>

#include "isa/assembler.hh"
#include "rfid/protocol.hh"
#include "runtime/libedb.hh"

namespace edb::apps {

namespace {

/** Busy-loop iterations modelling the software decode cost. */
constexpr unsigned decodeCostLoops = 50;

} // namespace

std::string
rfidFirmwareSource(const RfidFirmwareOptions &options)
{
    namespace lay = rfid_layout;
    std::ostringstream s;
    s << runtime::programHeader();
    s << ".equ R_MAGIC, " << lay::magicAddr << "\n"
      << ".equ R_DECODED, " << lay::decodedAddr << "\n"
      << ".equ R_REPLIED, " << lay::repliedAddr << "\n"
      << ".equ R_MAGICV, " << lay::magicValue << "\n"
      << ".equ MSG_QUERY, "
      << unsigned(rfid::MsgType::CmdQuery) << "\n"
      << ".equ MSG_QUERYREP, "
      << unsigned(rfid::MsgType::CmdQueryRep) << "\n"
      << ".equ MSG_RSP, "
      << unsigned(rfid::MsgType::RspGeneric) << "\n"
      << ".equ DECODE_LOOPS, " << decodeCostLoops << "\n";

    s << R"(
main:
    la   r0, R_MAGIC
    ldw  r1, [r0]
    la   r2, R_MAGICV
    cmp  r1, r2
    beq  main_loop
    li   r1, 0
    la   r0, R_DECODED
    stw  r1, [r0]
    la   r0, R_REPLIED
    stw  r1, [r0]
    la   r0, R_MAGIC
    la   r1, R_MAGICV
    stw  r1, [r0]

main_loop:
    ; poll the demodulator for a frame
    la   r0, RF_RXST
    ldw  r1, [r0]
    cmpi r1, 0
    beq  main_loop

    ; software decode: read the command type, drain the payload
    la   r0, RF_RXBYTE
    ldw  r5, [r0]              ; r5 = type byte
    ldw  r1, [r0]              ; payload byte 0 (slot index)
    ldw  r1, [r0]              ; payload byte 1 (session)

    ; decode-cost loop (bit-level decoding work in the real firmware)
    li   r2, DECODE_LOOPS
__decode_work:
    addi r2, r2, -1
    cmpi r2, 0
    bne  __decode_work

    cmpi r5, MSG_QUERY
    beq  __reply
    cmpi r5, MSG_QUERYREP
    beq  __reply
    br   main_loop

__reply:
    la   r0, R_DECODED
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]

    ; assemble the reply frame: RSP_GENERIC + 12-byte EPC
    la   r0, RF_TXBYTE
    li   r1, MSG_RSP
    stw  r1, [r0]
    la   r2, EPC
    li   r3, 12
__tx_loop:
    ldb  r1, [r2]
    stw  r1, [r0]
    addi r2, r2, 1
    addi r3, r3, -1
    cmpi r3, 0
    bne  __tx_loop
    la   r0, RF_TXCTRL
    li   r1, 1
    stw  r1, [r0]
    la   r0, RF_TXST
__tx_wait:
    ldw  r1, [r0]
    cmpi r1, 0
    bne  __tx_wait

    la   r0, R_REPLIED
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]

    ; reply indicator
    la   r0, GPIO_TOGGLE
    li   r1, 1
    stw  r1, [r0]
)";
    if (options.withWatchpoints) {
        s << "    li   r1, " << rfid_ids::wpReplied << "\n"
          << "    call edb_watchpoint\n";
    }
    s << "    br   main_loop\n\nEPC:\n";
    s << ".byte ";
    for (std::size_t i = 0; i < wispEpc.size(); ++i) {
        s << unsigned(wispEpc[i])
          << (i + 1 < wispEpc.size() ? ", " : "\n");
    }
    s << ".align\n";
    s << runtime::libedbSource();
    return s.str();
}

isa::Program
buildRfidFirmware(const RfidFirmwareOptions &options)
{
    return isa::assemble(rfidFirmwareSource(options));
}

} // namespace edb::apps
