#include "apps/activity.hh"

#include <sstream>

#include "isa/assembler.hh"
#include "runtime/libedb.hh"
#include "sensors/accelerometer.hh"

namespace edb::apps {

namespace {

/** Accelerometer samples per classification window. */
constexpr unsigned windowSize = 8;
/** Per-sample deviation threshold for "moving". */
constexpr unsigned threshold = 350;

} // namespace

std::string
activitySource(const ActivityOptions &options)
{
    namespace lay = activity_layout;
    std::ostringstream s;
    s << runtime::programHeader();
    s << ".equ A_MAGIC, " << lay::magicAddr << "\n"
      << ".equ A_TOTAL, " << lay::totalAddr << "\n"
      << ".equ A_MOVING, " << lay::movingAddr << "\n"
      << ".equ A_STILL, " << lay::stillAddr << "\n"
      << ".equ A_STARTED, " << lay::startedAddr << "\n"
      << ".equ A_ARGV, " << lay::argvAddr << "\n"
      << ".equ A_MAGICV, " << lay::magicValue << "\n"
      << ".equ ACCEL_ADDR, "
      << unsigned(sensors::Accelerometer::busAddress) << "\n"
      << ".equ WINDOW, " << windowSize << "\n"
      << ".equ WINTH, " << windowSize * threshold
      << "\n"
      << ".equ NUMBUF, 0x2F00\n";

    auto wp = [&](unsigned id) {
        if (options.withWatchpoints) {
            s << "    li   r1, " << id << "\n"
              << "    call edb_watchpoint\n";
        }
    };

    s << R"(
main:
    la   r0, A_MAGIC
    ldw  r1, [r0]
    la   r2, A_MAGICV
    cmp  r1, r2
    beq  main_loop
    li   r1, 0
    la   r0, A_TOTAL
    stw  r1, [r0]
    la   r0, A_MOVING
    stw  r1, [r0]
    la   r0, A_STILL
    stw  r1, [r0]
    la   r0, A_STARTED
    stw  r1, [r0]
    la   r0, A_MAGIC
    la   r1, A_MAGICV
    stw  r1, [r0]

main_loop:
    ; attempted-iteration counter (success rate denominator)
    la   r0, A_STARTED
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]
)";
    wp(activity_ids::wpIterStart);
    s << R"(
    ; sample a window of accelerometer readings, accumulating the
    ; magnitude deviation |x| + |y| + |z - 1g|
    li   r5, WINDOW
    li   r6, 0
__win_loop:
    li   r1, 1                 ; X axis (latches a fresh sample)
    call read_axis16
    call abs32
    add  r6, r6, r0
    li   r1, 3                 ; Y axis
    call read_axis16
    call abs32
    add  r6, r6, r0
    li   r1, 5                 ; Z axis
    call read_axis16
    addi r0, r0, -1024
    call abs32
    add  r6, r6, r0
    addi r5, r5, -1
    cmpi r5, 0
    bne  __win_loop

    ; nearest-centroid style classification
    cmpi r6, WINTH
    blt  __still
    la   r0, A_MOVING
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]
)";
    wp(activity_ids::wpMoving);
    s << R"(
    br   __classified
__still:
    la   r0, A_STILL
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]
)";
    wp(activity_ids::wpStationary);
    s << "__classified:\n";

    switch (options.output) {
      case ActivityOutput::None:
        break;
      case ActivityOutput::UartPrintf:
        s << R"(
    ; UART trace: "it=<total> m=<moving>\n" formatted on target
    la   r1, S_IT
    call uart_puts
    la   r0, A_TOTAL
    ldw  r1, [r0]
    call uart_putnum
    la   r1, S_M
    call uart_puts
    la   r0, A_MOVING
    ldw  r1, [r0]
    call uart_putnum
    li   r1, '\n'
    call uart_putc
)";
        break;
      case ActivityOutput::EdbPrintf:
        s << R"(
    ; EDB printf: host formats; target ships fmt + 2 arg words
    la   r0, A_TOTAL
    ldw  r1, [r0]
    la   r2, A_ARGV
    stw  r1, [r2]
    la   r0, A_MOVING
    ldw  r1, [r0]
    stw  r1, [r2 + 4]
    la   r1, S_FMT
    li   r2, 2
    la   r3, A_ARGV
    call edb_printf
)";
        break;
    }
    // The instrumentation is part of the loop body: an iteration
    // only counts as complete once its debug output is out (this is
    // what makes the output's cost visible in the success rate).
    s << R"(
    la   r0, A_TOTAL
    ldw  r1, [r0]
    addi r1, r1, 1
    stw  r1, [r0]
    br   main_loop
)";

    // Helper routines.
    s << R"(
; read_axis16: r1 = high-byte register; r0 = sign-extended reading
read_axis16:
    push r5
    mov  r5, r1
    call i2c_read_reg
    push r0
    addi r1, r5, 1
    call i2c_read_reg
    pop  r2
    shli r2, r2, 8
    or   r0, r0, r2
    shli r0, r0, 16
    li   r2, 16
    sar  r0, r0, r2
    pop  r5
    ret

; i2c_read_reg: r1 = register; r0 = byte read from the accelerometer
i2c_read_reg:
    la   r0, I2C_ADDR
    li   r2, ACCEL_ADDR
    stw  r2, [r0]
    la   r0, I2C_REG
    stw  r1, [r0]
    la   r0, I2C_CTRL
    li   r2, 1
    stw  r2, [r0]
    la   r0, I2C_STATUS
__i2c_wait:
    ldw  r2, [r0]
    andi r2, r2, 2
    cmpi r2, 0
    beq  __i2c_wait
    la   r0, I2C_DATA
    ldw  r0, [r0]
    ret

; abs32: r0 = |r0|
abs32:
    cmpi r0, 0
    bge  __abs_done
    li   r2, 0
    sub  r0, r2, r0
__abs_done:
    ret
)";

    if (options.output == ActivityOutput::UartPrintf) {
        s << R"(
; uart_putc: r1 = character
uart_putc:
    la   r0, UART0_STATUS
__upc_wait:
    ldw  r2, [r0]
    andi r2, r2, 1
    cmpi r2, 0
    bne  __upc_wait
    la   r0, UART0_TX
    stw  r1, [r0]
    ret

; uart_puts: r1 = NUL-terminated string address
uart_puts:
    push r5
    mov  r5, r1
__ups_loop:
    ldb  r1, [r5]
    cmpi r1, 0
    beq  __ups_done
    call uart_putc
    addi r5, r5, 1
    br   __ups_loop
__ups_done:
    pop  r5
    ret

; uart_putnum: r1 = unsigned value, printed in decimal
uart_putnum:
    push r5
    push r6
    push r7
    mov  r5, r1
    la   r6, NUMBUF + 11
    li   r0, 0
    stb  r0, [r6]
__upn_digits:
    addi r6, r6, -1
    li   r7, 10
    remu r0, r5, r7
    addi r1, r0, '0'
    stb  r1, [r6]
    divu r5, r5, r7
    cmpi r5, 0
    bne  __upn_digits
__upn_out:
    ldb  r1, [r6]
    cmpi r1, 0
    beq  __upn_done
    push r6
    call uart_putc
    pop  r6
    addi r6, r6, 1
    br   __upn_out
__upn_done:
    pop  r7
    pop  r6
    pop  r5
    ret

S_IT: .asciz "it="
S_M:  .asciz " m="
.align
)";
    }
    if (options.output == ActivityOutput::EdbPrintf) {
        s << "S_FMT: .asciz \"it=%u m=%u\\n\"\n.align\n";
    }
    s << runtime::libedbSource();
    return s.str();
}

isa::Program
buildActivityApp(const ActivityOptions &options)
{
    return isa::assemble(activitySource(options));
}

} // namespace edb::apps
