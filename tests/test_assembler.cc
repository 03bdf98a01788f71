/**
 * @file
 * Unit tests for the EH32 assembler: directives, expressions,
 * labels, pseudo-instructions and error reporting.
 */

#include <gtest/gtest.h>

#include "apps/activity.hh"
#include "apps/fibonacci.hh"
#include "apps/linked_list.hh"
#include "apps/rfid_firmware.hh"
#include "byte_soup.hh"
#include "isa/assembler.hh"
#include "sim/logging.hh"
#include "isa/isa.hh"
#include "isa/listing.hh"
#include <sstream>

using namespace edb::isa;

namespace {

/** Decode the i-th instruction word of the first segment. */
Instr
instrAt(const Program &program, std::size_t index)
{
    const auto &bytes = program.segments.front().bytes;
    std::uint32_t word = 0;
    for (int b = 0; b < 4; ++b) {
        word |= std::uint32_t(bytes.at(index * 4 + b)) << (8 * b);
    }
    auto decoded = decode(word);
    EXPECT_TRUE(decoded.has_value());
    return decoded.value_or(Instr{});
}

TEST(Assembler, EmptyProgram)
{
    Program p = assemble("; just a comment\n");
    EXPECT_EQ(p.totalBytes(), 0u);
    EXPECT_EQ(p.entry, 0x4000u);
}

TEST(Assembler, BasicInstructions)
{
    Program p = assemble(R"(
main:
    li   r1, 42
    mov  r2, r1
    add  r3, r1, r2
    halt
)");
    EXPECT_EQ(p.totalBytes(), 16u);
    EXPECT_EQ(p.entry, 0x4000u); // `main` symbol
    Instr li = instrAt(p, 0);
    EXPECT_EQ(li.op, Opcode::Li);
    EXPECT_EQ(li.rd, 1);
    EXPECT_EQ(li.imm, 42);
    Instr add = instrAt(p, 2);
    EXPECT_EQ(add.op, Opcode::Add);
    EXPECT_EQ(add.rd, 3);
    EXPECT_EQ(add.rs, 1);
    EXPECT_EQ(add.rt, 2);
}

TEST(Assembler, SpRegisterAlias)
{
    Program p = assemble("    addi sp, sp, -4\n");
    Instr i = instrAt(p, 0);
    EXPECT_EQ(i.rd, regSp);
    EXPECT_EQ(i.rs, regSp);
    EXPECT_EQ(i.imm, -4);
}

TEST(Assembler, MemoryOperands)
{
    Program p = assemble(R"(
    ldw  r1, [r2 + 8]
    stw  r1, [r2 - 4]
    ldb  r3, [r4]
)");
    EXPECT_EQ(instrAt(p, 0).imm, 8);
    EXPECT_EQ(instrAt(p, 1).imm, -4);
    EXPECT_EQ(instrAt(p, 2).imm, 0);
    EXPECT_EQ(instrAt(p, 2).rs, 4);
}

TEST(Assembler, BranchDisplacements)
{
    Program p = assemble(R"(
start:
    nop
    br   start
    beq  fwd
    nop
fwd:
    halt
)");
    // br at 0x4004 -> start 0x4000: disp = 0x4000 - 0x4008 = -8.
    EXPECT_EQ(instrAt(p, 1).imm, -8);
    // beq at 0x4008 -> fwd 0x4010: disp = 0x4010 - 0x400C = 4.
    EXPECT_EQ(instrAt(p, 2).imm, 4);
}

TEST(Assembler, CallAndEquExpressions)
{
    Program p = assemble(R"(
.equ BASE, 0x100
.equ OFFSET, BASE + 0x20
main:
    li   r1, OFFSET
    li   r2, OFFSET - 8
    call main
)");
    EXPECT_EQ(instrAt(p, 0).imm, 0x120);
    EXPECT_EQ(instrAt(p, 1).imm, 0x118);
    EXPECT_EQ(p.symbol("OFFSET"), 0x120u);
}

TEST(Assembler, CharLiterals)
{
    Program p = assemble(R"(
    li   r1, 'A'
    li   r2, '\n'
    li   r3, '\0'
)");
    EXPECT_EQ(instrAt(p, 0).imm, 'A');
    EXPECT_EQ(instrAt(p, 1).imm, '\n');
    EXPECT_EQ(instrAt(p, 2).imm, 0);
}

TEST(Assembler, LaExpandsToLuiOri)
{
    Program p = assemble(R"(
    la   r1, 0xF060
    la   r2, 0x12345678
)");
    EXPECT_EQ(p.totalBytes(), 16u);
    Instr lui = instrAt(p, 0);
    Instr ori = instrAt(p, 1);
    EXPECT_EQ(lui.op, Opcode::Lui);
    EXPECT_EQ(lui.imm, 0x0000);
    EXPECT_EQ(ori.op, Opcode::Ori);
    EXPECT_EQ(ori.imm, 0xF060);
    EXPECT_EQ(instrAt(p, 2).imm, 0x1234);
    EXPECT_EQ(instrAt(p, 3).imm, 0x5678);
}

TEST(Assembler, DataDirectives)
{
    Program p = assemble(R"(
.org 0x5000
val:  .word 0xCAFEBABE, 7
byt:  .byte 1, 2, 255
text: .asciz "hi\n"
    .align
    .space 4
end:
)");
    const auto &bytes = p.segments.front().bytes;
    EXPECT_EQ(p.segments.front().base, 0x5000u);
    EXPECT_EQ(bytes[0], 0xBE);
    EXPECT_EQ(bytes[3], 0xCA);
    EXPECT_EQ(bytes[4], 7);
    EXPECT_EQ(p.symbol("byt"), 0x5008u);
    EXPECT_EQ(bytes[10], 255);
    EXPECT_EQ(p.symbol("text"), 0x500Bu);
    EXPECT_EQ(bytes[11], 'h');
    EXPECT_EQ(bytes[13], '\n');
    EXPECT_EQ(bytes[14], 0); // NUL
    EXPECT_EQ(p.symbol("end") % 4, 0u);
    EXPECT_EQ(p.symbol("end"), 0x5000u + 16 + 4);
}

TEST(Assembler, OrgCreatesSegments)
{
    Program p = assemble(R"(
.org 0x4000
    nop
.org 0x6000
    halt
)");
    ASSERT_EQ(p.segments.size(), 2u);
    EXPECT_EQ(p.segments[0].base, 0x4000u);
    EXPECT_EQ(p.segments[1].base, 0x6000u);
    EXPECT_EQ(p.segments[1].bytes.size(), 4u);
}

TEST(Assembler, EntryAndIrqDirectives)
{
    Program p = assemble(R"(
.entry start
.irq handler
    nop
start:
    nop
handler:
    reti
)");
    EXPECT_EQ(p.entry, 0x4004u);
    EXPECT_EQ(p.irqHandler, 0x4008u);
}

TEST(Assembler, EntryDefaultsToMainThenBase)
{
    Program with_main = assemble("    nop\nmain:\n    halt\n");
    EXPECT_EQ(with_main.entry, 0x4004u);
    Program bare = assemble("    nop\n");
    EXPECT_EQ(bare.entry, 0x4000u);
}

TEST(Assembler, ForwardReferences)
{
    Program p = assemble(R"(
    la   r1, later
    ldw  r2, [r1]
later:
    .word 99
)");
    EXPECT_EQ(instrAt(p, 1).imm,
              static_cast<std::int32_t>(p.symbol("later") & 0xFFFF));
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    EXPECT_THROW(assemble("    frob r1, r2\n"), AsmError);
}

TEST(AssemblerErrors, UnknownDirective)
{
    EXPECT_THROW(assemble(".bogus 1\n"), AsmError);
}

TEST(AssemblerErrors, BadRegister)
{
    EXPECT_THROW(assemble("    mov r1, r16\n"), AsmError);
    EXPECT_THROW(assemble("    mov rx, r1\n"), AsmError);
    // Register numbers must not wrap: r4294967298 was r2.
    EXPECT_THROW(assemble("    mov r1, r4294967298\n"), AsmError);
    EXPECT_THROW(assemble("    mov r1, r12345678901234567890\n"),
                 AsmError);
}

TEST(AssemblerErrors, OperandCount)
{
    EXPECT_THROW(assemble("    add r1, r2\n"), AsmError);
    EXPECT_THROW(assemble("    nop r1\n"), AsmError);
}

TEST(AssemblerErrors, ImmediateRange)
{
    EXPECT_THROW(assemble("    li r1, 40000\n"), AsmError);
    EXPECT_THROW(assemble("    li r1, -40000\n"), AsmError);
    EXPECT_THROW(assemble("    andi r1, r1, -1\n"), AsmError);
    EXPECT_NO_THROW(assemble("    li r1, 32767\n"));
    EXPECT_NO_THROW(assemble("    andi r1, r1, 0xFFFF\n"));
    // Sums must not wrap (this one was `addi r1, r1, 0`), and a
    // memory offset's negation must not overflow.
    EXPECT_THROW(
        assemble("    addi r1, r1, 0x7fffffffffffffff + "
                 "0x7fffffffffffffff + 2\n"),
        AsmError);
    EXPECT_THROW(
        assemble("    ldw r1, [r2 - -9223372036854775807 - 1]\n"),
        AsmError);
    EXPECT_THROW(assemble("    .word 0x100000001\n"), AsmError);
    EXPECT_NO_THROW(assemble("    .word 0xFFFFFFFF\n"));
    // .word and .equ take any 32-bit pattern, signed or unsigned, and
    // nothing wider (these two assembled as 0).
    EXPECT_THROW(assemble("    .word 0x100000000\n"), AsmError);
    EXPECT_THROW(assemble("    .word -4294967296\n"), AsmError);
    EXPECT_THROW(assemble("    .word -2147483649\n"), AsmError);
    EXPECT_THROW(assemble(".equ big, 0x100000000\n"), AsmError);
    EXPECT_NO_THROW(assemble("    .word -2147483648\n"));
    EXPECT_NO_THROW(assemble(".equ neg, -1\n    .word neg\n"));
}

TEST(AssemblerErrors, NumberWithTrailingBytes)
{
    // Each of these assembled as its leading digits.
    EXPECT_THROW(assemble("    li r1, 12abc\n"), AsmError);
    EXPECT_THROW(assemble("    li r1, 0x10zz\n"), AsmError);
    EXPECT_THROW(assemble("    li r1, 5 6\n"), AsmError);
    EXPECT_THROW(assemble("    .word 7q\n"), AsmError);
    // Hex and octal literals still parse whole.
    EXPECT_EQ(instrAt(assemble("    li r1, 0x10 + 010 - 2\n"), 0).imm,
              16 + 8 - 2);
}

TEST(AssemblerErrors, LocationCounterStaysInAddressSpace)
{
    // Rejected in pass 1, before pass 2 allocates the space (this
    // one asked for a 2 GiB buffer).
    EXPECT_THROW(assemble("    .space 0x80000000\n"), AsmError);
    EXPECT_THROW(assemble(".org -4\n    nop\n"), AsmError);
    EXPECT_THROW(assemble(".org 0x10004\n"), AsmError);
    EXPECT_THROW(assemble(".org 0xFFFC\n    nop\n    nop\n"), AsmError);
    EXPECT_THROW(assemble(".org 0xFFF0\n    .space 17\n"), AsmError);
    // Filling the space up to its last byte is fine.
    EXPECT_NO_THROW(assemble(".org 0xFFFC\n    nop\n"));
    EXPECT_NO_THROW(assemble(".org 0xFFF0\n    .space 16\n"));
}

TEST(AssemblerErrors, SurvivesMutatedAppListings)
{
    // Assembler source is a byte surface: every mutant of a real
    // listing must assemble or throw AsmError, nothing else (the
    // sanitizer build runs the same inputs for undefined behaviour).
    const std::string bases[] = {
        edb::apps::linkedListSource(), edb::apps::fibonacciSource(),
        edb::apps::activitySource(), edb::apps::rfidFirmwareSource()};
    constexpr int trials = 2000;
    std::uint64_t state = 21;
    int rejected = 0;
    for (int trial = 0; trial < trials; ++trial) {
        const std::string text =
            edb::test::mutateText(bases[trial % 4], state);
        try {
            assemble(text);
        } catch (const AsmError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "trial " << trial << ": " << e.what();
        }
    }
    // The mutants reach the error paths, and not only them.
    EXPECT_GT(rejected, 0);
    EXPECT_LT(rejected, trials);
}

TEST(AssemblerErrors, BranchOutOfRange)
{
    EXPECT_THROW(assemble(R"(
.org 0x4000
    br far
.org 0xE000
far: nop
)"),
                 AsmError);
}

TEST(AssemblerErrors, DuplicateAndUndefinedSymbols)
{
    EXPECT_THROW(assemble("a:\na:\n"), AsmError);
    EXPECT_THROW(assemble("    li r1, missing\n"), AsmError);
    EXPECT_THROW(assemble(".entry nowhere\n    nop\n"), AsmError);
}

TEST(AssemblerErrors, MessagesIncludeLineNumbers)
{
    try {
        assemble("    nop\n    nop\n    frob\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Assembler, CommentsEverywhere)
{
    Program p = assemble(R"(
; full line
    li r1, 1   ; trailing
    li r2, ';'  # not a comment start inside char literal
# hash comment
)");
    EXPECT_EQ(p.totalBytes(), 8u);
    EXPECT_EQ(instrAt(p, 1).imm, ';');
}

TEST(Assembler, ProgramSymbolHelpers)
{
    Program p = assemble("here:\n    nop\n");
    EXPECT_TRUE(p.hasSymbol("here"));
    EXPECT_FALSE(p.hasSymbol("there"));
    EXPECT_THROW(p.symbol("there"), edb::sim::FatalError);
}

} // namespace

namespace {

TEST(Listing, AnnotatesSymbolsAndInstructions)
{
    Program p = assemble(R"(
main:
    li   r1, 42
    halt
msg: .asciz "hi"
.align
)");
    std::ostringstream oss;
    std::size_t lines = writeListing(oss, p);
    std::string text = oss.str();
    EXPECT_GT(lines, 4u);
    EXPECT_NE(text.find("main:"), std::string::npos);
    EXPECT_NE(text.find("msg:"), std::string::npos);
    EXPECT_NE(text.find("li r1, 42"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
    EXPECT_NE(text.find("entry 0x4000"), std::string::npos);
}

TEST(Listing, MaxLinesIsHonoured)
{
    Program p = assemble("main:\n    nop\n    nop\n    nop\n");
    std::ostringstream oss;
    ListingOptions options;
    options.maxLines = 3;
    EXPECT_EQ(writeListing(oss, p, options), 3u);
}

TEST(Listing, DataWordsShowAscii)
{
    std::string line = listingLine(0x5000, 0x00696868u, false);
    EXPECT_NE(line.find("\"hhi.\""), std::string::npos);
}

} // namespace
