/**
 * @file
 * The EH32 instruction set.
 *
 * EH32 is the small load/store ISA executed by the simulated target
 * MCU. It stands in for the MSP430 of the paper's WISP 5: what
 * matters for reproducing intermittence behaviour is not the ISA
 * flavour but that programs are sequences of discrete instructions,
 * each with a cycle cost, each of which a power failure can separate
 * from the next.
 *
 * Encoding: fixed 32-bit little-endian words.
 *
 *     [31:24] opcode
 *     [23:20] rd
 *     [19:16] rs
 *     [15:0]  imm16 (signed unless noted); R-type ops use imm[3:0]
 *             as rt
 *
 * Registers: r0..r15, all general purpose; r15 doubles as the stack
 * pointer (alias `sp`), r14 is the conventional link/temp register.
 * Flags (Z, N, C, V) are set by CMP/CMPI only; branches test flags.
 */

#ifndef EDB_ISA_ISA_HH
#define EDB_ISA_ISA_HH

#include <cstdint>
#include <optional>
#include <string>

namespace edb::isa {

/** Number of general-purpose registers. */
constexpr unsigned numRegs = 16;

/** Stack pointer register index (alias `sp`). */
constexpr unsigned regSp = 15;

/** EH32 opcodes. */
enum class Opcode : std::uint8_t
{
    Nop = 0x00,   ///< No operation.
    Halt = 0x01,  ///< Stop the core until reboot.

    Li = 0x02,    ///< rd = sext(imm16)
    Lui = 0x03,   ///< rd = imm16 << 16
    Mov = 0x04,   ///< rd = rs

    Add = 0x10,   ///< rd = rs + rt
    Sub = 0x11,   ///< rd = rs - rt
    Mul = 0x12,   ///< rd = rs * rt (low 32 bits)
    Divu = 0x13,  ///< rd = rs / rt (unsigned; rt==0 -> 0xFFFFFFFF)
    Remu = 0x14,  ///< rd = rs % rt (unsigned; rt==0 -> rs)
    And = 0x15,   ///< rd = rs & rt
    Or = 0x16,    ///< rd = rs | rt
    Xor = 0x17,   ///< rd = rs ^ rt
    Shl = 0x18,   ///< rd = rs << (rt & 31)
    Shr = 0x19,   ///< rd = rs >> (rt & 31), logical
    Sar = 0x1A,   ///< rd = rs >> (rt & 31), arithmetic

    Addi = 0x20,  ///< rd = rs + sext(imm16)
    Andi = 0x21,  ///< rd = rs & zext(imm16)
    Ori = 0x22,   ///< rd = rs | zext(imm16)
    Xori = 0x23,  ///< rd = rs ^ zext(imm16)
    Shli = 0x24,  ///< rd = rs << (imm16 & 31)
    Shri = 0x25,  ///< rd = rs >> (imm16 & 31), logical

    Cmp = 0x30,   ///< flags = rs - rt
    Cmpi = 0x31,  ///< flags = rs - sext(imm16)

    Br = 0x40,    ///< pc += sext(imm16) (relative to next instr)
    Beq = 0x41,   ///< branch if Z
    Bne = 0x42,   ///< branch if !Z
    Blt = 0x43,   ///< branch if N != V (signed <)
    Bge = 0x44,   ///< branch if N == V (signed >=)
    Bltu = 0x45,  ///< branch if !C (unsigned <)
    Bgeu = 0x46,  ///< branch if C (unsigned >=)

    Ldw = 0x50,   ///< rd = mem32[rs + sext(imm16)]
    Ldb = 0x51,   ///< rd = zext(mem8[rs + sext(imm16)])
    Stw = 0x52,   ///< mem32[rs + sext(imm16)] = rd
    Stb = 0x53,   ///< mem8[rs + sext(imm16)] = rd & 0xFF

    Push = 0x60,  ///< sp -= 4; mem32[sp] = rd
    Pop = 0x61,   ///< rd = mem32[sp]; sp += 4
    Call = 0x62,  ///< push return addr; pc += sext(imm16)
    Callr = 0x63, ///< push return addr; pc = rs
    Ret = 0x64,   ///< pc = pop()
    Reti = 0x65,  ///< pop pc then flags (return from debug IRQ)

    Chkpt = 0x70, ///< request a hardware checkpoint (see CheckpointUnit)
};

/** Condition flags produced by CMP/CMPI. */
struct Flags
{
    bool z = false; ///< Zero.
    bool n = false; ///< Negative.
    bool c = false; ///< Carry (no borrow) — unsigned >=.
    bool v = false; ///< Signed overflow.

    /** Pack into a word for stacking on interrupt entry. */
    std::uint32_t
    pack() const
    {
        return (z ? 1u : 0u) | (n ? 2u : 0u) | (c ? 4u : 0u) |
               (v ? 8u : 0u);
    }

    /** Unpack from a stacked word. */
    static Flags
    unpack(std::uint32_t w)
    {
        Flags f;
        f.z = w & 1u;
        f.n = w & 2u;
        f.c = w & 4u;
        f.v = w & 8u;
        return f;
    }
};

/** Decoded instruction. */
struct Instr
{
    Opcode op = Opcode::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::uint8_t rt = 0;
    std::int32_t imm = 0; ///< Sign-extended imm16.

    bool operator==(const Instr &) const = default;
};

/** Encode an instruction into its 32-bit word. */
std::uint32_t encode(const Instr &instr);

/** Decode a 32-bit word; nullopt for an unknown opcode. */
std::optional<Instr> decode(std::uint32_t word);

/** Mnemonic for an opcode ("add", "ldw", ...). */
const char *mnemonic(Opcode op);

/** Parse a mnemonic; nullopt when unknown. */
std::optional<Opcode> opcodeFromMnemonic(const std::string &name);

/** Human-readable disassembly of one instruction. */
std::string disassemble(const Instr &instr);

/** True for opcodes whose imm16 is a branch displacement. */
bool isBranch(Opcode op);

/**
 * Base cycle cost of an opcode at the core clock (memory and
 * peripheral accesses add extra cycles; see McuConfig).
 */
unsigned baseCycles(Opcode op);

} // namespace edb::isa

#endif // EDB_ISA_ISA_HH
